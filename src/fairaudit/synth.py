"""Seeded synthetic score/outcome generator with per-(y, s) Beta cells.

Reproducibility contract
------------------------
All randomness flows from a Philox 4x64 counter-based bit generator (a
published, splittable, language-portable algorithm) keyed by the 64-bit
seed.  On top of its uniform stream the samplers are explicit:

* uniforms: 64-bit doubles in [0, 1), drawn in stream order;
* normals: inverse-CDF transform of one uniform each, by
  ``scipy.special.ndtri`` (bit-identical datasets depend on that function,
  so it is the one scipy import in the package outside the probit link);
* Gamma(a >= 1): the Marsaglia-Tsang squeeze (d = a - 1/3, c = 1/sqrt(9d));
  every candidate consumes one normal and one uniform, in stream order, and
  rejected candidates' draws are discarded;
* Gamma(a < 1): Gamma(a + 1) * u^(1/a) with one extra uniform per draw,
  consumed after the boosted Gamma block;
* Beta(a, b) = G_a / (G_a + G_b): the full G_a block is drawn before the
  G_b block.

Candidates are generated in blocks sized to the number of still-missing
draws, which leaves the accepted sequence independent of block boundaries.
Identical (spec, n, seed) therefore give bit-identical datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from ._common import ks_distance
from .data import Dataset

__all__ = [
    "BetaSpec",
    "beta_sample",
    "sample_scores",
    "invariance_check",
    "uniform_spec",
    "operating_point_spec",
]

CELL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))  # (y, s), fixed draw order


class _Stream:
    """Philox-backed uniform source (one derived stream per (seed, index))."""

    def __init__(self, seed: int, index: int = 0):
        self._gen = np.random.Generator(np.random.Philox(key=(seed, index)))

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)


def _gamma_at_least_one(stream: _Stream, alpha: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler for shape alpha >= 1."""
    from scipy.special import ndtri  # the normal transform of the module docstring

    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        k = n - filled
        x = ndtri(stream.uniforms(k))
        u = stream.uniforms(k)
        v = (1.0 + c * x) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (v > 0) & (np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(v))
        accepted = d * v[ok]
        out[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    return out


def _gamma(stream: _Stream, alpha: float, n: int) -> np.ndarray:
    if alpha <= 0:
        raise ValueError("gamma shape must be positive")
    if alpha >= 1.0:
        return _gamma_at_least_one(stream, alpha, n)
    g = _gamma_at_least_one(stream, alpha + 1.0, n)
    u = stream.uniforms(n)
    return g * u ** (1.0 / alpha)


def beta_sample(alpha: float, beta: float, n: int, stream: _Stream) -> np.ndarray:
    """Beta draws via the ratio of two Gamma blocks."""
    ga = _gamma(stream, alpha, n)
    gb = _gamma(stream, beta, n)
    return ga / (ga + gb)


@dataclass(frozen=True)
class BetaSpec:
    """Shape parameters and probability for each (y, s) cell.

    cells maps (y, s) -> (alpha, beta, prob); the probs must sum to 1.
    """

    cells: Mapping[tuple[int, int], tuple[float, float, float]]

    def __post_init__(self):
        if set(self.cells) != set(CELL_ORDER):
            raise ValueError(f"cells must cover exactly {CELL_ORDER}")
        total = 0.0
        for key, (a, b, p) in self.cells.items():
            if a <= 0 or b <= 0:
                raise ValueError(f"cell {key}: shape parameters must be positive")
            if p < 0:
                raise ValueError(f"cell {key}: negative probability")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cell probabilities sum to {total}, expected 1")

    def to_json_dict(self) -> dict:
        return {
            f"{y},{s}": {"alpha": a, "beta": b, "prob": p}
            for (y, s), (a, b, p) in sorted(self.cells.items())
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "BetaSpec":
        cells = {}
        for key, spec in d.items():
            y, s = (int(v) for v in key.split(","))
            cells[(y, s)] = (float(spec["alpha"]), float(spec["beta"]), float(spec["prob"]))
        return cls(cells=cells)


def sample_scores(spec: BetaSpec, n: int, seed: int) -> Dataset:
    """Draw (y, s) from the cell distribution, then score ~ Beta(cell).

    Cell membership uses one uniform per record; scores are then drawn cell
    by cell in CELL_ORDER and assigned to that cell's records in record
    order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = _Stream(seed)
    probs = np.array([spec.cells[c][2] for c in CELL_ORDER])
    cum = np.cumsum(probs)
    u = stream.uniforms(n)
    cell_idx = np.searchsorted(cum, u, side="right")
    cell_idx = np.minimum(cell_idx, len(CELL_ORDER) - 1)

    score = np.empty(n)
    y = np.empty(n, dtype=int)
    s = np.empty(n, dtype=int)
    for k, (yv, sv) in enumerate(CELL_ORDER):
        mask = cell_idx == k
        y[mask], s[mask] = yv, sv
        count = int(mask.sum())
        if count:
            a, b, _ = spec.cells[(yv, sv)]
            score[mask] = beta_sample(a, b, count, stream)
    return Dataset(s=s, y=y, score=score)


def invariance_check(alpha: float, beta: float, p0: float, n: int, seed: int) -> float:
    """Truncation-rescaling distance for a Beta law.

    Samples Beta(alpha, beta), keeps x <= p0, rescales by 1/p0 and returns
    the two-sample KS distance between the rescaled subsample and the full
    sample.  Power laws (beta = 1) are the only invariant family, so the
    distance is sampling noise for them and bounded away from zero
    otherwise.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    if n < 1000:
        raise ValueError("n must be >= 1000")
    x = beta_sample(alpha, beta, n, _Stream(seed))
    kept = x[x <= p0]
    if len(kept) < 100:
        raise ValueError(
            f"only {len(kept)} samples fall below p0={p0}; increase n"
        )
    return ks_distance(kept / p0, x)


def uniform_spec() -> BetaSpec:
    """Beta(1, 1) in every cell, equal cell probabilities."""
    return BetaSpec(cells={c: (1.0, 1.0, 0.25) for c in CELL_ORDER})


def operating_point_spec() -> BetaSpec:
    """The committed spec calibrated to hit TPR 66.3% / FPR 9.6% at t=0.6."""
    payload = resources.files("fairaudit.datasets").joinpath("operating_point.json")
    data = json.loads(payload.read_text(encoding="utf-8"))
    return BetaSpec.from_json_dict(data["cells"])
