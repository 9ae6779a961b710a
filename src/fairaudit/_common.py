"""Small shared numeric helpers and the strict JSON writer."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _dump_json(obj, path: Path | None) -> str:
    """Strict JSON text (sorted keys, no NaN or infinity), written to ``path``
    when one is given; nothing is written when the object does not encode."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default, allow_nan=False) + "\n"
    if path is not None:
        path.write_text(text, encoding="utf-8")
    return text


def weighted_mean(x: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * x) / np.sum(w))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in which tied values share their mean rank (the
    "average" ranks of ``scipy.stats.rankdata``)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    counts = np.diff(np.r_[starts, len(values)])
    mid = (starts + 1) + (counts - 1) / 2
    ranks = np.empty(len(values))
    ranks[order] = mid[np.cumsum(first) - 1]
    return ranks


def ks_distance(a, b, wa=None, wb=None) -> float:
    """Two-sample Kolmogorov-Smirnov distance, optionally weighted.

    Sup over the merged support of the absolute difference between the two
    (weighted) empirical CDFs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("need non-empty samples")
    wa = np.ones(len(a)) if wa is None else np.asarray(wa, dtype=float)
    wb = np.ones(len(b)) if wb is None else np.asarray(wb, dtype=float)

    grid = np.union1d(a, b)
    ia = np.argsort(a, kind="stable")
    ib = np.argsort(b, kind="stable")
    ca = np.cumsum(wa[ia]) / np.sum(wa)
    cb = np.cumsum(wb[ib]) / np.sum(wb)
    # CDF value at grid point = cumulative weight of samples <= point
    fa = np.concatenate(([0.0], ca))[np.searchsorted(a[ia], grid, side="right")]
    fb = np.concatenate(([0.0], cb))[np.searchsorted(b[ib], grid, side="right")]
    return float(np.max(np.abs(fa - fb)))


def ks_two_sample_critical(n1: int, n2: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given significance level."""
    coeff = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
    if level not in coeff:
        raise ValueError(f"unsupported level {level}; use one of {sorted(coeff)}")
    return coeff[level] * np.sqrt((n1 + n2) / (n1 * n2))
