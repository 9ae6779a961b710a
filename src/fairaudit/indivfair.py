"""Individual-level audits.

Lipschitz audit: flag record pairs whose outputs differ more than L times
their Mahalanobis feature distance allows.  Attribute-reconstruction audit:
cross-validated attacker predicting the protected attribute from everything
an adversary could see; AUC near 0.5 means the attribute leaves no trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset, DegenerateGroupError, PredictionSet
from . import mitigate, rocstats

__all__ = [
    "LipschitzAuditResult",
    "lipschitz_audit",
    "ReconstructionAuditResult",
    "reconstruction_audit",
]

EXACT_PAIR_LIMIT = 2000  # exact enumeration up to n(n-1)/2 pairs of this n
SAMPLED_PAIRS = 2_000_000
PAIR_BLOCK = 65_536  # pairs checked at a time


@dataclass
class LipschitzAuditResult:
    violations: int
    checked_pairs: int
    worst_ratio: float | None  # None where some d_x = 0 < d_y
    top_pairs: list[dict] = field(default_factory=list)
    exact: bool = True
    mode: str = "score"  # the only mode; a key of the report
    scale: float = 1.0


def _mahalanobis_factor(features: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Whitening matrix W with d(x, x') = ||W (x - x')||.

    The covariance gets a ridge of 1e-8 * trace/dim, which keeps it
    invertible and preserves exact invariance under common rescaling of all
    features.  A covariance that overflows raises ``DataError`` naming the
    first feature whose row of it is not finite.
    """
    n, p = features.shape
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.cov(features, rowvar=False, bias=True).reshape(p, p)
        ridge = 1e-8 * max(np.trace(cov), 1e-300) / p
        cov = cov + ridge * np.eye(p)
    finite = np.isfinite(cov).all(axis=1)
    if not finite.all():
        name = names[int(np.argmin(finite))]
        raise DataError(f"feature {name!r} is too large for the Mahalanobis distance")
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, 1e-300)
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def _pair_distances(white: np.ndarray, bi, bj) -> np.ndarray:
    """Rows of ``np.linalg.norm(white[bi] - white[bj], axis=1)``, bit for bit.

    numpy's ``add.reduce`` sums a row of fewer than 8 terms in column order,
    so below 8 features the squared differences are gathered and added one
    column at a time and no (m, p) block is built; ``lipschitz_audit`` holds
    ``white`` feature-major there, so each column is contiguous.  It sums
    longer rows pairwise, so from 8 features on the norm call stays.
    """
    if white.shape[1] >= 8:
        return np.linalg.norm(np.take(white, bi, axis=0) - np.take(white, bj, axis=0), axis=1)
    acc = np.zeros(len(bi))
    for col in white.T:
        sq = np.take(col, bi)
        sq -= np.take(col, bj)
        sq *= sq
        acc += sq
    return np.sqrt(acc, out=acc)


def _check_block(white, out, bi, bj, scale, top_k):
    """Violation count, largest ratio and the top_k violating pairs
    (ratio, i, j, d_y, d_x) of the pairs (bi, bj), worst first.

    A function of its own, so one block's arrays are freed before the next
    block allocates.
    """
    dx = _pair_distances(white, bi, bj)
    dyv = np.take(out, bi)
    dyv -= np.take(out, bj)
    np.abs(dyv, out=dyv)
    bad = np.flatnonzero(dyv > scale * dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dyv / dx
    # d_x = 0 (or NaN): inf for a positive d_y, 0 for 0/0
    degenerate = np.flatnonzero(~(dx > 0))
    ratio[degenerate] = np.where(dyv[degenerate] > 0, np.inf, 0.0)
    top = [
        (float(ratio[k]), int(bi[k]), int(bj[k]), float(dyv[k]), float(dx[k]))
        for k in bad[np.argsort(-ratio[bad], kind="stable")][:top_k]
    ]
    return len(bad), float(np.max(ratio, initial=0.0)), top


def _pair_blocks(n: int, seed: int):
    """The audited pairs (bi, bj) in intp blocks of at most PAIR_BLOCK: the
    exact ``np.triu_indices(n, 1)`` a few rows at a time, or one generator's
    SAMPLED_PAIRS draws of ``ii`` then of ``jj``, less self pairs.  A second
    generator skips the ``ii`` draws, so a block takes ``bi`` from the first
    and ``bj`` from the second: numpy keeps the spare half of a 64-bit output
    in the bit generator, so blocks of bounded 32-bit draws join up."""
    if n <= EXACT_PAIR_LIMIT:
        rows = max(1, PAIR_BLOCK // n)
        for a in range(0, n - 1, rows):
            bi, bj = np.nonzero(np.triu(np.ones((min(rows, n - 1 - a), n), bool), k=a + 1))
            yield bi + a, bj
        return
    # below 2^31 both widths take numpy's buffered 32-bit bounded draw,
    # so int32 pairs are the int64 stream's values in half the memory
    dtype = np.int32 if n < 2**31 else np.int64
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = [min(PAIR_BLOCK, SAMPLED_PAIRS - a) for a in range(0, SAMPLED_PAIRS, PAIR_BLOCK)]
    for m in sizes:
        second.integers(0, n, size=m, dtype=dtype)
    for m in sizes:
        bi, bj = first.integers(0, n, size=m, dtype=dtype), second.integers(0, n, size=m, dtype=dtype)
        keep = bi != bj  # intp: np.take would convert int32 indices on every call
        yield bi[keep].astype(np.intp, copy=False), bj[keep].astype(np.intp, copy=False)


def lipschitz_audit(
    d: Dataset,
    scale: float = 1.0,
    top_k: int = 10,
    seed: int = 0,
) -> LipschitzAuditResult:
    """Count pairs with d_y > scale * d_x.

    d_y compares scores (|m_i - m_j|, mode "score"); d_x is the Mahalanobis
    distance over the feature columns.  The pure similarity inequality has
    no free constant, so ``scale`` makes it non-vacuous and is reported
    back; it must be at least 0.  Exact enumeration up to n = 2000; beyond
    that a seeded sample of 2e6 pairs is audited and flagged as non-exact.
    The pairs are made and checked PAIR_BLOCK at a time, so no array of all
    pairs is held; ``checked_pairs`` counts the sampled pairs that are not
    of a record with itself.

    d_x sums the squared whitened differences in column order below 8
    features and as ``np.linalg.norm`` does (pairwise) from 8 on, which is
    numpy's own order in both cases, so every distance equals
    ``np.linalg.norm(white[i] - white[j])``.  The ratio d_y / d_x is 0 where
    both are 0, and None (unbounded, ranked first) where d_x = 0 < d_y.
    """
    if not scale >= 0:
        raise ValueError(f"Lipschitz scale must be at least 0, got {scale!r}")
    if d.features is None:
        raise DataError("lipschitz audit requires feature columns")
    if np.isnan(d.features).any():
        raise DataError("lipschitz audit requires complete features")
    n = len(d)
    if n < 2:
        raise DataError("need at least two records")
    out = d.require_scores()

    white = d.features @ _mahalanobis_factor(d.features, d.feature_names).T
    if white.shape[1] < 8:  # one copy, feature-major: see _pair_distances
        white = np.ascontiguousarray(white.T).T

    violations = checked = 0
    worst = 0.0
    top: list[tuple[float, int, int, float, float]] = []
    for bi, bj in _pair_blocks(n, seed):
        checked += len(bi)
        v, w, t = _check_block(white, out, bi, bj, scale, top_k)
        violations += v
        worst = max(worst, w)
        top.extend(t)
    top.sort(key=lambda t: -t[0])
    top_pairs = [
        {"i": i, "j": j, "d_y": dy, "d_x": dx, "ratio": None if r == np.inf else r}
        for r, i, j, dy, dx in top[:top_k]
    ]
    return LipschitzAuditResult(
        violations=violations,
        checked_pairs=checked,
        worst_ratio=None if worst == np.inf else worst,
        top_pairs=top_pairs,
        exact=n <= EXACT_PAIR_LIMIT,
        scale=scale,
    )


@dataclass
class ReconstructionAuditResult:
    auc: float
    features_used: tuple[str, ...]
    folds: int
    fold_aucs: tuple[float, ...]
    seed: int


def reconstruction_audit(
    d: Dataset,
    pred: PredictionSet | None = None,
    folds: int = 5,
    seed: int = 0,
) -> ReconstructionAuditResult:
    """Mean held-out AUC of a logistic attacker predicting s.

    The attacker sees the features plus, when available, the score, the
    decision and the outcome.  Folds are stratified by s, and each group needs
    2 records, so every fold trains and tests on both.  Deterministic given the seed.
    """
    sizes = [np.count_nonzero(d.require_group(g)) for g in (0, 1)]
    if min(sizes) < 2:
        raise DegenerateGroupError("reconstruction audit needs 2 records in each group")

    blocks: list[np.ndarray] = []
    names: list[str] = []
    if d.features is not None:
        if np.isnan(d.features).any():
            raise DataError("reconstruction audit requires complete features")
        blocks.append(d.features)
        names.extend(d.feature_names)
    if d.score is not None:
        blocks.append(d.score[:, None])
        names.append("score")
    if pred is not None:
        blocks.append(pred.prob[:, None])
        names.append("yhat")
    blocks.append(d.y[:, None].astype(float))
    names.append("y")

    folds = max(2, min(folds, *sizes))
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(d), dtype=int)
    for g in (0, 1):
        idx = np.flatnonzero(d.s == g)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % folds

    fold_aucs = []
    for f in range(folds):
        test = fold_of == f
        train = ~test
        train_data = Dataset(
            s=d.s[train],
            y=d.s[train],  # attacker target: the protected attribute
            features=np.hstack(blocks)[train],  # no n x p design is kept
            weight=d.weight[train],
            feature_names=names,
        )
        model = mitigate.train_logistic(train_data)
        attack_score = model.predict_score(np.hstack(blocks)[test])
        held = Dataset(s=d.s[test], y=d.s[test], score=attack_score, weight=d.weight[test])
        fold_aucs.append(rocstats.auc(rocstats.roc_curve(held)))
    return ReconstructionAuditResult(
        auc=float(np.mean(fold_aucs)),
        features_used=tuple(names),
        folds=folds,
        fold_aucs=tuple(float(a) for a in fold_aucs),
        seed=seed,
    )
