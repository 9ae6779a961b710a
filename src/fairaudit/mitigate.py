"""Discrimination correction.

Pre-processing: label massaging, pairwise reweighting, quantile repair.
In-processing: penalized logistic/probit training, quasi-Newton (BFGS).
Post-processing: accuracy-optimal per-group thresholds, and mixtures of up
to three thresholds that equalize error rates exactly.

The trainer is deterministic (zero init, BFGS with an Armijo backtracking
line search from the unit step); fairness penalties are quadratic in the
relevant correlation so the objective is smooth and magnitude-penalizing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._common import _dump_json, _midranks, cell_sums
from .data import (
    DataError,
    Dataset,
    DegenerateGroupError,
    ThresholdMixture,
    ThresholdPolicy,
)
from . import rocstats

__all__ = [
    "LinearModel",
    "PenaltySpec",
    "TrainOptions",
    "train_logistic",
    "MassageResult",
    "massage_labels",
    "ReweighResult",
    "reweigh",
    "RepairResult",
    "di_remove",
    "ThresholdSearchResult",
    "per_group_thresholds",
    "EqualizedOddsResult",
    "equalize_odds",
]


# ---------------------------------------------------------------------------
# Penalized logistic / probit training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltySpec:
    """Fairness penalty added to the mean log-loss.

    dp_correlation: lam * cor(m(x), s)^2
    eo_correlation: lam0 * cor(m(x), s | y=0)^2 + lam1 * cor(m(x), s | y=1)^2
    dp_maxcor:      lam * R^2(s ~ poly(m(x))), the squared multiple
                    correlation of s on a polynomial basis of the score,
                    i.e. the squared basis-restricted maximal correlation.
    """

    kind: str = "none"
    lam: float = 0.0
    lam0: float = 0.0
    lam1: float = 0.0
    degree: int = 3

    def __post_init__(self):
        if self.kind not in ("none", "dp_correlation", "eo_correlation", "dp_maxcor"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if min(self.lam, self.lam0, self.lam1) < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls(kind="none")

    @classmethod
    def dp_correlation(cls, lam: float) -> "PenaltySpec":
        return cls(kind="dp_correlation", lam=lam)

    @classmethod
    def eo_correlation(cls, lam0: float, lam1: float) -> "PenaltySpec":
        return cls(kind="eo_correlation", lam0=lam0, lam1=lam1)

    @classmethod
    def dp_maxcor(cls, lam: float, degree: int = 3) -> "PenaltySpec":
        return cls(kind="dp_maxcor", lam=lam, degree=degree)


@dataclass(frozen=True)
class TrainOptions:
    tol: float = 1e-7  # gradient-norm stopping rule
    max_iter: int = 2000


@dataclass
class LinearModel:
    """Linear score model on the original feature scale."""

    coef: np.ndarray
    intercept: float
    link: str = "logistic"
    converged: bool = True
    diverged: bool = False
    n_iter: int = 0
    standardization: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        if self.link not in ("logistic", "probit"):
            raise ValueError(f"unknown link {self.link!r}")

    def linear(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.coef):
            raise ValueError("feature matrix does not match coefficient count")
        return X @ self.coef + self.intercept

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        z = self.linear(X)
        if self.link == "logistic":
            return _sigmoid(z)
        from scipy.special import ndtr  # the probit link is the only user of scipy here

        return ndtr(z)

    @classmethod
    def from_json_dict(cls, d: dict) -> "LinearModel":
        return cls(
            coef=np.asarray(d["coef"], dtype=float),
            intercept=float(d["intercept"]),
            link=d["link"],
            converged=bool(d.get("converged", True)),
            diverged=bool(d.get("diverged", False)),
            n_iter=int(d.get("n_iter", 0)),
            standardization=d.get("standardization", {}),
        )

    def save(self, path) -> None:
        _dump_json(asdict(self), Path(path))

    @classmethod
    def load(cls, path) -> "LinearModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, without
    # masks: exp(-|z|) is exp(-z) or exp(z), so each element gets the same
    # exp and division, and exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _loss_and_dz(z: np.ndarray, y: np.ndarray, link: str):
    """Per-record negative log-likelihood, its derivative in z and, for the
    logistic link, the score sigmoid(z) that derivative is built from (None
    for probit)."""
    if link == "logistic":
        m = _sigmoid(z)
        # softplus(z) - y z, stable for large |z|
        loss = np.logaddexp(0.0, z) - y * z
        return loss, m - y, m
    # probit
    from scipy.special import log_ndtr

    log_p = log_ndtr(z)
    log_q = log_ndtr(-z)
    loss = -(y * log_p + (1 - y) * log_q)
    log_phi = -0.5 * z**2 - 0.5 * math.log(2 * math.pi)
    dz = (1 - y) * np.exp(log_phi - log_q) - y * np.exp(log_phi - log_p)
    return loss, dz, None


def _corr_sq_and_grad(m: np.ndarray, target: np.ndarray, wn: np.ndarray):
    """Squared weighted Pearson correlation of m with a fixed target,
    plus its gradient in m.  Degenerate variance yields (0, 0)."""
    mbar = np.sum(wn * m)
    tbar = np.sum(wn * target)
    dm = m - mbar
    dt = target - tbar
    vm = np.sum(wn * dm**2)
    vt = np.sum(wn * dt**2)
    if vm <= 1e-300 or vt <= 1e-300:
        return 0.0, np.zeros_like(m)
    cov = np.sum(wn * dm * dt)
    c = cov / math.sqrt(vm * vt)
    dc = (wn / math.sqrt(vm)) * (dt / math.sqrt(vt) - c * dm / math.sqrt(vm))
    return c * c, 2.0 * c * dc


def _maxcor_sq_and_grad(m: np.ndarray, svals: np.ndarray, wn: np.ndarray, degree: int):
    """Squared multiple correlation of s on (m, m^2, ..., m^degree) and its
    gradient in m; this is the squared maximal correlation restricted to the
    polynomial span."""
    sbar = np.sum(wn * svals)
    ds = svals - sbar
    vs = np.sum(wn * ds**2)
    if vs <= 1e-300:
        return 0.0, np.zeros_like(m)
    powers = np.arange(1, degree + 1)
    F = m[:, None] ** powers[None, :]
    dF = powers[None, :] * m[:, None] ** (powers[None, :] - 1)
    Fc = F - np.sum(wn[:, None] * F, axis=0)
    g = Fc.T @ (wn * ds)
    A = Fc.T @ (wn[:, None] * Fc)
    A = A + np.eye(degree) * (1e-10 * max(np.trace(A), 1e-30) / degree)
    coef = np.linalg.solve(A, g)
    r2 = float(g @ coef) / vs
    # dR2/dm_i = (2 w_i (dPhi_i . coef) / vs) * (ds_i - Phi_c,i . coef)
    proj = Fc @ coef
    grad = (2.0 * wn * (dF @ coef) / vs) * (ds - proj)
    return r2, grad


def penalty_value_and_grad(
    m: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    wn: np.ndarray,
    spec: PenaltySpec,
):
    """Total penalty and its gradient with respect to the score vector."""
    if spec.kind == "none":
        return 0.0, np.zeros_like(m)
    s = np.asarray(s, dtype=float)
    if spec.kind == "dp_correlation":
        val, grad = _corr_sq_and_grad(m, s, wn)
        return spec.lam * val, spec.lam * grad
    if spec.kind == "eo_correlation":
        total, grad = 0.0, np.zeros_like(m)
        for yv, lam in ((0, spec.lam0), (1, spec.lam1)):
            if lam == 0:
                continue
            mask = y == yv
            if mask.sum() < 2:
                continue
            wsub = wn[mask] / wn[mask].sum()
            val_c, grad_c = _corr_sq_and_grad(m[mask], s[mask], wsub)
            total += lam * val_c
            grad[mask] += lam * grad_c
        return total, grad
    # dp_maxcor: PenaltySpec admits no other kind
    val, grad = _maxcor_sq_and_grad(m, s, wn, spec.degree)
    return spec.lam * val, spec.lam * grad


def objective_value_and_grad(
    theta: np.ndarray,
    Xs: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    wn: np.ndarray,
    spec: PenaltySpec,
    link: str,
):
    """Mean log-loss plus penalty; gradient over (coefficients, intercept)."""
    z = Xs @ theta[:-1] + theta[-1]
    loss, dz, m = _loss_and_dz(z, y, link)
    value = float(np.sum(wn * loss))
    grad_z = wn * dz
    if spec.kind != "none":
        if link == "logistic":
            dmdz = m * (1.0 - m)
        else:
            from scipy.special import ndtr

            m = ndtr(z)
            dmdz = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
        pval, pgrad_m = penalty_value_and_grad(m, s, y, wn, spec)
        value += pval
        grad_z = grad_z + pgrad_m * dmdz
    grad = np.empty(len(theta))
    grad[:-1] = Xs.T @ grad_z
    grad[-1] = np.sum(grad_z)
    return value, grad


def train_logistic(
    d: Dataset,
    penalty: PenaltySpec = PenaltySpec.none(),
    opts: TrainOptions = TrainOptions(),
    link: str = "logistic",
) -> LinearModel:
    """Fit a linear score model by the BFGS quasi-Newton method.

    Features are standardized internally; the returned coefficients live on
    the original scale.  An Armijo line search backtracking from the unit
    quasi-Newton step makes the run deterministic.  An active fairness
    penalty is warm-started at the unpenalized optimum: the correlation
    penalties are scale-free, so from a zero init no descent direction
    improves on the raw loss gradient and the search would stall at the
    constant model.

    Perfectly separable data has no finite optimum; that is detected (zero
    training error with strict margins, plus a coefficient-norm cap of 1e3
    on the standardized scale) and reported via the ``diverged`` flag.
    """
    if d.features is None:
        raise DataError("training requires feature columns")
    if np.isnan(d.features).any():
        raise DataError("training requires complete features (no missing values)")
    if not np.bincount(d.y, minlength=2).all():
        raise DegenerateGroupError("training requires both label classes")

    X = d.features
    wn = d.weight / d.weight.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.sum(wn[:, None] * X, axis=0)
        sd = np.sqrt(np.sum(wn[:, None] * (X - mu) ** 2, axis=0))
    # sd is finite only when mu and every X - mu are
    if not np.isfinite(sd).all():
        name = d.feature_names[int(np.argmin(np.isfinite(sd)))]
        raise DataError(f"feature {name!r} is too large to standardize")
    sd = np.where(sd > 0, sd, 1.0)
    y = d.y.astype(float)

    penalty_active = penalty.kind != "none" and max(
        penalty.lam, penalty.lam0, penalty.lam1
    ) > 0
    if penalty_active:
        base = train_logistic(d, PenaltySpec.none(), opts, link)
        theta = np.concatenate(
            (base.coef * sd, [base.intercept + float(np.sum(base.coef * mu))])
        )
    else:
        theta = np.zeros(X.shape[1] + 1)
    converged = False
    diverged = False
    it = 0
    # the inverse-Hessian estimate starts at the inverse second moments of
    # X1 = [Xs, 1], so correlated features do not slow the first steps
    X1 = np.ones((len(y), X.shape[1] + 1))
    Xs = np.divide(np.subtract(X, mu, out=X1[:, :-1]), sd, out=X1[:, :-1])
    H = H0 = np.linalg.pinv(X1.T @ (wn[:, None] * X1), hermitian=True)
    Xs, X1 = Xs.copy(), None  # contiguous; X1 is not kept through the loop
    value, grad = objective_value_and_grad(theta, Xs, y, d.s, wn, penalty, link)
    for it in range(1, opts.max_iter + 1):
        if float(np.linalg.norm(grad)) <= opts.tol:
            converged = True
            break
        direction = -(H @ grad)
        slope = float(grad @ direction)
        if not -math.inf < slope < 0:  # not a finite descent direction: restart
            H, direction, slope = H0, -grad, -float(grad @ grad)
        for step in 0.5 ** np.arange(67.0):  # from 1 down to about 1e-20
            cand = theta + step * direction
            cand_value, cand_grad = objective_value_and_grad(
                cand, Xs, y, d.s, wn, penalty, link
            )
            # a difference, since value + 1e-4 * step * slope can round to value
            if cand_value - value <= 1e-4 * step * slope:
                break
        else:
            break  # the line search stalled
        sk, yk = cand - theta, cand_grad - grad
        sy = sk @ yk
        if sy > 0:  # curvature guard; otherwise keep H
            if H is H0:  # first update: scale H0 to the measured curvature
                H = H0 * (sy / (yk @ H0 @ yk))
            V = np.eye(len(sk)) - np.outer(sk, yk) / sy
            H = V @ H @ V.T + np.outer(sk, sk) / sy
        theta, value, grad = cand, cand_value, cand_grad
        if np.linalg.norm(theta) > 1e3:
            diverged = True
            break

    if penalty_active:
        # a fit warm-started at a diverged optimum inherits the divergence
        diverged = diverged or base.diverged
    elif not diverged:  # separable data: the optimum lies at infinity
        z = Xs @ theta[:-1] + theta[-1]
        diverged = bool((z != 0).all() and ((z > 0) == (y == 1)).all())
    converged = converged and not diverged

    beta = theta[:-1] / sd
    intercept = float(theta[-1] - np.sum(theta[:-1] * mu / sd))
    return LinearModel(
        coef=beta,
        intercept=intercept,
        link=link,
        converged=converged,
        diverged=diverged,
        n_iter=it,
        standardization={"mean": mu, "scale": sd},
    )


# ---------------------------------------------------------------------------
# Label massaging
# ---------------------------------------------------------------------------


@dataclass
class MassageResult:
    dataset: Dataset
    swaps: list[tuple[int, int]]  # (demoted index, promoted index)
    gap: float
    reached_target: bool
    boundary_threshold: float


def massage_labels(
    d: Dataset,
    scores: np.ndarray | None = None,
    eps: float = 0.0,
    threshold: float | None = None,
) -> MassageResult:
    """Swap labels near the decision boundary until the group label rates
    agree within eps.

    Each step demotes the higher-rate group's positive closest to the
    boundary and promotes the lower-rate group's negative closest to it, so
    the overall number of positive labels never changes.  Ties go to the
    lower index, and a NaN distance counts as closest, as ``np.argmin`` has
    it.  The steps stop once the gap is at most eps, when a pool is empty,
    or before the first swap that would not shrink the gap.  When the target
    is infeasible the best achieved dataset is returned with
    ``reached_target=False``.

    Cost O(n log n) per pass, in a few passes.  Each pass reads both groups'
    sums of w y and w from one ``cell_sums`` call.  While the higher-rate
    group stays higher, no swapped record re-enters a pool, so the pools are
    sorted by distance (stably) only when that group changes.  After k more
    swaps the signed gap is d_k = (P_hi - D_k) / W_hi - (P_lo + U_k) / W_lo,
    with P_g, W_g group g's positive and total weight at the pass's start and
    D_k, U_k cumulative sums of the demoted and promoted weights.  A pass
    applies the longest run in which each step k holds d_k > eps + B,
    d_k > B, d_{k+1} > B and d_k - d_{k+1} > 2B (the gap exceeds eps, the
    higher group stays higher and the swap shrinks the gap), or else one
    swap, which the next pass undoes, and stops, if the gap did not shrink.

    The bound B = 32 n u, with u = 2**-53 and n records, for n u <= 0.01.
    The weights are positive and the labels 0/1, so every sum is of at most
    n non-negative terms; in any order it is within gamma = n u / (1 - n u)
    <= 1.0102 n u of its value, relative to that value (Higham 2002,
    section 4.2).  Each rate is in [0, 1].  A pass's rate
    fl(sum(w y) / sum(w)), which decides a single step, is within
    2 gamma / (1 - gamma) + 1.03 u of the exact rate, so its gap is within
    8 gamma of |d_k|.  A run's rate has one more rounded sum or difference
    in its numerator; it is within 5.2 gamma, and its d_k within 11.5 gamma.
    So a condition that holds with 20 gamma (<= 20.3 n u) in place of B
    holds in the arithmetic of a single step, and B leaves room for the
    rounding of eps + B and of d_k - d_{k+1}.  A step is too close to call
    only when d_k is within B of eps or zero, or when its two weights are
    below about B times their group totals; the next pass starts a run after it.
    """
    for g in (0, 1):
        d.require_group(g)
    if scores is None:
        scores = d.score if d.score is not None else train_logistic(d).predict_score(d.features)
    scores = np.asarray(scores, dtype=float)
    y = d.y.copy()
    w = d.weight
    if threshold is None:
        threshold, _ = rocstats.best_accuracy_threshold(d.with_(score=scores))
    boundary_dist = np.abs(scores - threshold)
    # distances are >= 0, so -1 sorts NaN first, where argmin finds it
    key = np.where(np.isnan(boundary_dist), -1.0, boundary_dist)

    def sorted_pool(g: int, label: int) -> np.ndarray:
        pool = np.flatnonzero((d.s == g) & (y == label))
        return pool[np.argsort(key[pool], kind="stable")]

    bound = 32 * len(y) * 2.0**-53
    max_swaps = int(np.sum(d.y))
    swaps: list[tuple[int, int]] = []
    hi = close_gap = None  # close_gap: the gap before a swap too close to call
    while True:
        (pos, tot), _ = cell_sums(d.s, 2, w * y, w)
        rate = pos / tot
        gap = float(abs(rate[0] - rate[1]))
        if close_gap is not None and gap >= close_gap:  # weights can make a swap counterproductive
            demoted, promoted = swaps.pop()
            y[demoted], y[promoted] = 1, 0
            gap = close_gap
            break
        if gap <= eps or len(swaps) >= max_swaps:
            break
        higher = 0 if rate[0] > rate[1] else 1
        if higher != hi:
            hi, lo = higher, 1 - higher
            demote_order, promote_order = sorted_pool(hi, 1), sorted_pool(lo, 0)
        m = min(len(demote_order), len(promote_order), max_swaps - len(swaps))
        if m == 0:
            break
        demote, promote = demote_order[:m], promote_order[:m]
        diff = ((pos[hi] + np.r_[0.0, np.cumsum(-w[demote])]) / tot[hi]
                - (pos[lo] + np.r_[0.0, np.cumsum(w[promote])]) / tot[lo])
        above = diff > bound
        safe = (diff[:-1] > eps + bound) & above[:-1] & above[1:] & (diff[:-1] - diff[1:] > 2 * bound)
        k = int(np.argmin(np.r_[safe, False]))
        close_gap = None if k else gap
        k = max(k, 1)
        y[demote[:k]], y[promote[:k]] = 0, 1
        swaps += zip(demote[:k].tolist(), promote[:k].tolist())
        demote_order, promote_order = demote_order[k:], promote_order[k:]
    return MassageResult(
        dataset=d.with_(y=y),
        swaps=swaps,
        gap=gap,
        reached_target=gap <= eps,
        boundary_threshold=float(threshold),
    )


# ---------------------------------------------------------------------------
# Reweighting
# ---------------------------------------------------------------------------


@dataclass
class ReweighResult:
    dataset: Dataset
    factors: dict[tuple[int, int], float]


def reweigh(d: Dataset) -> ReweighResult:
    """Attach weights w(s, y) = P[S=s] P[Y=y] / P[S=s, Y=y].

    The reweighted empirical joint of (s, y) factorizes exactly.  Factors
    multiply any existing weights, so repeated corrections compose.
    """
    W = d.weight.sum()
    (cell_w,), cell_n = cell_sums(d.s * 2 + d.y, 4, d.weight)
    (s_w,), _ = cell_sums(d.s, 2, d.weight)
    (y_w,), _ = cell_sums(d.y, 2, d.weight)
    factors: dict[tuple[int, int], float] = {}
    for sv in (0, 1):
        for yv in (0, 1):
            if not cell_n[sv * 2 + yv]:
                raise DegenerateGroupError(f"cell (s={sv}, y={yv}) is empty")
            p_s, p_y, p_cell = s_w[sv] / W, y_w[yv] / W, cell_w[sv * 2 + yv] / W
            factors[(sv, yv)] = float(p_s * p_y / p_cell)
    table = np.array([[factors[(sv, yv)] for yv in (0, 1)] for sv in (0, 1)])
    new_w = d.weight * table[d.s, d.y]
    return ReweighResult(dataset=d.with_(weight=new_w), factors=factors)


# ---------------------------------------------------------------------------
# Quantile repair (disparate-impact suppression)
# ---------------------------------------------------------------------------


@dataclass
class RepairResult:
    dataset: Dataset
    amount: float


def _quantile_grid(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midrank plotting positions and sorted values: the empirical quantile
    function with linear interpolation between order statistics."""
    n = len(values)
    levels = (np.arange(n) + 0.5) / n
    return levels, np.sort(values, kind="stable")


def di_remove(
    d: Dataset, features: Sequence[str] | None = None, amount: float = 1.0
) -> RepairResult:
    """Move each group's feature distribution toward the two-group quantile
    average: x -> (1-amount) x + amount * F_m^{-1}(F_g(x)).

    Within-group ranks are preserved; amount 0 is the identity and amount 1
    aligns the group distributions up to grid granularity.
    """
    if not 0.0 <= amount <= 1.0:
        raise ValueError("amount must lie in [0, 1]")
    if d.features is None:
        raise DataError("repair requires feature columns")
    for g in (0, 1):
        d.require_group(g)
    names = tuple(features) if features is not None else d.feature_names
    for name in names:
        if name not in d.feature_names:
            raise DataError(f"no feature column named {name!r}")

    new_feats = d.features.copy()
    masks = {g: d.s == g for g in (0, 1)}
    for name in names:
        j = d.feature_names.index(name)
        col = d.features[:, j]
        if np.isnan(col).any():
            raise DataError(f"feature {name!r} has missing values")
        grids = {g: _quantile_grid(col[masks[g]]) for g in (0, 1)}
        for g in (0, 1):
            vals = col[masks[g]]
            # own midrank level of every record (ties share their mean rank)
            q = (_midranks(vals) - 0.5) / len(vals)
            target = 0.5 * (
                np.interp(q, *grids[0]) + np.interp(q, *grids[1])
            )
            new_feats[masks[g], j] = (1.0 - amount) * vals + amount * target

    return RepairResult(dataset=d.with_(features=new_feats), amount=amount)


# ---------------------------------------------------------------------------
# Per-group deterministic thresholds
# ---------------------------------------------------------------------------


@dataclass
class ThresholdSearchResult:
    policy: ThresholdPolicy
    objective: str
    values: tuple[float, float]  # equalized quantity per group
    gap: float
    accuracy: float
    granular: bool  # exact equalization was unattainable
    degenerate: bool  # equalization only at an all-or-nothing rule


def _group_threshold_tables(d: Dataset, objective: str):
    """Each group's candidate thresholds with the objective value (positive
    rate or TPR) and weighted correct count at each; per distinct objective
    value only the best-accuracy (then largest) threshold is kept."""
    w = d.weight
    tables = []
    for distinct, above, (total_w, pos_total) in rocstats._group_sweeps(
        d.require_scores(), d.s, np.column_stack((w, w * d.y))
    ):
        thr, above = rocstats._policy_candidates(distinct, above)
        above_w, above_pos = above.T
        correct = above_pos + ((total_w - pos_total) - (above_w - above_pos))
        if objective == "dp":
            value = above_w / total_w
        else:  # eo_tpr
            value = above_pos / pos_total

        # keep the best (correct, threshold) representative per distinct value
        order = np.lexsort((thr, correct, value))
        first = np.unique(value[order], return_index=True)[1]
        idx = order[np.append(first[1:], len(order)) - 1]
        tables.append((value[idx], correct[idx], thr[idx]))
    return tables


def per_group_thresholds(d: Dataset, objective: str = "dp") -> ThresholdSearchResult:
    """Deterministic per-group thresholds equalizing positive rates ("dp")
    or true positive rates ("eo_tpr") while maximizing total accuracy.

    The gap is minimized first (its floor is set by the group grids, about
    1/min group size), then accuracy, then the larger thresholds.
    """
    if objective not in ("dp", "eo_tpr"):
        raise ValueError(f"objective must be 'dp' or 'eo_tpr', got {objective!r}")
    for g in (0, 1):
        d.require_group(g)
    if objective == "eo_tpr":
        for g in (0, 1):
            if not ((d.s == g) & (d.y == 1)).any():
                raise DegenerateGroupError(f"group {g} has no positives")

    (v0, c0, t0), (v1, c1, t1) = _group_threshold_tables(d, objective)

    # pair each group-0 value with its nearest group-1 values
    ii = np.repeat(np.arange(len(v0)), 3)
    jj = (np.searchsorted(v1, v0)[:, None] + np.array([-1, 0, 1])).ravel()
    ok = (jj >= 0) & (jj < len(v1))
    ii, jj = ii[ok], jj[ok]
    gaps = np.abs(v0[ii] - v1[jj])
    # gaps equal to 15 decimals tie; thresholds are distinct, so keys are unique
    best = np.lexsort((-t1[jj], -t0[ii], -(c0[ii] + c1[jj]), np.round(gaps, 15)))[0]

    i, j = ii[best], jj[best]
    gap = float(gaps[best])
    total_w = float(d.weight.sum())
    policy = ThresholdPolicy.per_group(float(t0[i]), float(t1[j]))
    return ThresholdSearchResult(
        policy=policy,
        objective=objective,
        values=(float(v0[i]), float(v1[j])),
        gap=gap,
        accuracy=float((c0[i] + c1[j]) / total_w),
        granular=gap > 0.0,
        degenerate=any(v in (0.0, 1.0) for v in (v0[i], v1[j])),
    )


# ---------------------------------------------------------------------------
# Randomized equalized-odds post-processing
# ---------------------------------------------------------------------------


@dataclass
class EqualizedOddsResult:
    policy: ThresholdPolicy
    criterion: str
    target: tuple[float, float]  # (fpr, tpr) the policy realizes
    realized: dict[int, tuple[float, float]]
    tpr_gap: float
    fpr_gap: float
    accuracy: float
    degenerate: bool
    mixed: bool  # some group's rule uses more than one threshold


@dataclass(frozen=True)
class _GroupGeometry:
    thresholds: np.ndarray  # policy-legal, decreasing
    fpr: np.ndarray
    tpr: np.ndarray
    hull: np.ndarray  # indices of upper-hull vertices
    lower: np.ndarray  # indices of lower-hull vertices
    neg_w: float
    pos_w: float


def _group_geometries(d: Dataset) -> dict[int, _GroupGeometry]:
    """Each group's ROC points at policy-legal thresholds and their hull chains."""
    score = d.require_scores()
    for g in (0, 1):
        d.require_group(g)
    sweeps = rocstats._group_sweeps(score, d.s, rocstats._roc_cols(d))
    geo = {}
    for g, (distinct, above, (neg_w, pos_w)) in enumerate(sweeps):
        if neg_w == 0 or pos_w == 0:
            raise DegenerateGroupError(f"group {g} needs both outcome classes")
        thr, above = rocstats._policy_candidates(distinct, above)
        fpr = above[:, 0] / neg_w
        tpr = above[:, 1] / pos_w
        # drop consecutive duplicate points, keeping the largest threshold
        keep = np.concatenate(([True], (np.diff(fpr) != 0) | (np.diff(tpr) != 0)))
        thr, fpr, tpr = thr[keep], fpr[keep], tpr[keep]
        hulls = rocstats._upper_hull(fpr, tpr), rocstats._upper_hull(fpr, -tpr)
        geo[g] = _GroupGeometry(thr, fpr, tpr, *hulls, float(neg_w), float(pos_w))
    return geo


def _rule_from_mix(geo: _GroupGeometry, i: int, j: int, u: float, lam: float = 1.0):
    """Rule realizing lam * ((1-u) * point_i + u * point_j) for this group.

    It mixes thresholds t_j < t_i < 1.0 with probabilities lam * u,
    lam * (1-u) and 1 - lam; t = 1.0 decides 0 for every record, the point
    (0, 0).  A u or lam within 1e-12 of 0 or 1 is taken as exact, and
    thresholds of probability 0 are left out.
    """
    if u <= 1e-12 or u >= 1.0 - 1e-12:  # one vertex
        i = j = i if u <= 1e-12 else j
        u = 0.0
    lam = 0.0 if lam <= 1e-12 else 1.0 if lam >= 1.0 - 1e-12 else lam
    thr = geo.thresholds
    terms = ((thr[j], lam * u), (thr[i], lam * (1.0 - u)), (1.0, 1.0 - lam))
    return ThresholdMixture(*zip(*[(float(t), p) for t, p in terms if p > 0.0]))


def _realized(geo: _GroupGeometry, i: int, j: int, u: float, lam: float = 1.0) -> np.ndarray:
    vi, vj = (np.array([geo.fpr[k], geo.tpr[k]]) for k in (i, j))
    return lam * ((1.0 - u) * vi + u * vj)


def _crossings(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where d, linear between the increasing points f, changes sign."""
    k = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    return f[k] + (f[k + 1] - f[k]) * (d[k] / (d[k] - d[k + 1]))


def _chain_table(geo: _GroupGeometry, upper: bool):
    """The upper or lower hull chain's (fpr, tpr) vertices, for np.interp.
    The upper chain can rise at fpr 0, and the lower one at its last fpr
    when records scored 0 stay negative at t = 0.0; of such a rise each
    keeps its own extreme, so fpr increases."""
    chain = geo.hull if upper else geo.lower
    f, t = geo.fpr[chain], geo.tpr[chain]
    keep = np.append(f[1:] != f[:-1], True) if upper else np.append(True, f[1:] != f[:-1])
    return f[keep], t[keep]


def _full_optimum(geo: dict[int, _GroupGeometry], n: int) -> np.ndarray:
    """The accuracy-best point (fpr, tpr) in both groups' ROC regions, the
    least fpr first.

    A region lies between its hull's upper chain U and lower chain L.  At an
    fpr up to both groups' last one the best tpr is top = min(U0, U1), where
    top >= bottom = max(L0, L1).  The four chains are linear between the
    merged vertex fprs and the crossings of U0 with U1 and of L0 with L1, so
    top - bottom is too, and the sign changes of it end the feasible fprs.
    The linear program's optimum is one of these points.

    Each group's rates are running sums over its n_g records divided by
    their total, which rounding moves by less than n_g * eps.  So a merged
    fpr stays feasible down to top - bottom = -n * eps, n = n_0 + n_1:
    regions that meet only along a segment must not be parted by rounding.
    """
    tables = [_chain_table(geo[g], upper) for upper in (True, False) for g in (0, 1)]

    def chains(f):  # U0, U1, L0, L1 at f
        return [np.interp(f, x, y) for x, y in tables]

    f = np.unique(np.concatenate([x for x, _ in tables]))
    f = f[f <= min(geo[g].fpr[-1] for g in (0, 1))]
    u0, u1, l0, l1 = chains(f)
    cu, cl = _crossings(f, u0 - u1), _crossings(f, l0 - l1)
    f = np.union1d(f, np.concatenate((cu, cl)))
    u0, u1, l0, l1 = chains(f)
    # two chains meet where they cross; rounding must not part them there
    top = np.where(np.isin(f, cu), np.maximum(u0, u1), np.minimum(u0, u1))
    bottom = np.where(np.isin(f, cl), np.minimum(l0, l1), np.maximum(l0, l1))
    room = top - bottom
    ends = _crossings(f, room)
    ok = room >= -n * np.finfo(float).eps
    t = np.concatenate((top[ok], np.interp(ends, f, top)))
    f = np.concatenate((f[ok], ends))
    # accuracy grows with pos_w * tpr - neg_w * fpr
    gain = t * (geo[0].pos_w + geo[1].pos_w) - f * (geo[0].neg_w + geo[1].neg_w)
    best = np.lexsort((f, -gain))[0]
    return np.array([f[best], t[best]])


def _opportunity_points(geo: dict[int, _GroupGeometry], pos_w: float, total_w: float):
    """Each group's least-fpr point at the common tpr of best accuracy, then
    least fpr sum, then largest tpr.  The least fpr lies on the upper chain,
    convex in tpr, so the best tpr is a vertex tpr of either chain; of a run
    of equal tprs, at a chain's end, the first has the least fpr."""
    tables = []
    for f, t in (_chain_table(geo[g], upper=True) for g in (0, 1)):
        first = np.append(True, t[1:] != t[:-1])
        tables.append((t[first], f[first]))
    taus = np.unique(np.concatenate([t for t, _ in tables]))
    taus = taus[taus <= min(t[-1] for t, _ in tables)]
    f0, f1 = (np.interp(taus, t, f) for t, f in tables)
    acc = (taus * pos_w + (1 - f0) * geo[0].neg_w + (1 - f1) * geo[1].neg_w) / total_w
    # taus are distinct, so the largest key is unique
    best = np.lexsort((taus, -(f0 + f1), acc))[-1]
    return [np.array([f[best], taus[best]]) for f in (f0, f1)]


def _ray_mix(geo: _GroupGeometry, p: np.ndarray):
    """(i, j, u, lam) with p = lam * q, q = (1-u) * point_i + u * point_j on
    the group's region boundary, where the ray from (0, 0) through p leaves.

    The boundary less (0, 0), out along the upper chain and back along the
    lower one, turns clockwise about (0, 0), so cross(v, p) changes sign
    once along it, on the edge that holds q.  Each edge, and the last vertex
    alone, offers the point where cross(v, p) is 0, clipped to the edge; the
    one that realizes p closest wins, so a hull vertex that rounding leaves
    on a line through (0, 0) does no harm.  For a p on the upper chain, q is
    p and lam is 1, unless p is on its rise at fpr 0, whose top is then q.
    A group scored all 0 has the one point (0, 0) and no boundary, and
    takes the all-negative rule.
    """
    if len(geo.fpr) == 1:
        return 0, 0, 0.0, 0.0
    b = np.concatenate((geo.hull[1:], geo.lower[-2:0:-1]))
    i, j = b, np.append(b[1:], b[-1])
    vi, vj = (np.column_stack((geo.fpr[k], geo.tpr[k])) for k in (i, j))
    ci, cj = (v[:, 0] * p[1] - v[:, 1] * p[0] for v in (vi, vj))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.clip(np.where(ci != cj, ci / (ci - cj), 0.0), 0.0, 1.0)
    q = (1 - u)[:, None] * vi + u[:, None] * vj
    lam = np.clip((q @ p) / (q * q).sum(axis=1), 0.0, 1.0)
    k = int(np.argmin(np.abs(lam[:, None] * q - p).max(axis=1)))
    i, j, u = int(i[k]), int(j[k]), float(u[k])
    if i > j:  # an edge of the lower chain, walked back
        i, j, u = j, i, 1.0 - u
    return i, j, u, float(lam[k])


def equalize_odds(d: Dataset, criterion: str = "full") -> EqualizedOddsResult:
    """Randomized post-processing equalizing group error rates: the linear
    program of Hardt, Price and Srebro (2016) over the groups' ROC regions,
    the convex hulls of their points, solved in one merge over the hull
    chains.

    "full": the accuracy-best (fpr, tpr) point in both regions.
    "opportunity": equal tpr only; each group's least-fpr point at the
    accuracy-best common tpr.  Each group realizes its point by mixing the
    two hull vertices where the ray from (0, 0) through it leaves the region
    with t = 1.0, which decides 0 for all; that takes up to three thresholds,
    and two for a point on the upper chain.  The realized gaps of the
    equalized rates vanish up to float rounding.
    """
    if criterion not in ("full", "opportunity"):
        raise ValueError(f"criterion must be 'full' or 'opportunity', got {criterion!r}")
    geo = _group_geometries(d)
    pos_w = geo[0].pos_w + geo[1].pos_w
    neg_w = geo[0].neg_w + geo[1].neg_w
    total_w = pos_w + neg_w
    if criterion == "opportunity":
        points = _opportunity_points(geo, pos_w, total_w)
    else:
        for g in (0, 1):
            if len(geo[g].fpr) == 1:
                raise DegenerateGroupError(f"group {g} has a single ROC point (every score is 0)")
        points = [_full_optimum(geo, len(d))] * 2
    mixes = [_ray_mix(geo[g], points[g]) for g in (0, 1)]

    rules = {g: _rule_from_mix(geo[g], *mix) for g, mix in enumerate(mixes)}
    realized = {g: tuple(_realized(geo[g], *mix).tolist()) for g, mix in enumerate(mixes)}
    return EqualizedOddsResult(
        policy=ThresholdPolicy(rules=rules),
        criterion=criterion,
        target=tuple(float((realized[0][k] + realized[1][k]) / 2) for k in (0, 1)),
        realized=realized,
        tpr_gap=abs(realized[0][1] - realized[1][1]),
        fpr_gap=abs(realized[0][0] - realized[1][0]),
        accuracy=(
            realized[0][1] * geo[0].pos_w
            + realized[1][1] * geo[1].pos_w
            + (1 - realized[0][0]) * geo[0].neg_w
            + (1 - realized[1][0]) * geo[1].neg_w
        ) / total_w,
        degenerate=all(len(geo[g].hull) <= 2 for g in (0, 1)),
        mixed=any(len(rule.thresholds) > 1 for rule in rules.values()),
    )
