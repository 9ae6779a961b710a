"""Dependence measures behind the fairness criteria.

Pearson correlation, Renyi maximal correlation (exact for discrete pairs,
basis-approximated otherwise, plain and conditional) and mutual information.

The maximal correlation of a discrete pair is the second singular value of
the normalized joint table; the basis estimator reduces the general case to
that one (indicator bins) or to alternating least squares over a polynomial
basis of rank-transformed data.  Both are deterministic: no learned
components, no random restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._common import _midranks

__all__ = [
    "ConstantInputError",
    "BasisSpec",
    "MaxCorResult",
    "pearson",
    "maximal_correlation",
    "maximal_correlation_joint",
    "conditional_maximal_correlation",
    "mutual_information",
]


class ConstantInputError(ValueError):
    """Correlation is undefined for a constant input."""


@dataclass(frozen=True)
class BasisSpec:
    """Function basis for the maximal-correlation estimator.

    family="indicator": equal-count bins over rank-transformed data (the
    estimate is then the exact solution of the binned problem).
    family="polynomial": polynomials of rank-transformed data, solved by
    alternating least squares.
    """

    family: str = "indicator"
    size: int = 16
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.family not in ("indicator", "polynomial"):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.size < 1:
            raise ValueError("basis size must be >= 1")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class MaxCorResult:
    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def _check_pair(x, y, w):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    if w.shape != x.shape or not (w > 0).all():
        raise ValueError("weights must be positive and aligned")
    if np.all(x == x[0]):
        raise ConstantInputError("x is constant")
    if np.all(y == y[0]):
        raise ConstantInputError("y is constant")
    return x, y, w


def pearson(x, y, w=None) -> float:
    """Weighted product-moment correlation."""
    x, y, w = _check_pair(x, y, w)
    w = w / w.sum()
    mx, my = np.sum(w * x), np.sum(w * y)
    cov = np.sum(w * (x - mx) * (y - my))
    vx = np.sum(w * (x - mx) ** 2)
    vy = np.sum(w * (y - my) ** 2)
    if vx * vy == 0:  # variances that underflow, as with weights near 1e-300
        raise ConstantInputError("the variance product underflows to 0")
    return float(cov / math.sqrt(vx * vy))


def maximal_correlation_joint(joint) -> float:
    """Exact maximal correlation of a discrete joint probability table.

    Second singular value of D_r^{-1/2} (P - r c^T) D_c^{-1/2}; zero iff the
    table factorizes.
    """
    P = np.asarray(joint, dtype=float)
    if P.ndim != 2 or (P < 0).any():
        raise ValueError("joint must be a non-negative matrix")
    total = P.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-12):
        P = P / total
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    P = P[r > 0][:, c > 0]
    r, c = r[r > 0], c[c > 0]
    if P.shape[0] < 2 or P.shape[1] < 2:
        raise ConstantInputError("a margin of the joint is constant")
    rc = np.outer(r, c)
    if not rc.all():  # margins whose product underflows
        raise ConstantInputError("a product of the joint's margins underflows to 0")
    M = (P - rc) / np.sqrt(rc)
    s = np.linalg.svd(M, compute_uv=False)
    return float(min(max(s[0], 0.0), 1.0))


def _joint_from_samples(x, y, w) -> np.ndarray:
    xv, xi = np.unique(x, return_inverse=True)
    yv, yi = np.unique(y, return_inverse=True)
    P = np.zeros((len(xv), len(yv)))
    np.add.at(P, (xi, yi), w)
    return P / P.sum()


def _rank_bins(v: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin indices over the rank transform of v.

    Distinct values never share a bin unless forced by the bin count, and
    ties always land in the same bin (the binning is a monotone function of
    the value), which makes the downstream estimate invariant under strictly
    monotone transforms.
    """
    distinct = np.unique(v)
    if len(distinct) <= n_bins:
        return np.searchsorted(distinct, v)
    # quantile cuts over the distinct values keep bins populated
    edges = np.quantile(distinct, np.linspace(0, 1, n_bins + 1)[1:-1])
    return np.searchsorted(edges, v, side="right")


def _alternating_binned(bx, by, w, spec: BasisSpec) -> MaxCorResult:
    """Power iteration for the top non-trivial correlation of a binned pair.

    Alternates f <- standardized E[g(Y)|X-bin], g <- standardized E[f(X)|Y-bin]
    until the objective E[f g] moves less than the tolerance.
    """
    P = np.zeros((bx.max() + 1, by.max() + 1))
    np.add.at(P, (bx, by), w)
    P = P / P.sum()
    r, c = P.sum(axis=1), P.sum(axis=0)
    keep_r, keep_c = r > 0, c > 0
    P, r, c = P[keep_r][:, keep_c], r[keep_r], c[keep_c]
    if len(r) < 2 or len(c) < 2:
        raise ConstantInputError("binned variable is constant")

    def standardize(vec, marg):
        vec = vec - np.sum(marg * vec)
        norm = math.sqrt(np.sum(marg * vec**2))
        if norm == 0:
            raise ConstantInputError("degenerate conditional expectation")
        return vec / norm

    g = standardize(np.arange(len(c), dtype=float), c)
    obj_prev = -1.0
    for it in range(1, spec.max_iter + 1):
        f = standardize(P @ g / r, r)
        g = standardize(P.T @ f / c, c)
        obj = float(f @ P @ g)
        if abs(obj - obj_prev) < spec.tol * max(1.0, abs(obj)):
            return MaxCorResult(value=min(max(obj, 0.0), 1.0), converged=True, iterations=it)
        obj_prev = obj
    return MaxCorResult(value=min(max(obj_prev, 0.0), 1.0), converged=False, iterations=spec.max_iter)


def _poly_features(v: np.ndarray, degree: int) -> np.ndarray:
    # 0-based midranks: ties share a rank, so the transform is a function of
    # the value alone
    u = (_midranks(v) - 1) / max(len(v) - 1, 1)
    return np.column_stack([u**k for k in range(1, degree + 1)])


def _alternating_poly(x, y, w, spec: BasisSpec) -> MaxCorResult:
    """Alternating least squares over polynomial bases of the rank transforms."""
    Fx = _poly_features(x, spec.size)
    Fy = _poly_features(y, spec.size)
    w = w / w.sum()

    def center(F):
        F = F - np.sum(w[:, None] * F, axis=0)
        keep = np.sum(w[:, None] * F**2, axis=0) > 1e-14
        return F[:, keep]

    Fx, Fy = center(Fx), center(Fy)
    if Fx.shape[1] == 0 or Fy.shape[1] == 0:
        raise ConstantInputError("basis collapsed to constants")

    sw = np.sqrt(w)
    Ax, Ay = sw[:, None] * Fx, sw[:, None] * Fy

    def fit(A, target):
        coef, *_ = np.linalg.lstsq(A, target, rcond=None)
        fitted = A @ coef
        norm = float(np.linalg.norm(fitted))
        if norm == 0:
            raise ConstantInputError("degenerate projection")
        return fitted / norm

    g = Ay[:, 0] / np.linalg.norm(Ay[:, 0])
    obj_prev = -1.0
    for it in range(1, spec.max_iter + 1):
        f = fit(Ax, g)
        g = fit(Ay, f)
        obj = float(f @ g)
        if abs(obj - obj_prev) < spec.tol * max(1.0, abs(obj)):
            return MaxCorResult(value=min(max(obj, 0.0), 1.0), converged=True, iterations=it)
        obj_prev = obj
    return MaxCorResult(value=min(max(obj_prev, 0.0), 1.0), converged=False, iterations=spec.max_iter)


def maximal_correlation(x, y, w=None, basis: BasisSpec | None = None) -> MaxCorResult:
    """Renyi maximal correlation of two samples.

    Without a basis the inputs are treated as discrete levels and the exact
    closed form is used.  With one, the problem is reduced to the basis and
    solved by deterministic alternating updates.
    """
    x, y, w = _check_pair(x, y, w)
    if basis is None:
        return MaxCorResult(
            value=maximal_correlation_joint(_joint_from_samples(x, y, w)),
            converged=True,
            iterations=0,
        )
    if basis.family == "indicator":
        return _alternating_binned(
            _rank_bins(x, basis.size), _rank_bins(y, basis.size), w, basis
        )
    return _alternating_poly(x, y, w, basis)


@dataclass(frozen=True)
class CondMaxCorResult:
    per_stratum: Mapping
    max_value: float | None


def conditional_maximal_correlation(
    x, y, z, w=None, basis: BasisSpec | None = None
) -> CondMaxCorResult:
    """Maximal correlation within each stratum of a discrete conditioner.

    Strata where either variable is constant are reported as None; the
    summary is the maximum over defined strata.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    per: dict = {}
    values = []
    for level in np.unique(z):
        mask = z == level
        try:
            res = maximal_correlation(x[mask], y[mask], w[mask], basis)
        except (ConstantInputError, ValueError):
            per[level.item() if hasattr(level, "item") else level] = None
            continue
        per[level.item() if hasattr(level, "item") else level] = res
        values.append(res.value)
    if not values:
        raise ConstantInputError("every stratum is degenerate")
    return CondMaxCorResult(per_stratum=per, max_value=max(values))


def mutual_information(x, y, w=None) -> float:
    """Plug-in mutual information of two discrete samples, in nats."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    P = _joint_from_samples(np.asarray(x, dtype=float), np.asarray(y, dtype=float), w)
    r = P.sum(axis=1, keepdims=True)
    c = P.sum(axis=0, keepdims=True)
    mask = P > 0
    rc = (r @ c)[mask]
    if not rc.all():  # margins whose product underflows
        raise ConstantInputError("a product of the joint's margins underflows to 0")
    return float(np.sum(P[mask] * np.log(P[mask] / rc)))
