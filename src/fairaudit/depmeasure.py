"""Dependence measures behind the fairness criteria.

Pearson correlation, Renyi maximal correlation (exact for discrete pairs,
basis-approximated otherwise, plain and conditional) and mutual information.

The maximal correlation of a discrete pair is the second singular value of
the normalized joint table.  The basis estimators reduce the general case to
that one (indicator bins of rank-transformed data) or to the top canonical
correlation of two polynomial bases of the ranks.  Both are exact singular
values of the reduced problem: no iteration, no tolerance, no learned
components.
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

    family="indicator": equal-count bins over rank-transformed data; the
    estimate is the exact maximal correlation of the binned joint table.
    family="polynomial": polynomials of rank-transformed data; the estimate
    is the exact top canonical correlation of the two spans.
    """

    family: str = "indicator"
    size: int = 16

    def __post_init__(self):
        if self.family not in ("indicator", "polynomial"):
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.size < 1:
            raise ValueError("basis size must be >= 1")


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
    if np.all((x == 0) | (x == 1)) and np.all((y == 0) | (y == 1)):
        # 0/1 samples need no sort; a value that never occurs leaves a zero row or column
        P = np.bincount((2 * x + y).astype(np.intp), weights=w, minlength=4).reshape(2, 2)
    else:
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
    distinct, rank = np.unique(v, return_inverse=True)
    if len(distinct) <= n_bins:
        return rank
    # the bins of interpolated quantile cuts over the distinct values, in
    # integers: float cuts can round onto a value and move it by one bin
    return np.minimum(rank * n_bins // (len(distinct) - 1), n_bins - 1)


def _poly_features(v: np.ndarray, degree: int) -> np.ndarray:
    # 0-based midranks: ties share a rank, so the transform is a function of
    # the value alone
    u = (_midranks(v) - 1) / max(len(v) - 1, 1)
    return np.column_stack([u**k for k in range(1, degree + 1)])


def _poly_maxcor(x, y, w, degree: int) -> float:
    """Top canonical correlation of polynomial bases of the rank transforms.

    Each centred, weighted span is orthonormalized by an SVD with lstsq's rank
    cutoff; the estimate is the top singular value of Qx^T Qy.
    """
    w = w / w.sum()
    sw = np.sqrt(w)

    def orthonormal_span(v):
        F = _poly_features(v, degree)
        F = F - np.sum(w[:, None] * F, axis=0)
        F = F[:, np.sum(w[:, None] * F**2, axis=0) > 1e-14]
        if F.shape[1] == 0:
            raise ConstantInputError("basis collapsed to constants")
        U, s, _ = np.linalg.svd(sw[:, None] * F, full_matrices=False)
        return U[:, s > s[0] * np.finfo(float).eps * max(F.shape)]

    s = np.linalg.svd(orthonormal_span(x).T @ orthonormal_span(y), compute_uv=False)
    return float(min(max(s[0], 0.0), 1.0))


def maximal_correlation(x, y, w=None, basis: BasisSpec | None = None) -> float:
    """Renyi maximal correlation of two samples.

    Without a basis the inputs are treated as discrete levels and the exact
    closed form is used.  With one, the problem is reduced to the basis and
    the estimate is the exact top singular value of the reduced problem.
    """
    x, y, w = _check_pair(x, y, w)
    if basis is None:
        return maximal_correlation_joint(_joint_from_samples(x, y, w))
    if basis.family == "indicator":
        return maximal_correlation_joint(
            _joint_from_samples(_rank_bins(x, basis.size), _rank_bins(y, basis.size), w)
        )
    return _poly_maxcor(x, y, w, basis.size)


@dataclass(frozen=True)
class CondMaxCorResult:
    per_stratum: Mapping  # level -> float, or None where undefined
    max_value: float | None


def _binary_strata(x, y, z, w):
    """Each stratum's level and weighted 2x2 joint of 0/1 samples, or None
    unless x and y are 0/1, z holds integers or booleans, every weight is
    positive and the four arrays are aligned.

    One ``np.bincount`` over ``4 * stratum + 2 * x + y`` adds each cell's
    weights sequentially in record order, as the stratum's own bincount in
    :func:`_joint_from_samples` does.  The stratum is z itself for
    non-negative integers no larger than len(z), else its index among
    ``np.unique(z)``, so the table never outgrows the data.  A stratum
    without records is left out; with positive weights, a cell is empty iff
    its sum is 0.
    """
    if not (
        x.ndim == 1 and x.shape == y.shape == z.shape == w.shape and len(x)
        and z.dtype.kind in "biu" and (w > 0).all()
        and ((x == 0) | (x == 1)).all() and ((y == 0) | (y == 1)).all()
    ):
        return None
    levels = None
    if z.dtype.kind != "b" and z.min() >= 0 and z.max() <= len(z):
        stratum = z.astype(np.intp)
    else:
        levels, stratum = np.unique(z, return_inverse=True)
    n_strata = int(stratum.max()) + 1
    key = 4 * stratum + (2 * x + y).astype(np.intp)
    joints = np.bincount(key, weights=w, minlength=4 * n_strata).reshape(n_strata, 2, 2)
    present = np.flatnonzero(joints.any(axis=(1, 2)))
    keys = present if levels is None else levels[present]
    return [(key.item(), joints[k]) for key, k in zip(keys, present)]


def conditional_maximal_correlation(
    x, y, z, w=None, basis: BasisSpec | None = None
) -> CondMaxCorResult:
    """Maximal correlation within each stratum of a discrete conditioner.

    Strata where either variable is constant are reported as None; the
    summary is the maximum over defined strata.  Without a basis, 0/1
    samples take every stratum's joint from one pass (:func:`_binary_strata`);
    any other input takes a masked pass per level of ``np.unique(z)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z)
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    strata = None if basis is not None else _binary_strata(x, y, z, w)
    per: dict = {}
    if strata is None:
        for level in np.unique(z):
            mask = z == level
            key = level.item() if hasattr(level, "item") else level
            try:
                per[key] = maximal_correlation(x[mask], y[mask], w[mask], basis)
            except (ConstantInputError, ValueError):
                per[key] = None
    else:
        # a stratum with x or y constant (or one record) leaves a zero row or
        # column, for which the joint's estimate raises
        for key, P in strata:
            try:
                per[key] = maximal_correlation_joint(P / P.sum())
            except (ConstantInputError, ValueError):
                per[key] = None
    values = [v for v in per.values() if v is not None]
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
