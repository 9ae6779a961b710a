"""The exact basis estimators against the iterative loops they replaced.

``ref_alternating_binned`` (power iteration on the binned joint table) and
``ref_alternating_poly`` (alternating least squares over the polynomial
spans) are the earlier estimators, kept here as the reference.  Run to a
tight tolerance they converge to the top singular value the new code takes
directly; the exact value is never below where a loop stops.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.depmeasure import (
    BasisSpec,
    ConstantInputError,
    _joint_from_samples,
    _poly_features,
    _rank_bins,
    maximal_correlation,
    maximal_correlation_joint,
)

TOL = 1e-13
MAX_ITER = 100_000


def ref_alternating_binned(bx, by, w, tol=TOL, max_iter=MAX_ITER):
    """Power iteration for the top non-trivial correlation of a binned pair,
    as it was before the SVD: (value, converged)."""
    P = np.zeros((bx.max() + 1, by.max() + 1))
    np.add.at(P, (bx, by), w)
    P = P / P.sum()
    r, c = P.sum(axis=1), P.sum(axis=0)
    keep_r, keep_c = r > 0, c > 0
    P, r, c = P[keep_r][:, keep_c], r[keep_r], c[keep_c]

    def standardize(vec, marg):
        vec = vec - np.sum(marg * vec)
        norm = math.sqrt(np.sum(marg * vec**2))
        if norm == 0:
            raise ConstantInputError("degenerate conditional expectation")
        return vec / norm

    g = standardize(np.arange(len(c), dtype=float), c)
    obj_prev = -1.0
    for _ in range(max_iter):
        f = standardize(P @ g / r, r)
        g = standardize(P.T @ f / c, c)
        obj = float(f @ P @ g)
        if abs(obj - obj_prev) < tol * max(1.0, abs(obj)):
            return min(max(obj, 0.0), 1.0), True
        obj_prev = obj
    return min(max(obj_prev, 0.0), 1.0), False


def ref_alternating_poly(x, y, w, degree, tol=TOL, max_iter=MAX_ITER):
    """Alternating least squares over polynomial bases of the rank
    transforms, as it was before the SVD: (value, converged)."""
    Fx = _poly_features(x, degree)
    Fy = _poly_features(y, degree)
    w = w / w.sum()

    def center(F):
        F = F - np.sum(w[:, None] * F, axis=0)
        keep = np.sum(w[:, None] * F**2, axis=0) > 1e-14
        return F[:, keep]

    sw = np.sqrt(w)
    Ax, Ay = sw[:, None] * center(Fx), sw[:, None] * center(Fy)

    def fit(A, target):
        coef, *_ = np.linalg.lstsq(A, target, rcond=None)
        fitted = A @ coef
        return fitted / float(np.linalg.norm(fitted))

    g = Ay[:, 0] / np.linalg.norm(Ay[:, 0])
    obj_prev = -1.0
    for _ in range(max_iter):
        f = fit(Ax, g)
        g = fit(Ay, f)
        obj = float(f @ g)
        if abs(obj - obj_prev) < tol * max(1.0, abs(obj)):
            return min(max(obj, 0.0), 1.0), True
        obj_prev = obj
    return min(max(obj_prev, 0.0), 1.0), False


def random_case(seed, weighted):
    """A dependent pair with a random shape and strength, and its weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 801))
    x = rng.normal(size=n)
    link = (x, x**2, np.sin(2 * x), np.abs(x))[seed % 4]
    y = rng.uniform(0.5, 2.0) * link + rng.uniform(0.2, 1.5) * rng.normal(size=n)
    w = rng.uniform(0.1, 5.0, size=n) if weighted else None
    return x, y, w


CASES = [(seed, weighted) for seed in range(20) for weighted in (False, True)]


@pytest.mark.parametrize("seed,weighted", CASES)
def test_indicator_matches_power_iteration(seed, weighted):
    x, y, w = random_case(seed, weighted)
    new = maximal_correlation(x, y, w, basis=BasisSpec(family="indicator", size=16))
    old, converged = ref_alternating_binned(
        _rank_bins(x, 16), _rank_bins(y, 16), np.ones(len(x)) if w is None else w
    )
    assert converged
    assert abs(new - old) <= 1e-10
    assert new >= old - 1e-12


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("seed,weighted", CASES)
def test_polynomial_matches_alternating_least_squares(seed, weighted, size):
    x, y, w = random_case(seed, weighted)
    new = maximal_correlation(x, y, w, basis=BasisSpec(family="polynomial", size=size))
    old, converged = ref_alternating_poly(x, y, np.ones(len(x)) if w is None else w, size)
    assert converged
    assert abs(new - old) <= 1e-10
    assert new >= old - 1e-12


@pytest.mark.parametrize("seed,weighted", CASES[:10])
def test_indicator_is_the_joint_of_the_bins(seed, weighted):
    x, y, w = random_case(seed, weighted)
    w = np.ones(len(x)) if w is None else w
    joint = _joint_from_samples(_rank_bins(x, 16), _rank_bins(y, 16), w)
    got = maximal_correlation(x, y, w, basis=BasisSpec(family="indicator", size=16))
    assert got == maximal_correlation_joint(joint)


def test_uncorrelated_spans_are_zero_not_an_error():
    # within each x level y is balanced, so E[y | x] and E[x | y] are
    # constant: the power iteration divided by a zero norm here
    x = np.array([0.0, 0.0, 1.0, 1.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ConstantInputError):
        ref_alternating_binned(x.astype(int), y.astype(int), np.ones(4))
    for family in ("indicator", "polynomial"):
        assert maximal_correlation(x, y, basis=BasisSpec(family=family, size=4)) <= 1e-12


def test_collapsed_basis_still_raises():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ConstantInputError):
        maximal_correlation(x, x, basis=BasisSpec(family="indicator", size=1))


def increasing_transforms(v):
    # strictly increasing and exact on the small integers drawn below
    return v**3 + 3.0 * v, np.exp(v / 8.0)


@st.composite
def weighted_samples(draw):
    n = draw(st.integers(4, 40))
    values = st.lists(st.integers(-30, 30), min_size=n, max_size=n).filter(
        lambda v: len(set(v)) > 1
    )
    x = np.array(draw(values), dtype=float)
    y = np.array(draw(values), dtype=float)
    w = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    return x, y, w


@given(weighted_samples(), st.integers(2, 16))
@settings(max_examples=200, deadline=None)
def test_basis_estimates_are_bounded_and_rank_invariant(sample, size):
    x, y, w = sample
    for family in ("indicator", "polynomial"):
        basis = BasisSpec(family=family, size=size)
        value = maximal_correlation(x, y, w, basis=basis)
        assert 0.0 <= value <= 1.0
        for fx in increasing_transforms(x):
            assert maximal_correlation(fx, y, w, basis=basis) == value
        for fy in increasing_transforms(y):
            assert maximal_correlation(x, fy, w, basis=basis) == value
    if len(np.unique(x)) <= size and len(np.unique(y)) <= size:
        indicator = maximal_correlation(x, y, w, basis=BasisSpec(family="indicator", size=size))
        assert indicator == maximal_correlation(x, y, w)
