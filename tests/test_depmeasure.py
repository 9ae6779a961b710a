import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import depmeasure
from fairaudit.data import TOY_THRESHOLD, ThresholdPolicy, apply_policy
from fairaudit.depmeasure import (
    BasisSpec,
    ConstantInputError,
    _joint_from_samples,
    _poly_features,
    conditional_maximal_correlation,
    maximal_correlation,
    maximal_correlation_joint,
    mutual_information,
    pearson,
)


def moment_correlation(x, y, w=None):
    """Oracle: direct weighted product-moment computation."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    w = np.ones(len(x)) if w is None else np.asarray(w, float)
    w = w / w.sum()
    mx, my = w @ x, w @ y
    cov = w @ ((x - mx) * (y - my))
    return cov / math.sqrt((w @ (x - mx) ** 2) * (w @ (y - my) ** 2))


def joint_pearson(P):
    """|Pearson| of a binary joint table, the exact maximal correlation."""
    P = np.asarray(P, float) / np.sum(P)
    px, py = P.sum(axis=1)[1], P.sum(axis=0)[1]
    cov = P[1, 1] - px * py
    return abs(cov) / math.sqrt(px * (1 - px) * py * (1 - py))


class TestPearson:
    def test_identity(self):
        x = np.array([0.1, 0.5, 0.9, 0.3])
        assert pearson(x, x) == pytest.approx(1.0)

    def test_toy_prediction_group_correlation(self, toy):
        pred = apply_policy(toy, ThresholdPolicy.shared(TOY_THRESHOLD))
        got = pearson(pred.prob, toy.s.astype(float))
        assert got == pytest.approx(moment_correlation(pred.prob, toy.s), abs=1e-12)
        assert got == pytest.approx(0.478, abs=5e-4)

    def test_constant_input(self):
        with pytest.raises(ConstantInputError):
            pearson([1.0, 1.0, 1.0], [0.2, 0.5, 0.9])

    def test_weighted_matches_replication(self):
        x = np.array([0.1, 0.7, 0.4])
        y = np.array([1.0, 0.0, 1.0])
        w = np.array([2.0, 1.0, 3.0])
        expanded_x = np.repeat(x, [2, 1, 3])
        expanded_y = np.repeat(y, [2, 1, 3])
        assert pearson(x, y, w) == pytest.approx(pearson(expanded_x, expanded_y), abs=1e-12)


class TestMaximalCorrelationExact:
    def test_independent_joint(self):
        assert maximal_correlation_joint([[0.25, 0.25], [0.25, 0.25]]) <= 1e-10

    def test_symmetric_dependent_joint(self):
        assert maximal_correlation_joint([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(0.6, abs=1e-12)

    def test_perfect_dependence(self):
        x = np.array([0, 1, 0, 1, 1, 0], dtype=float)
        assert maximal_correlation(x, x) == pytest.approx(1.0, abs=1e-10)

    def test_binary_equals_abs_pearson_on_simplex_grid(self):
        # all 2x2 joints with entries in twentieths (covers any 21x21 grid)
        hits = 0
        for a, b, c in itertools.product(range(21), repeat=3):
            d = 20 - a - b - c
            if d < 0:
                continue
            P = np.array([[a, b], [c, d]], dtype=float) / 20.0
            r, col = P.sum(axis=1), P.sum(axis=0)
            if min(r.min(), col.min()) == 0:
                continue
            assert maximal_correlation_joint(P) == pytest.approx(joint_pearson(P), abs=1e-9)
            hits += 1
        assert hits > 400

    def test_factorized_joints_are_zero(self):
        for px in (0.1, 0.35, 0.6):
            for py in (0.2, 0.5, 0.85):
                P = np.outer([1 - px, px], [1 - py, py])
                assert maximal_correlation_joint(P) <= 1e-10

    def test_2x3_factorized(self):
        P = np.outer([0.3, 0.7], [0.2, 0.3, 0.5])
        assert maximal_correlation_joint(P) <= 1e-10

    @pytest.mark.parametrize("shape,denom", [((2, 2), 12), ((2, 3), 6)])
    def test_zero_iff_factorized_on_rational_grid(self, shape, denom):
        # enumerate every joint with cells in multiples of 1/denom and both
        # margins positive: the value vanishes exactly when P = outer(r, c)
        cells = shape[0] * shape[1]

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for rest in compositions(total - head, parts - 1):
                    yield (head,) + rest

        checked = 0
        for combo in compositions(denom, cells):
            P = np.array(combo, dtype=float).reshape(shape) / denom
            r, c = P.sum(axis=1), P.sum(axis=0)
            if r.min() == 0 or c.min() == 0:
                continue
            factorized = np.allclose(P, np.outer(r, c), atol=1e-12)
            value = maximal_correlation_joint(P)
            if factorized:
                assert value <= 1e-10
            else:
                assert value > 1e-10
            checked += 1
        assert checked > 50


class TestMaximalCorrelationBasis:
    def test_indicator_estimate_close_to_exact(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, size=4000).astype(float)
        y = (x + rng.integers(0, 2, size=4000)) % 4.0
        exact = maximal_correlation(x, y)
        est = maximal_correlation(x, y, basis=BasisSpec(family="indicator", size=16))
        assert est <= exact + 1e-6
        assert est == pytest.approx(exact, abs=1e-6)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=3000)
        y = x**2 + 0.3 * rng.normal(size=3000)
        basis = BasisSpec(family="indicator", size=16)
        v1 = maximal_correlation(x, y, basis=basis)
        v2 = maximal_correlation(np.exp(x), y**3, basis=basis)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_polynomial_family_detects_nonlinear_dependence(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=4000)
        y = x**2
        res = maximal_correlation(x, y, basis=BasisSpec(family="polynomial", size=4))
        assert res > 0.8
        z = rng.uniform(-1, 1, size=4000)
        res_ind = maximal_correlation(x, z, basis=BasisSpec(family="polynomial", size=4))
        assert res_ind < 0.1

    def test_bivariate_gaussian_matches_theory(self):
        # for a bivariate Gaussian the maximal correlation equals |rho|
        rng = np.random.default_rng(23)
        n = 100_000
        for rho in (0.3, 0.6, 0.85):
            z1 = rng.normal(size=n)
            z2 = rho * z1 + math.sqrt(1 - rho**2) * rng.normal(size=n)
            est = maximal_correlation(z1, z2, basis=BasisSpec(family="indicator", size=16))
            assert est == pytest.approx(rho, abs=0.03)


class TestConditionalMaximalCorrelation:
    def test_conditionally_independent_construction(self):
        rng = np.random.default_rng(19)
        n = 10_000
        z = rng.integers(0, 3, size=n)
        # within each stratum x and y are independent draws
        x = rng.integers(0, 2, size=n) + 2.0 * z
        y = rng.integers(0, 2, size=n) + 2.0 * z
        res = conditional_maximal_correlation(x, y, z)
        assert res.max_value <= 0.05

    def test_identity_within_strata(self):
        z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = np.array([0, 1, 0, 1, 2, 3, 2, 3], dtype=float)
        res = conditional_maximal_correlation(x, x, z)
        assert res.max_value == pytest.approx(1.0, abs=1e-10)

    def test_toy_per_stratum_frozen(self, toy):
        pred = apply_policy(toy, ThresholdPolicy.shared(TOY_THRESHOLD))
        res = conditional_maximal_correlation(pred.prob, toy.s.astype(float), toy.y)
        # binary-within-stratum values equal |pearson| (verified oracle)
        for yv in (0, 1):
            mask = toy.y == yv
            oracle = abs(moment_correlation(pred.prob[mask], toy.s[mask]))
            assert res.per_stratum[yv] == pytest.approx(oracle, abs=1e-10)
        assert res.per_stratum[0] == pytest.approx(0.5345224838248488, abs=1e-12)
        assert res.per_stratum[1] == pytest.approx(0.5185449728701349, abs=1e-12)
        assert res.max_value == pytest.approx(0.5345224838248488, abs=1e-12)

    def test_degenerate_stratum_is_none(self):
        z = np.array([0, 0, 1, 1])
        x = np.array([1.0, 1.0, 0.0, 1.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        res = conditional_maximal_correlation(x, y, z)
        assert res.per_stratum[0] is None
        assert res.per_stratum[1] is not None


class TestMutualInformation:
    def test_independent(self):
        x = np.repeat([0, 0, 1, 1], 25)
        y = np.tile([0, 1, 0, 1], 25)
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_fair_coin_identity(self):
        x = np.array([0, 1] * 50)
        assert mutual_information(x, x) == pytest.approx(math.log(2), abs=1e-12)

    def test_toy_outcome_group_frozen(self, toy):
        got = mutual_information(toy.y, toy.s)

        def entropy(labels):
            _, counts = np.unique(labels, return_counts=True)
            p = counts / counts.sum()
            return float(-(p * np.log(p)).sum())

        joint = [f"{a},{b}" for a, b in zip(toy.y, toy.s)]
        oracle = entropy(toy.y) + entropy(toy.s) - entropy(joint)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.0017960484212260364, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_non_negative_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 4, size=n)
        y = rng.integers(0, 3, size=n)
        assert mutual_information(x, y) >= -1e-15
        assert mutual_information(x, y) == pytest.approx(mutual_information(y, x), abs=1e-12)


@pytest.mark.parametrize(
    "measure",
    [
        lambda x, y, w: pearson(x, y, w),
        lambda x, y, w: maximal_correlation(x, y, w),
        lambda x, y, w: maximal_correlation_joint([[w[0], w[1]], [0.0, w[2]]]),
        lambda x, y, w: mutual_information(x, y, w),
    ],
    ids=["pearson", "maximal_correlation", "maximal_correlation_joint", "mutual_information"],
)
def test_underflowing_weights_are_constant_input(measure):
    # the variance product and the margin products underflow to 0
    x, y, w = np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]), np.array([1e-300, 1e-300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstantInputError, match="underflows to 0"):
            measure(x, y, w)


def reference_poly_features(v, degree):
    """The rank transform as an argsort of argsorts with tie ranks averaged
    by np.add.at over np.unique groups."""
    ranks = np.argsort(np.argsort(v, kind="stable"), kind="stable").astype(float)
    distinct, inv = np.unique(v, return_inverse=True)
    mean_rank = np.zeros(len(distinct))
    np.add.at(mean_rank, inv, ranks)
    counts = np.bincount(inv)
    u = (mean_rank / counts)[inv] / max(len(v) - 1, 1)
    return np.column_stack([u**k for k in range(1, degree + 1)])


@pytest.mark.parametrize("levels", [1, 2, 3, 7, None])
def test_poly_features_match_reference_rank_transform(levels):
    rng = np.random.default_rng(levels or 0)
    for n in (1, 2, 5, 40, 1000, 5000):
        x = rng.random(n) if levels is None else rng.integers(0, levels, n) * 0.5 - 0.5
        assert np.array_equal(_poly_features(x, 4), reference_poly_features(x, 4))


def unique_joint(x, y, w):
    """The joint table from np.unique codes and np.add.at: one row per value
    x takes and one column per value y takes."""
    xv, xi = np.unique(x, return_inverse=True)
    yv, yi = np.unique(y, return_inverse=True)
    P = np.zeros((len(xv), len(yv)))
    np.add.at(P, (xi, yi), w)
    return P / P.sum()


def outcome(f, *args):
    """A measure's value as bytes, or its error's type and message."""
    try:
        return np.float64(f(*args)).tobytes()
    except (ConstantInputError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def binary_samples(draw):
    """0/1 samples as floats or integers, sometimes with a constant column,
    under unit, lognormal (sigma 3) or lognormal weights near 1e-300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    x, y = rng.integers(0, 2, (2, n))
    constant = draw(st.sampled_from([None, "x", "y"]))
    if constant == "x":
        x[:] = draw(st.integers(0, 1))
    elif constant == "y":
        y[:] = draw(st.integers(0, 1))
    if draw(st.booleans()):
        x, y = x.astype(float), y.astype(float)
    scale = draw(st.sampled_from([None, 1.0, 1e-300]))
    w = np.ones(n) if scale is None else scale * rng.lognormal(0.0, 3.0, n)
    return x, y, w


@settings(max_examples=200, deadline=None)
@given(binary_samples())
def test_binary_joint_is_the_unique_joint(case):
    x, y, w = case
    P, Q = _joint_from_samples(x, y, w), unique_joint(x, y, w)
    # a value that never occurs adds a zero row or column, the rest are the same bits
    rows, cols = np.isin([0, 1], x), np.isin([0, 1], y)
    assert P.shape == (2, 2)
    assert P[np.ix_(rows, cols)].tobytes() == Q.tobytes()
    assert not P[~rows].any() and not P[:, ~cols].any()
    assert outcome(maximal_correlation_joint, P) == outcome(maximal_correlation_joint, Q)
    with mock.patch.object(depmeasure, "_joint_from_samples", unique_joint):
        expected = [outcome(f, x, y, w) for f in (mutual_information, maximal_correlation)]
    assert [outcome(f, x, y, w) for f in (mutual_information, maximal_correlation)] == expected
    if not (rows.all() and cols.all()):
        with pytest.raises(ConstantInputError):
            maximal_correlation_joint(P)
        if len(x) > 1:  # one record is rejected before the constant check
            with pytest.raises(ConstantInputError):
                maximal_correlation(x, y, w)
