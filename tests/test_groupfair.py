import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import synth
from fairaudit._common import _EXP_M2, _ndtri, cell_sums
from fairaudit.data import (
    Dataset,
    DegenerateGroupError,
    PredictionSet,
    ThresholdPolicy,
    apply_policy,
)
from fairaudit.groupfair import (
    calibration,
    class_balance,
    conditional_dp,
    disparate_impact,
    group_metric,
    impact_ci,
    impact_point_estimate,
    roc_equality,
)

from test_rocstats import proportions_dataset


# Reference-table values for the 24-row demo dataset with the shared
# threshold: (group0, group1) as exact fractions, None marks "-" cells.
TABLE2 = {
    "statistical_parity": (2 / 8, 12 / 16),
    "equal_opportunity": (2 / 5, 8 / 9),
    "predictive_equality": (0.0, 4 / 7),
    "conditional_accuracy": (3 / 6, 3 / 4),
    "predictive_parity": (2 / 2, 8 / 12),
    "accuracy_equality": (5 / 8, 11 / 16),
    "treatment_equality": (None, 1 / 4),
}


class TestTableReproduction:
    @pytest.mark.parametrize("metric", sorted(TABLE2))
    def test_group_values(self, toy, toy_pred, metric):
        res = group_metric(metric, toy, toy_pred)
        v0, v1 = TABLE2[metric]
        assert res.group0 == v0
        assert res.group1 == v1

    def test_printed_precision(self, toy, toy_pred):
        printed = {}
        for metric in TABLE2:
            r = group_metric(metric, toy, toy_pred)
            fmt = lambda v: None if v is None else f"{v * 100:.1f}"
            printed[metric] = (
                fmt(r.group0),
                fmt(r.group1),
                None if r.diff is None else f"{r.diff:.1f}",
                None if r.rel_diff is None else f"{r.rel_diff:+.1f}",
            )
        assert printed["statistical_parity"] == ("25.0", "75.0", "50.0", "+200.0")
        assert printed["equal_opportunity"] == ("40.0", "88.9", "48.9", "+122.2")
        assert printed["predictive_equality"] == ("0.0", "57.1", "57.1", None)
        assert printed["conditional_accuracy"] == ("50.0", "75.0", "25.0", "+50.0")
        assert printed["predictive_parity"] == ("100.0", "66.7", "-33.3", "-33.3")
        assert printed["accuracy_equality"] == ("62.5", "68.8", "6.2", "+10.0")
        assert printed["treatment_equality"] == (None, "25.0", None, None)


class TestConfusionFigureMetrics:
    def test_parity_family_holds_and_ppv_fails(self):
        d, pred = proportions_dataset()
        sp = group_metric("statistical_parity", d, pred)
        assert sp.group0 == sp.group1 == 0.5
        eo = group_metric("equalized_odds", d, pred)
        assert eo.gap == pytest.approx(0.0, abs=1e-12)
        acc = group_metric("accuracy_equality", d, pred)
        assert acc.group0 == acc.group1 == 0.5
        ppv = group_metric("predictive_parity", d, pred)
        assert ppv.group0 == pytest.approx(0.4)
        assert ppv.group1 == pytest.approx(0.6)
        te = group_metric("treatment_equality", d, pred)
        assert sorted([te.group0, te.group1]) == pytest.approx([2 / 3, 1.5])
        phi = group_metric("phi_fairness", d, pred)
        assert phi.group0 == pytest.approx(0.0, abs=1e-12)
        assert phi.group1 == pytest.approx(0.0, abs=1e-12)


class TestMetricMachinery:
    def test_unknown_metric(self, toy, toy_pred):
        with pytest.raises(ValueError, match="unknown metric"):
            group_metric("parity_of_vibes", toy, toy_pred)

    def test_empty_conditioning_class_is_undefined(self):
        # no predicted positives in group 0 -> PPV undefined, not an error
        d = Dataset(s=[0, 0, 1, 1], y=[0, 1, 0, 1], score=[0.1, 0.2, 0.3, 0.9])
        pred = apply_policy(d, ThresholdPolicy.shared(0.5))
        res = group_metric("predictive_parity", d, pred)
        assert res.group0 is None and res.gap is None and res.passed is None

    def test_equalizing_disincentives(self, toy, toy_pred):
        res = group_metric("equalizing_disincentives", toy, toy_pred)
        assert res.group0 == pytest.approx(2 / 5 - 0.0)
        assert res.group1 == pytest.approx(8 / 9 - 4 / 7)

    def test_auc_fairness_matches_concordance(self, toy):
        from test_rocstats import brute_force_concordance

        res = group_metric("auc_fairness", toy)
        for g, got in ((0, res.group0), (1, res.group1)):
            mask = toy.s == g
            assert got == brute_force_concordance(toy.score[mask], toy.y[mask])

    def test_definitional_equals_rate_identity(self, toy, toy_pred):
        # PPV_s from TPR/FPR and the group base rate, exactly
        from fairaudit import rocstats

        for g, conf in enumerate(rocstats.group_confusions(toy, toy_pred)):
            c = rocstats.rates(conf)
            pi = float(np.mean(toy.y[toy.s == g]))
            ppv_identity = c.tpr * pi / (c.tpr * pi + c.fpr * (1 - pi))
            res = group_metric("predictive_parity", toy, toy_pred)
            assert (res.group0 if g == 0 else res.group1) == pytest.approx(
                ppv_identity, abs=1e-15
            )
            acc_identity = c.tpr * pi + (1 - c.fpr) * (1 - pi)
            acc = group_metric("accuracy_equality", toy, toy_pred)
            assert (acc.group0 if g == 0 else acc.group1) == pytest.approx(
                acc_identity, abs=1e-15
            )

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_and_duplication_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        s = rng.integers(0, 2, size=n)
        y = rng.integers(0, 2, size=n)
        if len(set(s)) < 2:
            return
        score = rng.integers(0, 11, size=n) / 10.0
        d = Dataset(s=s, y=y, score=score)
        pred = apply_policy(d, ThresholdPolicy.shared(0.45))
        perm = rng.permutation(n)
        d_perm = Dataset(s=s[perm], y=y[perm], score=score[perm])
        d_dup = Dataset(s=np.tile(s, 3), y=np.tile(y, 3), score=np.tile(score, 3))
        pred_perm = apply_policy(d_perm, ThresholdPolicy.shared(0.45))
        pred_dup = apply_policy(d_dup, ThresholdPolicy.shared(0.45))
        for metric in ("statistical_parity", "equal_opportunity", "accuracy_equality"):
            base = group_metric(metric, d, pred)
            for alt_d, alt_p in ((d_perm, pred_perm), (d_dup, pred_dup)):
                alt = group_metric(metric, alt_d, alt_p)
                for a, b in ((base.group0, alt.group0), (base.group1, alt.group1)):
                    if a is None:
                        assert b is None
                    else:
                        assert a == pytest.approx(b, abs=1e-12)


class TestImpossibility:
    def test_equalized_odds_excludes_predictive_parity(self):
        # randomized small instances: force exact equalized odds by giving
        # both groups the same per-outcome decision probabilities, with
        # different base rates and an imperfect classifier; predictive
        # parity must then fail (PPV identity with the group base rates)
        rng = np.random.default_rng(2027)
        demonstrated = 0
        for _ in range(50):
            n = int(rng.integers(20, 60))
            s = rng.integers(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            if min(((s == g) & (y == yv)).sum() for g in (0, 1) for yv in (0, 1)) == 0:
                continue
            tpr = float(rng.uniform(0.5, 0.9))
            fpr = float(rng.uniform(0.1, 0.45))
            prob = np.where(y == 1, tpr, fpr)  # identical rates in both groups
            d = Dataset(s=s, y=y, score=np.full(n, 0.5))
            pred = PredictionSet(prob=prob)
            eo = group_metric("equalized_odds", d, pred)
            assert eo.gap <= 1e-12
            pi = [float(np.mean(y[s == g])) for g in (0, 1)]
            if abs(pi[0] - pi[1]) < 0.05:
                continue  # balanced groups: parity can coexist
            pp = group_metric("predictive_parity", d, pred)
            assert pp.gap > 0.0
            demonstrated += 1
        assert demonstrated >= 20


class TestDisparateImpact:
    def test_toy_block(self, toy, toy_pred):
        di = disparate_impact(toy, toy_pred)
        assert di.ratio == 1 / 3
        assert di.flagged  # 1/3 well below the four-fifths threshold
        assert di.spd == 0.5
        assert di.nspd == pytest.approx(0.5 / 0.875, abs=1e-15)
        assert di.eod == pytest.approx(8 / 9 - 2 / 5, abs=1e-15)

    def test_equal_rates_unflagged(self):
        d = Dataset(s=[0, 0, 1, 1], y=[0, 1, 0, 1], score=[0.1, 0.9, 0.1, 0.9])
        pred = apply_policy(d, ThresholdPolicy.shared(0.5))
        di = disparate_impact(d, pred)
        assert di.ratio == 1.0 and di.spd == 0.0 and not di.flagged

    def test_ratio_one_iff_spd_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = 40
            d = Dataset(
                s=rng.integers(0, 2, size=n),
                y=rng.integers(0, 2, size=n),
                score=rng.random(n).round(1),
            )
            if len(set(d.s)) < 2:
                continue
            pred = apply_policy(d, ThresholdPolicy.shared(0.5))
            di = disparate_impact(d, pred)
            if min(di.positive_rates) > 0:
                assert (di.ratio == 1.0) == (di.spd == 0.0)

    def test_point_estimate_formula(self, toy, toy_pred):
        # (sum yhat over s=0 / sum yhat over s=1) * (n1 / n0) = (2/12)*(16/8)
        assert impact_point_estimate(toy, toy_pred) == (2 / 12) * (16 / 8)


class TestImpactCI:
    def test_bootstrap_brackets_point(self, toy, toy_pred):
        ci = impact_ci(toy, toy_pred, method="bootstrap", n_boot=200, seed=4)
        assert ci.lo <= ci.point <= ci.hi
        assert ci.lo < ci.point < ci.hi  # strictly both sides on this data

    def test_bootstrap_deterministic(self, toy, toy_pred):
        a = impact_ci(toy, toy_pred, method="bootstrap", n_boot=150, seed=9)
        b = impact_ci(toy, toy_pred, method="bootstrap", n_boot=150, seed=9)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_asymptotic_coverage_on_fair_generator(self):
        # 1000 trials of a parity-fair generator: the 95% interval should
        # cover ratio 1 in at least 93% of them
        rng = np.random.default_rng(123)
        n, cover = 400, 0
        for trial in range(1000):
            s = rng.integers(0, 2, size=n)
            yhat = rng.random(n) < 0.4  # independent of s
            d = Dataset(s=s, y=np.zeros(n, dtype=int), score=np.full(n, 0.5))
            pred = PredictionSet.from_labels(yhat.astype(int))
            ci = impact_ci(d, pred, method="asymptotic", level=0.95)
            if ci.lo <= 1.0 <= ci.hi:
                cover += 1
        assert cover >= 930

    def test_bad_method(self, toy, toy_pred):
        with pytest.raises(ValueError):
            impact_ci(toy, toy_pred, method="jackknife")

    @pytest.mark.parametrize("method", ["bootstrap", "asymptotic"])
    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
    def test_level_outside_unit_interval_rejected(self, toy, toy_pred, method, level):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            impact_ci(toy, toy_pred, method=method, level=level)

    @pytest.mark.parametrize("c", [4.0, 64.0, 0.3])
    def test_bootstrap_interval_ignores_a_common_weight(self, c):
        # a common weight cancels in the ratio, so equal weights take the
        # binomial route; resampling records gave [0.7223, 0.8548] at c = 4
        d = synth.sample_scores(synth.operating_point_spec(), 3000, 3)
        pred = apply_policy(d, ThresholdPolicy.shared(0.5))
        scaled = Dataset(s=d.s, y=d.y, score=d.score, weight=np.full(len(d), c))
        assert impact_ci(scaled, pred) == impact_ci(d, pred)

    def test_infinite_replicates_make_endpoint_degenerate(self):
        # one positive in a group of 100: about 37% of replicates miss it
        n = 100
        d = Dataset(s=[0] * n + [1] * n, y=[0, 1] * n, score=np.full(2 * n, 0.5))
        pred = PredictionSet.from_labels([i % 3 == 0 for i in range(n)] + [1] + [0] * (n - 1))
        with pytest.raises(DegenerateGroupError, match="of 200 replicates had an infinite"):
            impact_ci(d, pred, n_boot=200, seed=0)


def _steps_around(x, k=64):
    """x and its k nearest doubles on each side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def test_ndtri_matches_scipy_bit_for_bit():
    from scipy.special import ndtri

    levels = np.concatenate(
        [np.linspace(1e-6, 1 - 1e-9, 20_001), [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]]
    )
    p = np.concatenate([
        levels,
        (1 + levels) / 2,  # what the asymptotic interval asks for
        np.geomspace(1e-300, 0.5, 3001),  # both tails' rational functions
        _steps_around(1 - _EXP_M2),  # the upper tail begins
        _steps_around(_EXP_M2),  # the lower tail begins
        _steps_around(math.exp(-32)),  # the tail's rational function switches
        [0.0, 5e-324, 1e-300, 1e-20, 1 - 2**-53, 1.0],
    ])
    got = np.array([_ndtri(float(v)) for v in p])
    assert np.array_equal(got.view(np.int64), ndtri(p).view(np.int64))


@st.composite
def keyed_columns(draw):
    """Cell keys with empty cells and runs from 1 to hundreds of records, and
    signed lognormal columns with some zeros of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cells = draw(st.integers(1, 400))
    used = draw(st.integers(1, n_cells))  # the cells above it stay empty
    key = rng.integers(0, used, size=draw(st.integers(0, 3000)))
    cols = rng.lognormal(0.0, 3.0, (draw(st.integers(1, 3)), len(key)))
    cols *= rng.choice([-1.0, 1.0, 0.0, -0.0], size=cols.shape, p=[0.45, 0.45, 0.05, 0.05])
    return key, n_cells, list(cols)


def assert_cell_sums_match_masks(key, n_cells, cols):
    sums, counts = cell_sums(key, n_cells, *cols)
    assert sums.shape == (len(cols), n_cells) and counts.shape == (n_cells,)
    empty = np.ones(n_cells, dtype=bool)
    empty[key] = False
    assert not counts[empty].any()
    assert (sums[:, empty].view(np.int64) == 0).all()  # +0.0, as np.sum of nothing
    for c in np.unique(key):
        mask = key == c
        assert counts[c] == mask.sum()
        for j, col in enumerate(cols):
            assert sums[j, c].tobytes() == np.sum(col[mask]).tobytes()


@settings(max_examples=200, deadline=None)
@given(keyed_columns())
def test_cell_sums_are_the_masked_sums_bit_for_bit(case):
    assert_cell_sums_match_masks(*case)


def test_cell_sums_on_keys_wider_than_16_bits():
    # more than 2**16 cells: the keys are sorted by comparison, not by radix
    rng = np.random.default_rng(5)
    key = rng.integers(0, 70_000, size=5000)
    key[:300] = 69_999  # one long run
    cols = [rng.lognormal(0.0, 3.0, len(key)) * rng.choice([-1.0, 1.0], len(key))]
    assert_cell_sums_match_masks(key, 70_000, cols)


def test_cell_sums_on_runs_beyond_numpy_blocking():
    # runs longer than the pairwise block (128) and the reduction buffer (8192)
    rng = np.random.default_rng(3)
    key = rng.integers(0, 3, size=40_000)
    key[key == 2] = 3  # cell 2 stays empty
    cols = [rng.lognormal(0.0, 3.0, len(key)) * rng.choice([-1.0, 1.0], len(key))]
    assert_cell_sums_match_masks(key, 5, cols)


def reference_bootstrap(d, pred, level, n_boot, seed):
    """The per-record bootstrap loop that the product route replaced: gathers
    each replicate's records and sums them by group."""
    impact_point_estimate(d, pred)
    n = len(d)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        for _ in range(100):
            idx = rng.integers(0, n, size=n)
            s_b = d.s[idx]
            if (s_b == 0).any() and (s_b == 1).any():
                break
        else:
            raise DegenerateGroupError("bootstrap resampling kept losing a group")
        w_b = d.weight[idx]
        p_b = pred.prob[idx]
        num = np.sum(w_b[s_b == 0] * p_b[s_b == 0])
        den = np.sum(w_b[s_b == 1] * p_b[s_b == 1])
        n1 = w_b[s_b == 1].sum()
        n0 = w_b[s_b == 0].sum()
        with np.errstate(all="ignore"):  # subnormal sums overflow like the code's
            stats[b] = math.inf if den == 0 else (num / den) * (n1 / n0)
    alpha = 1.0 - level
    with np.errstate(invalid="ignore"):
        lo, hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)


def binomial_replicates(d, pred, n_boot, seed):
    """The documented stream contract of the unit-weight 0/1 route, one scalar
    draw at a time: every m0, then the redraw rounds in index order, then every
    k0*, then every k1*.  Returns the replicate ratios and the rounds taken."""
    impact_point_estimate(d, pred)
    n = len(d)
    n1 = int(np.count_nonzero(d.s))
    n0 = n - n1
    k0 = sum(int(v) for v, g in zip(pred.prob, d.s) if g == 0)
    k1 = sum(int(v) for v, g in zip(pred.prob, d.s) if g == 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m0 = [int(rng.binomial(n, n0 / n)) for _ in range(n_boot)]
    rounds = 0
    while any(m in (0, n) for m in m0):
        if rounds == 100:
            raise DegenerateGroupError("bootstrap resampling kept losing a group")
        m0 = [int(rng.binomial(n, n0 / n)) if m in (0, n) else m for m in m0]
        rounds += 1
    k0s = [int(rng.binomial(m, k0 / n0)) for m in m0]
    k1s = [int(rng.binomial(n - m, k1 / n1)) for m in m0]
    stats = [math.inf if b == 0 else (a / b) * ((n - m) / m) for a, b, m in zip(k0s, k1s, m0)]
    return stats, rounds


def binomial_bootstrap(d, pred, level, n_boot, seed):
    alpha = 1.0 - level
    stats = binomial_replicates(d, pred, n_boot, seed)[0]
    with np.errstate(invalid="ignore"):
        lo, hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)


@st.composite
def bootstrap_inputs(draw):
    """Small datasets, some with only one or two records in a group (so that
    replicates lose the group and are redrawn).  Unit, integral non-unit or
    fractional weights are crossed with 0/1 or fractional decision
    probabilities; equal weights with 0/1 decisions take the binomial route,
    the rest the contribution-matrix product."""
    n1 = draw(st.sampled_from([1, 2, draw(st.integers(3, 30))]))
    n0 = draw(st.sampled_from([1, 2, draw(st.integers(3, 30))]))
    n = n0 + n1
    order = draw(st.permutations(range(n)))
    s = np.array([0] * n0 + [1] * n1)[list(order)]
    weights = draw(st.sampled_from(["unit", "integral", "fractional"]))
    if weights == "unit":
        weight = None
    elif weights == "integral":
        weight = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    else:
        weight = draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n))
    binary = draw(st.booleans())
    if binary:
        prob = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    else:
        prob = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    d = Dataset(s=s, y=np.zeros(n, dtype=int), weight=weight)
    pred = PredictionSet(prob=np.array(prob))
    if binary and (weight is None or len(set(weight)) == 1):
        route = "binomial"
    else:  # integral weights and 0/1 decisions make every sum an exact integer
        route = "exact" if binary and weights == "integral" else "product"
    seed = draw(st.integers(0, 2**32 - 1))
    level = draw(st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    return d, pred, route, seed, level


@settings(max_examples=100, deadline=None)
@given(bootstrap_inputs())
def test_bootstrap_matches_per_record_loop(inputs):
    d, pred, route, seed, level = inputs
    oracle = binomial_bootstrap if route == "binomial" else reference_bootstrap
    try:
        expected = oracle(d, pred, level, 100, seed)
    except DegenerateGroupError:
        with pytest.raises(DegenerateGroupError):
            impact_ci(d, pred, level=level, n_boot=100, seed=seed)
        return
    if not all(map(math.isfinite, expected)):
        with pytest.raises(DegenerateGroupError, match="replicates had an infinite ratio"):
            impact_ci(d, pred, level=level, n_boot=100, seed=seed)
        return
    ci = impact_ci(d, pred, level=level, n_boot=100, seed=seed)
    if route == "product":
        assert ci.lo == pytest.approx(expected[0], rel=1e-12, abs=0.0)
        assert ci.hi == pytest.approx(expected[1], rel=1e-12, abs=0.0)
    else:
        assert (ci.lo, ci.hi) == expected


@pytest.mark.parametrize("sizes", [(2, 1), (3, 1), (2, 2), (1, 3), (1, 5)])
def test_bootstrap_binomial_redraws_follow_the_stream_contract(sizes):
    # one- and two-record groups: an eighth to a half of the first draws of
    # m0 lose a group, and the ratio varies, so the interval depends on the
    # redraw rounds
    n0, n1 = sizes
    d = Dataset(s=[0] * n0 + [1] * n1, y=[0] * (n0 + n1))
    labels = [1 - i % 2 for i in range(n0)] + [int(i < max(2, n1 - 1)) for i in range(n1)]
    pred = PredictionSet.from_labels(labels)
    assert binomial_replicates(d, pred, 1000, 5)[1] >= 3
    for level in (0.5, 0.8):
        ci = impact_ci(d, pred, level=level, n_boot=1000, seed=5)
        assert (ci.lo, ci.hi) == binomial_bootstrap(d, pred, level, 1000, 5)
        assert ci.lo < ci.hi


def test_bootstrap_routes_match_their_oracles_at_scale():
    # 2e4 records, a rare positive decision in group 1: the binomial route
    # against its scalar stream, and with weights of 1 and 2 the product
    # route against the per-record loop, bit for bit at several levels
    rng = np.random.default_rng(11)
    n = 20_000
    s = rng.integers(0, 2, n)
    prob = (rng.random(n) < np.where(s == 0, 0.4, 0.05)).astype(float)
    pred = PredictionSet(prob=prob)
    unit = Dataset(s=s, y=np.zeros(n, dtype=int))
    doubled = Dataset(s=s, y=np.zeros(n, dtype=int), weight=1.0 + (np.arange(n) % 2))
    for level in (0.5, 0.9, 0.99):
        ci = impact_ci(unit, pred, level=level, n_boot=1000, seed=7)
        assert (ci.lo, ci.hi) == binomial_bootstrap(unit, pred, level, 1000, 7)
        ci = impact_ci(doubled, pred, level=level, n_boot=100, seed=7)
        assert (ci.lo, ci.hi) == reference_bootstrap(doubled, pred, level, 100, 7)


def _binomial_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


class RecordingGenerator:
    """A generator that records the trials, probability and result of each
    binomial draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def binomial(self, trials, p, size=None):
        out = self.rng.binomial(trials, p, size=size)
        self.calls.append((np.array(trials), p, out.copy()))
        return out


def test_bootstrap_binomial_law_is_the_resampling_law(monkeypatch):
    """Every resample of every unit-weight 0/1 dataset with n <= 6 records,
    enumerated: the exact pmf of (m0, k0*, k1*) is the product of the three
    binomials that impact_ci draws from, read back as fractions."""
    real = np.random.default_rng
    recorders = []

    def recording_rng(seed):
        recorders.append(RecordingGenerator(real(seed)))
        return recorders[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    checked = 0
    for n in range(2, 7):
        resamples = np.indices((n,) * n).reshape(n, -1).T  # all n^n index tuples
        for n0 in range(1, n):
            s = np.array([0] * n0 + [1] * (n - n0))
            for k0, k1 in itertools.product(range(n0 + 1), range(1, n - n0 + 1)):
                p = np.array([1.0] * k0 + [0.0] * (n0 - k0) + [1.0] * k1 + [0.0] * (n - n0 - k1))
                d = Dataset(s=s, y=np.zeros(n, dtype=int))
                try:  # the draws are what is checked, not the interval
                    impact_ci(d, PredictionSet(prob=p), n_boot=100)
                except DegenerateGroupError as exc:  # replicates with no group-1 positive
                    assert "had an infinite ratio" in str(exc)
                *m_calls, (t0, q0, _), (t1, q1, _) = recorders.pop().calls
                m0 = np.zeros(100, dtype=np.int64)
                for trials, q, out in m_calls:  # the first draw, then each redraw round
                    assert trials == n and Fraction(q).limit_denominator(n) == Fraction(n0, n)
                    m0[(m0 == 0) | (m0 == n)] = out
                assert np.array_equal(t0, m0) and np.array_equal(t1, n - m0)
                qm, qa, qb = (Fraction(q).limit_denominator(n) for q in (m_calls[0][1], q0, q1))
                law = {
                    (a, b, c): _binomial_pmf(n, qm, a) * _binomial_pmf(a, qa, b)
                    * _binomial_pmf(n - a, qb, c)
                    for a in range(n + 1) for b in range(a + 1) for c in range(n - a + 1)
                }
                g0 = s[resamples] == 0
                pos = p[resamples] == 1.0
                triples = np.column_stack(
                    [g0.sum(1), (g0 & pos).sum(1), (~g0 & pos).sum(1)]
                )
                keys, counts = np.unique(triples, axis=0, return_counts=True)
                enumerated = {
                    tuple(map(int, k)): Fraction(int(c), n**n) for k, c in zip(keys, counts)
                }
                assert {k: v for k, v in law.items() if v} == enumerated
                checked += 1
    assert checked == 105


def test_bootstrap_binomial_route_peak_is_independent_of_n():
    """Unit weights and 0/1 decisions: the replicates hold a few arrays of
    n_boot counts and no per-record draw.  Above the input checks and group
    counts that the asymptotic interval makes too, the bootstrap's peak stays
    below one 100k-record index draw, and the whole call peaks at a quarter of
    the record-gathering route's 2.4 MB at n = 1e5."""
    def peak(d, pred, **kw):
        tracemalloc.start()
        try:
            impact_ci(d, pred, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rng = np.random.default_rng(2)
    impact_ci(Dataset(s=[0, 1], y=[0, 0]), PredictionSet.from_labels([1, 1]))  # lazy imports
    for n in (10_000, 100_000):
        d = Dataset(s=rng.integers(0, 2, n), y=np.zeros(n, dtype=int))
        pred = PredictionSet(prob=rng.integers(0, 2, n).astype(float))
        base = peak(d, pred, method="asymptotic")
        boot = peak(d, pred, n_boot=1000, seed=0)
        assert boot - base < 100_000
    assert boot < 600_000


def test_bootstrap_redraws_from_the_replicate_generator():
    # one group-1 record in 5: a third of the first draws lose group 1, and
    # distinct weights give every resample its own ratio, so only redraws
    # from the same generator reproduce the reference interval
    d = Dataset(s=[0, 0, 0, 0, 1], y=[0, 1, 0, 1, 1], weight=[1.0, 1.3, 1.7, 2.9, 1.1])
    pred = PredictionSet(prob=np.array([0.9, 0.2, 0.6, 0.35, 0.8]))
    for level in (0.5, 0.8, 0.95):
        expected = reference_bootstrap(d, pred, level, 500, 3)
        ci = impact_ci(d, pred, level=level, n_boot=500, seed=3)
        assert ci.lo == pytest.approx(expected[0], rel=1e-12, abs=0.0)
        assert ci.hi == pytest.approx(expected[1], rel=1e-12, abs=0.0)


class LosingGenerator:
    """A generator whose first ``losses`` index draws resample only the last
    record (group 1), and whose later draws take every record once."""

    def __init__(self, losses):
        self.losses = losses

    def integers(self, low, high, size):
        self.losses -= 1
        return np.full(size, high - 1) if self.losses >= 0 else np.arange(size)


@pytest.mark.parametrize("losses", [100, 101])
def test_bootstrap_record_route_redraws_100_times(monkeypatch, losses):
    # unequal weights take the record-resampling route; each replicate gets
    # its own generator, so every replicate loses group 0 ``losses`` times
    d = Dataset(s=[0, 0, 1, 1], y=[0, 1, 0, 1], weight=[2.0, 2.0, 1.0, 1.0])
    pred = PredictionSet.from_labels([1, 0, 1, 0])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: LosingGenerator(losses))
    if losses == 100:
        ci = impact_ci(d, pred, n_boot=100, seed=0)
        assert ci.lo == ci.hi == ci.point == 1.0
    else:
        with pytest.raises(DegenerateGroupError, match=r"kept losing a group \(100 retries\)"):
            impact_ci(d, pred, n_boot=100, seed=0)


def test_bootstrap_overflowing_ratio_counts_undefined_replicates():
    # group-0 sums are subnormal and group-1 sums huge: every replicate ratio
    # is 0 * inf = NaN, which must neither warn nor count as zero replicates
    n = 20
    d = Dataset(
        s=[0] * n + [1] * n,
        y=[0, 1] * n,
        weight=[1e-310] * n + [1e300] * n,
    )
    pred = PredictionSet(prob=np.array([0.0, 1.0] * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGroupError, match="undefined") as exc:
            impact_ci(d, pred, n_boot=100, seed=0)
    count = int(str(exc.value).split("undefined: ")[1].split(" of ")[0])
    assert count > 0


class TestRocEquality:
    def test_identical_multisets(self):
        y = [0, 1, 0, 1, 1]
        m = [0.1, 0.3, 0.5, 0.7, 0.9]
        d = Dataset(s=[0] * 5 + [1] * 5, y=y + y, score=m + m)
        res = roc_equality(d)
        assert res.sup_tpr_gap == 0.0 and res.sup_fpr_gap == 0.0

    def test_monotone_transform_invariance(self):
        y = [0, 1, 0, 1, 1, 0]
        m = np.array([0.1, 0.3, 0.45, 0.7, 0.9, 0.6])
        transformed = m**3  # strictly monotone, same ranks
        d = Dataset(s=[0] * 6 + [1] * 6, y=y + y, score=np.concatenate([m, transformed]))
        res = roc_equality(d)
        assert res.sup_tpr_gap == 0.0 and res.sup_fpr_gap == 0.0

    def test_toy_frozen_constants(self, toy):
        res = roc_equality(toy)
        # grid-evaluation oracle values, frozen as regression constants
        assert res.sup_tpr_gap == pytest.approx(0.8 - 4 / 9, abs=1e-12)
        assert res.sup_fpr_gap == pytest.approx(5 / 7 - 1 / 3, abs=1e-12)


class TestClassBalance:
    def test_toy_weak_positive_class(self, toy):
        per_y = class_balance(toy, "weak")
        mean0 = (3 + 5 + 6 + 11 + 12) / (5 * 24)
        mean1 = (9 + 16 + 17 + 18 + 19 + 21 + 22 + 23 + 24) / (9 * 24)
        assert per_y[1] == pytest.approx(abs(mean0 - mean1), abs=1e-12)
        assert per_y[1] == pytest.approx(0.474, abs=5e-4)

    def test_identical_distributions(self):
        y = [0, 1, 0, 1]
        m = [0.2, 0.4, 0.6, 0.8]
        d = Dataset(s=[0] * 4 + [1] * 4, y=y + y, score=m + m)
        per_weak = class_balance(d, "weak")
        per_strong = class_balance(d, "strong")
        assert per_weak == {0: 0.0, 1: 0.0}
        assert per_strong == {0: 0.0, 1: 0.0}

    def test_disjoint_supports_ks_one(self):
        d = Dataset(
            s=[0, 0, 1, 1] * 2,
            y=[1, 1, 1, 1, 0, 0, 0, 0],
            score=[0.1, 0.2, 0.8, 0.9, 0.1, 0.2, 0.8, 0.9],
        )
        per_strong = class_balance(d, "strong")
        assert per_strong[1] == 1.0 and per_strong[0] == 1.0

    def test_empty_cell_undefined(self):
        d = Dataset(s=[0, 0, 1], y=[0, 1, 0], score=[0.1, 0.9, 0.4])
        per_y = class_balance(d, "weak")
        assert per_y[1] is None and per_y[0] is not None


class TestCalibration:
    def test_constant_calibrated_score(self):
        # both group base rates equal the constant score: deviation 0 exactly
        d = Dataset(
            s=[0, 0, 1, 1] * 3,
            y=[0, 1] * 6,
            score=[0.5] * 12,
        )
        res = calibration(d, bins=1)
        assert res.good_calibration_deviation == 0.0
        assert res.parity_gap == 0.0

    def test_simulated_calibrated_scores_have_small_gap(self):
        rng = np.random.default_rng(42)
        n = 100_000
        m = rng.random(n)
        s = rng.integers(0, 2, size=n)  # independent of everything
        y = (rng.random(n) < m).astype(int)
        d = Dataset(s=s, y=y, score=m)
        res = calibration(d, bins=10)
        assert res.parity_gap <= 0.03
        assert res.good_calibration_deviation <= 0.03

    def test_shifted_scores_show_gap(self):
        rng = np.random.default_rng(6)
        n = 20_000
        base = rng.random(n) * 0.6 + 0.2
        y = (rng.random(n) < base).astype(int)
        s = rng.integers(0, 2, size=n)
        m = np.clip(base + 0.2 * (s == 0), 0, 1)  # group-0 scores shifted up
        res = calibration(Dataset(s=s, y=y, score=m), bins=10)
        assert res.parity_gap > 0.05

    def test_bins_above_record_count_rejected(self):
        rng = np.random.default_rng(8)
        n = 40
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=rng.random(n))
        assert len(calibration(d, bins=n).edges) == n + 1
        with pytest.raises(ValueError, match="41 calibration bins exceed the 40 scored records"):
            calibration(d, bins=n + 1)

    def test_more_bins_than_scores_merges(self):
        d = Dataset(s=[0, 1, 0, 1], y=[0, 1, 0, 1], score=[0.2, 0.2, 0.8, 0.8])
        res = calibration(d, bins=10)
        assert res.merged_bins


class TestConditionalDP:
    def test_no_legit_columns_reduces_to_global(self, toy, toy_pred):
        res = conditional_dp(toy, toy_pred, legit=())
        assert len(res["strata"]) == 1
        assert res["max_gap"] == pytest.approx(50.0, abs=1e-12)

    def test_strata_aligned_with_group_all_undefined(self):
        d = Dataset(
            s=[0, 0, 1, 1],
            y=[0, 1, 0, 1],
            score=[0.1, 0.9, 0.2, 0.8],
            features=np.array([[0.0], [0.0], [1.0], [1.0]]),
            feature_names=("seg",),
        )
        pred = apply_policy(d, ThresholdPolicy.shared(0.5))
        res = conditional_dp(d, pred, legit=("seg",))
        assert res["max_gap"] is None
        assert all(st["gap"] is None for st in res["strata"])

    def test_simpson_style_construction(self):
        # each stratum parity-fair, but group 1 concentrates in the
        # high-rate stratum: per-stratum gaps 0, global gap large
        rows = []
        # stratum A: rate 1/2 in both groups; group 0 heavy
        for g, k in ((0, 10), (1, 2)):
            for i in range(k):
                rows.append((g, 0.0, i % 2))
        # stratum B: rate 0 in both groups; group 1 heavy
        for g, k in ((0, 2), (1, 10)):
            for _ in range(k):
                rows.append((g, 1.0, 0))
        s = [r[0] for r in rows]
        strat = np.array([[r[1]] for r in rows])
        yhat = [r[2] for r in rows]
        d = Dataset(
            s=s, y=yhat, score=[0.5] * len(rows), features=strat, feature_names=("seg",)
        )
        pred = PredictionSet.from_labels(yhat)
        res = conditional_dp(d, pred, legit=("seg",))
        assert all(abs(st["gap"]) < 1e-12 for st in res["strata"])
        global_sp = group_metric("statistical_parity", d, pred)
        assert global_sp.gap > 10.0
