import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.data import (
    Dataset,
    DegenerateGroupError,
    PredictionSet,
    ThresholdPolicy,
    apply_policy,
)
from fairaudit.rocstats import (
    ConfusionMatrix,
    RocCurve,
    _group_sweeps,
    _policy_candidates,
    _sweep,
    _upper_hull,
    auc,
    best_accuracy_threshold,
    fairest_threshold,
    group_confusions,
    rates,
    roc_curve,
)


def brute_force_concordance(score, y):
    """Independent oracle: pairwise concordance with ties counted 1/2,
    accumulated in exact integer arithmetic (doubled counts)."""
    neg = [m for m, yy in zip(score, y) if yy == 0]
    pos = [m for m, yy in zip(score, y) if yy == 1]
    doubled = 0
    for a in neg:
        for b in pos:
            if b > a:
                doubled += 2
            elif b == a:
                doubled += 1
    return doubled / (2 * len(neg) * len(pos))


# The two-group confusion proportions used throughout the comparison
# discussion: cells are (tn, fn, fp, tp) percentages per group.
PROPORTION_CELLS = {0: (30, 20, 30, 20), 1: (20, 30, 20, 30)}


def proportions_dataset():
    s, y, yhat, w = [], [], [], []
    for g, (tn, fn, fp, tp) in PROPORTION_CELLS.items():
        for count, yy, hh in ((tn, 0, 0), (fn, 1, 0), (fp, 0, 1), (tp, 1, 1)):
            s.append(g)
            y.append(yy)
            yhat.append(hh)
            w.append(float(count))
    return Dataset(s=s, y=y, score=[0.5] * len(s), weight=w), PredictionSet.from_labels(yhat)


# The masked reference for ``group_confusions``: one mask per group and four
# ``np.sum`` calls under each mask
def confusion(
    d: Dataset, pred: PredictionSet, group: int | None = None
) -> ConfusionMatrix:
    """Weighted confusion counts, optionally restricted to one group."""
    if len(pred) != len(d):
        raise ValueError("predictions not aligned with dataset")
    mask = np.ones(len(d), dtype=bool) if group is None else d.s == group
    if not mask.any():
        raise DegenerateGroupError(f"filter selects no records (group={group})")
    w = d.weight[mask]
    y = d.y[mask]
    p = pred.prob[mask]
    return ConfusionMatrix(
        tp=float(np.sum(w * p * y)),
        fp=float(np.sum(w * p * (1 - y))),
        tn=float(np.sum(w * (1 - p) * (1 - y))),
        fn=float(np.sum(w * (1 - p) * y)),
    )


def cells(c: ConfusionMatrix) -> tuple:
    return (c.tp, c.fp, c.tn, c.fn)


@st.composite
def confusion_inputs(draw):
    """Both groups present; unit, integer or lognormal weights; 0/1 or
    fractional decision probabilities."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    s = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
    y = rng.integers(0, 2, n)
    w = {
        "unit": None,
        "integer": rng.integers(1, 50, n).astype(float),
        "lognormal": rng.lognormal(0.0, 2.0, n),
    }[draw(st.sampled_from(["unit", "integer", "lognormal"]))]
    fractional = draw(st.booleans())
    prob = rng.random(n) if fractional else rng.integers(0, 2, n).astype(float)
    return Dataset(s=s, y=y, score=rng.random(n), weight=w), PredictionSet(prob=prob)


class TestConfusion:
    def test_toy_counts(self, toy, toy_pred):
        c0, c1 = group_confusions(toy, toy_pred)
        assert cells(c0) == (2, 0, 3, 3)
        assert cells(c1) == (8, 4, 3, 1)
        # the pooled counts of the toy table
        assert tuple(a + b for a, b in zip(cells(c0), cells(c1))) == (10, 4, 6, 4)

    def test_perfect_classifier(self, toy):
        pred = PredictionSet.from_labels(toy.y)
        for c in group_confusions(toy, pred):
            assert c.fp == 0 and c.fn == 0

    def test_proportions_reconstruction(self):
        d, pred = proportions_dataset()
        for g, c in enumerate(group_confusions(d, pred)):
            assert (c.tn, c.fn, c.fp, c.tp) == PROPORTION_CELLS[g]

    def test_empty_filter(self):
        pred = PredictionSet.from_labels([0, 1])
        for g in (0, 1):
            d = Dataset(s=[1 - g] * 2, y=[0, 1], score=[0.1, 0.9])
            with pytest.raises(DegenerateGroupError) as exc:
                group_confusions(d, pred)
            assert str(exc.value) == f"group {g} is empty"

    def test_misaligned_predictions(self, toy):
        with pytest.raises(ValueError, match="not aligned"):
            group_confusions(toy, PredictionSet.from_labels([0, 1]))

    def test_randomized_fractional_counts(self, toy):
        pred = PredictionSet(prob=np.full(24, 0.5))
        for g, c in enumerate(group_confusions(toy, pred)):
            in_g = toy.s == g
            assert c.tp == 0.5 * np.sum(toy.y[in_g])
            assert c.total == np.sum(in_g)

    @settings(max_examples=200, deadline=None)
    @given(confusion_inputs())
    def test_matches_mask_oracle_bit_for_bit(self, case):
        d, pred = case
        got = group_confusions(d, pred)
        for g in (0, 1):
            want = confusion(d, pred, group=g)
            assert [v.hex() for v in cells(got[g])] == [v.hex() for v in cells(want)]


class TestRates:
    def test_proportions_rates(self):
        d, pred = proportions_dataset()
        r0, r1 = map(rates, group_confusions(d, pred))
        assert r0.accuracy == 0.5 and r1.accuracy == 0.5
        assert r0.ppv == pytest.approx(0.4)
        assert r1.ppv == pytest.approx(0.6)
        assert r0.fpr == 0.5 and r1.fpr == 0.5

    def test_proportions_phi_zero(self):
        d, pred = proportions_dataset()
        for c in group_confusions(d, pred):
            assert rates(c).phi == pytest.approx(0.0)

    def test_degenerate_denominators(self):
        r = rates(ConfusionMatrix(tp=1, fp=0, tn=0, fn=0))
        assert r.tpr == 1.0 and r.ppv == 1.0
        assert r.fpr is None and r.npv is None and r.phi is None

    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-60, 1e60)), min_size=4, max_size=4
    ))
    def test_phi_keeps_the_product_formula_bits(self, counts):
        """Where the product of the four margins neither overflows nor
        underflows, phi is the one-product formula's value, bit for bit."""
        tp, fp, tn, fn = counts
        den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        want = None if den == 0 else (tp * tn - fp * fn) / math.sqrt(den)
        got = rates(ConfusionMatrix(*counts)).phi
        assert (got is None and want is None) or got.hex() == want.hex()

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300, 1e-150, 1e-300])
    def test_phi_of_scaled_counts_is_phi(self, scale):
        """The margin product over- or underflows: phi is the phi of the
        same counts at unit scale."""
        counts = (3.0, 1.0, 2.0, 5.0)
        want = rates(ConfusionMatrix(*counts)).phi
        got = rates(ConfusionMatrix(*(c * scale for c in counts))).phi
        assert got == pytest.approx(want, rel=1e-14)

    def test_phi_across_a_wide_weight_range(self):
        """A perfect positive and a perfect negative, at weights 2e198 and
        1e-14: phi is 1, where the margin product overflows."""
        c = ConfusionMatrix(tp=2.0571089860330838e198, fp=0.0, tn=1e-14, fn=0.0)
        assert rates(c).phi == pytest.approx(1.0, rel=1e-15)

    def test_accuracy_matches_direct_count(self, toy, toy_pred):
        for g, c in enumerate(group_confusions(toy, toy_pred)):
            in_g = toy.s == g
            direct = float(np.mean(toy_pred.prob[in_g] == toy.y[in_g]))
            assert abs(rates(c).accuracy - direct) < 1e-12


class TestRocCurve:
    def test_perfect_separation(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.2, 0.8])
        c = roc_curve(d)
        assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
        assert list(zip(c.fpr.tolist(), c.tpr.tolist())) == [(0, 0), (0, 1), (1, 1)]

    def test_four_score_example(self):
        d = Dataset(s=[0] * 4, y=[0, 0, 1, 1], score=[0.1, 0.4, 0.35, 0.8])
        c = roc_curve(d)
        pts = list(zip(c.fpr.tolist(), c.tpr.tolist()))
        assert pts == [(0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1)]

    def test_constant_scores(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.5, 0.5])
        c = roc_curve(d)
        assert list(zip(c.fpr.tolist(), c.tpr.tolist())) == [(0, 0), (1, 1)]

    def test_single_class_raises(self):
        d = Dataset(s=[0, 0], y=[1, 1], score=[0.2, 0.8])
        with pytest.raises(DegenerateGroupError):
            roc_curve(d)

    def test_endpoints_and_monotone(self, toy):
        c = roc_curve(toy)
        assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
        assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(c.fpr) >= 0) and np.all(np.diff(c.tpr) >= 0)
        assert np.all(np.diff(c.thresholds) < 0)

    def test_endpoints_exact_under_fractional_weights(self):
        # cumulative sums and grand totals must come from the same running
        # sum, or the last point misses (1, 1) by an ulp
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            d = Dataset(
                s=np.zeros(n, dtype=int),
                y=y,
                score=rng.random(n),
                weight=rng.random(n) * 5 + 0.01,
            )
            c = roc_curve(d)
            assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
            assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)

    def test_group_curve_when_other_group_is_empty(self):
        d = Dataset(s=[0] * 4, y=[0, 0, 1, 1], score=[0.1, 0.4, 0.35, 0.8])
        c0, c = roc_curve(d, group=0), roc_curve(d)
        for a, b in ((c0.fpr, c.fpr), (c0.tpr, c.tpr), (c0.thresholds, c.thresholds)):
            assert a.tolist() == b.tolist()
        with pytest.raises(DegenerateGroupError, match="group=1"):
            roc_curve(d, group=1)


@st.composite
def grouped_sweep_inputs(draw):
    """Scores with heavy ties and exact 0.0 and 1.0, unit, fractional or
    tiny (about 1e-300) weights, and groups as small as one record."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    s = rng.integers(0, 2, size=n)
    lone = draw(st.sampled_from([None, 0, 1]))  # a group with a single record
    if lone is None:
        s[rng.permutation(n)[:2]] = (0, 1)
    else:
        s[:] = 1 - lone
        s[rng.integers(n)] = lone
    grid = np.concatenate(([0.0, 1.0], rng.random(draw(st.integers(0, 10)))))
    score = rng.choice(grid, size=n)
    untied = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    score[untied] = rng.random(untied.sum())
    w = {
        "unit": np.ones(n),
        "fractional": rng.random(n) * 5 + 0.01,
        "tiny": rng.lognormal(0.0, 2.0, n) * 1e-300,
    }[draw(st.sampled_from(["unit", "fractional", "tiny"]))]
    y = rng.integers(0, 2, size=n)
    return score, s, np.column_stack((w * (1 - y), w * y, w))


@settings(max_examples=200, deadline=None)
@given(grouped_sweep_inputs())
def test_group_sweeps_are_the_masked_sweeps(case):
    score, s, cols = case
    sweeps = _group_sweeps(score, s, cols)
    for g in (0, 1):
        (only,) = _group_sweeps(score, s, cols, (g,))
        want = _sweep(score[s == g], cols[s == g])
        for got in (sweeps[g], only):
            assert len(got) == len(want) == 3
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def adjacent_double_scores(draw):
    """Scores on runs of adjacent doubles (``np.nextafter`` chains, up or
    down), where the midpoint of two scores can round onto the upper one,
    with integer weights, so that every weight sum is exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = st.one_of(st.sampled_from([1.0, 0.5, 0.25, 5e-324, 0.0]), st.floats(0.0, 1.0))
    chain = []
    for start in draw(st.lists(starts, min_size=1, max_size=3)):
        v, toward = start, draw(st.sampled_from([0.0, 1.0]))
        for _ in range(draw(st.integers(1, 6))):
            chain.append(v)
            v = float(np.nextafter(v, toward))
    n = draw(st.integers(2, 40))
    score = rng.choice(chain, size=n)
    w = rng.integers(1, 4, size=n).astype(float)
    y = rng.integers(0, 2, size=n)
    return score, y, w


@settings(max_examples=300, deadline=None)
@given(adjacent_double_scores())
def test_every_candidate_decides_as_its_sweep_row(case):
    score, y, w = case
    cols = np.column_stack((w * (1 - y), w * y))
    thresholds, rows = _policy_candidates(*_sweep(score, cols)[:2])
    for t, row in zip(thresholds, rows):
        assert np.array_equal(cols[score > t].sum(axis=0), row)
    if 0 < y.sum() < len(y):
        c = roc_curve(Dataset(s=np.zeros(len(y), dtype=int), y=y, score=score, weight=w))
        for t, neg, pos in zip(c.thresholds, c.neg_above, c.pos_above):
            assert cols[score > t].sum(axis=0).tolist() == [neg, pos]


class TestAuc:
    def test_trivials(self):
        perfect = Dataset(s=[0, 0], y=[0, 1], score=[0.2, 0.8])
        assert auc(roc_curve(perfect)) == 1.0
        flat = Dataset(s=[0, 0], y=[0, 1], score=[0.5, 0.5])
        assert auc(roc_curve(flat)) == 0.5

    def test_hand_example(self):
        d = Dataset(s=[0] * 4, y=[0, 0, 1, 1], score=[0.1, 0.4, 0.35, 0.8])
        assert auc(roc_curve(d)) == 0.75

    def test_equals_concordance_exactly_on_random_small_data(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            score = rng.integers(0, 8, size=n) / 7.0
            d = Dataset(s=np.zeros(n, dtype=int), y=y, score=score)
            assert auc(roc_curve(d)) == brute_force_concordance(score, y)
            checked += 1

    @pytest.mark.parametrize("unit", [2.0**30, 2.0**31])
    def test_exact_for_integer_weights_near_the_int64_range(self, unit):
        # 2 * neg_total * pos_total passes 2**63 for most of these at 2**30
        # and for all at 2**31, so both the int64 and the Python-int sums run
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            y = np.array([0, 1] + rng.integers(0, 2, size=n - 2).tolist())
            score = rng.integers(0, 8, size=n) / 7.0
            d = Dataset(s=np.zeros(n, dtype=int), y=y, score=score, weight=np.full(n, unit))
            assert auc(roc_curve(d)) == brute_force_concordance(score, y)


def upper_hull_value(curve, x):
    """Piecewise-linear evaluation of a curve at fpr = x (max tpr)."""
    f, t = curve.fpr, curve.tpr
    if x <= f[0]:
        return t[np.searchsorted(f, x, side="right") - 1] if x == f[0] else 0.0
    k = np.searchsorted(f, x, side="right") - 1
    k2 = min(k + 1, len(f) - 1)
    if f[k2] == f[k]:
        return max(t[k], t[k2])
    u = (x - f[k]) / (f[k2] - f[k])
    return (1 - u) * t[k] + u * t[k2]


def convex_envelope(r: RocCurve) -> RocCurve:
    """Upper concave hull of the curve's points.

    Dominates the input pointwise and is idempotent.
    """
    idx = _upper_hull(r.fpr, r.tpr)
    return RocCurve(
        fpr=r.fpr[idx],
        tpr=r.tpr[idx],
        thresholds=r.thresholds[idx],
        neg_above=r.neg_above[idx],
        pos_above=r.pos_above[idx],
        neg_total=r.neg_total,
        pos_total=r.pos_total,
    )


class TestConvexEnvelope:
    def test_drops_points_below_chord(self):
        # raw curve (0,0), (0,0.8), (0.2,0.8), (0.5,0.8), (1,1): the interior
        # points sit below the chord from (0, 0.8) to (1, 1) and must go
        d = Dataset(
            s=[0] * 15,
            y=[1] * 4 + [0] * 2 + [0] * 3 + [1] + [0] * 5,
            score=[0.9] * 4 + [0.7] * 2 + [0.5] * 3 + [0.2] * 6,
        )
        curve = roc_curve(d)
        assert list(zip(curve.fpr.tolist(), curve.tpr.tolist())) == [
            (0, 0), (0, 0.8), (0.2, 0.8), (0.5, 0.8), (1, 1),
        ]
        env = convex_envelope(curve)
        assert list(zip(env.fpr.tolist(), env.tpr.tolist())) == [(0, 0), (0, 0.8), (1, 1)]
        # chord value above each dropped point
        assert upper_hull_value(env, 0.2) == pytest.approx(0.84)
        assert upper_hull_value(env, 0.5) == pytest.approx(0.9)

    def test_idempotent(self, toy):
        env = convex_envelope(roc_curve(toy))
        env2 = convex_envelope(env)
        assert np.array_equal(env.fpr, env2.fpr)
        assert np.array_equal(env.tpr, env2.tpr)

    def test_diagonal_stays_diagonal(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.5, 0.5])
        env = convex_envelope(roc_curve(d))
        assert list(zip(env.fpr.tolist(), env.tpr.tolist())) == [(0, 0), (1, 1)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_concave_dominating_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            return
        score = rng.integers(0, 11, size=n) / 10.0
        curve = roc_curve(Dataset(s=np.zeros(n, dtype=int), y=y, score=score))
        env = convex_envelope(curve)
        slopes = []
        for i in range(len(env) - 1):
            df = env.fpr[i + 1] - env.fpr[i]
            dt = env.tpr[i + 1] - env.tpr[i]
            slopes.append(math.inf if df == 0 else dt / df)
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))
        for f, t in zip(curve.fpr, curve.tpr):
            assert upper_hull_value(env, f) >= t - 1e-12
        env2 = convex_envelope(env)
        assert np.array_equal(env.fpr, env2.fpr) and np.array_equal(env.tpr, env2.tpr)


class TestBestAccuracyThreshold:
    def test_toy_optimum(self, toy):
        t, acc = best_accuracy_threshold(toy)
        assert Fraction(15, 24) < Fraction(t) < Fraction(16, 24)
        assert acc == 17 / 24  # error 7/24 exactly

    def test_perfect_curve(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.2, 0.8])
        t, acc = best_accuracy_threshold(d)
        assert acc == 1.0
        assert 0.2 < t < 0.8

    def test_tie_breaks_to_larger_threshold(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.5, 0.5])
        t, acc = best_accuracy_threshold(d)
        assert acc == 0.5
        assert t == 1.0  # the (0,0) endpoint carries the largest threshold

    def test_zero_score_threshold_realizes_its_accuracy(self):
        # the all-positive point (accuracy 3/4) is no policy: t = 0.0 keeps
        # the zero score negative and decides like t = 0.1 (accuracy 1/2)
        d = Dataset(s=[0, 1, 0, 1], y=[1, 1, 0, 1], score=[0.0, 0.2, 0.5, 0.8])
        t, acc = best_accuracy_threshold(d)
        assert (t, acc) == (0.65, 0.5)
        pred = apply_policy(d, ThresholdPolicy.shared(t))
        assert float(np.mean(pred.prob == d.y)) == acc

    def test_adjacent_doubles_threshold_realizes_its_accuracy(self):
        # the midpoint of 1.0 and the double below it rounds to 1.0, which
        # selects nobody; the lower score selects the records at 1.0
        below = float(np.nextafter(1.0, 0.0))
        d = Dataset(s=[0, 0, 1, 1], y=[1, 0, 1, 0], score=[1.0, below, 1.0, below])
        t, acc = best_accuracy_threshold(d)
        assert (t, acc) == (below, 1.0)
        pred = apply_policy(d, ThresholdPolicy.shared(t))
        assert float(np.mean(pred.prob == d.y)) == acc


class TestFairestThreshold:
    def test_toy_summary_block(self, toy):
        t, ratio, err = fairest_threshold(toy)
        assert Fraction(10, 24) < Fraction(t) < Fraction(11, 24)
        assert ratio == 1 / 3
        assert err == 8 / 24

    def test_identical_groups_pick_accuracy_best(self):
        y = [0, 0, 1, 0, 1, 1]
        score = [i / 7 for i in range(1, 7)]
        d = Dataset(s=[0] * 6 + [1] * 6, y=y + y, score=score + score)
        t, ratio, err = fairest_threshold(d)
        assert ratio == 1.0
        # accuracy-best interior threshold: classifies the top three of each
        # group positive (error 2/12)
        assert err == 2 / 12

    def test_degenerate_group_raises(self):
        d = Dataset(s=[0, 0, 1, 1], y=[0, 1, 0, 1], score=[0.0, 0.0, 0.2, 0.8])
        with pytest.raises(DegenerateGroupError):
            fairest_threshold(d)
