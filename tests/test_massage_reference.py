"""Label massaging's one swap loop against the step loop it replaced.

``ref_massage_labels`` is the earlier ``mitigate.massage_labels``: each step
rescanned both pools with ``argmin`` and recomputed both group rates over all
records.  It is kept here as the reference, with the boundary threshold of the
current code.  ``massage_labels`` must give the
same swaps, gap, ``reached_target``, boundary threshold and labels, bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairaudit.mitigate
from fairaudit import rocstats, synth
from fairaudit._common import cell_sums
from fairaudit.data import Dataset
from fairaudit.mitigate import MassageResult, massage_labels, train_logistic


def weighted_mean(x: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * x) / np.sum(w))


def ref_massage_labels(d, scores=None, eps=0.0, threshold=None):
    """``massage_labels`` as it was before the sorted pass."""
    for g in (0, 1):
        d.require_group(g)
    if scores is None:
        scores = d.score if d.score is not None else train_logistic(d).predict_score(d.features)
    scores = np.asarray(scores, dtype=float)
    if threshold is None:
        # the accuracy-best curve point, larger threshold on ties; score > 0.0
        # keeps zero-score records negative, so with one the all-positive
        # point is out of reach
        curve = rocstats.roc_curve(d.with_(score=scores))
        correct = curve.pos_above + (curve.neg_total - curve.neg_above)
        if scores.min() == 0.0:
            correct = correct[:-1]
        threshold = min(max(curve.thresholds[np.argmax(correct)], 0.0), 1.0)

    y = d.y.copy()
    w = d.weight
    boundary_dist = np.abs(scores - threshold)

    def rate(g):
        mask = d.s == g
        return weighted_mean(y[mask], w[mask])

    swaps = []
    gap = abs(rate(0) - rate(1))
    reached = gap <= eps
    max_swaps = int(np.sum(d.y))
    while gap > eps and len(swaps) < max_swaps:
        hi = 0 if rate(0) > rate(1) else 1
        lo = 1 - hi
        demote_pool = np.flatnonzero((d.s == hi) & (y == 1))
        promote_pool = np.flatnonzero((d.s == lo) & (y == 0))
        if len(demote_pool) == 0 or len(promote_pool) == 0:
            break
        demote = demote_pool[np.argmin(boundary_dist[demote_pool])]
        promote = promote_pool[np.argmin(boundary_dist[promote_pool])]
        y[demote], y[promote] = 0, 1
        new_gap = abs(rate(0) - rate(1))
        if new_gap >= gap:
            y[demote], y[promote] = 1, 0
            break
        swaps.append((int(demote), int(promote)))
        gap = new_gap
        if gap <= eps:
            reached = True
    return MassageResult(
        dataset=d.with_(y=y), swaps=swaps, gap=gap, reached_target=reached,
        boundary_threshold=float(threshold),
    )


def assert_same(got, want):
    assert got.swaps == want.swaps
    assert all(type(i) is int for pair in got.swaps for i in pair)
    assert got.gap.hex() == want.gap.hex()
    assert got.reached_target is want.reached_target
    assert got.boundary_threshold.hex() == want.boundary_threshold.hex()
    assert np.array_equal(got.dataset.y, want.dataset.y)


def weights(kind, n, rng):
    if kind == "unit":
        return None
    if kind == "integer":
        return rng.integers(1, 5, size=n).astype(float)
    if kind == "uniform":
        return rng.uniform(0.25, 3.0, size=n)
    return rng.lognormal(0.0, 3.0, size=n)


def generated(seed, n, weight_kind, levels):
    """Two groups with different label rates; scores on ``levels`` + 1 grid
    points, so that boundary distances tie."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n)
    p = rng.uniform(0.05, 0.95, size=2)
    y = (rng.random(n) < p[s]).astype(int)
    s[:2], y[2:4] = (0, 1), (1, 0)
    score = rng.integers(0, levels + 1, size=n) / levels
    return Dataset(s=s, y=y, score=score, weight=weights(weight_kind, n, rng))


def initial_gap(d):
    return abs(weighted_mean(d.y[d.s == 0], d.weight[d.s == 0])
               - weighted_mean(d.y[d.s == 1], d.weight[d.s == 1]))


@st.composite
def massage_inputs(draw):
    d = generated(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(4, 200)),
        draw(st.sampled_from(["unit", "integer", "uniform", "lognormal"])),
        draw(st.sampled_from([2, 5, 10, 1000])),
    )
    threshold = draw(st.sampled_from([None, None, 0.0, 0.3, 0.5, 0.6, 1.0]))
    swaps = ref_massage_labels(d, eps=0.0, threshold=threshold).swaps
    if swaps and draw(st.booleans()):  # a gap the loop reaches: a stop falls exactly on eps
        y = d.y.copy()
        for demoted, promoted in swaps[:draw(st.integers(1, len(swaps)))]:
            y[demoted], y[promoted] = 0, 1
        return d, initial_gap(d.with_(y=y)), threshold
    gap = initial_gap(d)
    return d, draw(st.sampled_from([0.0, 1e-3, 0.01, 0.1, gap, gap + 0.05, -0.01, -1.0])), threshold


@settings(max_examples=400, deadline=None)
@given(massage_inputs())
def test_matches_reference(case):
    d, eps, threshold = case
    assert_same(massage_labels(d, eps=eps, threshold=threshold),
                ref_massage_labels(d, eps=eps, threshold=threshold))


def rates(d):
    return [weighted_mean(d.y[d.s == g], d.weight[d.s == g]) for g in (0, 1)]


def test_hi_flip_unit_weights():
    # gap 0.75 shrinks by 1/40 + 1/50 a swap; the 17th swap crosses zero to
    # a smaller gap and is kept, and the first swap back is undone
    n0, n1 = 40, 50
    s = [0] * n0 + [1] * n1
    y = [1] * 30 + [0] * 10 + [0] * n1
    score = np.linspace(0.01, 0.99, n0 + n1)
    d = Dataset(s=s, y=y, score=score)
    want = ref_massage_labels(d, eps=0.0, threshold=0.5)
    assert len(want.swaps) == 17
    r0, r1 = rates(want.dataset)
    assert r1 > r0
    assert_same(massage_labels(d, eps=0.0, threshold=0.5), want)


def test_hi_flip_fractional_weights():
    # after the higher-rate group flips, swaps in the other direction are kept
    d = generated(52, 82, "uniform", 10)
    want = ref_massage_labels(d, eps=0.0)
    first_hi = d.s[want.swaps[0][0]]
    assert any(d.s[demoted] != first_hi for demoted, _ in want.swaps)
    assert_same(massage_labels(d, eps=0.0), want)


@pytest.mark.parametrize("label", [0, 1])
def test_pool_runs_out_before_target(label):
    # A pool is empty only when a group has no positives or no negatives, so
    # both rates are equal there; only a negative eps keeps stepping.  Swaps
    # keep the number of positives, so this state is the starting one.
    d = Dataset(s=[0, 0, 1, 1, 1], y=[label] * 5, score=[0.1, 0.4, 0.5, 0.6, 0.9])
    want = ref_massage_labels(d, eps=-0.01, threshold=0.5)
    assert want.swaps == [] and not want.reached_target
    assert_same(massage_labels(d, eps=-0.01, threshold=0.5), want)


def test_boundary_keeps_zero_scores_negative():
    # score > 0.0 cannot make the zero-score record positive, so the
    # all-positive point (accuracy 3/4) is out of reach; 0.65 realizes 2/4
    # and is the largest of the best legal thresholds
    d = Dataset(s=[0, 1, 0, 1], y=[1, 1, 0, 1], score=[0.0, 0.2, 0.5, 0.8])
    got = massage_labels(d, eps=0.0)
    assert got.boundary_threshold == 0.65
    assert_same(got, ref_massage_labels(d, eps=0.0))


def test_nan_distances_come_first_as_with_argmin():
    d = generated(7, 60, "unit", 10)
    scores = np.array(d.score)
    scores[[3, 11, 40, 41]] = np.nan
    assert_same(massage_labels(d, scores=scores, eps=0.0, threshold=0.5),
                ref_massage_labels(d, scores=scores, eps=0.0, threshold=0.5))
    assert_same(massage_labels(d, eps=0.0, threshold=np.nan),
                ref_massage_labels(d, eps=0.0, threshold=np.nan))


def counted_passes(monkeypatch):
    """The list that gets one entry per ``cell_sums`` call in ``mitigate``:
    one per pass of the swap loop."""
    passes = []

    def counted(*args):
        passes.append(1)
        return cell_sums(*args)

    monkeypatch.setattr(fairaudit.mitigate, "cell_sums", counted)
    return passes


def test_rates_are_computed_a_constant_number_of_times(monkeypatch):
    d = synth.sample_scores(synth.operating_point_spec(), 20_000, 3)
    passes = counted_passes(monkeypatch)
    for w in (None, np.random.default_rng(3).lognormal(0.0, 3.0, len(d))):
        passes.clear()
        res = massage_labels(d.with_(weight=w), eps=0.0)
        assert len(res.swaps) > 500
        assert 1 <= len(passes) <= 16


def test_run_resumes_after_a_close_call(monkeypatch):
    # the first swap's two weights are below B times their group totals, so
    # it is too close to call and goes alone; it shrinks the gap, the higher
    # group stays higher, and the next pass takes the next 14 entries of the
    # sorted pools as a run.  The 16th swap would not shrink the gap: one pass
    # applies it alone and the last pass undoes it.
    s = [0] * 50 + [1] * 50
    y = [1] * 40 + [0] * 10 + [1] * 10 + [0] * 40
    score = np.r_[np.linspace(0.52, 0.99, 40), np.linspace(0.01, 0.4, 10),
                  np.linspace(0.6, 0.99, 10), np.linspace(0.01, 0.48, 40)]
    w = np.ones(100)
    w[[0, 99]] = 5e-12  # the pools' first entries
    d = Dataset(s=s, y=y, score=score, weight=w)
    want = ref_massage_labels(d, eps=0.0, threshold=0.5)
    passes = counted_passes(monkeypatch)
    got = massage_labels(d, eps=0.0, threshold=0.5)
    assert len(passes) == 4 and len(want.swaps) == 15
    assert_same(got, want)


def test_heavy_tailed_weights_take_the_safe_run_again(monkeypatch):
    # with lognormal(0, 3) weights, single heavy swaps carry the gap past
    # zero, so the higher-rate group changes several times; each such swap
    # goes alone, and the next pass sorts the pools again and takes a run
    d = synth.sample_scores(synth.operating_point_spec(), 10_000, 36)
    d = d.with_(weight=np.random.default_rng(36).lognormal(0.0, 3.0, len(d)))
    want = ref_massage_labels(d, eps=0.0)
    passes = counted_passes(monkeypatch)
    got = massage_labels(d, eps=0.0)
    assert 5 <= len(passes) <= 16
    assert_same(got, want)
