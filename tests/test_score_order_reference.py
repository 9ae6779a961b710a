"""The score-ordered catalog inputs against the code they replaced, bit for bit.

One stable descending order of the scores (``rocstats._descending``) feeds
the group ROC curves, the strong class balance and the calibration edges.
The paths it replaced are kept here as oracles, and results are compared by
their bytes (``tobytes`` / ``float.hex``), not to a tolerance:

* ``ref_sweep``: ``np.argsort(kind="stable")`` and
  ``np.unique(-score[order], return_index=True)`` for the distinct scores;
* ``ks_distance`` per (group, class) cell for ``class_balance(d, "strong")``;
* ``ref_roc_gaps``: both step functions on ``np.union1d`` of the two grids;
* ``np.quantile`` for the calibration edges, at every bin count from 1 to
  ``max_calibration_bins(n)``, and ``ref_calibration`` for the whole table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import rocstats
from fairaudit._common import cell_sums, ks_distance
from fairaudit.data import Dataset, DegenerateGroupError
from fairaudit.groupfair import (
    RocEqualityResult,
    _quantiles,
    calibration,
    class_balance,
    max_calibration_bins,
    roc_equality,
)

# heavy ties, both signed zeros and the top score
TIED_SCORES = [0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 0.1]


def ref_sweep(score, cols, order=None):
    if order is None:
        order = np.argsort(-score, kind="stable")
    distinct, first_idx = np.unique(-score[order], return_index=True)
    cut = np.append(first_idx[1:], len(order))
    cum = np.cumsum(cols[order], axis=0)
    above = np.concatenate((np.zeros((1, cum.shape[1])), cum[cut - 1]))
    return -distinct, above, cum[-1]


def ref_roc_gaps(a, b):
    grid = np.union1d(a.fpr, b.fpr)
    ta = a.tpr[np.searchsorted(a.fpr, grid, side="right") - 1]
    tb = b.tpr[np.searchsorted(b.fpr, grid, side="right") - 1]
    grid = np.union1d(a.tpr, b.tpr)
    ia = np.minimum(np.searchsorted(a.tpr, grid, side="left"), len(a.tpr) - 1)
    ib = np.minimum(np.searchsorted(b.tpr, grid, side="left"), len(b.tpr) - 1)
    return RocEqualityResult(
        sup_tpr_gap=float(np.max(np.abs(ta - tb))),
        sup_fpr_gap=float(np.max(np.abs(a.fpr[ia] - b.fpr[ib]))),
    )


def ref_calibration(d, bins):
    """``calibration`` with its edges from ``np.quantile``."""
    score = d.score
    edges = np.unique(np.quantile(score, np.linspace(0.0, 1.0, bins + 1)))
    merged = len(edges) - 1 < bins
    if len(edges) == 1:
        edges = np.array([edges[0], edges[0]])
    n_bins = len(edges) - 1
    bin_idx = np.clip(np.searchsorted(edges[1:-1], score, side="right"), 0, n_bins - 1)
    (wy, wscore, w), counts = cell_sums(
        bin_idx * 2 + d.s, 2 * n_bins, d.weight * d.y, d.weight * score, d.weight
    )
    present = counts > 0
    w = np.where(present, w, 1.0)
    obs = wy / w
    deviations = np.abs(obs - wscore / w)[present]
    both = present.reshape(n_bins, 2).all(axis=1)
    gaps = np.abs(np.diff(obs.reshape(n_bins, 2), axis=1))[both]
    return (
        edges,
        float(gaps.max()) if gaps.size else None,
        float(deviations.max()) if deviations.size else None,
        merged,
    )


def hexed(v):
    return None if v is None else float(v).hex()


@st.composite
def scored(draw, max_n=40):
    """Scores with heavy ties or none, and unit, uniform, lognormal
    (sigma 3) or ~1e-300 weights; small n leaves one-record and empty
    (group, class) cells."""
    n = draw(st.integers(1, max_n))
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    values = st.sampled_from(TIED_SCORES)
    if draw(st.booleans()):
        values = st.one_of(values, st.floats(0.0, 1.0))
    score = draw(st.lists(values, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = {
        "unit": np.ones(n),
        "uniform": rng.uniform(0.25, 3.0, n),
        "lognormal": rng.lognormal(0.0, 3.0, n),
        "tiny": rng.uniform(1.0, 2.0, n) * 1e-300,
    }[draw(st.sampled_from(["unit", "uniform", "lognormal", "tiny"]))]
    return Dataset(s=s, y=y, score=score, weight=weight)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateGroupError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(scored())
def test_sweeps_match_the_unique_sweep(d):
    score = d.score
    order = rocstats._descending(score)
    assert order.tobytes() == np.argsort(-score, kind="stable").tobytes()
    cols = np.column_stack((d.weight * (1 - d.y), d.weight * d.y, d.weight))
    groups = [g for g in (0, 1) if (d.s == g).any()]
    for got, want in [(rocstats._sweep(score, cols), ref_sweep(score, cols))] + [
        (sweep, ref_sweep(score[d.s == g], cols[d.s == g]))
        for g, sweep in zip(groups, rocstats._group_sweeps(score, d.s, cols, groups))
    ]:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=300, deadline=None)
@given(scored())
def test_strong_class_balance_is_ks_distance_per_cell(d):
    score = d.score
    for order in (None, rocstats._descending(score)):
        got = class_balance(d, "strong", order)
        for yv in (0, 1):
            m0, m1 = (d.s == 0) & (d.y == yv), (d.s == 1) & (d.y == yv)
            if not (m0.any() and m1.any()):
                assert got[yv] is None
                continue
            want = ks_distance(score[m0], score[m1], d.weight[m0], d.weight[m1])
            assert got[yv].hex() == want.hex()


def test_strong_class_balance_keeps_empty_and_one_record_cells():
    d = Dataset(s=[0, 1, 1, 0], y=[1, 1, 1, 1], score=[-0.0, 0.0, 1.0, 0.5],
                weight=[1e-300, 3.0, 0.5, 2.0])
    got = class_balance(d, "strong")
    assert got[0] is None
    assert got[1] == ks_distance([-0.0, 0.5], [0.0, 1.0], [1e-300, 2.0], [3.0, 0.5])
    one = Dataset(s=[0, 1], y=[0, 0], score=[0.5, 0.5])
    assert class_balance(one, "strong") == {0: 0.0, 1: None}


@settings(max_examples=300, deadline=None)
@given(scored())
def test_roc_gaps_match_the_union_grid(d):
    got = outcome(roc_equality, d)
    want = outcome(lambda d: ref_roc_gaps(*(rocstats.roc_curve(d, g) for g in (0, 1))), d)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.sup_tpr_gap.hex(), got.sup_fpr_gap.hex()) == (
        want.sup_tpr_gap.hex(), want.sup_fpr_gap.hex()
    )
    for curve, g in zip(rocstats.group_roc_curves(d), (0, 1)):
        ref = rocstats.roc_curve(d, g)
        for name in ("fpr", "tpr", "thresholds", "neg_above", "pos_above"):
            assert getattr(curve, name).tobytes() == getattr(ref, name).tobytes()


@settings(max_examples=200, deadline=None)
@given(scored())
def test_calibration_edges_are_np_quantile(d):
    score = d.score
    ascending = score[rocstats._descending(score)[::-1]]
    # np.quantile partitions, which leaves tied 0.0 and -0.0 scores in no set
    # order, so the sign of a zero edge is its own; the edges reach a report
    # only through np.unique, searchsorted and their count, which ignore it
    signed_zeros = bool(np.any(np.signbit(score) & (score == 0.0)))
    for bins in range(1, max_calibration_bins(len(score)) + 1):
        q = np.linspace(0.0, 1.0, bins + 1)
        got, want = _quantiles(ascending, q), np.quantile(score, q)
        if signed_zeros:
            got, want = got + 0.0, want + 0.0
        assert got.tobytes() == want.tobytes(), bins
        cal = calibration(d, bins)
        edges, parity, deviation, merged = ref_calibration(d, bins)
        assert (cal.edges + 0.0 if signed_zeros else cal.edges).tobytes() == (
            edges + 0.0 if signed_zeros else edges
        ).tobytes()
        assert hexed(cal.parity_gap) == hexed(parity)
        assert hexed(cal.good_calibration_deviation) == hexed(deviation)
        assert cal.merged_bins == merged
