"""The array candidate searches against per-candidate reference loops, and
exact equalized odds against a linear-program oracle.

Each reference below is the straightforward loop form of a search: build
every candidate with its tie-break key, one at a time, and keep the best.
The array searches in ``mitigate`` and ``rocstats`` must pick the very same
candidate, so mixtures, thresholds and flags are compared exactly.
``equalize_odds`` is checked instead against ``scipy.optimize.linprog`` on
the convex hulls of the two groups' ROC points, for both criteria, and
against ``ref_full_mixture`` and ``ref_opportunity_mixture``, the former
searches, which it must never fall below.  Every rate a search reports must
equal, bit for bit, the rate counted from its policy's decisions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fairaudit import groupfair, mitigate, rocstats, synth
from fairaudit.data import Dataset, DegenerateGroupError, ThresholdPolicy, apply_policy

from test_mitigate import applied_accuracy, applied_gaps, applied_rates


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def ref_intersect(p0, p1, q0, q1):
    """Intersections of two segments as (u, v) pairs; collinear overlaps
    contribute their overlap endpoints."""
    r = p1 - p0
    s = q1 - q0
    denom = r[0] * s[1] - r[1] * s[0]
    diff = q0 - p0
    if abs(denom) > 1e-14:
        u = (diff[0] * s[1] - diff[1] * s[0]) / denom
        v = (diff[0] * r[1] - diff[1] * r[0]) / denom
        if -1e-12 <= u <= 1 + 1e-12 and -1e-12 <= v <= 1 + 1e-12:
            return [(min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))]
        return []
    if abs(diff[0] * r[1] - diff[1] * r[0]) > 1e-12:
        return []
    rr = float(r @ r)
    if rr == 0:
        return []
    tq0 = float(diff @ r) / rr
    tq1 = float((q1 - p0) @ r) / rr
    lo, hi = min(tq0, tq1), max(tq0, tq1)
    a, b = max(0.0, lo), min(1.0, hi)
    if a > b:
        return []
    out = []
    for u in {a, b}:
        point = p0 + u * r
        ss = float(s @ s)
        v = float((point - q0) @ s) / ss if ss > 0 else 0.0
        if -1e-9 <= v <= 1 + 1e-9:
            out.append((u, min(max(v, 0.0), 1.0)))
    return out


MAX_CHORD_ANCHORS = 256


def ref_segments(geo):
    """The former search's two-threshold segments: hull edges plus chords
    from (0, 0) to raw points and from raw points to the last point, with
    the anchors thinned to about MAX_CHORD_ANCHORS."""
    segs = [(int(geo.hull[k]), int(geo.hull[k + 1])) for k in range(len(geo.hull) - 1)]
    first, last = 0, len(geo.fpr) - 1
    n = len(geo.fpr)
    if n <= MAX_CHORD_ANCHORS:
        anchors = range(n)
    else:
        step = max(1, n // MAX_CHORD_ANCHORS)
        anchors = sorted(set(range(0, n, step)) | set(int(v) for v in geo.hull) | {last})
    for i in anchors:
        if i != first:
            segs.append((first, i))
        if i != last:
            segs.append((i, last))
    return sorted(set(segs))


def ref_full_mixture(geo, accuracy):
    """Proper crossings in np.nonzero order, then the collinear overlap ends
    from ref_intersect, as a tuple list ranked with min(key=...)."""
    segs = {g: np.asarray(ref_segments(geo[g]), dtype=int) for g in (0, 1)}
    A0 = np.column_stack([geo[0].fpr[segs[0][:, 0]], geo[0].tpr[segs[0][:, 0]]])
    A1 = np.column_stack([geo[0].fpr[segs[0][:, 1]], geo[0].tpr[segs[0][:, 1]]])
    B0 = np.column_stack([geo[1].fpr[segs[1][:, 0]], geo[1].tpr[segs[1][:, 0]]])
    B1 = np.column_stack([geo[1].fpr[segs[1][:, 1]], geo[1].tpr[segs[1][:, 1]]])
    r = A1 - A0
    s = B1 - B0
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    diff0 = B0[None, :, 0] - A0[:, None, 0]
    diff1 = B0[None, :, 1] - A0[:, None, 1]
    cross_s = diff0 * s[None, :, 1] - diff1 * s[None, :, 0]
    cross_r = diff0 * r[:, None, 1] - diff1 * r[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cross_s / denom
        v = cross_r / denom
    tol = 1e-12
    proper = (np.abs(denom) > 1e-14) & (u >= -tol) & (u <= 1 + tol) & (v >= -tol) & (v <= 1 + tol)

    cands = []
    ii, jj = np.nonzero(proper)
    if len(ii):
        uu = np.clip(u[ii, jj], 0.0, 1.0)
        vv = np.clip(v[ii, jj], 0.0, 1.0)
        xs = (1 - uu)[:, None] * A0[ii] + uu[:, None] * A1[ii]
        accs = accuracy(xs[:, 0], xs[:, 1])
        n_mixed = ((uu > tol) & (uu < 1 - tol)).astype(int) + (
            (vv > tol) & (vv < 1 - tol)
        ).astype(int)
        for k in range(len(ii)):
            cands.append(
                (
                    (-accs[k], xs[k, 0], n_mixed[k]),
                    (int(segs[0][ii[k], 0]), int(segs[0][ii[k], 1]), float(uu[k])),
                    (int(segs[1][jj[k], 0]), int(segs[1][jj[k], 1]), float(vv[k])),
                )
            )
    ci, cj = np.nonzero((np.abs(denom) <= 1e-14) & (np.abs(cross_r) <= 1e-12))
    for i, j in zip(ci.tolist(), cj.tolist()):
        for uo, vo in ref_intersect(A0[i], A1[i], B0[j], B1[j]):
            x = (1 - uo) * A0[i] + uo * A1[i]
            acc = accuracy(x[0], x[1])
            n_mixed = sum(1 for t in (uo, vo) if tol < t < 1 - tol)
            cands.append(
                (
                    (-acc, float(x[0]), n_mixed),
                    (int(segs[0][i, 0]), int(segs[0][i, 1]), float(uo)),
                    (int(segs[1][j, 0]), int(segs[1][j, 1]), float(vo)),
                )
            )
    _, mix0, mix1 = min(cands, key=lambda c: c[0])
    return (mix0, mix1), len(ci)


def ref_opportunity_mixture(geo, pos_w, total_w):
    taus = np.unique(np.concatenate([geo[g].tpr[geo[g].hull] for g in (0, 1)]))
    taus = taus[taus <= min(geo[g].tpr[geo[g].hull][-1] for g in (0, 1)) + 1e-15]

    def env_at_tpr(g, tau):
        hull = geo[g].hull
        tprs = geo[g].tpr[hull]
        k = int(np.searchsorted(tprs, tau, side="left"))
        k = min(k, len(hull) - 1)
        if abs(tprs[k] - tau) <= 1e-15:
            return float(geo[g].fpr[hull[k]]), (int(hull[k]), int(hull[k]), 0.0)
        i, j = int(hull[max(k - 1, 0)]), int(hull[k])
        span = geo[g].tpr[j] - geo[g].tpr[i]
        u = 0.0 if span == 0 else (tau - geo[g].tpr[i]) / span
        u = min(max(u, 0.0), 1.0)
        f = (1 - u) * geo[g].fpr[i] + u * geo[g].fpr[j]
        return float(f), (i, j, float(u))

    best = None
    for tau in taus:
        f0, mix0 = env_at_tpr(0, float(tau))
        f1, mix1 = env_at_tpr(1, float(tau))
        acc = (tau * pos_w + (1 - f0) * geo[0].neg_w + (1 - f1) * geo[1].neg_w) / total_w
        key = (acc, -(f0 + f1), tau)
        if best is None or key > best[0]:
            best = (key, tau, (mix0, mix1))
    _, tau, mixes = best
    return tau, mixes


def ref_realized(geo, i, j, u, lam=1.0):
    """The unsnapped point lam * ((1-u) * point_i + u * point_j) of a mixture."""
    vi, vj = (np.array([geo.fpr[k], geo.tpr[k]]) for k in (i, j))
    return lam * ((1.0 - u) * vi + u * vj)


def ref_per_group_thresholds(d, objective):
    (v0, c0, t0), (v1, c1, t1) = mitigate._group_threshold_tables(d, objective)
    best_key = None
    best_pair = None
    for i, val0 in enumerate(v0):
        j = int(np.searchsorted(v1, val0))
        for jj in (j - 1, j, j + 1):
            if not 0 <= jj < len(v1):
                continue
            gap = abs(val0 - v1[jj])
            key = (round(gap, 15), -(c0[i] + c1[jj]), -t0[i], -t1[jj])
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (i, jj)
    i, j = best_pair
    gap = float(abs(v0[i] - v1[j]))
    return mitigate.ThresholdSearchResult(
        policy=ThresholdPolicy.per_group(float(t0[i]), float(t1[j])),
        objective=objective,
        values=(float(v0[i]), float(v1[j])),
        gap=gap,
        accuracy=float((c0[i] + c1[j]) / float(d.weight.sum())),
        granular=gap > 0.0,
        degenerate=any(v in (0.0, 1.0) for v in (v0[i], v1[j])),
    )


def ref_fairest_threshold(d):
    score = d.require_scores()
    w = d.weight
    cols = np.column_stack((w * (d.s == 0), w * (d.s == 1), w * d.y, w))
    distinct, above, (w0, w1, pos_total, total_w) = rocstats._sweep(score, cols)
    cands, above = rocstats._policy_candidates(distinct, above)
    above_w0, above_w1, above_pos, above_all = above.T
    r0 = above_w0 / w0
    r1 = above_w1 / w1
    correct = above_pos + ((total_w - pos_total) - (above_all - above_pos))
    if not np.any((r0 > 0.0) & (r1 > 0.0)):
        raise DegenerateGroupError("no threshold yields positives in both groups")
    keep = (r0 > 0.0) & (r1 > 0.0) & (r0 < 1.0) & (r1 < 1.0)
    if not keep.any():
        keep = (r0 > 0.0) & (r1 > 0.0)
    best = None
    for k in np.flatnonzero(keep):
        ratio = min(r0[k] / r1[k], r1[k] / r0[k])
        key = (ratio, correct[k], cands[k])
        if best is None or key > best[0]:
            best = (key, float(cands[k]), float(ratio), (total_w - correct[k]) / total_w)
    _, t, ratio, err = best
    return t, ratio, err


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def lp_accuracy(geo, criterion="full"):
    """The equalized-odds optimum as a linear program in vertex form: one
    probability vector over each group's ROC points, both mixtures at the
    same (fpr, tpr), accuracy maximized.  For "opportunity" only the tprs
    are equal, and each group pays for its own fpr."""
    pos_w = geo[0].pos_w + geo[1].pos_w
    neg_w = geo[0].neg_w + geo[1].neg_w
    m0, m1 = len(geo[0].fpr), len(geo[1].fpr)
    a_eq = np.zeros((4, m0 + m1))
    a_eq[0, :m0] = a_eq[1, m0:] = 1.0
    a_eq[2] = np.concatenate((geo[0].fpr, -geo[1].fpr))
    a_eq[3] = np.concatenate((geo[0].tpr, -geo[1].tpr))
    b_eq = [1.0, 1.0, 0.0, 0.0]
    if criterion == "full":
        gain = np.concatenate((pos_w * geo[0].tpr - neg_w * geo[0].fpr, np.zeros(m1)))
    else:
        gain = np.concatenate((pos_w * geo[0].tpr - geo[0].neg_w * geo[0].fpr,
                               -geo[1].neg_w * geo[1].fpr))
        a_eq, b_eq = a_eq[[0, 1, 3]], b_eq[:3]
    res = linprog(-gain, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return (neg_w - res.fun) / (pos_w + neg_w)


def check_applied_odds(d, res):
    """An equalized-odds result reports its policy's applied rates exactly."""
    (f0, t0), (f1, t1) = applied_rates(d, res.policy)
    assert res.target == ((f0 + f1) / 2, (t0 + t1) / 2)
    assert (res.tpr_gap, res.fpr_gap) == applied_gaps(d, res.policy)
    assert res.accuracy == applied_accuracy(d, res.policy)


def check_equalize_odds(d):
    """Each criterion reaches its linear program's accuracy and at least its
    former search's, within 1e-12, and its policy realizes gaps of at most
    1e-12 in the rates it equalizes.  Returns the number of collinear segment
    pairs the segment search met."""
    try:
        geo = mitigate._group_geometries(d)
    except DegenerateGroupError:
        return 0
    pos_w = geo[0].pos_w + geo[1].pos_w
    neg_w = geo[0].neg_w + geo[1].neg_w
    total_w = pos_w + neg_w

    def accuracy(f, t):
        return (t * pos_w + (1.0 - f) * neg_w) / total_w

    res = mitigate.equalize_odds(d, criterion="opportunity")
    check_applied_odds(d, res)
    assert abs(res.accuracy - lp_accuracy(geo, "opportunity")) <= 1e-12
    _, mixes = ref_opportunity_mixture(geo, pos_w, total_w)
    (f0, t0), (f1, t1) = (ref_realized(geo[g], *mixes[g]) for g in (0, 1))
    old = (t0 * geo[0].pos_w + t1 * geo[1].pos_w + (1 - f0) * geo[0].neg_w
           + (1 - f1) * geo[1].neg_w) / total_w
    assert res.accuracy >= old - 1e-12
    assert applied_gaps(d, res.policy)[0] <= 1e-12
    if min(len(geo[g].fpr) for g in (0, 1)) < 2:
        # a group scored all 0 has a one-point curve: exit 3
        with pytest.raises(DegenerateGroupError, match="single ROC point"):
            mitigate.equalize_odds(d, criterion="full")
        return 0
    res = mitigate.equalize_odds(d, criterion="full")
    check_applied_odds(d, res)
    assert abs(res.accuracy - lp_accuracy(geo)) <= 1e-12
    mixes, n_collinear = ref_full_mixture(geo, accuracy)
    old = accuracy(*np.mean([ref_realized(geo[g], *mixes[g]) for g in (0, 1)], axis=0))
    assert res.accuracy >= old - 1e-12
    assert max(applied_gaps(d, res.policy)) <= 1e-12
    return n_collinear


def check_thresholds(d):
    for objective in ("dp", "eo_tpr"):
        try:
            res = mitigate.per_group_thresholds(d, objective=objective)
        except DegenerateGroupError:
            continue
        ref = ref_per_group_thresholds(d, objective)
        # the search picks the reference's candidate
        for name in ("policy", "objective", "granular", "degenerate"):
            assert getattr(res, name) == getattr(ref, name)
        # and reports the rates its decisions realize, as the catalog counts them
        metric = "statistical_parity" if objective == "dp" else "equal_opportunity"
        applied = groupfair.group_metric(metric, d, apply_policy(d, res.policy))
        values = (applied.group0, applied.group1)
        assert res.values == values and res.gap == abs(values[0] - values[1])
        assert res.accuracy == applied_accuracy(d, res.policy)
        if (d.weight == 1.0).all():  # unit weights: the sweep's sums are exact
            assert res.values == ref.values
    try:
        expected = ref_fairest_threshold(d)
    except DegenerateGroupError:
        with pytest.raises(DegenerateGroupError):
            rocstats.fairest_threshold(d)
        return
    assert rocstats.fairest_threshold(d) == expected


def criterion_10_dataset(rng):
    """The generator of acceptance criterion 10: four Gaussian score cells."""
    s, y, score = [], [], []
    for g in (0, 1):
        for yv in (0, 1):
            n_cell = int(rng.integers(50, 80))
            s += [g] * n_cell
            y += [yv] * n_cell
            loc = rng.uniform(0.3, 0.45) + (0.2 + 0.1 * rng.random()) * yv + 0.05 * g
            score += list(np.clip(rng.normal(loc, rng.uniform(0.1, 0.2), n_cell), 0.01, 0.99))
    return Dataset(s=s, y=y, score=score)


def grid_dataset(rng, weighted):
    """Scores on a coarse grid that includes 0, so ties are everywhere; half
    the time group 1 repeats group 0's records, which makes every chord of
    one group collinear with a chord of the other.  Weights are uniform draws
    or short decimals, whose sums make equal rates differ in the last bits."""
    n = int(rng.integers(6, 120))
    levels = int(rng.integers(2, 12))
    s = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    score = rng.integers(0, levels + 1, size=n) / levels
    w = np.ones(n)
    if weighted:
        w = rng.uniform(0.1, 3.0, size=n) if rng.random() < 0.5 else rng.choice([0.1, 0.2, 0.3, 0.7], n)
    if rng.random() < 0.5:
        keep = s == 0
        s = np.concatenate((np.zeros(keep.sum(), int), np.ones(keep.sum(), int)))
        y, score, w = (np.tile(a[keep], 2) for a in (y, score, w))
        if len(s) == 0:
            s, y, score, w = np.array([0, 1]), np.array([0, 1]), np.array([0.0, 1.0]), np.ones(2)
    return Dataset(s=s, y=y, score=score, weight=w if weighted else None)


def test_criterion_10_data_matches_reference():
    rng = np.random.default_rng(100)
    for _ in range(6):
        d = criterion_10_dataset(rng)
        check_equalize_odds(d)
        check_thresholds(d)


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
def test_grid_data_matches_reference(weighted):
    rng = np.random.default_rng(404 + weighted)
    collinear = 0
    for _ in range(120):
        d = grid_dataset(rng, weighted)
        collinear += check_equalize_odds(d)
        check_thresholds(d)
    assert collinear > 0  # the collinear overlap path was exercised


def test_decimal_weight_thresholds_match_reference():
    # rates from sums of short decimal weights are equal in exact arithmetic
    # but not in floating point, so gaps that tie only after rounding to 15
    # decimals occur, and accuracy must decide between them
    rng = np.random.default_rng(6)
    for _ in range(400):
        n = int(rng.integers(6, 60))
        d = Dataset(
            s=rng.integers(0, 2, n),
            y=rng.integers(0, 2, n),
            score=rng.integers(0, 11, n) / 10,
            weight=rng.choice([0.1, 0.2, 0.3, 0.7], n),
        )
        check_thresholds(d)


@st.composite
def search_datasets(draw):
    n = draw(st.integers(2, 60))
    levels = draw(st.integers(1, 20))
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    score = [k / levels for k in draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))]
    weight = None
    if draw(st.booleans()):
        weight = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.5]) | st.floats(0.05, 5.0),
                               min_size=n, max_size=n))
    if draw(st.booleans()):  # group 1 repeats group 0: collinear chords
        keep = [k for k in range(n) if s[k] == 0]
        s = [0] * len(keep) + [1] * len(keep)
        y = [y[k] for k in keep] * 2
        score = [score[k] for k in keep] * 2
        weight = None if weight is None else [weight[k] for k in keep] * 2
    if draw(st.booleans()):  # some records of one group scored exactly 0
        g = draw(st.integers(0, 1))
        zero = draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
        score = [0.0 if z and sv == g else v for z, sv, v in zip(zero, s, score)]
    if not s or len(set(s)) < 2:
        s, y, score, weight = [0, 1], [0, 1], [0.0, 1.0], None
    return Dataset(s=s, y=y, score=score, weight=weight)


@settings(max_examples=150, deadline=None)
@given(search_datasets())
def test_searches_match_reference_property(d):
    check_equalize_odds(d)
    check_thresholds(d)


@st.composite
def scaled_twin_datasets(draw):
    """Group 1 repeats group 0's records at c times their weight: the two ROC
    regions are one in exact arithmetic, and rounding parts them by ulps."""
    n = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 10))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    score = [k / levels for k in draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))]
    c = draw(st.sampled_from([0.3, 0.1, 0.7, 3.0]) | st.floats(0.01, 100.0))
    return Dataset(s=[0] * n + [1] * n, y=y + y, score=score + score, weight=[1.0] * n + [c] * n)


@settings(max_examples=150, deadline=None)
@given(scaled_twin_datasets())
def test_scaled_twin_groups_reach_the_lp_optimum(d):
    check_equalize_odds(d)


def segment_twins():
    """13 records and their twins at weight 0.3: each group's region is one
    segment from (0, 0)."""
    y = [0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1]
    score = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    return Dataset(s=[0] * 13 + [1] * 13, y=y + y, score=score + score,
                   weight=[1.0] * 13 + [0.3] * 13)


def test_scaled_twin_segment_regions_stay_feasible():
    # rounding parted the two regions, and "full" fell to the all-negative
    # rule, accuracy 4/13.  The feasibility bound must keep twins together,
    # but no more
    d = segment_twins()
    assert mitigate.equalize_odds(d, criterion="full").accuracy == 0.6153846153846154
    check_equalize_odds(d)
    # one weight 1e-4 off parts the regions in exact arithmetic as well
    w = d.weight.copy()
    w[14] *= 1 + 1e-4
    parted = Dataset(s=d.s, y=d.y, score=d.score, weight=w)
    assert mitigate.equalize_odds(parted, criterion="full").accuracy < 0.31
    check_equalize_odds(parted)


def test_segment_twins_report_the_applied_gaps():
    # both groups' rules are the threshold 0.5, whose rates are equal; the
    # unsnapped mixture put group 1 at fpr 0.49999999999999994
    res = mitigate.equalize_odds(segment_twins(), criterion="full")
    assert res.policy.rules[0] == res.policy.rules[1]
    assert (res.tpr_gap, res.fpr_gap) == (0.0, 0.0)


@pytest.mark.parametrize("n", [30, 1000])
def test_synth_samples_reach_the_lp_optimum(n):
    # the former segment search fell short here by up to 1.7e-2 (n = 30)
    # and 1.2e-3 (n = 1000) of accuracy
    for seed in range(1, 6):
        check_equalize_odds(synth.sample_scores(synth.operating_point_spec(), n, seed))
