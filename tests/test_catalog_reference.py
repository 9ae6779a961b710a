"""The one-pass metric catalog against the per-metric evaluation it replaced.

``ref_group_metric`` is the earlier ``groupfair.group_metric``: it checked the
id and both groups, then built the confusion matrices, group ROC curves or
calibration table that the one metric needs, every call.  It is kept here
with ``ref_confusions`` and ``ref_roc_equality`` as the reference.
``group_metrics`` must give equal results, or raise the same exception type
with the same message, for each id alone and for any list of ids; with
``undefined_ok=True`` it must match the audit's old per-metric try/except.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import rocstats
from fairaudit.data import Dataset, DegenerateGroupError, PredictionSet
from fairaudit.groupfair import (
    METRICS,
    MetricResult,
    RocEqualityResult,
    _SCALAR_METRICS,
    _composite,
    _result,
    calibration,
    class_balance,
    conditional_dp,
    group_metric,
    group_metrics,
)
from test_rocstats import confusion


def ref_confusions(d, pred):
    """One weighted confusion matrix per group; both groups must be present."""
    for g in (0, 1):
        d.require_group(g)
    return [confusion(d, pred, g) for g in (0, 1)]


def ref_roc_equality(d):
    c0 = rocstats.roc_curve(d, group=0)
    c1 = rocstats.roc_curve(d, group=1)

    def sup_vertical(a, b):
        grid = np.union1d(a.fpr, b.fpr)
        ta = a.tpr[np.searchsorted(a.fpr, grid, side="right") - 1]
        tb = b.tpr[np.searchsorted(b.fpr, grid, side="right") - 1]
        return float(np.max(np.abs(ta - tb)))

    def sup_horizontal(a, b):
        grid = np.union1d(a.tpr, b.tpr)
        ia = np.minimum(np.searchsorted(a.tpr, grid, side="left"), len(a.tpr) - 1)
        ib = np.minimum(np.searchsorted(b.tpr, grid, side="left"), len(b.tpr) - 1)
        return float(np.max(np.abs(a.fpr[ia] - b.fpr[ib])))

    return RocEqualityResult(sup_tpr_gap=sup_vertical(c0, c1), sup_fpr_gap=sup_horizontal(c0, c1))


def ref_group_metric(metric, d, pred=None, *, epsilon=0.05, bins=10, legit=None):
    """``group_metric`` as it was before the one-pass catalog."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric id {metric!r}")
    for g in (0, 1):
        d.require_group(g)

    if metric in _SCALAR_METRICS or metric == "equalized_odds":
        if pred is None:
            raise ValueError(f"{metric} requires predictions")
        counts = ref_confusions(d, pred)
        rates = [rocstats.rates(c) for c in counts]
        if metric in _SCALAR_METRICS:
            v0, v1 = (_SCALAR_METRICS[metric](c, r) for c, r in zip(counts, rates))
            return _result(metric, v0, v1, epsilon)
        tpr = [r.tpr for r in rates]
        fpr = [r.fpr for r in rates]
        gaps = [abs(a - b) for a, b in (tpr, fpr) if a is not None and b is not None]
        gap = max(gaps) if len(gaps) == 2 else None
        return _composite(metric, gap, epsilon, details={"tpr": tpr, "fpr": fpr})

    if metric == "auc_fairness":
        v0 = rocstats.auc(rocstats.roc_curve(d, group=0))
        v1 = rocstats.auc(rocstats.roc_curve(d, group=1))
        return _result(metric, v0, v1, epsilon)

    if metric == "roc_equality":
        res = ref_roc_equality(d)
        gap = max(res.sup_tpr_gap, res.sup_fpr_gap)
        return _composite(
            metric,
            gap,
            epsilon,
            details={"sup_tpr_gap": res.sup_tpr_gap, "sup_fpr_gap": res.sup_fpr_gap},
        )

    if metric in ("class_balance_weak", "class_balance_strong"):
        mode = "weak" if metric.endswith("weak") else "strong"
        per_y = class_balance(d, mode)
        defined = [v for v in per_y.values() if v is not None]
        gap = max(defined) if defined else None
        return _composite(metric, gap, epsilon, details={"per_y": {str(k): v for k, v in per_y.items()}})

    if metric in ("calibration_parity", "good_calibration"):
        cal = calibration(d, bins)
        gap = cal.parity_gap if metric == "calibration_parity" else cal.good_calibration_deviation
        return _composite(metric, gap, epsilon, details={"bins": len(cal.edges) - 1})

    if metric == "conditional_demographic_parity":
        if pred is None:
            raise ValueError("conditional_demographic_parity requires predictions")
        res = conditional_dp(d, pred, legit or d.legit_names)
        gap = None if res["max_gap"] is None else res["max_gap"] / 100.0
        return _composite(metric, gap, epsilon, details={"strata": res["strata"]})

    raise ValueError(f"unhandled metric {metric!r}")


def ref_catalog(ids, d, pred, undefined_ok=False, **kw):
    """The audit's old loop: one ``ref_group_metric`` call per id, with a
    defaulted metric that raises DegenerateGroupError reported undefined."""
    out = {}
    for mid in ids:
        try:
            out[mid] = ref_group_metric(mid, d, pred, **kw)
        except DegenerateGroupError as exc:
            if not undefined_ok:
                raise
            out[mid] = MetricResult(
                metric=mid, group0=None, group1=None, diff=None, gap=None,
                rel_diff=None, passed=None, details={"undefined": str(exc)},
            )
    return out


def outcome(fn, *args, **kw):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kw)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


@st.composite
def audit_inputs(draw):
    """A small dataset and predictions, with the cases the catalog must keep:
    unit and decimal weights, 0/1 and fractional decisions, a group without
    negatives, no predictions, no scores, and a legitimate column."""
    n = draw(st.integers(2, 12))
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # group 1 without negatives
        y = [1 if g == 1 else v for g, v in zip(s, y)]
    score = None
    if draw(st.integers(0, 4)):
        score = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        score = [v / 10 for v in score]
    weight = None
    if draw(st.booleans()):
        weight = draw(st.lists(st.sampled_from([0.25, 0.5, 1.5, 2.75, 0.1, 3.3]),
                               min_size=n, max_size=n))
    features, names, legit = None, (), ()
    if draw(st.booleans()):
        features = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                            dtype=float)[:, None]
        names = ("x",)
        legit = draw(st.sampled_from([(), ("x",)]))
    d = Dataset(s=s, y=y, score=score, features=features, weight=weight, feature_names=names,
                legit_names=legit)
    kind = draw(st.sampled_from(["none", "labels", "fractional"]))
    if kind == "none":
        pred = None
    elif kind == "labels":
        pred = PredictionSet.from_labels(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        prob = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.75, 1.0]), min_size=n, max_size=n))
        pred = PredictionSet(prob=np.array(prob))
    kw = {"epsilon": draw(st.sampled_from([0.0, 0.05, 0.2])), "bins": draw(st.integers(0, 4))}
    return d, pred, kw


ID_LISTS = st.one_of(
    st.permutations(METRICS),
    st.lists(st.sampled_from(METRICS), min_size=1, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(audit_inputs())
def test_each_metric_alone_matches_reference(inputs):
    d, pred, kw = inputs
    for mid in METRICS:
        assert outcome(group_metric, mid, d, pred, **kw) == outcome(
            ref_group_metric, mid, d, pred, **kw
        ), mid


@settings(max_examples=300, deadline=None)
@given(audit_inputs(), ID_LISTS, st.booleans())
def test_catalog_matches_reference_loop(inputs, ids, undefined_ok):
    d, pred, kw = inputs
    got = outcome(group_metrics, ids, d, pred, undefined_ok=undefined_ok, **kw)
    want = outcome(ref_catalog, ids, d, pred, undefined_ok=undefined_ok, **kw)
    assert got == want
    if isinstance(got, dict):
        assert list(got) == list(want)


def test_unknown_ids_are_named_together(toy, toy_pred):
    got = outcome(group_metrics, ["statistical_parity", "vibes", "auras"], toy, toy_pred)
    assert got == (ValueError, "unknown metric id(s): ['vibes', 'auras']")


def test_failed_build_is_not_kept(toy, toy_pred, monkeypatch):
    # a curve build that raises is retried by the next metric that reads it
    calls = []

    def failing(d, order=None):
        calls.append(d)
        raise DegenerateGroupError("ROC curve needs both outcome classes")

    monkeypatch.setattr(rocstats, "group_roc_curves", failing)
    res = group_metrics(["auc_fairness", "roc_equality", "statistical_parity"], toy, toy_pred,
                        undefined_ok=True)
    assert calls == [toy, toy]
    for mid in ("auc_fairness", "roc_equality"):
        assert res[mid].details == {"undefined": "ROC curve needs both outcome classes"}
    assert res["statistical_parity"].group0 == 0.25
