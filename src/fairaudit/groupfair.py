"""The group-fairness metric catalog: gaps, ratios, relaxations, intervals.

Every metric is evaluated from its definitional probability formula on
weighted counts.  Values with an empty conditioning class are undefined
(``None``), mirrored as "-" in rendered reports, never NaN.

Conventions for a :class:`MetricResult`:

* per-group values are probabilities/ratios on the 0-1 scale;
* ``diff`` is the signed difference (group 1 - group 0) in percentage
  points; ``gap`` is its absolute value;
* ``rel_diff`` is (v1 - v0) / v0 as a percent, with group 0 as the base,
  undefined when v0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._common import _ndtri, cell_sums
from .data import DataError, Dataset, DegenerateGroupError, PredictionSet
from . import rocstats
from .rocstats import _ratio

__all__ = [
    "METRICS",
    "MetricResult",
    "DisparateImpactResult",
    "ImpactInterval",
    "CalibrationResult",
    "RocEqualityResult",
    "group_metric",
    "group_metrics",
    "disparate_impact",
    "impact_point_estimate",
    "impact_ci",
    "roc_equality",
    "class_balance",
    "calibration",
    "conditional_dp",
]

# stable snake_case identifiers used in reports
METRICS = (
    "statistical_parity",
    "equal_opportunity",
    "predictive_equality",
    "equalized_odds",
    "conditional_accuracy",
    "predictive_parity",
    "accuracy_equality",
    "treatment_equality",
    "equalizing_disincentives",
    "phi_fairness",
    "auc_fairness",
    "roc_equality",
    "class_balance_weak",
    "class_balance_strong",
    "calibration_parity",
    "good_calibration",
    "conditional_demographic_parity",
)

# the seven rows of the reference table, in print order
TABLE_METRICS = (
    "statistical_parity",
    "equal_opportunity",
    "predictive_equality",
    "conditional_accuracy",
    "predictive_parity",
    "accuracy_equality",
    "treatment_equality",
)


@dataclass
class MetricResult:
    metric: str
    group0: float | None
    group1: float | None
    diff: float | None
    gap: float | None
    rel_diff: float | None
    passed: bool | None
    details: dict = field(default_factory=dict)


def _result(metric: str, v0, v1, epsilon: float, details=None) -> MetricResult:
    if v0 is None or v1 is None:
        diff = gap = rel = passed = None
    else:
        diff = (v1 - v0) * 100.0
        gap = abs(diff)
        rel = None if v0 == 0 else (v1 - v0) / v0 * 100.0
        passed = gap <= epsilon * 100.0
    return MetricResult(
        metric=metric,
        group0=v0,
        group1=v1,
        diff=diff,
        gap=gap,
        rel_diff=rel,
        passed=passed,
        details=details or {},
    )


def _composite(metric: str, gap01: float | None, epsilon: float, details) -> MetricResult:
    return MetricResult(
        metric=metric,
        group0=None,
        group1=None,
        diff=None,
        gap=None if gap01 is None else gap01 * 100.0,
        rel_diff=None,
        passed=None if gap01 is None else gap01 <= epsilon,
        details=details,
    )


def _positive_rate(c: rocstats.ConfusionMatrix) -> float | None:
    return _ratio(c.tp + c.fp, c.total)


# per-group value of each scalar metric, from the group's counts and rates
_SCALAR_METRICS = {
    "statistical_parity": lambda c, r: _positive_rate(c),
    "equal_opportunity": lambda c, r: r.tpr,
    "predictive_equality": lambda c, r: r.fpr,
    "conditional_accuracy": lambda c, r: r.npv,  # P[Y=0 | Yhat=0]
    "predictive_parity": lambda c, r: r.ppv,
    "accuracy_equality": lambda c, r: r.accuracy,
    "treatment_equality": lambda c, r: _ratio(c.fn, c.fp),  # FN / FP
    "equalizing_disincentives": lambda c, r: (
        None if r.tpr is None or r.fpr is None else r.tpr - r.fpr
    ),
    "phi_fairness": lambda c, r: r.phi,
}


def group_metric(metric: str, d: Dataset, pred: PredictionSet | None = None, **kw) -> MetricResult:
    """Evaluate one catalog metric; keyword arguments as for :func:`group_metrics`."""
    return group_metrics([metric], d, pred, **kw)[metric]


def group_metrics(
    ids: Sequence[str],
    d: Dataset,
    pred: PredictionSet | None = None,
    *,
    epsilon: float = 0.05,
    bins: int = 10,
    undefined_ok: bool = False,
) -> dict[str, MetricResult]:
    """Evaluate catalog metrics in the order of ``ids``; both groups must be present.

    The group check, the per-group confusion counts and rates, the stable
    descending order of the scores, the two group ROC curves and the
    calibration table are each built on first use and shared by every metric
    that reads them; the curves, the strong class balance and the calibration
    edges all come from that one score order.  A build that raises is not
    kept, so every metric that reads it raises the same error.  With
    ``undefined_ok``, a metric that raises :class:`DegenerateGroupError` is
    reported with ``details={"undefined": reason}`` instead.
    """
    unknown = [m for m in ids if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metric id(s): {unknown}")
    built: dict = {}

    def shared(key: str, build):
        if key not in built:
            built[key] = build()
        return built[key]

    def evaluate(metric: str) -> MetricResult:
        shared("groups", lambda: [d.require_group(g) for g in (0, 1)])
        if metric in _SCALAR_METRICS or metric == "equalized_odds":
            if pred is None:
                raise ValueError(f"{metric} requires predictions")
            counts = shared("counts", lambda: [
                (c, rocstats.rates(c)) for c in rocstats.group_confusions(d, pred)
            ])
            if metric in _SCALAR_METRICS:
                v0, v1 = (_SCALAR_METRICS[metric](c, r) for c, r in counts)
                return _result(metric, v0, v1, epsilon)
            tpr = [r.tpr for _, r in counts]
            fpr = [r.fpr for _, r in counts]
            gaps = [abs(a - b) for a, b in (tpr, fpr) if a is not None and b is not None]
            gap = max(gaps) if len(gaps) == 2 else None
            return _composite(metric, gap, epsilon, details={"tpr": tpr, "fpr": fpr})

        # None without scores, so that each reader raises as it would alone
        order = lambda: shared(
            "order", lambda: None if d.score is None else rocstats._descending(d.score)
        )
        if metric in ("auc_fairness", "roc_equality"):
            c0, c1 = shared("curves", lambda: rocstats.group_roc_curves(d, order=order()))
            if metric == "auc_fairness":
                return _result(metric, rocstats.auc(c0), rocstats.auc(c1), epsilon)
            res = _roc_gaps(c0, c1)
            gap = max(res.sup_tpr_gap, res.sup_fpr_gap)
            details = {"sup_tpr_gap": res.sup_tpr_gap, "sup_fpr_gap": res.sup_fpr_gap}
            return _composite(metric, gap, epsilon, details)

        if metric in ("class_balance_weak", "class_balance_strong"):
            mode = "weak" if metric.endswith("weak") else "strong"
            per_y = class_balance(d, mode, order() if mode == "strong" else None)
            defined = [v for v in per_y.values() if v is not None]
            gap = max(defined) if defined else None
            per_y = {str(k): v for k, v in per_y.items()}
            return _composite(metric, gap, epsilon, details={"per_y": per_y})

        if metric in ("calibration_parity", "good_calibration"):
            cal = shared("calibration", lambda: calibration(d, bins, order()))
            gap = cal.good_calibration_deviation if metric == "good_calibration" else cal.parity_gap
            return _composite(metric, gap, epsilon, details={"bins": len(cal.edges) - 1})

        # conditional_demographic_parity, the one metric left
        if pred is None:
            raise ValueError("conditional_demographic_parity requires predictions")
        res = conditional_dp(d, pred, d.legit_names)
        gap = None if res["max_gap"] is None else res["max_gap"] / 100.0
        return _composite(metric, gap, epsilon, details={"strata": res["strata"]})

    out = {}
    for metric in ids:
        try:
            out[metric] = evaluate(metric)
        except DegenerateGroupError as exc:
            if not undefined_ok:
                raise
            out[metric] = _composite(metric, None, epsilon, {"undefined": str(exc)})
    return out


# ---------------------------------------------------------------------------
# Disparate impact, SPD/NSPD and intervals
# ---------------------------------------------------------------------------


@dataclass
class DisparateImpactResult:
    ratio: float
    threshold: float
    flagged: bool
    spd: float
    nspd: float | None
    eod: float | None
    positive_rates: tuple[float, float]
    epsilon: float
    epsilon_fair: bool


def disparate_impact(
    d: Dataset,
    pred: PredictionSet,
    threshold: float = 0.8,
    epsilon: float = 0.05,
) -> DisparateImpactResult:
    """Two-sided disparate-impact ratio with the four-fifths flag.

    Also reports the statistical parity difference (group 1 - group 0), its
    normalized version NSPD = SPD / D_max with
    D_max = min(P[Yhat=1]/P[S=1], P[Yhat=0]/P[S=0]), and the equal
    opportunity difference EOD (TPR_1 - TPR_0).
    """
    c0, c1 = rocstats.group_confusions(d, pred)
    p0, p1 = _positive_rate(c0), _positive_rate(c1)
    if p0 > 0 and p1 > 0:
        ratio = min(p0 / p1, p1 / p0)
    else:
        ratio = 0.0

    spd = p1 - p0
    w_all = d.weight
    p_pos = float(np.sum(w_all * pred.prob) / np.sum(w_all))
    p_s1 = float(np.sum(w_all * d.s) / np.sum(w_all))
    dmax_terms = []
    if p_s1 > 0:
        dmax_terms.append(p_pos / p_s1)
    if p_s1 < 1:
        dmax_terms.append((1.0 - p_pos) / (1.0 - p_s1))
    dmax = min(dmax_terms) if dmax_terms else None
    nspd = None if not dmax else spd / dmax

    tpr0, tpr1 = (rocstats.rates(c).tpr for c in (c0, c1))
    eod = None if tpr0 is None or tpr1 is None else tpr1 - tpr0

    return DisparateImpactResult(
        ratio=ratio,
        threshold=threshold,
        flagged=ratio < threshold,
        spd=spd,
        nspd=nspd,
        eod=eod,
        positive_rates=(p0, p1),
        epsilon=epsilon,
        epsilon_fair=_result("statistical_parity", p0, p1, epsilon).passed,
    )


def impact_point_estimate(d: Dataset, pred: PredictionSet) -> float:
    """Ratio estimate (sum yhat over s=0 / sum yhat over s=1) * (n1 / n0).

    This is the empirical group-0-over-group-1 positive-rate ratio.  The
    asymptotic interval treats weights as replication counts; the bootstrap
    resamples records, each keeping its weight.
    """
    wp0, wp1, w0, w1, _ = _impact_sums(d, pred)
    return (wp0 / wp1) * (w1 / w0)


def _impact_sums(
    d: Dataset, pred: PredictionSet
) -> tuple[float, float, float, float, tuple | None]:
    """Per-group sums of w*p (group 0, group 1), then of w, behind the impact
    ratio, and the same four counted in records when every weight is equal
    and every decision 0 or 1 (else None)."""
    d.require_group(0)
    g1, w, p = d.require_group(1), d.weight, pred.prob
    counts = None
    if np.all(w == w[0]) and np.all((p == 0.0) | (p == 1.0)):
        k1, n1 = np.count_nonzero(g1 & (p == 1.0)), np.count_nonzero(g1)
        counts = np.count_nonzero(p) - k1, k1, len(d) - n1, n1
    if counts is not None and w[0] == 1.0:
        wp0, wp1, w0, w1 = counts  # the float sums exactly: integers of at most n < 2^53
    else:
        (wp0, wp1), (w0, w1) = cell_sums(d.s, 2, w * p, w)[0].tolist()
    if wp1 == 0:
        raise DegenerateGroupError("no positive predictions in group 1")
    return float(wp0), float(wp1), float(w0), float(w1), counts


@dataclass
class ImpactInterval:
    """``point``, ``lo`` and ``hi`` are group 0's positive rate over group 1's;
    ``DisparateImpactResult.ratio`` is the two-sided min(r, 1/r) instead."""

    point: float
    lo: float
    hi: float
    method: str
    level: float
    n_boot: int | None
    seed: int | None


def impact_ci(
    d: Dataset,
    pred: PredictionSet,
    method: str = "bootstrap",
    level: float = 0.95,
    n_boot: int = 1000,
    seed: int = 0,
) -> ImpactInterval:
    """Confidence interval for the disparate-impact ratio.

    "bootstrap": percentile interval over record resampling; a resample that
    loses a group is redrawn (at most 100 times).  "asymptotic":
    delta-method normal interval for the ratio of two independent
    proportions.

    A replicate needs only its group sizes m0, m1 and positives k0*, k1*
    (sums of w and of w*p).  With equal weights and 0/1 decisions a common
    weight cancels, and their law is exact in three binomials of record
    counts (n0 records, k0 positives in group 0): m0 ~ Bin(n, n0/n),
    m1 = n - m0, k0* ~ Bin(m0, k0/n0) and k1* ~ Bin(m1, k1/n1).  Stream
    contract: one ``default_rng(SeedSequence(seed))`` draws all n_boot
    values of m0, redraws those with m0 = 0 or m1 = 0 in index order, round
    after round, then draws all k0*, then all k1*; a vectorized draw takes
    the stream as a scalar loop in the same order does.  Other inputs
    resample records: replicate b draws n indices from
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, redraws from it, and
    takes its four sums as one product of its draw counts with a per-record
    contribution matrix.
    """
    if not (math.isfinite(level) and 0.0 < level < 1.0):
        raise ValueError(
            f"interval level must lie strictly between 0 and 1, got {level!r}"
        )
    wp0, wp1, w0, w1, counts = _impact_sums(d, pred)
    point = (wp0 / wp1) * (w1 / w0)
    if method == "bootstrap":
        if n_boot < 100:
            raise ValueError("bootstrap needs at least 100 replicates")
        lost = "bootstrap resampling kept losing a group (100 retries)"
        n = len(d)
        if counts is not None:
            c0, c1, n0, n1 = counts
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            m0 = rng.binomial(n, n0 / n, size=n_boot)
            redraws = 0
            while (bad := (m0 == 0) | (m0 == n)).any():
                if redraws == 100:
                    raise DegenerateGroupError(lost)
                m0[bad] = rng.binomial(n, n0 / n, size=np.count_nonzero(bad))
                redraws += 1
            m1 = n - m0
            k0 = rng.binomial(m0, c0 / n0)
            k1 = rng.binomial(m1, c1 / n1)
        else:
            w, p, g0, g1 = d.weight, pred.prob, d.s == 0, d.s == 1
            cols = np.column_stack([w * p * g0, w * p * g1, w * g0, w * g1])
            sums = np.empty((n_boot, 4))
            for b in range(n_boot):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
                for _ in range(101):  # one draw and at most 100 redraws
                    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
                    sums[b] = counts.astype(np.float64) @ cols
                    # weights are positive, so a group is present iff its weight sum is
                    if sums[b, 2] > 0 and sums[b, 3] > 0:
                        break
                else:
                    raise DegenerateGroupError(lost)
            k0, k1, m0, m1 = sums.T
        # sums near the ends of the float range can overflow to inf or NaN
        with np.errstate(all="ignore"):
            stats = np.where(k1 == 0, math.inf, (k0 / k1) * (m1 / m0))
        alpha = 1.0 - level
        with np.errstate(invalid="ignore"):  # inf replicates (no positives)
            lo, hi = np.quantile(stats, [alpha / 2, 1 - alpha / 2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            n_bad = int((~np.isfinite(stats)).sum())
            raise DegenerateGroupError(
                f"bootstrap interval is undefined: {n_bad} of {n_boot} replicates "
                "had an infinite ratio or an undefined one (no positive predictions "
                "in group 1, or weight sums beyond the float range)"
            )
        return ImpactInterval(point, float(lo), float(hi), "bootstrap", level, n_boot, seed)

    if method == "asymptotic":
        p0, p1 = wp0 / w0, wp1 / w1
        if p0 <= 0 or p1 <= 0:
            raise DegenerateGroupError("asymptotic interval needs positives in both groups")
        try:
            var = point**2 * ((1 - p0) / (w0 * p0) + (1 - p1) / (w1 * p1))
        except OverflowError:  # a ratio beyond about 1e154
            var = math.inf
        z = _ndtri((1 + level) / 2)
        half = z * math.sqrt(var)
        if not math.isfinite(point + half):
            raise DegenerateGroupError(
                "asymptotic interval is not finite (weight sums beyond the float range)"
            )
        return ImpactInterval(
            point, max(point - half, 0.0), point + half, "asymptotic", level, None, None
        )

    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# ROC equality, class balance, calibration, conditional parity
# ---------------------------------------------------------------------------


@dataclass
class RocEqualityResult:
    sup_tpr_gap: float
    sup_fpr_gap: float


def roc_equality(d: Dataset) -> RocEqualityResult:
    """Sup-norm differences between the two group ROC curves.

    The curves are compared as monotone step functions, vertically (largest
    TPR difference at matched FPR) and horizontally (largest FPR difference
    at matched TPR).  Both gaps are zero iff the group curves coincide, and
    the comparison only depends on within-group score ranks.
    """
    return _roc_gaps(*rocstats.group_roc_curves(d))


def _roc_gaps(a: rocstats.RocCurve, b: rocstats.RocCurve) -> RocEqualityResult:
    """The sup-norm gaps of :func:`roc_equality` between two built curves, at
    each curve's own points in turn: the same pairs as on the merged grid."""
    tpr_gap = fpr_gap = 0.0
    for p, q in ((a, b), (b, a)):
        # vertically: TPR at every FPR, where a run of equal FPRs ends
        ends = np.r_[rocstats._run_starts(p.fpr)[1:], len(p)] - 1
        other = q.tpr[np.searchsorted(q.fpr, p.fpr[ends], side="right") - 1]
        tpr_gap = max(tpr_gap, np.max(np.abs(p.tpr[ends] - other)))
        # horizontally: the first FPR reaching every TPR, where a run of equal TPRs starts
        starts = rocstats._run_starts(p.tpr)
        other = q.fpr[np.minimum(np.searchsorted(q.tpr, p.tpr[starts], side="left"), len(q) - 1)]
        fpr_gap = max(fpr_gap, np.max(np.abs(p.fpr[starts] - other)))
    return RocEqualityResult(sup_tpr_gap=float(tpr_gap), sup_fpr_gap=float(fpr_gap))


def class_balance(
    d: Dataset, mode: str = "weak", order: np.ndarray | None = None
) -> dict[int, float | None]:
    """Per-outcome-class score gap between groups.

    weak: absolute difference of conditional mean scores.
    strong: Kolmogorov-Smirnov distance between the conditional score
    distributions (the distance is reported, not a p-value), read from the
    stable descending order of the scores (``order``, the records by
    decreasing score with ties in record order; built when not given).  It
    equals ``ks_distance`` of the two cells bit for bit.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
    score = d.require_scores()
    key = 2 * d.s + d.y  # cell (g, yv) is 2 g + yv
    (wscore, w), counts = cell_sums(key, 4, d.weight * score, d.weight)
    out: dict[int, float | None] = {}
    for yv in (0, 1):
        if not (counts[yv] and counts[2 + yv]):
            out[yv] = None
        elif mode == "weak":
            out[yv] = abs(float(wscore[yv] / w[yv]) - float(wscore[2 + yv] / w[2 + yv]))
        else:
            order = rocstats._descending(score) if order is None else order
            out[yv] = _ks_in_class(d, order[d.y[order] == yv], w[yv], w[2 + yv])
    return out


def _ks_in_class(d: Dataset, desc: np.ndarray, w0: float, w1: float) -> float:
    """KS distance between the two groups' scores among the records ``desc``
    (one class, by decreasing score, ties in record order), whose groups'
    weight sums are w0 and w1."""
    n = len(desc)
    bounds = np.r_[rocstats._run_starts(d.score[desc]), n]
    # the tie runs in increasing order, each keeping its records in record
    # order: every group's records in the order ks_distance sorts them
    asc = np.empty_like(desc)
    asc[np.arange(n) + np.repeat(n - bounds[:-1] - bounds[1:], np.diff(bounds))] = desc
    wv, g1 = d.weight[asc], d.s[asc] == 1
    # the other group's records add exact zeros, so each partial sum keeps its bits
    f0 = np.cumsum(np.where(g1, 0.0, wv)) / w0
    f1 = np.cumsum(np.where(g1, wv, 0.0)) / w1
    ends = n - 1 - bounds[:-1]  # each run's last record: the CDFs at its score
    return float(np.max(np.abs(f0[ends] - f1[ends])))


@dataclass
class CalibrationResult:
    edges: np.ndarray
    parity_gap: float | None
    good_calibration_deviation: float | None
    merged_bins: bool


def max_calibration_bins(n: int) -> int:
    """Most bins ``calibration`` takes for n scored records: one per record,
    or the default 10 on smaller samples.  More bins only add empty ones,
    and the grid and the per-cell sums grow with the bin count."""
    return max(n, 10)


def _quantiles(ascending: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile`` with its default "linear" method on values already in
    increasing order: the virtual index (n - 1) q, its floor, and numpy's
    ``_lerp``, whose t >= 0.5 branch interpolates back from the upper value."""
    n = len(ascending)
    virtual = (n - 1) * q
    above = virtual >= n - 1  # numpy takes the maximum, with t = virtual + 1
    lo = np.where(above, -1, np.floor(virtual)).astype(np.intp)
    t = virtual - lo
    a, b = ascending[lo], ascending[np.where(above, -1, lo + 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def calibration(d: Dataset, bins: int = 10, order: np.ndarray | None = None) -> CalibrationResult:
    """Reliability table over quantile bins of the pooled scores.

    parity gap: max over bins (with both groups present) of the inter-group
    difference in observed P[Y=1].  good-calibration deviation: max over
    (group, bin) of |observed P[Y=1] - mean score in the cell|.  ``bins``
    runs from 1 to ``max_calibration_bins(n)``.  The bin edges are the
    pooled scores' linear quantiles, read from the stable descending order
    of the scores (``order``; built when not given) instead of a partition.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    score = d.require_scores()
    if bins > max_calibration_bins(len(score)):
        raise ValueError(f"{bins} calibration bins exceed the {len(score)} scored records")
    order = rocstats._descending(score) if order is None else order
    edges = np.unique(_quantiles(score[order[::-1]], np.linspace(0.0, 1.0, bins + 1)))
    merged = len(edges) - 1 < bins
    if len(edges) == 1:  # constant score
        edges = np.array([edges[0], edges[0]])
    n_bins = len(edges) - 1
    # interior edges split the bins; the top bin includes the maximum
    bin_idx = np.clip(np.searchsorted(edges[1:-1], score, side="right"), 0, n_bins - 1)
    (wy, wscore, w), counts = cell_sums(
        bin_idx * 2 + d.s, 2 * n_bins, d.weight * d.y, d.weight * score, d.weight
    )
    present = counts > 0
    w = np.where(present, w, 1.0)  # an empty cell's sums are 0
    obs = wy / w
    deviations = np.abs(obs - wscore / w)[present]
    both = present.reshape(n_bins, 2).all(axis=1)
    gaps = np.abs(np.diff(obs.reshape(n_bins, 2), axis=1))[both]
    return CalibrationResult(
        edges=edges,
        parity_gap=float(gaps.max()) if gaps.size else None,
        good_calibration_deviation=float(deviations.max()) if deviations.size else None,
        merged_bins=merged,
    )


def conditional_dp(
    d: Dataset, pred: PredictionSet, legit: Sequence[str]
) -> dict:
    """Statistical parity within each stratum of the legitimate columns.

    With no legitimate columns there is a single stratum and the result
    reduces to the global metric.  Strata containing a single group are
    undefined.  The summary is the maximum defined stratum gap (points).
    """
    legit = tuple(legit)
    if not legit:
        assignments = np.zeros(len(d), dtype=np.int64)
        levels = [["all"]]
    else:
        cols = np.column_stack([d.feature_column(name) for name in legit])
        missing = np.isnan(cols).any(axis=0)
        if missing.any():
            name = legit[int(np.argmax(missing))]
            raise DataError(f"legitimate column {name!r} has missing values")
        uniq, assignments = np.unique(cols, axis=0, return_inverse=True)
        levels = uniq.tolist()

    (weight,), _ = cell_sums(assignments, len(levels), d.weight)
    (wp, w), counts = cell_sums(
        assignments * 2 + d.s, 2 * len(levels), d.weight * pred.prob, d.weight
    )
    both = (counts > 0).reshape(-1, 2).all(axis=1).tolist()
    rates = (wp / np.where(counts > 0, w, 1.0)).reshape(-1, 2).tolist()
    strata = []
    for level, weight_k, (r0, r1), defined in zip(levels, weight.tolist(), rates, both):
        if not defined:
            r0 = r1 = None
        gap = abs(r1 - r0) * 100.0 if defined else None
        strata.append(
            {"stratum": level, "weight": weight_k, "group0": r0, "group1": r1, "gap": gap}
        )
    gaps = [e["gap"] for e in strata if e["gap"] is not None]
    return {"strata": strata, "max_gap": max(gaps) if gaps else None}
