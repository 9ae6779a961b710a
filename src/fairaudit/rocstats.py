"""Confusion matrices, rates, ROC curves, their upper hulls and threshold selection.

Conventions
-----------
* Decisions follow the strict rule ``yhat = 1 iff score > t``, so candidate
  thresholds lie between consecutive distinct scores (``_midpoints``), plus
  two end candidates; each selects exactly the records above it in the
  sweep.  ``_sweep`` is the one place this rule lives: every ROC point,
  shared or per-group threshold and equalized-odds vertex comes from its
  sorted pass.  ROC curves use +/-inf as end candidates; decision policies
  use the legal 1.0 and 0.0 (``_policy_candidates``).
* Every sweep reads one stable descending order of the scores,
  ``_descending`` (ties in record order).  Restricted to one group, the
  order of all records is that group's own stable order, so one sort serves
  both groups: ``group_roc_curves`` builds both group curves from it and
  ``_group_sweeps`` splits the other sweeps by group.  The metric catalog
  (``groupfair.group_metrics``) builds the order once per call and also
  reads the strong class balance and the calibration edges from it.
* All counts are weight sums; randomized predictions contribute fractionally
  by their decision probability.
* Zero denominators yield explicit ``None`` ("undefined") rates, never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import cell_sums
from .data import Dataset, DegenerateGroupError, PredictionSet

__all__ = [
    "ConfusionMatrix",
    "RateSet",
    "RocCurve",
    "group_confusions",
    "rates",
    "roc_curve",
    "group_roc_curves",
    "auc",
    "best_accuracy_threshold",
    "fairest_threshold",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Weighted classification counts."""

    tp: float
    fp: float
    tn: float
    fn: float

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RateSet:
    """Derived rates; ``None`` marks an undefined (0/0) entry."""

    tpr: float | None
    fpr: float | None
    ppv: float | None
    npv: float | None
    accuracy: float | None
    phi: float | None


def _ratio(num: float, den: float) -> float | None:
    return None if den == 0 else num / den


def group_confusions(d: Dataset, pred: PredictionSet) -> list[ConfusionMatrix]:
    """Weighted confusion counts of group 0, then group 1, from one pass."""
    if len(pred) != len(d):
        raise ValueError("predictions not aligned with dataset")
    w, p, y = d.weight, pred.prob, d.y
    sums, counts = cell_sums(
        d.s, 2, w * p * y, w * p * (1 - y), w * (1 - p) * (1 - y), w * (1 - p) * y
    )
    for g in (0, 1):
        if not counts[g]:
            raise DegenerateGroupError(f"group {g} is empty")
    return [ConfusionMatrix(*sums[:, g].tolist()) for g in (0, 1)]


def rates(c: ConfusionMatrix) -> RateSet:
    phi_den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if 0 < phi_den < math.inf:
        phi = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(phi_den)
    else:  # an empty margin or an over/underflow: scale by 2^k, root each margin
        k = -math.frexp(max(c.tp, c.fp, c.tn, c.fn))[1]
        tp, fp, tn, fn = (math.ldexp(x, k) for x in (c.tp, c.fp, c.tn, c.fn))
        roots = math.prod(math.sqrt(a + b) for a in (tp, tn) for b in (fp, fn))
        phi = None if roots == 0 else (tp * tn - fp * fn) / roots
    return RateSet(
        tpr=_ratio(c.tp, c.tp + c.fn),
        fpr=_ratio(c.fp, c.fp + c.tn),
        ppv=_ratio(c.tp, c.tp + c.fp),
        npv=_ratio(c.tn, c.tn + c.fn),
        accuracy=_ratio(c.tp + c.tn, c.total),
        phi=phi,
    )


# ---------------------------------------------------------------------------
# ROC curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocCurve:
    """Ordered (fpr, tpr, threshold) points from (0,0) to (1,1).

    ``thresholds`` are strictly decreasing, starting at +inf (nothing
    positive) and ending at -inf (everything positive).  The raw cumulative
    weighted counts behind each point are kept so that the area can be
    computed exactly for unit weights and so that hull mixtures can be
    realized as two-threshold policies.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    neg_above: np.ndarray
    pos_above: np.ndarray
    neg_total: float
    pos_total: float

    def __post_init__(self):
        for name in ("fpr", "tpr", "thresholds", "neg_above", "pos_above"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.fpr) < 0) or np.any(np.diff(self.tpr) < 0):
            raise ValueError("fpr and tpr must be non-decreasing")
        if np.any(np.diff(self.thresholds) >= 0):
            raise ValueError("thresholds must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.fpr)


def _descending(score: np.ndarray) -> np.ndarray:
    """The records by decreasing score, ties in record order: the stable
    argsort of -score, from numpy's faster unstable one.  Sorting the keys
    (tie run, record) puts each run's records in record order and keeps the
    runs in place."""
    order = np.argsort(-score)
    ordered = score[order]
    run = np.cumsum(np.r_[True, ordered[1:] != ordered[:-1]])
    return np.sort(run * len(score) + order) % len(score)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in sorted ``ordered``."""
    return np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])


def _sweep(score: np.ndarray, cols: np.ndarray, order: np.ndarray | None = None):
    """One descending pass over the scores.

    ``cols`` holds per-record weights, one column per count the caller
    needs.  Returns the distinct scores in decreasing order, the sum of each
    column over the records scoring strictly above each candidate (row 0 for
    the candidate above every score, row k for the midpoint below the k-th
    distinct score, the last row for the candidate below every score) and
    the column totals, taken from the same running sums.  ``order`` lists the
    records to sweep by decreasing score, ties in record order (default: all).
    """
    if order is None:
        order = _descending(score)
    ordered = score[order]
    first = _run_starts(ordered)
    cut = np.append(first[1:], len(order))  # records with score >= ordered[first[j]]
    # np.take gathers rows several times faster than fancy indexing, same values
    cum = np.cumsum(np.take(cols, order, axis=0), axis=0)
    above = np.concatenate((np.zeros((1, cum.shape[1])), np.take(cum, cut - 1, axis=0)))
    return ordered[first], above, cum[-1]


def _group_sweeps(score: np.ndarray, s: np.ndarray, cols: np.ndarray, groups=(0, 1)):
    """``_sweep(score[s == g], cols[s == g])`` for each g in ``groups``, bit for
    bit, from one sort: the stable descending order of all records, restricted
    to one group, is that group's own stable order.  No group may be empty."""
    order = _descending(score)
    return [_sweep(score, cols, order[s[order] == g]) for g in groups]


def _midpoints(distinct: np.ndarray) -> np.ndarray:
    """Between consecutive distinct scores hi > lo, their midpoint, or lo
    where it rounds onto hi (adjacent doubles): lo <= t < hi, so the
    thresholds strictly decrease and ``score > t`` decides as the sweep row."""
    hi, lo = distinct[:-1], distinct[1:]
    mids = (hi + lo) / 2.0
    return np.where(mids < hi, mids, lo)


def _policy_candidates(distinct: np.ndarray, above: np.ndarray):
    """Policy-legal thresholds 1.0, the midpoints and 0.0 for a sweep.

    t = 1.0 decides exactly like +inf, since no score exceeds 1.  t = 0.0
    keeps zero-score records negative, so when some record scores exactly 0
    the last candidate decides like the one before it.
    """
    if distinct[-1] == 0.0:
        above = np.concatenate((above[:-1], above[-2:-1]))
    return np.concatenate(([1.0], _midpoints(distinct), [0.0])), above


def _roc_cols(d: Dataset) -> np.ndarray:
    return np.column_stack((d.weight * (1 - d.y), d.weight * d.y))


def roc_curve(d: Dataset, group: int | None = None) -> RocCurve:
    """One point per distinct score plus the (0,0) and (1,1) endpoints.

    The point at threshold t is (P[m > t | Y=0], P[m > t | Y=1]) within the
    filtered records (weighted).
    """
    return group_roc_curves(d, [group])[0]


def group_roc_curves(d: Dataset, groups=(0, 1), order: np.ndarray | None = None):
    """``roc_curve(d, g)`` for each g in ``groups``, checked and built in
    turn, from one sort: ``order``, the records by decreasing score with ties
    in record order (built when not given), restricted to group g is the
    group's own stable order.  A group of None takes every record."""
    score, cols = d.require_scores(), _roc_cols(d)
    order = _descending(score) if order is None else order
    curves = []
    for g in groups:
        if g is not None and not (d.s == g).any():
            raise DegenerateGroupError(f"filter selects no records (group={g})")
        rows = order if g is None else order[d.s[order] == g]
        distinct, above, (neg_total, pos_total) = _sweep(score, cols, rows)
        # the totals are the running sums' last entries, so the final point is (1, 1)
        if pos_total == 0 or neg_total == 0:
            raise DegenerateGroupError("ROC curve needs both outcome classes")
        neg_above, pos_above = above.T
        curves.append(RocCurve(
            fpr=neg_above / neg_total,
            tpr=pos_above / pos_total,
            thresholds=np.concatenate(([math.inf], _midpoints(distinct), [-math.inf])),
            neg_above=neg_above,
            pos_above=pos_above,
            neg_total=float(neg_total),
            pos_total=float(pos_total),
        ))
    return curves


def auc(r: RocCurve) -> float:
    """Trapezoid area under the curve.

    Equals the pairwise concordance probability with ties counted 1/2.  For
    unit (integer) weights the sum is carried out in exact integer
    arithmetic so the identity holds to the last bit.
    """
    counts = np.concatenate((r.neg_above, r.pos_above, [r.neg_total, r.pos_total]))
    if np.all(counts == np.rint(counts)):
        den = 2 * int(round(r.neg_total)) * int(round(r.pos_total))
        if den < 2**63:
            # the counts rise along the curve, so no partial sum exceeds den
            neg = np.rint(r.neg_above).astype(np.int64)
            pos = np.rint(r.pos_above).astype(np.int64)
            return int(np.sum(np.diff(neg) * (pos[:-1] + pos[1:]))) / den
        neg = [int(v) for v in np.rint(r.neg_above)]
        pos = [int(v) for v in np.rint(r.pos_above)]
        num = sum(
            (neg[i + 1] - neg[i]) * (pos[i] + pos[i + 1]) for i in range(len(neg) - 1)
        )
        return num / den
    terms = (r.fpr[1:] - r.fpr[:-1]) * (r.tpr[1:] + r.tpr[:-1]) / 2.0
    return float(math.fsum(terms.tolist()))


def _upper_hull(fpr: np.ndarray, tpr: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull of points sorted by (fpr, tpr).

    Collinear interior points are dropped, so every retained segment is a
    genuine vertex pair; mixing its two thresholds at random realizes any
    point on the segment.
    """
    xs, ys = fpr.tolist(), tpr.tolist()
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o])
            if cross >= 0:  # not a right turn: the middle point is dominated
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull)


def best_accuracy_threshold(d: Dataset) -> tuple[float, float]:
    """Accuracy-optimal shared threshold; ties broken toward the larger threshold.

    Scans the weighted correct count TPR*P + (1-FPR)*N over the policy
    candidates of one sweep (the optimum of a linear objective over the
    achievable set is attained at a curve point).  Every candidate is a
    legal threshold that decides as its curve point does, so the returned
    threshold realizes the accuracy it reports.
    """
    distinct, above, (neg_total, pos_total) = _sweep(d.require_scores(), _roc_cols(d))
    if pos_total == 0 or neg_total == 0:
        raise DegenerateGroupError("accuracy threshold needs both outcome classes")
    thresholds, above = _policy_candidates(distinct, above)
    # counts rather than rates, so unit-weight accuracies are exact
    correct = above[:, 1] + (neg_total - above[:, 0])
    best = int(np.argmax(correct))  # first max = largest threshold
    return float(thresholds[best]), float(correct[best] / (neg_total + pos_total))


def fairest_threshold(d: Dataset) -> tuple[float, float, float]:
    """Single shared threshold maximizing the two-sided positive-rate ratio.

    Maximizes min(r, 1/r) with r = P[Yhat=1|S=0] / P[Yhat=1|S=1] over
    thresholds that leave a non-degenerate decision in each group (each
    group keeps at least one positive and one negative prediction); an
    all-positive or all-negative group would make the ratio vacuous.
    Ties are broken by higher accuracy, then by the larger threshold.

    Returns (threshold, ratio, error_rate).
    """
    score = d.require_scores()
    for g in (0, 1):
        d.require_group(g)

    # one descending sweep gives every candidate's group rates and correctness
    w = d.weight
    cols = np.column_stack((w * (d.s == 0), w * (d.s == 1), w * d.y, w))
    distinct, above, (w0, w1, pos_total, total_w) = _sweep(score, cols)
    cands, above = _policy_candidates(distinct, above)
    above_w0, above_w1, above_pos, above_all = above.T
    r0 = above_w0 / w0
    r1 = above_w1 / w1
    correct = above_pos + ((total_w - pos_total) - (above_all - above_pos))

    if not np.any((r0 > 0.0) & (r1 > 0.0)):
        raise DegenerateGroupError("no threshold yields positives in both groups")
    keep = (r0 > 0.0) & (r1 > 0.0) & (r0 < 1.0) & (r1 < 1.0)
    if not keep.any():
        # only degenerate candidates exist: fall back to the best of those
        keep = (r0 > 0.0) & (r1 > 0.0)

    idx = np.flatnonzero(keep)
    ratio = np.minimum(r0[idx] / r1[idx], r1[idx] / r0[idx])
    # thresholds are distinct, so the largest key is unique
    best = np.lexsort((cands[idx], correct[idx], ratio))[-1]
    k = idx[best]
    # error from the wrong-count so unit-weight results stay exact
    return float(cands[k]), float(ratio[best]), (total_w - correct[k]) / total_w
