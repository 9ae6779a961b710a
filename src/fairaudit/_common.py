"""Small shared numeric helpers, the normal quantile and the strict JSON writer."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _dump_json(obj, path: Path | None) -> str:
    """Strict JSON text (sorted keys, no NaN or infinity), written to ``path``
    when one is given; nothing is written when the object does not encode."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default, allow_nan=False) + "\n"
    if path is not None:
        path.write_text(text, encoding="utf-8")
    return text


def cell_sums(key: np.ndarray, n_cells: int, *cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's sum over each cell's records, and each cell's record count.

    ``key`` holds every record's cell, an integer in [0, n_cells).  Entry
    [j, c] of the sums is ``np.sum(cols[j][key == c])`` bit for bit (0.0 for
    an empty cell), and count c is ``(key == c).sum()``.  A stable argsort
    keeps each cell's records in record order, so each cell is one contiguous
    run of the order, and gathering a column at that run gives the values the
    mask would pick, in the same order; numpy's pairwise ``np.sum`` of a
    contiguous float64 array depends only on its values and their order.
    ``np.add.reduceat`` would add each run sequentially and round differently.
    """
    # the smallest dtype: numpy sorts keys of 16 bits or less stably by radix
    order = np.argsort(key.astype(np.min_scalar_type(n_cells)), kind="stable")
    counts = np.bincount(key, minlength=n_cells)
    cells = np.flatnonzero(counts)
    ends = np.cumsum(counts)[cells]
    runs = list(zip((ends - counts[cells]).tolist(), ends.tolist()))
    sums = np.zeros((len(cols), n_cells))
    for j, col in enumerate(cols):
        sums[j, cells] = [col[order[a:b]].sum() for a, b in runs]
    return sums, counts


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in which tied values share their mean rank (the
    "average" ranks of ``scipy.stats.rankdata``)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    counts = np.diff(np.r_[starts, len(values)])
    mid = (starts + 1) + (counts - 1) / 2
    ranks = np.empty(len(values))
    ranks[order] = mid[np.cumsum(first) - 1]
    return ranks


# Cephes ``ndtri`` (S. L. Moshier) coefficients: a rational function of
# y - 1/2 for exp(-2) < y < 1 - exp(-2), and of 1/sqrt(-2 log y) in the tails,
# split at sqrt(-2 log y) = 8
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
             -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
             -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1, 1.34204006088543189037e-2,
             3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coef: tuple) -> float:
    """Cephes ``polevl``; with a leading 1.0, ``p1evl`` (1.0 * x is exact)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """Standard normal quantile of a scalar p in [0, 1].

    The Cephes algorithm in the same operation order as
    ``scipy.special.ndtri``, so the result is the same double; kept here so
    the CLI does not import scipy for one quantile.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x0, x1 = x - math.log(x) / x, z * _horner(z, P) / _horner(z, Q)
    return x0 - x1 if upper else x1 - x0


def ks_distance(a, b, wa=None, wb=None) -> float:
    """Two-sample Kolmogorov-Smirnov distance, optionally weighted.

    Sup over the merged support of the absolute difference between the two
    (weighted) empirical CDFs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("need non-empty samples")
    wa = np.ones(len(a)) if wa is None else np.asarray(wa, dtype=float)
    wb = np.ones(len(b)) if wb is None else np.asarray(wb, dtype=float)

    grid = np.union1d(a, b)
    ia = np.argsort(a, kind="stable")
    ib = np.argsort(b, kind="stable")
    ca = np.cumsum(wa[ia]) / np.sum(wa)
    cb = np.cumsum(wb[ib]) / np.sum(wb)
    # CDF value at grid point = cumulative weight of samples <= point
    fa = np.concatenate(([0.0], ca))[np.searchsorted(a[ia], grid, side="right")]
    fb = np.concatenate(([0.0], cb))[np.searchsorted(b[ib], grid, side="right")]
    return float(np.max(np.abs(fa - fb)))
