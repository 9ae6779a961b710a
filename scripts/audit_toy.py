"""End-to-end walk through the 24-row demo dataset.

Prints the group-metric table for the shared threshold, the accuracy-vs-
parity threshold trade-off, the disparate-impact block with a bootstrap
interval, and the post-processing fixes.

Run from the repository root:  python scripts/audit_toy.py
"""

import numpy as np

from fairaudit import groupfair, mitigate, rocstats
from fairaudit.data import TOY_THRESHOLD, ThresholdPolicy, apply_policy, load_toy


def main() -> None:
    d = load_toy()
    pred = apply_policy(d, ThresholdPolicy.shared(TOY_THRESHOLD))

    print("== group metrics at the shared threshold ==")
    for metric, r in groupfair.group_metrics(groupfair.TABLE_METRICS, d, pred).items():
        fmt = lambda v: "   - " if v is None else f"{v * 100:5.1f}"
        rel = "    -" if r.rel_diff is None else f"{r.rel_diff:+.1f}"
        print(f"  {metric:24s} s=0 {fmt(r.group0)}  s=1 {fmt(r.group1)}  rel {rel}%")

    t_opt, acc = rocstats.best_accuracy_threshold(d)
    t_fair, ratio, err = rocstats.fairest_threshold(d)
    print("\n== threshold trade-off ==")
    print(f"  accuracy-optimal t = {t_opt:.4f}: error {1 - acc:.4f}, group-0 rate 0")
    print(f"  parity-maximal  t = {t_fair:.4f}: error {err:.4f}, ratio {ratio:.4f}")

    di = groupfair.disparate_impact(d, pred)
    ci = groupfair.impact_ci(d, pred, method="bootstrap", n_boot=2000, seed=0)
    print("\n== disparate impact ==")
    print(f"  ratio {di.ratio:.4f} (flagged: {di.flagged}), SPD {di.spd:+.3f}, "
          f"NSPD {di.nspd:.4f}, EOD {di.eod:+.4f}")
    print(f"  bootstrap 95% interval [{ci.lo:.3f}, {ci.hi:.3f}]")

    print("\n== corrections ==")
    rw = mitigate.reweigh(d)
    rates = [
        float(np.sum(rw.dataset.weight[rw.dataset.s == g] * rw.dataset.y[rw.dataset.s == g])
              / np.sum(rw.dataset.weight[rw.dataset.s == g]))
        for g in (0, 1)
    ]
    print(f"  reweigh: weighted label rates {rates[0]:.4f} vs {rates[1]:.4f}")
    pg = mitigate.per_group_thresholds(d, objective="dp")
    print(f"  per-group thresholds: rates {pg.values}, accuracy {pg.accuracy:.4f}")
    eo = mitigate.equalize_odds(d, criterion="full")
    # the gaps the applied policy realizes, from its decisions' confusion counts
    r0, r1 = map(rocstats.rates, rocstats.group_confusions(d, apply_policy(d, eo.policy)))
    print(f"  equalized odds: point ({eo.target[0]:.4f}, {eo.target[1]:.4f}), "
          f"applied gaps ({abs(r0.tpr - r1.tpr):.2e}, {abs(r0.fpr - r1.fpr):.2e}), "
          f"accuracy {eo.accuracy:.4f}")
    opp = mitigate.equalize_odds(d, criterion="opportunity")
    print(f"  equal opportunity: TPR {opp.realized[0][1]:.4f} both groups, "
          f"accuracy {opp.accuracy:.4f}")


if __name__ == "__main__":
    main()
