"""Coverage experiment for the disparate-impact ratio intervals.

Draws parity-fair datasets (decisions independent of the group), builds a
confidence interval per trial with each method and reports how often the
interval covers the true ratio of 1.  A trial whose interval is undefined
(a group with no positive decision, or too many infinite bootstrap
replicates) is counted as undefined, not as a miss; coverage and mean width
are over the defined intervals.

Run from the repository root:
    PYTHONPATH=src python scripts/coverage_study.py --n 400 --rate 0.4 --trials 2000
"""

import argparse
import math

import numpy as np

from fairaudit.data import Dataset, DegenerateGroupError, PredictionSet
from fairaudit.groupfair import impact_ci


def one_trial(rng, n, rate):
    s = rng.integers(0, 2, size=n)
    yhat = (rng.random(n) < rate).astype(int)
    d = Dataset(s=s, y=np.zeros(n, dtype=int), score=np.full(n, 0.5))
    return d, PredictionSet.from_labels(yhat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="records per dataset")
    parser.add_argument("--rate", type=float, default=0.4, help="positive-decision rate")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--boot", type=int, default=300, help="bootstrap replicates")
    args = parser.parse_args()
    rng = np.random.default_rng(2718)
    covered = {"asymptotic": 0, "bootstrap": 0}
    undefined = dict.fromkeys(covered, 0)
    widths = {method: [] for method in covered}
    for trial in range(args.trials):
        d, pred = one_trial(rng, args.n, args.rate)
        for method in covered:
            try:
                ci = impact_ci(d, pred, method=method, level=0.95, n_boot=args.boot, seed=trial)
            except DegenerateGroupError:
                undefined[method] += 1
                continue
            covered[method] += ci.lo <= 1.0 <= ci.hi
            widths[method].append(ci.hi - ci.lo)
    print(f"n={args.n} rate={args.rate} trials={args.trials} boot={args.boot}")
    for method in covered:
        defined = args.trials - undefined[method]
        cov = covered[method] / defined if defined else math.nan
        se = math.sqrt(cov * (1 - cov) / defined) if defined else math.nan
        width = np.mean(widths[method]) if defined else math.nan
        print(
            f"{method:11s} coverage {cov:6.4f} (SE {se:.4f}, target 0.95), "
            f"undefined {undefined[method]}, mean width {width:.4f}"
        )


if __name__ == "__main__":
    main()
