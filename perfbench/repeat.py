"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py [--workloads audit-bootstrap,mitigate-suite] \
        [--seeds 1-10] [--seconds 25] [--trace 0] [--out summary.json]

By default it runs every workload once, with seed 1, and prints each run's
metrics.  For every workload and metric it then prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  The per-command medians
(``audit_s``, ``mitigate.<method>_s``) are summarized the same way.  The runs
are made one after another, so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--out", default=None, help="write the summary as JSON")
    args = p.parse_args()

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            *report, last = proc.stdout.splitlines()
            print("\n".join(report), flush=True)
            line = json.loads(last)
            results = json.loads(
                (ROOT / ".perfbench_results" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text()
            )
            ok = ok and line["correct"] and line["failed"] == 0
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"], "inputs": results["inputs"]})
            for name, m in line["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, v in results["per_command_s"].items():
                metrics.setdefault(f"per_command.{name}", []).append(v["median"])
        stats = {name: summarize(v) for name, v in metrics.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats, "machine": results["machine"]}
        for name, s in stats.items():
            print(f"{workload:<18} {name:<44} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
