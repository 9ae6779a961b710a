"""fairaudit benchmark: CLI command latency on three layer-separating workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload audit-bootstrap --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

* ``audit-bootstrap``: ``audit --threshold 0.6 --no-individual`` on 1e5
  score-only rows; the bootstrap impact interval does most of the work.
* ``audit-individual``: ``audit --pred-col yhat --ci asymptotic`` on two
  datasets of 5e4 rows with four features; the reconstruction fits and
  Lipschitz pairs do most of the work.
* ``mitigate-suite``: the six ``mitigate`` methods on 1e4 rows with four
  features, one command each.

One run generates the workload's CSVs from the seed in a separate process,
then times ``python -m fairaudit.cli --version`` in fresh interpreters
(``setup_s``, the import cost every CLI call pays), then runs the commands in
one worker process (``worker.py``) through ``fairaudit.cli.main(argv)``: a
closed loop with one client, BLAS limited to ``nproc`` threads, for about
``--seconds`` seconds and at least two passes over the commands.  Every
command's report is checked; see ``worker.py``.

``--trace 0`` reports the end-to-end metrics, which every workload has:
``pass_s`` (median wall time of one pass over the workload's commands: one
audit per dataset, or the six mitigate commands back to back), ``setup_s`` (median of
three launches) and ``peak_rss_mb`` (max RSS of the worker; data generation is
excluded).  The per-command medians (``audit_s``, ``mitigate.<method>_s``) are
printed with their sample counts, and ``fail_ratio`` as failed / attempted
commands; the result line carries it as ``failed`` and ``attempted``.
``--trace 1`` runs one warm-up pass, then alternates traced and untraced
passes, and reports the per-layer metrics of the traced ones (``spans.py``,
0 where a layer does not run), the tracing overhead (traced minus untraced
pass time), and each ``fairaudit`` module's import time from
``python -X importtime``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full results, with the machine
and input description, every pass time and the raw spans, go to
``.perfbench_results/<workload>-seed<seed>-trace<0|1>.json``.  ``repeat.py``
runs several seeds and summarizes the spread; ``baseline.json`` holds the
figures of the unmodified program.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # a run must end within 180 s
SETUP_LAUNCHES = 3
IMPORT_LAUNCHES = 3

# layer metric -> the end-to-end metric it should move, on which workload
LAYER_MAP = {
    "groupfair.impact_ci": "pass_s/audit_s on audit-bootstrap; ~0 on audit-individual",
    "mitigate.train_logistic": "audit_s on audit-individual, mitigate.train_s on mitigate-suite; absent on audit-bootstrap",
    "indivfair.reconstruction_audit": "audit_s on audit-individual",
    "indivfair.lipschitz_audit": "audit_s on audit-individual",
    "data.load_csv": "every command; largest in audit-individual and mitigate.reweigh_s/repair_s",
    "data.dataset_to_csv": "mitigate.{reweigh,massage,repair,train}_s; absent in both audits",
    "groupfair.group_metric, rocstats.roc_curve, rocstats.auc": "audit_s on both audits and the before/after blocks of every mitigate command",
    "mitigate.equalize_odds": "mitigate.equalize_odds_s",
    "mitigate.per_group_thresholds": "mitigate.thresholds_s",
    "mitigate.massage_labels": "mitigate.massage_s",
    "mitigate.reweigh": "mitigate.reweigh_s",
    "mitigate.di_remove": "mitigate.repair_s",
    "depmeasure": "audit_s, about 0.03 s; a control that should never move",
    "cli.self_s": "every command metric (report assembly, JSON, Markdown)",
    "fairaudit.<module>.import_s": "setup_s",
}

# per-layer metrics reported on every workload (0 where the layer does not run)
LAYER_METRICS = (
    "groupfair.impact_ci.busy_s",
    "groupfair.impact_ci.replicates",
    "mitigate.train_logistic.busy_s",
    "mitigate.train_logistic.calls",
    "mitigate.train_logistic.iters",
    "indivfair.reconstruction_audit.self_s",
    "indivfair.lipschitz_audit.busy_s",
    "indivfair.lipschitz_audit.pairs",
    "data.load_csv.busy_s",
    "data.dataset_to_csv.busy_s",
    "data.dataset_to_csv.bytes",
    "groupfair.group_metric.busy_s",
    "groupfair.group_metric.calls",
    "rocstats.roc_curve.busy_s",
    "rocstats.auc.busy_s",
    "mitigate.equalize_odds.busy_s",
    "mitigate.per_group_thresholds.busy_s",
    "mitigate.massage_labels.busy_s",
    "mitigate.massage_labels.swaps",
    "mitigate.reweigh.busy_s",
    "mitigate.di_remove.busy_s",
    "depmeasure.busy_s",
    "cli.self_s",
)
MODULES = (
    "fairaudit",
    "fairaudit.cli",
    "fairaudit._common",
    "fairaudit.data",
    "fairaudit.depmeasure",
    "fairaudit.groupfair",
    "fairaudit.indivfair",
    "fairaudit.mitigate",
    "fairaudit.rocstats",
    "fairaudit.synth",
)


def _unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )


def _python(args: list[str], deadline: float, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
        **kw,
    )


def measure_setup(deadline: float, version: str) -> tuple[list[float], list[str]]:
    """Median-ready wall times of ``python -m fairaudit.cli --version``."""
    times, problems = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = _python(["-m", "fairaudit.cli", "--version"], deadline)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != version:
            problems.append(f"--version launch: exit {proc.returncode}, {proc.stdout!r}")
    return times, problems


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def measure_imports(deadline: float, problems: list[str]) -> dict[str, float]:
    """Median cumulative import time of each fairaudit module, in seconds.

    The launch runs ``fairaudit.cli`` as ``__main__``, so its own figure is
    the sum over the top-level imports it triggers.
    """
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORT_LAUNCHES):
        proc = _python(["-X", "importtime", "-m", "fairaudit.cli", "--version"], deadline)
        if proc.returncode != 0:
            problems.append(f"-X importtime launch: exit {proc.returncode}")
        seen: dict[str, float] = {}
        after_package, cli_total = False, 0.0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(2)) / 1e6, len(m.group(3)), m.group(4)
            if name in samples:
                seen[name] = cumulative
            if depth == 0:
                if after_package:
                    cli_total += cumulative
                after_package = after_package or name == "fairaudit"
        seen["fairaudit.cli"] = cli_total
        for name in MODULES:
            samples[name].append(seen.get(name, 0.0))
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    keys = sorted({k for r in rows for k in r})
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def _layer_summary(worker: dict) -> dict[str, float]:
    layers = worker["layers"]
    med = _median_by_key(layers)
    out = {name: med.get(name, 0.0) for name in LAYER_METRICS}
    calls = med.get("mitigate.train_logistic.calls", 0)
    out["mitigate.train_logistic.converged_ratio"] = (
        med.get("mitigate.train_logistic.converged", 0) / calls if calls else 0.0
    )
    busy = med.get("data.load_csv.busy_s", 0.0)
    out["data.load_csv.rows_per_s"] = med.get("data.load_csv.rows", 0) / busy if busy else 0.0
    traced = [sum(p.values()) for p in worker["traced"]]
    untraced = [sum(p.values()) for p in worker["untraced"][1:]]  # [0] is the warm-up
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    # the traced pass time that neither a top-level layer nor cli self time covers
    out["trace.unaccounted_s"] = statistics.median(
        t - (layer["top_level_busy_s"] + layer.get("cli.self_s", 0.0))
        for t, layer in zip(traced, layers)
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fairaudit" / "cli.py").is_file():
        print(f"error: no fairaudit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        gen = _python([str(HERE / "workloads.py"), args.workload, str(args.seed), str(work)], deadline)
        if gen.returncode != 0:
            print(gen.stderr, file=sys.stderr)
            return 1
        inputs = json.loads(gen.stdout)
        problems: list[str] = []
        metrics: dict[str, float] = {}
        if args.trace:
            metrics.update(measure_imports(deadline, problems))
        else:
            setup, problems = measure_setup(deadline, inputs["version"])
            metrics["setup_s"] = statistics.median(setup)
        spec = {
            "work": str(work),
            "inputs": inputs,
            "commands": workload.commands,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        proc = _python([str(HERE / "worker.py")], deadline, input=json.dumps(spec))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        worker = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = worker["untraced"]
    per_command: dict[str, list[float]] = {}
    for p in passes:
        for key, elapsed in p.items():
            per_command.setdefault(key.split("#")[0], []).append(elapsed)
    if args.trace:
        metrics.update(_layer_summary(worker))
        samples = {
            name: IMPORT_LAUNCHES if name.endswith(".import_s") else len(worker["traced"])
            for name in metrics
        }
    else:
        metrics["pass_s"] = statistics.median(sum(p.values()) for p in passes)
        metrics["peak_rss_mb"] = worker["peak_rss_mb"]
        samples = {"setup_s": len(setup), "pass_s": len(passes), "peak_rss_mb": 1}

    problems += worker["failures"]
    results = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": _env()["OPENBLAS_NUM_THREADS"],
            **worker["machine"],
        },
        "inputs": {
            "seed": inputs["seed"],
            "n": inputs["n"],
            "datasets": [
                {k: d[k] for k in ("seed", "columns", "csv_sha256")} for d in inputs["datasets"]
            ],
        },
        "commands": [list(c) for c in workload.commands],
        "passes": {"untraced": passes, "traced": worker["traced"]},
        "spans": worker["spans"],
        "per_command_s": {
            name: {"median": statistics.median(v), "samples": len(v)} for name, v in per_command.items()
        },
        "fail_ratio": worker["failed"] / worker["attempted"],
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
        "layer_map": LAYER_MAP,
    }
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload} seed {args.seed}: n={inputs['n']} per dataset")
    for d in inputs["datasets"]:
        print(f"  dataset seed {d['seed']} columns {','.join(d['columns'])} sha256 {d['csv_sha256']}")
    for name, v in results["per_command_s"].items():
        print(f"  {name:<32} {v['median']:.4f} s (median of {v['samples']})")
    print(f"  {'fail_ratio':<32} {results['fail_ratio']:.4f} ratio ({worker['attempted']} commands)")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<48} {value:.6g} {_unit(name)} (n={samples[name]})")
    if args.trace:
        print(f"  reports byte-identical with and without tracing: {not worker['failures']}")
        print(f"  top-level layers + cli.self_s - traced pass time: {metrics['trace.unaccounted_s']:.3g} s")
    for line in problems:
        print(f"  problem: {line}")
    final = {
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
