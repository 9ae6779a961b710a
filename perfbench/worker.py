"""Run one workload's CLI commands in process and check every report.

``python3 perfbench/worker.py < spec.json``, with the sources on
``PYTHONPATH``, calls ``fairaudit.cli.main(argv)`` for each
command, with stdout captured, in a closed loop: one command at a time, each
starting after the previous one returned.  It prints one JSON object with the
per-command wall times, the checks' outcome and its own peak RSS.

In a traced run a warm-up pass is followed by pairs of a traced and an
untraced pass; the traced passes' spans give the per-layer figures, and all
passes must write byte-identical reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

MIN_PASSES = 2  # untraced passes in an untraced run
MIN_PAIRS = 1  # (untraced, traced) pass pairs in a traced run
REL_TOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_report(report: dict, expected: dict) -> list[str]:
    """Compare a report's data-derived numbers with the benchmark's own."""
    problems = []
    if report["dataset"]["n"] != expected["n"]:
        problems.append(f"dataset.n {report['dataset']['n']} != {expected['n']}")
    sel = expected["selection_rates"]
    if "disparate_impact" in report:  # audit
        sp = report["metrics"]["statistical_parity"]
        di = report["disparate_impact"]
        got = {
            "statistical_parity.group0": (sp["group0"], sel[0]),
            "statistical_parity.group1": (sp["group1"], sel[1]),
            "disparate_impact.positive_rates[0]": (di["positive_rates"][0], sel[0]),
            "disparate_impact.positive_rates[1]": (di["positive_rates"][1], sel[1]),
            "disparate_impact.ratio": (di["ratio"], expected["impact_ratio"]),
        }
    else:  # mitigate
        sp = report["before"]["metrics"]["statistical_parity"]
        rates = report["before"]["label_rates"]
        got = {
            "before.statistical_parity.group0": (sp["group0"], sel[0]),
            "before.statistical_parity.group1": (sp["group1"], sel[1]),
            **{
                f"before.label_rates.{k}": (rates.get(k), v)
                for k, v in expected["label_rates"].items()
            },
        }
    for key, (value, want) in got.items():
        if not _close(value, want):
            problems.append(f"{key} {value!r} != expected {want!r}")
    return problems


class Runner:
    def __init__(self, spec: dict):
        from fairaudit import cli  # found through PYTHONPATH

        self.cli = cli
        # one entry per (command, dataset), keyed "<metric>#<dataset>"
        self.commands = []
        for k, data in enumerate(spec["inputs"]["datasets"]):
            out = Path(spec["work"]) / str(k)
            out.mkdir()
            for metric, argv in spec["commands"]:
                argv = [a.replace("{csv}", data["csv"]).replace("{out}", str(out)) for a in argv]
                self.commands.append((f"{metric}#{k}", argv, data["expected"]))
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _run_one(self, argv: list[str], tracer) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.span(spans.ROOT, self.cli.main, None, argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception:  # a crash is a failed command, not a crashed benchmark
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue(), err.getvalue()

    def _check(self, key: str, expected: dict, rc: int | None, stdout: str, stderr: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}: {stderr.strip()[-300:]}"]
        if "Traceback" in stderr:
            return ["traceback on stderr"]
        try:
            report = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        h = hashlib.sha256(stdout.encode("utf-8"))
        try:
            for path in sorted(report.get("artifacts", {}).values()):
                h.update(Path(path).read_bytes())
            problems = check_report(report, expected)
        except (OSError, KeyError, IndexError, TypeError) as exc:
            return [f"report or artifact incomplete: {exc!r}"]
        digest = h.hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            problems.append("report differs from the run's first pass")
        return problems

    def run_pass(self, tracer=None) -> dict[str, float]:
        times = {}
        for key, argv, expected in self.commands:
            elapsed, rc, stdout, stderr = self._run_one(argv, tracer)
            self.attempted += 1
            problems = self._check(key, expected, rc, stdout, stderr)
            if problems:
                self.failures.append(f"{key}: " + "; ".join(problems))
            times[key] = elapsed
        return times


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    spec = json.load(sys.stdin)
    seconds = spec["seconds"]
    runner = Runner(spec)
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    traces: list[list[dict]] = []
    start = time.perf_counter()

    def more(done: int, minimum: int) -> bool:
        if done < minimum:
            return True
        per_round = (time.perf_counter() - start) / done
        return time.perf_counter() - start + per_round <= seconds

    if not spec["trace"]:
        while more(len(untraced), MIN_PASSES):
            untraced.append(runner.run_pass())
    else:
        # the first pass in a process pays one-off costs; it is not paired
        untraced.append(runner.run_pass())
        while more(len(traced), MIN_PAIRS):
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            layers.append(spans.layer_metrics(tracer.spans))
            traces.append([dataclasses.asdict(s) for s in tracer.spans])
            untraced.append(runner.run_pass())

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "spans": traces,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
