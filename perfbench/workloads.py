"""Workload definitions and seeded input generation for the fairaudit benchmark.

Every workload is a fixed list of CLI commands, run on each of its generated
CSVs.  The scores, groups and outcomes come from the program's own seeded generator
(``fairaudit.synth.sample_scores`` with the operating-point preset); feature
and prediction columns, where a workload needs them, come from the
benchmark's own numpy generator.  The CSV is written by the benchmark, not by
``fairaudit.data.dataset_to_csv``, so that a change to the program's writer
cannot change the inputs.

``python3 perfbench/workloads.py <workload> <seed> <dir>`` writes
``<dir>/input-<k>.csv`` for each dataset ``k`` and prints a JSON description
of the inputs with the expected values the worker checks reports against.  It runs in a process of
its own so that data generation stays out of the measured peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THRESHOLD = 0.6
N_FEATURES = 4
# feature k = N(0, 1) + S_SHIFT[k] * s + Y_SHIFT[k] * y
S_SHIFT = (0.8, 0.0, 0.4, -0.3)
Y_SHIFT = (0.5, 1.0, 0.0, 0.3)

MITIGATE_METHODS = (
    ("thresholds", ["--method", "thresholds"]),
    ("equalize_odds", ["--method", "equalize-odds", "--criterion", "full"]),
    ("massage", ["--method", "massage"]),
    ("reweigh", ["--method", "reweigh"]),
    ("repair", ["--method", "repair"]),
    ("train", ["--method", "train", "--penalty", "dp_correlation", "--lam", "1000"]),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    features: bool
    pred_col: bool
    # independent datasets per run; more than one where the commands' cost
    # depends on the data, so that one seed's data does not decide a run
    datasets: int
    # (metric name, argv); "{csv}" stands for the input CSV and "{out}" for
    # the run's work directory
    commands: tuple[tuple[str, tuple[str, ...]], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="audit-bootstrap",
            why="audit at n=1e5 score-only rows: the 1000-replicate bootstrap impact CI does most of the work and no trainer runs",
            n=100_000,
            features=False,
            pred_col=False,
            datasets=1,
            commands=(
                ("audit_s", ("audit", "{csv}", "--threshold", str(THRESHOLD), "--no-individual")),
            ),
        ),
        Workload(
            name="audit-individual",
            why="audit --pred-col on n=5e4 rows with 4 features: reconstruction fits, Lipschitz pairs and wide-row ingest dominate, no bootstrap",
            n=50_000,
            features=True,
            pred_col=True,
            # the reconstruction fits take 270 to 355 iterations in all,
            # depending on the dataset
            datasets=2,
            commands=(
                ("audit_s", ("audit", "{csv}", "--pred-col", "yhat", "--ci", "asymptotic")),
            ),
        ),
        Workload(
            name="mitigate-suite",
            why="the six mitigate methods on n=1e4 rows with features: ROC sweep, hull, label massaging, penalised trainer and the CSV write path",
            n=10_000,
            features=True,
            pred_col=False,
            datasets=1,
            commands=tuple(
                (
                    f"mitigate.{label}_s",
                    ("mitigate", "{csv}", *args, "--threshold", str(THRESHOLD),
                     "--out", "{out}/" + label),
                )
                for label, args in MITIGATE_METHODS
            ),
        ),
    )
}


def _group_rates(values: np.ndarray, s: np.ndarray) -> list[float]:
    return [float(values[s == g].mean()) for g in (0, 1)]


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's CSVs and return their description and expected values."""
    from fairaudit import __version__

    return {
        "workload": workload.name,
        "version": __version__,
        "seed": seed,
        "n": workload.n,
        "datasets": [
            _dataset(workload, int(np.random.SeedSequence([seed, k]).generate_state(1)[0]),
                     out_dir / f"input-{k}.csv")
            for k in range(workload.datasets)
        ],
    }


def _dataset(workload: Workload, seed: int, csv_path: Path) -> dict:
    from fairaudit import synth

    d = synth.sample_scores(synth.operating_point_spec(), workload.n, seed)
    s, y, score = d.s, d.y, d.score
    columns: dict[str, np.ndarray] = {"s": s, "y": y, "score": score}
    if workload.features:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((workload.n, N_FEATURES))
        for k in range(N_FEATURES):
            columns[f"x{k + 1}"] = noise[:, k] + S_SHIFT[k] * s + Y_SHIFT[k] * y
    pred = (score > THRESHOLD).astype(float)  # the CLI's strict threshold rule
    if workload.pred_col:
        columns["yhat"] = pred.astype(np.int64)

    names = list(columns)
    cells = [
        v.astype(str) if v.dtype.kind == "i" else np.array([repr(float(x)) for x in v])
        for v in columns.values()
    ]
    lines = [",".join(names)] + [",".join(row) for row in zip(*cells)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    csv_path.write_bytes(data)

    sel = _group_rates(pred, s)
    label = _group_rates(y.astype(float), s)
    return {
        "seed": seed,
        "columns": names,
        "csv": str(csv_path),
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "expected": {
            "n": workload.n,
            "selection_rates": sel,
            "impact_ratio": min(sel[0] / sel[1], sel[1] / sel[0]),
            "label_rates": {"0": label[0], "1": label[1], "gap": abs(label[1] - label[0])},
        },
    }


if __name__ == "__main__":
    name, seed_arg, dir_arg = sys.argv[1:4]
    print(json.dumps(generate(WORKLOADS[name], int(seed_arg), Path(dir_arg))))
