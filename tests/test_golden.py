"""Golden CLI outputs: every report and artifact of a fixed command list.

The commands run in process through ``fairaudit.cli.main`` on six inputs:
the 24-row toy CSV, a seeded operating-point sample (n=2000) with four
seeded Gaussian feature columns and a 0/1 ``yhat`` column, a copy of that
sample with a non-integer weight column ``w``, a copy with an empty
feature cell, a ``1_0`` cell and a whitespace-only line, which ``load_csv``
reads through its row loop instead of ``np.loadtxt``, and a larger sample
(n=2500) from the same generator, above the Lipschitz audit's exact-pair
limit, so its audit checks sampled pairs, and the toy rows with a constant
score and a constant feature ``zz``.  The ``synth`` command reads no input;
its case pins the sample it writes.

* Outputs from the unit-weight inputs are pinned by SHA-256.
* Outputs from the weighted copy, and the ``after.metrics`` blocks of
  ``mitigate --method equalize-odds`` (whose decision probabilities are
  fractional) and ``--method reweigh`` (whose corrected weights are
  fractional), are pinned by value: the text with every number replaced by
  ``#`` is pinned by SHA-256, and the numbers must agree to rel 1e-12 (abs
  1e-12 for values that cancel to about zero).  Outputs with more than
  ``MAX_LISTED`` numbers pin their count and five sums instead of the list.

The pins live in ``golden/expected.json``.  After a deliberate output
change, or to pin a new case, run ``PYTHONPATH=src python tests/test_golden.py``.
It keeps every pin that the fresh outputs still pass, writes only missing or
failing cases and inputs, and prints their keys.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from fairaudit import cli, synth
from fairaudit.data import TOY_CSV, TOY_THRESHOLD

EXPECTED = Path(__file__).parent / "golden" / "expected.json"
REL = 1e-12
ABS = 1e-12
MAX_LISTED = 2000
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

N = 2000
N_SAMPLED = 2500  # above indivfair.EXACT_PAIR_LIMIT
SEED = 11
T = "0.6"

_PER_DATASET = [
    ("audit-shared-json", ["audit", "{csv}", "--threshold", T]),
    ("audit-shared-md", ["audit", "{csv}", "--threshold", T, "--ci", "asymptotic",
                         "--format", "md", "--no-individual", "--out", "{out}"]),
    ("audit-per-group", ["audit", "{csv}", "--threshold-by-group", "0=0.55",
                         "--threshold-by-group", "1=0.65", "--ci", "asymptotic",
                         "--no-individual"]),
    ("audit-pred-col-boot", ["audit", "{csv}", "--pred-col", "yhat", "--no-individual"]),
    ("audit-pred-col-asym", ["audit", "{csv}", "--pred-col", "yhat", "--ci", "asymptotic"]),
    # explicitly requested metrics that share ROC curves and the calibration table
    ("audit-explicit", ["audit", "{csv}", "--threshold", T, "--metrics",
                        "equalized_odds,auc_fairness,roc_equality,calibration_parity,"
                        "good_calibration", "--ci", "none", "--no-individual"]),
    # conditional parity within the two strata of a 0/1 legitimate column
    ("audit-legit", ["audit", "{csv}", "--threshold", T, "--legit", "yhat", "--bins", "50",
                     "--ci", "none", "--no-individual"]),
    ("thresholds-dp", ["mitigate", "{csv}", "--method", "thresholds", "--out", "{out}"]),
    ("thresholds-eo", ["mitigate", "{csv}", "--method", "thresholds",
                       "--objective", "eo_tpr", "--out", "{out}"]),
    ("eo-full", ["mitigate", "{csv}", "--method", "equalize-odds", "--out", "{out}"]),
    ("eo-opportunity", ["mitigate", "{csv}", "--method", "equalize-odds",
                        "--criterion", "opportunity", "--out", "{out}"]),
    ("massage", ["mitigate", "{csv}", "--method", "massage", "--threshold", T, "--out", "{out}"]),
    ("reweigh", ["mitigate", "{csv}", "--method", "reweigh", "--threshold", T, "--out", "{out}"]),
    ("repair", ["mitigate", "{csv}", "--method", "repair", "--threshold", T, "--out", "{out}"]),
    ("train", ["mitigate", "{csv}", "--method", "train", "--penalty", "dp_correlation",
               "--lam", "10", "--threshold", T, "--out", "{out}"]),
    # every probit branch of the trainer: loss, penalty and scoring
    ("train-probit", ["mitigate", "{csv}", "--method", "train", "--link", "probit",
                      "--penalty", "dp_correlation", "--lam", "10", "--threshold", T,
                      "--out", "{out}"]),
    ("train-none", ["mitigate", "{csv}", "--method", "train", "--penalty", "none",
                    "--threshold", T, "--out", "{out}"]),
    ("train-eo", ["mitigate", "{csv}", "--method", "train", "--penalty", "eo_correlation",
                  "--lam0", "5", "--lam1", "5", "--threshold", T, "--out", "{out}"]),
    ("train-maxcor", ["mitigate", "{csv}", "--method", "train", "--penalty", "dp_maxcor",
                      "--lam", "10", "--threshold", T, "--out", "{out}"]),
    # no decision policy: the after-block has no metrics
    ("train-no-threshold", ["mitigate", "{csv}", "--method", "train", "--penalty",
                            "dp_correlation", "--lam", "10", "--out", "{out}"]),
    ("massage-pred-col", ["mitigate", "{csv}", "--method", "massage", "--pred-col", "yhat",
                          "--eps", "0.02", "--out", "{out}"]),
    ("repair-features", ["mitigate", "{csv}", "--method", "repair", "--features", "x1,x2",
                         "--threshold", T, "--out", "{out}"]),
    ("plot-roc", ["plot", "{csv}", "--kind", "roc", "--out", "{out}"]),
    ("plot-roc-by-group", ["plot", "{csv}", "--kind", "roc-by-group", "--out", "{out}"]),
    ("plot-score-hist", ["plot", "{csv}", "--kind", "score-hist", "--out", "{out}"]),
]

_TOY = [
    ("audit-shared-json", ["audit", "{csv}", "--threshold", repr(TOY_THRESHOLD)]),
    ("audit-shared-md", ["audit", "{csv}", "--threshold", repr(TOY_THRESHOLD), "--ci",
                         "asymptotic", "--format", "md", "--out", "{out}"]),
    ("audit-per-group", ["audit", "{csv}", "--threshold-by-group", "0=0.3",
                         "--threshold-by-group", "1=0.6", "--ci", "asymptotic"]),
    ("thresholds-dp", ["mitigate", "{csv}", "--method", "thresholds", "--out", "{out}"]),
    ("thresholds-eo", ["mitigate", "{csv}", "--method", "thresholds",
                       "--objective", "eo_tpr", "--out", "{out}"]),
    ("eo-full", ["mitigate", "{csv}", "--method", "equalize-odds", "--out", "{out}"]),
    ("eo-opportunity", ["mitigate", "{csv}", "--method", "equalize-odds",
                        "--criterion", "opportunity", "--out", "{out}"]),
    ("massage", ["mitigate", "{csv}", "--method", "massage", "--threshold",
                 repr(TOY_THRESHOLD), "--out", "{out}"]),
    ("reweigh", ["mitigate", "{csv}", "--method", "reweigh", "--threshold",
                 repr(TOY_THRESHOLD), "--out", "{out}"]),
    ("plot-roc", ["plot", "{csv}", "--kind", "roc", "--out", "{out}"]),
    ("plot-roc-by-group", ["plot", "{csv}", "--kind", "roc-by-group", "--out", "{out}"]),
    ("plot-score-hist", ["plot", "{csv}", "--kind", "score-hist", "--out", "{out}"]),
]

# the missing feature value leaves out the individual audits
_FALLBACK = [
    ("validate", ["validate", "{csv}"]),
    ("audit-shared-json", ["audit", "{csv}", "--threshold", T]),
    ("audit-pred-col-asym", ["audit", "{csv}", "--pred-col", "yhat", "--ci", "asymptotic"]),
    ("thresholds-dp", ["mitigate", "{csv}", "--method", "thresholds", "--out", "{out}"]),
]

# a constant score and a constant feature that sorts after "score"
_CONSTANT = [
    ("validate", ["validate", "{csv}"]),
]

# a continuous legitimate column: one stratum and one calibration bin per record
_CONTINUOUS = [
    ("audit-legit-continuous", ["audit", "{csv}", "--threshold", T, "--legit", "x1", "--metrics",
                                "conditional_demographic_parity,calibration_parity,"
                                "good_calibration", "--bins", "2000", "--ci", "none",
                                "--no-individual"]),
]

# no input file: the command samples its own dataset
_GENERATED = [
    ("synth", ["synth", "--preset", "operating-point", "--n", "200", "--seed", "3",
               "--out", "{out}"]),
]

# n > EXACT_PAIR_LIMIT: the Lipschitz audit checks a seeded sample of pairs
_SAMPLED = [
    ("audit-pred-col-asym", ["audit", "{csv}", "--pred-col", "yhat", "--ci", "asymptotic"]),
]

CASES = (
    [(f"toy/{name}", "toy.csv", argv) for name, argv in _TOY]
    + [(f"synth/{name}", "synth.csv", argv) for name, argv in _PER_DATASET]
    + [(f"weighted/{name}", "weighted.csv", argv) for name, argv in _PER_DATASET]
    + [(f"synth/{name}", "synth.csv", argv) for name, argv in _CONTINUOUS]
    + [(f"fallback/{name}", "fallback.csv", argv) for name, argv in _FALLBACK]
    + [(f"sampled/{name}", "sampled.csv", argv) for name, argv in _SAMPLED]
    + [(f"constant/{name}", "constant.csv", argv) for name, argv in _CONSTANT]
    + [(f"generated/{name}", "", argv) for name, argv in _GENERATED]
)
INPUTS = ("toy.csv", "synth.csv", "weighted.csv", "fallback.csv", "sampled.csv", "constant.csv")


def _synth_columns(n: int) -> tuple[dict, np.ndarray]:
    """CSV columns of a seeded n-row sample with features and ``yhat``, and
    a seeded weight per row."""
    d = synth.sample_scores(synth.operating_point_spec(), n, SEED)
    rng = np.random.default_rng(SEED)
    feats = rng.standard_normal((n, 4)) + np.outer(d.s, [0.8, 0.0, 0.4, -0.3]) + np.outer(
        d.y, [0.5, 1.0, 0.0, 0.3]
    )
    w = rng.uniform(0.25, 3.0, n)
    cols = {
        "s": [str(int(v)) for v in d.s],
        "y": [str(int(v)) for v in d.y],
        "score": [repr(float(v)) for v in d.score],
        **{f"x{k + 1}": [repr(float(v)) for v in feats[:, k]] for k in range(4)},
        "yhat": [str(int(v > 0.6)) for v in d.score],
    }
    return cols, w


def write_inputs(root: Path) -> None:
    """The input CSVs, from fixed seeds."""
    (root / "toy.csv").write_text(TOY_CSV, encoding="utf-8")
    cols, w = _synth_columns(N)

    def write(name: str, columns: dict, extra_lines=()) -> None:
        lines = [",".join(columns)] + [",".join(row) for row in zip(*columns.values())]
        for k, line in extra_lines:
            lines.insert(k, line)
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write("synth.csv", cols)
    write("weighted.csv", {**cols, "w": [repr(float(v)) for v in w]})
    quirks = {"x1": list(cols["x1"]), "x2": list(cols["x2"])}
    quirks["x1"][4] = "1_0"
    quirks["x2"][2] = ""
    write("fallback.csv", {**cols, **quirks}, [(11, "   ")])
    write("sampled.csv", _synth_columns(N_SAMPLED)[0])
    toy = [line.split(",") for line in TOY_CSV.splitlines()[1:]]
    write("constant.csv", {
        "s": [s for s, _, _ in toy],
        "y": [y for _, y, _ in toy],
        "score": ["0.5"] * len(toy),
        "x1": [score for _, _, score in toy],
        "zz": ["1.0"] * len(toy),
    })


def run_case(root: Path, case: str, csv: str, argv: list[str]) -> dict[str, str]:
    """Run one command in ``root``; return its stdout and every file it wrote."""
    out = "out/" + case.replace("/", "-")
    argv = [a.replace("{csv}", csv).replace("{out}", out) for a in argv]
    before = set((root / "out").glob("*"))
    buf = StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{case}: exit {code}"
    outputs = {"stdout": buf.getvalue()}
    for path in sorted(set((root / "out").glob("*")) - before):
        outputs[path.name] = path.read_text(encoding="utf-8")
    return outputs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def value_pin(text: str) -> dict:
    numbers = [float(m) for m in NUMBER.findall(text)]
    pin = {"skeleton": _sha(NUMBER.sub("#", text)), "count": len(numbers)}
    if len(numbers) <= MAX_LISTED:
        pin["numbers"] = numbers
    else:
        pin["sums"] = _sums(numbers)
    return pin


def _sums(numbers: list[float]) -> list[float]:
    n = len(numbers)
    return [
        math.fsum(numbers),
        math.fsum(abs(v) for v in numbers),
        math.fsum(v * (k + 1) / n for k, v in enumerate(numbers)),
        math.fsum(v * v for v in numbers),
        math.fsum(v * ((k * 7919) % 101) / 101 for k, v in enumerate(numbers)),
    ]


def _split_fractional(case: str, name: str, text: str) -> tuple[str, str | None]:
    """For equalize-odds and reweigh reports, move ``after.metrics`` out of the
    hashed text: its counts are sums of fractional terms."""
    if not case.split("/")[1].startswith(("eo-", "reweigh")) or not (
        name == "stdout" or name.endswith(".report.json")
    ):
        return text, None
    report = json.loads(text)
    metrics = report["after"].pop("metrics")
    rest = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return rest, json.dumps(metrics, indent=2, sort_keys=True)


def pins_for(case: str, outputs: dict[str, str]) -> dict:
    pins = {}
    for name, text in outputs.items():
        if case.startswith("weighted/"):
            pins[name] = {"value": value_pin(text)}
            continue
        hashed, fractional = _split_fractional(case, name, text)
        pins[name] = {"sha256": _sha(hashed)}
        if fractional is not None:
            pins[name]["value"] = value_pin(fractional)
    return pins


def _check_value(label: str, pin: dict, text: str) -> None:
    got = value_pin(text)
    assert got["skeleton"] == pin["skeleton"], f"{label}: text outside the numbers changed"
    assert got["count"] == pin["count"], f"{label}: number count changed"
    key = "numbers" if "numbers" in pin else "sums"
    for k, (a, b) in enumerate(zip(got[key], pin[key])):
        assert math.isclose(a, b, rel_tol=REL, abs_tol=ABS), f"{label}: {key}[{k}] {a!r} != {b!r}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "out").mkdir()
    write_inputs(root)
    return root


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check_case(case: str, outputs: dict[str, str], pins: dict) -> None:
    assert sorted(outputs) == sorted(pins), f"{case}: output files changed"
    for name, text in outputs.items():
        label = f"{case}:{name}"
        if "sha256" in pins[name]:
            hashed, fractional = _split_fractional(case, name, text)
            assert _sha(hashed) == pins[name]["sha256"], f"{label}: bytes changed"
            if fractional is not None:
                _check_value(label, pins[name]["value"], fractional)
        else:
            _check_value(label, pins[name]["value"], text)


@pytest.mark.parametrize("case,csv,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(workdir, expected, case, csv, argv):
    check_case(case, run_case(workdir, case, csv, argv), expected[case])


def test_inputs_are_as_pinned(workdir, expected):
    for name in INPUTS:
        assert _sha((workdir / name).read_text(encoding="utf-8")) == expected["inputs"][name]


def _regenerate() -> None:
    """Pin missing or failing cases and inputs; keep every pin that passes."""
    import tempfile

    old = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        write_inputs(root)
        pins = {
            "inputs": {name: _sha((root / name).read_text(encoding="utf-8")) for name in INPUTS}
        }
        for name, sha in pins["inputs"].items():
            if old.get("inputs", {}).get(name) != sha:
                print(f"inputs:{name}")
        for case, csv, argv in CASES:
            outputs = run_case(root, case, csv, argv)
            try:
                check_case(case, outputs, old[case])
                pins[case] = old[case]
            except (KeyError, AssertionError):
                pins[case] = pins_for(case, outputs)
                print(case)
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
