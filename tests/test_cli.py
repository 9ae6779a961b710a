import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairaudit
from fairaudit import mitigate
from fairaudit.cli import _dump_json, build_parser, main, render_markdown
from fairaudit.data import (
    TOY_CSV, ThresholdMixture, ThresholdPolicy, dataset_to_csv, load_csv, load_toy, sha256_of_file,
)
from fairaudit.mitigate import LinearModel
from fairaudit.rocstats import roc_curve

from test_load_csv_reference import csv_files
from test_mitigate import applied_accuracy

TOY_THRESHOLD_ARG = "0.4375"  # between the 10th and 11th scores

EXPECTED_TABLE_ROWS = [
    "| statistical parity | 25.0% | 75.0% | 50.0 | +200.0% |",
    "| equal opportunity | 40.0% | 88.9% | 48.9 | +122.2% |",
    "| predictive equality | 0.0% | 57.1% | 57.1 | - |",
    "| conditional accuracy | 50.0% | 75.0% | 25.0 | +50.0% |",
    "| predictive parity | 100.0% | 66.7% | -33.3 | -33.3% |",
    "| accuracy equality | 62.5% | 68.8% | 6.2 | +10.0% |",
    "| treatment equality | - | 25.0% | - | - |",
]


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAuditCommand:
    def test_markdown_table_matches_reference(self, toy_csv, tmp_path, capsys):
        code, out, _ = run(
            [
                "audit", toy_csv,
                "--threshold", TOY_THRESHOLD_ARG,
                "--format", "md",
                "--ci", "none",
                "--out", tmp_path / "rep",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        for row in EXPECTED_TABLE_ROWS:
            assert row in lines
        assert (tmp_path / "rep.json").exists()
        assert (tmp_path / "rep.md").exists()

    def test_json_and_markdown_carry_identical_numbers(self, toy_csv, tmp_path, capsys):
        code, _, _ = run(
            [
                "audit", toy_csv,
                "--threshold", TOY_THRESHOLD_ARG,
                "--ci", "none",
                "--out", tmp_path / "rep",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        md = (tmp_path / "rep.md").read_text()
        sp = report["metrics"]["statistical_parity"]
        row = next(l for l in md.splitlines() if l.startswith("| statistical parity"))
        cells = [c.strip() for c in row.split("|")[2:-1]]
        assert cells[0] == f"{sp['group0'] * 100:.1f}%"
        assert cells[1] == f"{sp['group1'] * 100:.1f}%"
        assert cells[2] == f"{sp['diff']:.1f}"
        assert cells[3] == f"{sp['rel_diff']:+.1f}%"

    def test_parity_gap_at_epsilon_passes_both_verdicts(self, tmp_path, capsys):
        # positive rates 1/4 and 3/4: a gap of exactly epsilon is fair in
        # the metric table and in the disparate impact block alike
        src = tmp_path / "tie.csv"
        src.write_text("s,y,score\n0,1,0.9\n0,0,0.1\n0,1,0.2\n0,0,0.3\n"
                       "1,1,0.9\n1,0,0.8\n1,1,0.7\n1,0,0.1\n", encoding="utf-8")
        code, out, err = run(["audit", src, "--threshold", "0.5", "--epsilon", "0.5",
                              "--ci", "none", "--no-individual"], capsys)
        assert code == 0, err
        report = json.loads(out)
        sp = report["metrics"]["statistical_parity"]
        assert (sp["gap"], sp["passed"]) == (50.0, True)
        assert report["disparate_impact"]["epsilon_fair"] is True

    def test_legit_column_with_missing_value_exit_2_names_column(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        src.write_text("s,y,score,x1\n0,0,0.1,1.0\n0,1,0.7,\n1,0,0.4,2.0\n1,1,0.9,1.0\n",
                       encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(["audit", src, "--threshold", "0.5", "--legit", "x1", "--ci", "none",
                              "--no-individual", "--out", out_dir / "rep"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: legitimate column 'x1' has missing values\n"
        assert not list(out_dir.iterdir())

    def test_byte_identical_reruns(self, toy_csv, tmp_path, capsys):
        argv = [
            "audit", toy_csv,
            "--threshold", TOY_THRESHOLD_ARG,
            "--seed", "7",
            "--boot", "200",
        ]
        code_a, out_a, _ = run(argv + ["--out", tmp_path / "a"], capsys)
        code_b, out_b, _ = run(argv + ["--out", tmp_path / "b"], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_epsilon_passes_on_parity_fair_data(self, tmp_path, capsys):
        code, _, _ = run(
            ["synth", "--preset", "uniform", "--n", "40000", "--seed", "3",
             "--out", tmp_path / "fair"],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "audit", tmp_path / "fair.csv",
                "--threshold", "0.5",
                "--epsilon", "0.05",
                "--ci", "none",
                "--metrics", "statistical_parity,equal_opportunity,predictive_equality",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        for metric in ("statistical_parity", "equal_opportunity", "predictive_equality"):
            assert report["metrics"][metric]["passed"] is True

    def test_missing_y_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,score\n0,0.4\n1,0.6\n", encoding="utf-8")
        code, _, err = run(["audit", bad, "--threshold", "0.5"], capsys)
        assert code == 2
        assert "missing column 'y'" in err

    def test_default_sweep_degrades_gracefully(self, tmp_path, capsys):
        # group 1 lacks negatives: ROC-based metrics are undefined but the
        # defaulted audit still completes; requesting one explicitly is strict
        rows = ["s,y,score"]
        rows += [f"0,{i % 2},{0.1 * (i + 1):.2f}" for i in range(8)]
        rows += [f"1,1,{0.1 * (i + 1):.2f}" for i in range(6)]
        path = tmp_path / "oneclass.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(["audit", path, "--threshold", "0.45", "--ci", "none"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["metrics"]["auc_fairness"]["group0"] is None
        assert "undefined" in report["metrics"]["auc_fairness"]["details"]
        assert report["metrics"]["statistical_parity"]["group1"] == pytest.approx(2 / 6)
        code, _, _ = run(
            ["audit", path, "--threshold", "0.45", "--ci", "none",
             "--metrics", "auc_fairness"],
            capsys,
        )
        assert code == 3

    def test_single_group_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "one_group.csv"
        bad.write_text("s,y,score\n0,0,0.4\n0,1,0.6\n", encoding="utf-8")
        code, _, err = run(["audit", bad, "--threshold", "0.5"], capsys)
        assert code == 3
        assert "group 1" in err

    def test_pred_col_mode(self, tmp_path, capsys):
        rows = ["s,y,yhat", "0,0,0", "0,1,1", "1,0,1", "1,1,1"]
        path = tmp_path / "preds.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            ["audit", path, "--pred-col", "yhat", "--ci", "none",
             "--metrics", "statistical_parity"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["metrics"]["statistical_parity"]["group0"] == 0.5
        assert report["metrics"]["statistical_parity"]["group1"] == 1.0

    @pytest.mark.parametrize(
        "header",
        [b"\xef\xbb\xbfs,y,score,yhat", b'"s",y,score,"yhat"'],
        ids=["bom", "quoted"],
    )
    def test_pred_col_header_parsed_like_load_csv(self, tmp_path, capsys, header):
        rows = [header, b"0,0,0.2,0", b"0,1,0.7,1", b"1,0,0.6,1", b"1,1,0.9,1"]
        path = tmp_path / "preds.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        code, out, err = run(
            ["audit", path, "--pred-col", "yhat", "--ci", "none",
             "--metrics", "statistical_parity"],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["metrics"]["statistical_parity"]["group0"] == 0.5
        assert report["metrics"]["statistical_parity"]["group1"] == 1.0

    def test_unknown_metric_id_exit_2(self, toy_csv, capsys):
        code, out, err = run(
            ["audit", toy_csv, "--threshold", TOY_THRESHOLD_ARG,
             "--metrics", "statistical_parity,vibes,auras"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown metric id(s): ['vibes', 'auras']\n"

    def test_catalog_builds_each_shared_input_once(self, toy_csv, capsys, monkeypatch):
        from fairaudit import groupfair, rocstats

        calls = {"group_confusions": 0, "_descending": 0, "group_roc_curves": 0, "calibration": 0}
        for module, name in ((rocstats, "group_confusions"), (rocstats, "_descending"),
                             (rocstats, "group_roc_curves"), (groupfair, "calibration")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        code, _, _ = run(["audit", toy_csv, "--threshold", TOY_THRESHOLD_ARG, "--no-individual"],
                         capsys)
        assert code == 0
        # one count pass for the catalog and one for the disparate-impact
        # block; one score order for the curves, the strong class balance and
        # calibration
        assert calls == {"group_confusions": 2, "_descending": 1, "group_roc_curves": 1,
                         "calibration": 1}

    def test_pred_col_with_features_matches_threshold_audit(self, tmp_path, capsys):
        # yhat is score > 0.55, so the threshold audit of the same rows
        # without the column gets the same decisions
        rows = [
            ("0,0,0.2,0.1,1.0,5", "0"), ("0,1,0.6,0.4,0.5,3", "1"),
            ("0,1,0.5,0.3,0.2,1", "0"), ("0,0,0.7,0.6,0.9,2", "1"),
            ("1,0,0.8,0.9,0.1,4", "1"), ("1,1,0.9,0.7,0.3,6", "1"),
            ("1,0,0.3,0.2,0.8,7", "0"), ("1,1,0.4,0.5,0.6,8", "0"),
        ]
        with_col = tmp_path / "with.csv"
        with_col.write_text(
            "s,y,score,x1,x2,x3,yhat\n" + "".join(f"{r},{p}\n" for r, p in rows),
            encoding="utf-8",
        )
        without = tmp_path / "without.csv"
        without.write_text("s,y,score,x1,x2,x3\n" + "".join(f"{r}\n" for r, _ in rows),
                           encoding="utf-8")
        flags = ["--features", "x1,x2", "--ci", "none"]
        code, out, err = run(["audit", with_col, "--pred-col", "yhat", *flags], capsys)
        assert code == 0, err
        got = json.loads(out)
        code, out, err = run(["audit", without, "--threshold", "0.55", *flags], capsys)
        assert code == 0, err
        want = json.loads(out)
        assert got["policy"] == {"kind": "column", "column": "yhat"}
        assert "lipschitz" in got["individual"]
        for report in (got, want):
            del report["dataset"], report["policy"]
        assert got == want

    def test_singleton_groups_report_reconstruction_undefined(self, tmp_path, capsys):
        # one record per group: no fold could train on both groups
        path = tmp_path / "two.csv"
        path.write_text("s,y,score\n0,0,0.3\n1,1,0.7\n", encoding="utf-8")
        code, out, err = run(["audit", path, "--threshold", "0.5", "--ci", "none"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["individual"] == {"reconstruction": {
            "undefined": "reconstruction audit needs 2 records in each group"
        }}

    def test_legit_naming_pred_col_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("s,y,score,yhat\n0,0,0.1,0\n0,1,0.7,1\n1,0,0.4,0\n1,1,0.9,1\n",
                        encoding="utf-8")
        code, out, err = run(["audit", path, "--pred-col", "yhat", "--legit", "yhat"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --legit names the prediction column 'yhat'\n"

    def test_adjacent_double_scores(self, tmp_path, capsys):
        # the midpoints of adjacent doubles round onto a score; the group
        # curves' thresholds must still strictly decrease
        scores = ["0.5", "0.49999999999999994", "0.4999999999999999", "0.49999999999999983"]
        rows = [f"{g},{(i + g) % 2},{v}" for g in (0, 1) for i, v in enumerate(scores)]
        path = tmp_path / "adj.csv"
        path.write_text("\n".join(["s,y,score", *rows]) + "\n", encoding="utf-8")
        code, out, err = run(
            ["audit", path, "--threshold", "0.5", "--ci", "none", "--no-individual"], capsys
        )
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=_reject_constant)
        code, _, err = run(["plot", path, "--kind", "roc", "--out", tmp_path / "roc"], capsys)
        assert (code, err) == (0, "")

    def test_missing_pred_col_exit_2(self, toy_csv, capsys):
        code, _, err = run(["audit", toy_csv, "--pred-col", "yhat"], capsys)
        assert code == 2
        assert "missing prediction column 'yhat'" in err

    @pytest.mark.parametrize(
        "ci_args",
        [
            ["--ci", "asymptotic", "--ci-level", "-0.5"],
            ["--ci-level", "0"],
            ["--ci-level", "1.5"],
            ["--ci", "asymptotic", "--ci-level", "1.0"],
        ],
    )
    def test_ci_level_outside_unit_interval_exit_2(self, toy_csv, capsys, ci_args):
        code, out, err = run(
            ["audit", toy_csv, "--threshold", TOY_THRESHOLD_ARG] + ci_args, capsys
        )
        assert code == 2
        assert out == ""
        assert "level must lie strictly between 0 and 1" in err

    def test_non_finite_bootstrap_endpoint_exit_3(self, tmp_path, capsys):
        # a valid input whose group 1 has a single positive prediction: about
        # a third of the replicates have no group-1 positives (ratio inf)
        rows = ["s,y,score"]
        rows += [f"0,{i % 2},{0.9 if i % 3 == 0 else 0.1}" for i in range(100)]
        rows += [f"1,{i % 2},{0.9 if i == 0 else 0.1}" for i in range(100)]
        path = tmp_path / "one_positive.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(["audit", path, "--threshold", "0.5"], capsys)
        assert code == 3
        assert out == ""
        assert "of 1000 replicates had an infinite ratio" in err

    @pytest.mark.parametrize(
        "weights,args",
        [
            (["1e-300", "1.0", "1e-300"], ["--pred-col", "yhat", "--ci", "asymptotic"]),
            (["1e-300", "1e-300", "1e-300", "1.0"],
             ["--threshold", "0.5", "--ci", "none", "--features", "x2"]),
        ],
        ids=["pred-col", "threshold"],
    )
    def test_weights_near_the_float_minimum_report_null_dependence(
        self, tmp_path, capsys, weights, args
    ):
        # the weighted variances and margin products underflow to 0
        rows = ["0,0,0.0,0,{},0.0", "0,0,0.0,1,{},0.0", "1,0,0.0,1,{},0.0", "1,1,0.5,0,{},1.0"]
        path = tmp_path / "tiny.csv"
        body = [row.format(w) for row, w in zip(rows, weights)]
        path.write_text("\n".join(["s,y,score,yhat,w,x2", *body]) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["audit", path, "--weight-col", "w", *args], capsys)
        assert (code, err) == (0, "")
        ind = json.loads(out, parse_constant=_reject_constant)["independence"]
        assert ind["pearson_yhat_s"] is None and ind["maxcor_yhat_s"] is None
        if len(weights) == 4:
            assert ind["mutual_information_y_s_nats"] is None

    def test_non_finite_asymptotic_interval_exit_3(self, tmp_path, capsys):
        # group 1's weight sum is near 1e154, so the squared ratio overflows
        path = tmp_path / "huge_weight.csv"
        path.write_text("s,w,y,score\n1,1.3407807929942597e+154,0,0.0\n0,1.0,0,0.9\n"
                        "1,1.0,1,0.9\n", encoding="utf-8")
        code, out, err = run(["audit", path, "--threshold", "0.5", "--ci", "asymptotic"],
                             capsys)
        assert code == 3
        assert out == ""
        assert "asymptotic interval is not finite" in err

    def test_threshold_by_group(self, toy_csv, capsys):
        code, out, _ = run(
            [
                "audit", toy_csv,
                "--threshold-by-group", "0=0.17",
                "--threshold-by-group", "1=0.67",
                "--ci", "none",
                "--metrics", "statistical_parity",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        # group 0: scores > 0.17 -> rows 5,6,11,12 of 8; group 1: rows 17..24 of 16
        assert report["metrics"]["statistical_parity"]["group0"] == 0.5
        assert report["metrics"]["statistical_parity"]["group1"] == 0.5


class TestMitigateCommand:
    def test_massage_single_class_exit_3(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        src.write_text("s,y,score\n0,1,0.2\n0,1,0.4\n1,1,0.9\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["mitigate", src, "--method", "massage", "--out", out_dir / "ms"], capsys
        )
        assert (code, out) == (3, "")
        assert err == "error: accuracy threshold needs both outcome classes\n"
        assert not out_dir.exists() or not list(out_dir.iterdir())

    def test_reweigh_balances_weighted_label_rates(self, toy_csv, tmp_path, capsys):
        code, _, _ = run(
            ["mitigate", toy_csv, "--method", "reweigh", "--out", tmp_path / "rw"],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "rw.report.json").read_text())
        assert abs(report["after"]["label_rates"]["gap"]) <= 1e-12
        corrected = load_csv(tmp_path / "rw.corrected.csv")
        assert not np.allclose(corrected.weight, 1.0)

    PRED_ROWS = [
        "0,0,0.2,0.1,1.0,1", "0,1,0.6,0.4,0.5,1", "0,1,0.5,0.3,0.2,0",
        "1,0,0.8,0.9,0.1,0", "1,1,0.9,0.7,0.3,1", "1,0,0.3,0.2,0.8,1",
    ]

    def test_pred_col_with_features(self, tmp_path, capsys):
        # yhat is score > 0.45 on these rows
        rows = ["0,0,0.2,0.1,1.0", "0,1,0.6,0.4,0.5", "0,1,0.5,0.3,0.2",
                "1,0,0.8,0.9,0.1", "1,1,0.9,0.7,0.3", "1,0,0.3,0.2,0.8"]
        yhat = ["0", "1", "1", "1", "1", "0"]
        with_col = tmp_path / "with.csv"
        with_col.write_text(
            "s,y,score,x1,x2,yhat\n" + "".join(f"{r},{p}\n" for r, p in zip(rows, yhat)),
            encoding="utf-8",
        )
        without = tmp_path / "without.csv"
        without.write_text("s,y,score,x1,x2\n" + "".join(f"{r}\n" for r in rows),
                           encoding="utf-8")
        flags = ["--method", "reweigh", "--features", "x1,x2"]
        code, _, err = run(["mitigate", with_col, "--pred-col", "yhat", *flags,
                            "--out", tmp_path / "a"], capsys)
        assert code == 0, err
        code, _, err = run(["mitigate", without, "--threshold", "0.45", *flags,
                            "--out", tmp_path / "b"], capsys)
        assert code == 0, err
        got = json.loads((tmp_path / "a.report.json").read_text())
        want = json.loads((tmp_path / "b.report.json").read_text())
        header = (tmp_path / "a.corrected.csv").read_text().splitlines()[0]
        assert header.split(",")[-2:] == ["x1", "x2"] and "yhat" not in header
        assert ((tmp_path / "a.corrected.csv").read_bytes()
                == (tmp_path / "b.corrected.csv").read_bytes())
        for report in (got, want):
            del report["dataset"], report["policy"], report["artifacts"]
        assert got == want

    def test_reweigh_after_block_keeps_pred_col_decisions(self, tmp_path, capsys):
        from fairaudit.cli import _evaluation
        from fairaudit.data import PredictionSet

        src = tmp_path / "preds.csv"
        src.write_text("s,y,score,x1,x2,yhat\n" + "\n".join(self.PRED_ROWS) + "\n",
                       encoding="utf-8")
        code, _, err = run(["mitigate", src, "--method", "reweigh", "--pred-col", "yhat",
                            "--threshold", "0.75", "--out", tmp_path / "rw"], capsys)
        assert code == 0, err
        report = json.loads((tmp_path / "rw.report.json").read_text())
        # a threshold at 0.75 gives group 0 no positive decisions; yhat gives it two of three
        assert report["before"]["metrics"]["statistical_parity"]["group0"] == pytest.approx(2 / 3)
        assert report["after"]["metrics"]["statistical_parity"]["group0"] > 0.5
        corrected = load_csv(tmp_path / "rw.corrected.csv")
        pred = PredictionSet.from_labels(np.array([int(r[-1]) for r in self.PRED_ROWS]))
        expected = json.loads(_dump_json(_evaluation(corrected, pred, 0.05)["metrics"], None))
        assert report["after"]["metrics"] == expected

    @pytest.mark.parametrize(
        "method,result",
        [
            ("reweigh", mitigate.ReweighResult),
            ("massage", mitigate.MassageResult),
            ("repair", mitigate.RepairResult),
            ("thresholds", mitigate.ThresholdSearchResult),
            ("equalize-odds", mitigate.EqualizedOddsResult),
            ("train", None),
        ],
    )
    def test_method_block_is_the_result_fields(self, tmp_path, capsys, method, result):
        # every result field reaches the report except the artifact written
        # beside it; train reports its fit, not the model's coefficients
        rng = np.random.default_rng(12)
        src = tmp_path / "in.csv"
        src.write_text(dataset_to_csv(load_toy().with_(features=rng.normal(size=(24, 2)))),
                       encoding="utf-8")
        code, out, err = run(["mitigate", src, "--method", method, "--threshold",
                              TOY_THRESHOLD_ARG, "--out", tmp_path / "m"], capsys)
        assert code == 0, err
        if result is None:
            want = {"penalty", "converged", "diverged", "n_iter", "score_s_correlation"}
        else:
            want = {f.name for f in fields(result)} - {"dataset", "policy"}
        assert set(json.loads(out)["method"]) == {"method"} | want

    def test_repair_amount_zero_round_trips_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        d = load_toy().with_(features=rng.normal(size=(24, 2)))
        src = tmp_path / "in.csv"
        src.write_text(dataset_to_csv(d), encoding="utf-8")
        code, _, _ = run(
            ["mitigate", src, "--method", "repair", "--amount", "0",
             "--out", tmp_path / "rep"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "rep.corrected.csv").read_bytes() == src.read_bytes()

    def test_equalize_odds_identical_groups_single_threshold(self, tmp_path, capsys):
        y = [0, 1, 0, 1, 1, 0, 1, 0]
        m = [i / 9 for i in range(1, 9)]
        from fairaudit.data import Dataset

        d = Dataset(s=[0] * 8 + [1] * 8, y=y + y, score=m + m)
        src = tmp_path / "twin.csv"
        src.write_text(dataset_to_csv(d), encoding="utf-8")
        code, _, _ = run(
            ["mitigate", src, "--method", "equalize-odds", "--out", tmp_path / "eo"],
            capsys,
        )
        assert code == 0
        policy = json.loads((tmp_path / "eo.policy.json").read_text())
        assert policy["0"]["kind"] == "deterministic"
        assert policy["0"] == policy["1"]

    def test_equalize_odds_three_threshold_policy(self, tmp_path, capsys):
        # on this sample group 1 reaches the optimum only by mixing t = 1.0
        # (all negative) with two hull vertices
        from fairaudit import synth

        src = tmp_path / "s4.csv"
        d = synth.sample_scores(synth.operating_point_spec(), 30, 4)
        src.write_text(dataset_to_csv(d), encoding="utf-8")
        code, out, _ = run(
            ["mitigate", src, "--method", "equalize-odds", "--out", tmp_path / "eo"], capsys
        )
        assert code == 0
        assert json.loads(out)["method"]["mixed"] is True
        policy = json.loads((tmp_path / "eo.policy.json").read_text())
        assert policy["0"]["kind"] == "deterministic"
        rule = policy["1"]
        assert rule["kind"] == "mixture" and sorted(rule) == ["kind", "probs", "thresholds"]
        assert len(rule["thresholds"]) == 3 and rule["thresholds"][-1] == 1.0
        assert rule["thresholds"] == sorted(rule["thresholds"])
        assert sum(rule["probs"]) == pytest.approx(1.0, abs=1e-15)

    def test_massage_writes_swaps(self, tmp_path, capsys):
        rows = ["s,y,score"]
        y = [1] * 8 + [0] * 2 + [1] * 2 + [0] * 8
        s = [0] * 10 + [1] * 10
        for i, (si, yi) in enumerate(zip(s, y), start=1):
            rows.append(f"{si},{yi},{i / 21!r}")
        src = tmp_path / "imb.csv"
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, _, _ = run(
            ["mitigate", src, "--method", "massage", "--eps", "0", "--out", tmp_path / "ms"],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "ms.report.json").read_text())
        assert len(report["method"]["swaps"]) == 3
        assert report["after"]["label_rates"]["gap"] == 0.0

    def test_train_with_penalty(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        n = 3000
        s = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 2))
        X[:, 0] += 1.2 * s
        z = X @ np.array([1.0, -0.5])
        y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(int)
        from fairaudit.data import Dataset

        src = tmp_path / "train.csv"
        src.write_text(dataset_to_csv(Dataset(s=s, y=y, features=X)), encoding="utf-8")
        code, _, _ = run(
            ["mitigate", src, "--method", "train", "--penalty", "dp_correlation",
             "--lam", "1000", "--out", tmp_path / "tr"],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "tr.report.json").read_text())
        assert abs(report["method"]["score_s_correlation"]) <= 0.05
        assert (tmp_path / "tr.model.json").exists()
        scored = load_csv(tmp_path / "tr.scored.csv")
        assert scored.score is not None

    @staticmethod
    def separable_csv(tmp_path):
        # the separable data of test_perfect_separation_guard
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
        y = (X[:, 0] > 1.5).astype(int)
        from fairaudit.data import Dataset

        src = tmp_path / "sep.csv"
        src.write_text(
            dataset_to_csv(Dataset(s=[0, 1] * 20, y=y, features=X, feature_names=("x0",))),
            encoding="utf-8",
        )
        return src

    def test_train_warns_when_the_fit_diverges(self, tmp_path, capsys):
        src = self.separable_csv(tmp_path)
        code, out, err = run(["mitigate", src, "--method", "train", "--out", tmp_path / "tr"], capsys)
        assert code == 0
        assert err.count("\n") == 1
        assert err.startswith("warning: training diverged (separable data) after ")
        report = json.loads(out)
        assert report["method"]["diverged"] and not report["method"]["converged"]
        assert (tmp_path / "tr.model.json").exists()

    def test_penalized_train_warns_when_the_warm_start_diverges(self, tmp_path, capsys):
        src = self.separable_csv(tmp_path)
        code, out, err = run(
            ["mitigate", src, "--method", "train", "--penalty", "dp_correlation",
             "--lam", "10", "--out", tmp_path / "tr"],
            capsys,
        )
        assert code == 0
        assert err.startswith("warning: training diverged (separable data) after ")
        report = json.loads(out)
        assert report["method"]["diverged"] and not report["method"]["converged"]

    def test_train_is_quiet_when_the_fit_converges(self, toy_csv, tmp_path, capsys):
        rng = np.random.default_rng(3)
        d = load_toy().with_(features=rng.normal(size=(24, 2)))
        src = tmp_path / "in.csv"
        src.write_text(dataset_to_csv(d), encoding="utf-8")
        code, _, err = run(["mitigate", src, "--method", "train", "--out", tmp_path / "tr"], capsys)
        assert code == 0
        assert err == ""

    def test_train_with_a_constant_fitted_score_reports_null_correlation(
        self, tmp_path, capsys
    ):
        # the only feature is constant, so every fitted score is the same
        rows = ["s,y,score,x1", "0,0,0.1,1", "0,1,0.7,1", "1,0,0.2,1", "1,1,0.9,1",
                "0,1,0.4,1", "1,0,0.6,1"]
        src = tmp_path / "c.csv"
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["mitigate", src, "--method", "train", "--out", tmp_path / "o" / "c"], capsys
            )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["method"]["score_s_correlation"] is None
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "c.model.json", "c.report.json", "c.scored.csv"
        ]

    @pytest.mark.parametrize("flat_group", [0, 1])
    def test_equalize_odds_single_point_roc(self, tmp_path, capsys, flat_group):
        # every score of one group is 0, so its ROC is the single point (0, 0)
        rows = [(flat_group, 0, 0.0), (flat_group, 1, 0.0), (1 - flat_group, 0, 0.2),
                (1 - flat_group, 1, 0.8)]
        src = tmp_path / "four.csv"
        src.write_text("s,y,score\n" + "".join(f"{g},{v},{m!r}\n" for g, v, m in rows))
        argv = ["mitigate", src, "--method", "equalize-odds", "--out", tmp_path / "eo"]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert err == f"error: group {flat_group} has a single ROC point (every score is 0)\n"
        assert out == ""
        assert not list(tmp_path.glob("eo*"))
        code, out, err = run(argv + ["--criterion", "opportunity"], capsys)
        assert code == 0
        assert json.loads(out)["method"]["tpr_gap"] == 0.0


@st.composite
def policy_csvs(draw):
    """Two groups of 2-12 records on a grid of scores, each with both labels
    and a score above 0; the weights are all 1 or non-integer."""
    levels = draw(st.integers(1, 10))
    weighted = draw(st.booleans())
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.5]) | st.floats(0.05, 5.0)
    rows = []
    for g in (0, 1):
        n = draw(st.integers(2, 12))
        y = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
        ks = draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))
        ks[0] = max(ks[0], 1)
        for yv, k in zip(y, ks):
            rows.append(f"{g},{yv},{k / levels!r},{draw(weight) if weighted else 1.0!r}\n")
    return "s,y,score,w\n" + "".join(rows)


def read_policy(path):
    """The policy a ``.policy.json`` file holds."""
    rules = {}
    for g, r in json.loads(path.read_text(encoding="utf-8")).items():
        t, p = {
            "deterministic": lambda: ([r["threshold"]], [1.0]),
            "randomized": lambda: ([r["t_lo"], r["t_hi"]], [r["p"], 1.0 - r["p"]]),
            "mixture": lambda: (r["thresholds"], r["probs"]),
        }[r["kind"]]()
        rules[int(g)] = ThresholdMixture(tuple(t), tuple(p))
    return ThresholdPolicy(rules)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=policy_csvs(),
    argv=st.sampled_from([
        ["equalize-odds", "--criterion", "full"],
        ["equalize-odds", "--criterion", "opportunity"],
        ["thresholds", "--objective", "dp"],
        ["thresholds", "--objective", "eo_tpr"],
    ]),
)
def test_policy_method_block_reports_the_after_block_rates(tmp_path, capsys, text, argv):
    # the method block describes the policy written beside it: its per-group
    # rates and gaps are those the after block counts, and its accuracy that
    # of the written policy's decisions, bit for bit
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["mitigate", path, "--method", *argv, "--out", tmp_path / "m"], capsys)
    assert code == 0, err
    report = json.loads(out)
    method, after = report["method"], report["after"]["metrics"]
    rates = {m: (after[m]["group0"], after[m]["group1"]) for m in after}
    if argv[0] == "equalize-odds":
        (f0, f1), (t0, t1) = rates["predictive_equality"], rates["equal_opportunity"]
        assert method["target"] == [(f0 + f1) / 2, (t0 + t1) / 2]
        assert (method["tpr_gap"], method["fpr_gap"]) == (abs(t0 - t1), abs(f0 - f1))
    else:
        v0, v1 = rates["statistical_parity" if argv[2] == "dp" else "equal_opportunity"]
        assert (method["values"], method["gap"]) == ([v0, v1], abs(v0 - v1))
    policy = read_policy(tmp_path / "m.policy.json")
    assert method["accuracy"] == applied_accuracy(load_csv(path), policy)


class TestPipelineIntegration:
    def test_train_debias_then_reaudit_shrinks_gap(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        n = 3000
        s = rng.integers(0, 2, size=n)
        X = np.column_stack([rng.normal(size=n) + 1.3 * s, rng.normal(size=n)])
        z = X @ np.array([1.0, -0.7]) - 0.2
        y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(int)
        from fairaudit.data import Dataset

        src = tmp_path / "raw.csv"
        src.write_text(dataset_to_csv(Dataset(s=s, y=y, features=X)), encoding="utf-8")

        def audited_gap(csv_path):
            code, out, _ = run(
                ["audit", csv_path, "--threshold", "0.5", "--ci", "none",
                 "--metrics", "statistical_parity", "--no-individual"],
                capsys,
            )
            assert code == 0
            return json.loads(out)["metrics"]["statistical_parity"]["gap"]

        code, _, _ = run(
            ["mitigate", src, "--method", "train", "--out", tmp_path / "plain"], capsys
        )
        assert code == 0
        code, _, _ = run(
            ["mitigate", src, "--method", "train", "--penalty", "dp_correlation",
             "--lam", "500", "--out", tmp_path / "fair"],
            capsys,
        )
        assert code == 0
        gap_plain = audited_gap(tmp_path / "plain.scored.csv")
        gap_fair = audited_gap(tmp_path / "fair.scored.csv")
        assert gap_plain > 15.0  # the biased baseline really discriminates
        assert gap_fair < gap_plain / 3


class TestPlotCommand:
    def test_roc_points_monotone_ending_at_one_one(self, toy_csv, tmp_path, capsys):
        code, _, _ = run(
            ["plot", toy_csv, "--kind", "roc", "--out", tmp_path / "roc"], capsys
        )
        assert code == 0
        lines = (tmp_path / "roc.csv").read_text().splitlines()
        pts = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
        assert pts[-1] == (1.0, 1.0)
        assert all(b >= a for a, b in zip([p[0] for p in pts], [p[0] for p in pts][1:]))
        assert all(b >= a for a, b in zip([p[1] for p in pts], [p[1] for p in pts][1:]))
        assert (tmp_path / "roc.svg").read_text().startswith("<svg")

    def test_csv_export(self, toy_csv, tmp_path, capsys):
        code, _, _ = run(["plot", toy_csv, "--kind", "roc", "--out", tmp_path / "roc"], capsys)
        assert code == 0
        text = (tmp_path / "roc.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "fpr,tpr,threshold"
        assert len(text.splitlines()) == len(roc_curve(load_toy())) + 1

    def test_roc_by_group_writes_both_curves(self, toy_csv, tmp_path, capsys):
        code, out, _ = run(
            ["plot", toy_csv, "--kind", "roc-by-group", "--out", tmp_path / "g"], capsys
        )
        assert code == 0
        from fairaudit import rocstats

        d = load_toy()
        for g in (0, 1):
            lines = (tmp_path / f"g.s{g}.csv").read_text().splitlines()[1:]
            pts = [tuple(float(v) for v in line.split(",")[:2]) for line in lines]
            curve = rocstats.roc_curve(d, group=g)
            assert pts == list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        svg = (tmp_path / "g.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_score_hist_flat_for_uniform(self, tmp_path, capsys):
        run(["synth", "--preset", "uniform", "--n", "100000", "--seed", "1",
             "--out", tmp_path / "u"], capsys)
        code, _, _ = run(
            ["plot", tmp_path / "u.csv", "--kind", "score-hist", "--bins", "20",
             "--out", tmp_path / "h"],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "h.csv").read_text().splitlines()[1:]
        counts = [float(line.split(",")[2]) for line in lines]
        assert len(counts) == 20
        assert max(counts) / min(counts) <= 1.2

    @pytest.mark.parametrize("bins", [0, -1, 25])
    def test_score_hist_bins_outside_limit_exit_2_names_flag(self, toy_csv, tmp_path, capsys,
                                                             bins):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(["plot", toy_csv, "--kind", "score-hist", "--bins", bins,
                              "--out", out_dir / "h"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --bins must be between 1 and 24 for 24 records, got {bins}\n"
        assert not list(out_dir.iterdir())

    def test_score_hist_default_bins_on_fewer_records(self, tmp_path, capsys):
        src = tmp_path / "four.csv"
        src.write_text("s,y,score\n0,0,0.1\n0,1,0.6\n1,0,0.4\n1,1,0.9\n", encoding="utf-8")
        code, _, err = run(["plot", src, "--kind", "score-hist", "--out", tmp_path / "h"],
                           capsys)
        assert code == 0, err
        assert len((tmp_path / "h.csv").read_text().splitlines()) == 21

    def test_single_class_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "one.csv"
        bad.write_text("s,y,score\n0,1,0.2\n1,1,0.9\n", encoding="utf-8")
        code, _, _ = run(["plot", bad, "--kind", "roc", "--out", tmp_path / "x"], capsys)
        assert code == 3


class TestSynthCommand:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        code, out, _ = run(
            ["synth", "--preset", "operating-point", "--n", "500", "--seed", "9",
             "--out", tmp_path / "s"],
            capsys,
        )
        assert code == 0
        d = load_csv(tmp_path / "s.csv")
        assert len(d) == 500
        sidecar = json.loads((tmp_path / "s.spec.json").read_text())
        assert sidecar["seed"] == 9
        assert "cells" in sidecar

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec = {"cells": {"0,0": {"alpha": 1, "beta": 3, "prob": 0.5},
                          "0,1": {"alpha": 1, "beta": 3, "prob": 0.0},
                          "1,0": {"alpha": 3, "beta": 1, "prob": 0.25},
                          "1,1": {"alpha": 3, "beta": 1, "prob": 0.25}}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, _ = run(
            ["synth", "--spec", path, "--n", "1000", "--seed", "0", "--out", tmp_path / "c"],
            capsys,
        )
        assert code == 0
        d = load_csv(tmp_path / "c.csv")
        assert set(np.unique(d.s[d.y == 0]).tolist()) == {0}


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "{csv}", "--threshold", "0.5"],
        ["mitigate", "{csv}", "--method", "reweigh", "--out", "{out}"],
        ["validate", "{csv}"],
    ],
    ids=["audit", "mitigate", "validate"],
)
def test_infinite_weight_exit_2_names_row(tmp_path, capsys, argv):
    path = tmp_path / "w.csv"
    path.write_text("s,y,score,w\n0,0,0.2,1\n0,1,0.7,1\n1,0,0.4,inf\n1,1,0.9,1\n",
                    encoding="utf-8")
    argv = [a.replace("{csv}", str(path)).replace("{out}", str(tmp_path / "m")) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert "row 4" in err
    assert out == ""


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "{csv}", "--threshold", "0.5"],
        ["mitigate", "{csv}", "--method", "repair", "--out", "{out}"],
        ["mitigate", "{csv}", "--method", "train", "--out", "{out}"],
        ["validate", "{csv}"],
    ],
    ids=["audit", "repair", "train", "validate"],
)
def test_infinite_feature_exit_2_names_row(tmp_path, capsys, argv, cell):
    rows = ["s,y,score,x1,x2"]
    rows += [f"{i % 2},{(i // 2) % 2},{0.1 + 0.05 * i},{i},{i % 3}" for i in range(16)]
    rows[5] = rows[5].replace(",4,", f",{cell},")
    path = tmp_path / "x.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = [a.replace("{csv}", str(path)).replace("{out}", str(tmp_path / "m")) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert "row 6: column 'x1'" in err
    assert out == ""
    assert not list(tmp_path.glob("m*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["mitigate", "{csv}", "--method", "train", "--out", "{out}"],
        ["audit", "{csv}", "--threshold", "0.5", "--ci", "asymptotic"],
    ],
    ids=["train", "audit"],
)
def test_overflowing_feature_exit_2_names_it(tmp_path, capsys, argv):
    # finite features whose squares overflow float64
    rows = [
        "s,y,score,x1", "0,0,0.1,1e300", "0,1,0.7,-1e300", "1,0,0.2,5e299",
        "1,1,0.9,-5e299", "0,1,0.4,1e299", "1,0,0.6,-2e299",
    ]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = [a.replace("{csv}", str(path)).replace("{out}", str(tmp_path / "m")) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: feature 'x1' is too large")
    assert "RuntimeWarning" not in err
    assert out == ""
    assert not list(tmp_path.glob("m*"))


TRAIN_ARGS = ["mitigate", "{csv}", "--method", "train", "--out", "{out}", "--penalty"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["audit", "{csv}", "--threshold", "0.5", "--epsilon", "nan"], "--epsilon"),
        (["audit", "{csv}", "--threshold", "0.5", "--di-threshold", "nan"], "--di-threshold"),
        (["audit", "{csv}", "--threshold", "0.5", "--lipschitz-scale", "nan"], "--lipschitz-scale"),
        (["mitigate", "{csv}", "--method", "massage", "--out", "{out}", "--eps", "nan"], "--eps"),
        (["mitigate", "{csv}", "--method", "thresholds", "--out", "{out}", "--epsilon", "inf"],
         "--epsilon"),
        (TRAIN_ARGS + ["dp_correlation", "--lam", "nan"], "--lam"),
        (TRAIN_ARGS + ["eo_correlation", "--lam0", "inf"], "--lam0"),
        (TRAIN_ARGS + ["eo_correlation", "--lam1", "1e999"], "--lam1"),
    ],
    ids=["epsilon", "di-threshold", "lipschitz-scale", "eps", "mitigate-epsilon", "lam", "lam0",
         "lam1"],
)
def test_non_finite_option_exit_2_names_flag(toy_csv, tmp_path, capsys, argv, flag):
    argv = [a.replace("{csv}", str(toy_csv)).replace("{out}", str(tmp_path / "m")) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number, got '{argv[-1]}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("m*"))


@pytest.mark.parametrize(
    "argv,suffixes",
    [
        (["audit", "{csv}", "--threshold", "0.5", "--ci", "none"], [".json", ".md"]),
        (["mitigate", "{csv}", "--method", "reweigh"], [".corrected.csv", ".report.json"]),
        (["mitigate", "{csv}", "--method", "thresholds"], [".policy.json", ".report.json"]),
        (["mitigate", "{csv}", "--method", "train"],
         [".model.json", ".scored.csv", ".report.json"]),
        (["plot", "{csv}", "--kind", "roc"], [".csv", ".svg"]),
        (["plot", "{csv}", "--kind", "roc-by-group"], [".s0.csv", ".s1.csv", ".svg"]),
        (["plot", "{csv}", "--kind", "score-hist"], [".csv", ".svg"]),
        (["synth", "--n", "50"], [".csv", ".spec.json"]),
    ],
    ids=["audit", "mitigate-reweigh", "mitigate-thresholds", "mitigate-train", "plot-roc",
         "plot-roc-by-group", "plot-score-hist", "synth"],
)
def test_out_prefix_names_every_file_in_a_new_directory(tmp_path, capsys, argv, suffixes):
    # every file is <prefix><suffix>, a dot in the prefix included
    src = tmp_path / "in.csv"
    features = np.random.default_rng(3).normal(size=(24, 2))
    src.write_text(dataset_to_csv(load_toy().with_(features=features)), encoding="utf-8")
    prefix = tmp_path / "new" / "run.v2"
    code, out, err = run([a.replace("{csv}", str(src)) for a in argv] + ["--out", prefix],
                         capsys)
    assert code == 0, err
    assert sorted(p.name for p in prefix.parent.iterdir()) == sorted(
        "run.v2" + s for s in suffixes
    )


@pytest.mark.parametrize("value", ["-1", "-0.5"])
def test_negative_lipschitz_scale_exit_2_names_flag(toy_csv, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(toy_csv), "--threshold", "0.5", "--lipschitz-scale", value])
    assert exc.value.code == 2
    assert f"argument --lipschitz-scale: must be at least 0, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("bins", [0, 25])
def test_bins_outside_record_count_exit_2_names_flag(toy_csv, capsys, bins):
    code, out, err = run(["audit", toy_csv, "--threshold", "0.5", "--bins", bins], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --bins must be between 1 and 24 for 24 scored records, got {bins}\n"


def test_bins_at_record_count_and_zero_scale_accepted(toy_csv, capsys):
    code, out, _ = run(["audit", toy_csv, "--threshold", "0.5", "--bins", "24",
                        "--lipschitz-scale", "0", "--ci", "none"], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["calibration_parity"]["details"]["bins"] <= 24


SEED_COMMANDS = {
    "audit": ["audit", "{csv}", "--threshold", "0.5"],
    "mitigate": ["mitigate", "{csv}", "--method", "reweigh", "--out", "{out}"],
    "synth": ["synth", "--n", "10", "--out", "{out}"],
}


@pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "18446744073709551616"])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_outside_range_exit_2_names_flag(toy_csv, tmp_path, capsys, command, seed):
    argv = [a.replace("{csv}", str(toy_csv)).replace("{out}", str(tmp_path / "m"))
            for a in SEED_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--seed={seed}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be between 0 and 2^63 - 1, got '{seed}'" in err
    assert not list(tmp_path.glob("m*"))


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_largest_seed_accepted(toy_csv, tmp_path, capsys, command):
    argv = [a.replace("{csv}", str(toy_csv)).replace("{out}", str(tmp_path / "m"))
            for a in SEED_COMMANDS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(argv + ["--seed", str(2**63 - 1)], capsys)
    assert code == 0


@pytest.mark.parametrize("boot", ["99", "1000001", "1000000000000", "-5", "1e3"])
def test_boot_outside_range_exit_2_before_reading_csv(tmp_path, capsys, boot):
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(tmp_path / "missing.csv"), "--threshold", "0.5", "--boot", boot])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if boot == "1e3":
        assert "argument --boot: invalid int value: '1e3'" in err
    else:
        assert f"argument --boot: must be between 100 and 1000000, got '{boot}'" in err


def test_boot_range_ends_accepted(toy_csv, capsys):
    argv = ["audit", toy_csv, "--threshold", TOY_THRESHOLD_ARG, "--no-individual"]
    code, out, err = run(argv + ["--boot", "100"], capsys)
    assert code == 0, err
    assert json.loads(out)["interval"]["n_boot"] == 100
    # the largest count parses; the asymptotic interval draws no replicate
    code, out, err = run(argv + ["--ci", "asymptotic", "--boot", "1000000"], capsys)
    assert code == 0, err
    assert json.loads(out)["interval"]["method"] == "asymptotic"
    # unit weights and 0/1 decisions: a million replicates are a few binomial draws
    code, out, err = run(argv + ["--boot", "1000000"], capsys)
    assert code == 0, err
    assert json.loads(out)["interval"]["n_boot"] == 1000000


def test_unknown_penalty_exit_2_before_reading_csv(tmp_path, capsys):
    argv = ["mitigate", str(tmp_path / "missing.csv"), "--method", "train",
            "--out", str(tmp_path / "m"), "--penalty", "bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --penalty: invalid choice: 'bogus'" in err
    assert "FileNotFoundError" not in err and "missing.csv" not in err


@pytest.mark.parametrize("degree", ["0", "11"])
def test_degree_outside_range_exit_2_names_flag(tmp_path, capsys, degree):
    # parsed only: a broken bound would make the trainer build a degree x degree matrix
    argv = ["mitigate", str(tmp_path / "missing.csv"), "--method", "train",
            "--out", str(tmp_path / "m"), "--penalty", "dp_maxcor", "--degree", degree]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument --degree: must be between 1 and 10, got '{degree}'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("n", ["0", "-3", "100000001", "1000000000000", "1e3"])
def test_synth_n_outside_range_exit_2_names_flag(capsys, n):
    # parsed only: a broken bound would make the command sample n records
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["synth", "--n", n, "--out", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if n == "1e3":
        assert "argument --n: invalid int value: '1e3'" in err
    else:
        assert f"argument --n: must be between 1 and 100000000, got '{n}'" in err


def test_synth_n_range_ends_accepted(tmp_path, capsys):
    code, _, err = run(["synth", "--n", "1", "--out", tmp_path / "one"], capsys)
    assert code == 0, err
    assert len((tmp_path / "one.csv").read_text(encoding="utf-8").splitlines()) == 2
    # the largest count parses; sampling it would take gigabytes
    args = build_parser().parse_args(["synth", "--n", "100000000", "--out", "x"])
    assert args.n == 10**8


def test_non_numeric_option_message_unchanged(toy_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(toy_csv), "--epsilon", "abc"])
    assert exc.value.code == 2
    assert "argument --epsilon: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(fairaudit.__path__))
)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"fairaudit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_trace_targets_exist(monkeypatch):
    """Every function the benchmark's tracer wraps is still there to wrap:
    ``Tracer.install`` looks each one up with ``getattr``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    missing = [
        (mod, fn) for mod, fn, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"fairaudit.{mod}"), fn, None))
    ]
    assert spans.TARGETS
    assert missing == []


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, fairaudit.cli; print('scipy.stats' in sys.modules)"
    src = Path(fairaudit.__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert res.stdout.strip() == "False"


def test_cli_import_loads_no_new_modules():
    code = (
        "import json, sys; before = set(sys.modules); import fairaudit.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = Path(fairaudit.__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(res.stdout)
    # scipy is imported only where a probit fit or synth sampling needs it
    packages = {m.split(".")[0] for m in loaded}
    assert {p for p in packages if p.isidentifier() and not p.startswith("_")} - set(
        sys.stdlib_module_names
    ) <= {"fairaudit", "numpy"}


_COMMANDS_THEN_SCIPY_SPECIAL = """
import contextlib, io, json, sys
from fairaudit.cli import main

result = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    special = sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "special"])
    result.append([code, special])
print(json.dumps(result))
"""


def test_commands_leave_scipy_special_unimported(tmp_path):
    rng = np.random.default_rng(4)
    n = 60
    s, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
    score = np.clip(0.3 * y + 0.2 * s + 0.5 * rng.random(n), 0.01, 0.99)
    x = rng.normal(size=(n, 2)) + y[:, None]
    csv = tmp_path / "in.csv"
    csv.write_text(
        "s,y,score,x1,x2,yhat\n" + "".join(
            f"{a},{b},{c!r},{d!r},{e!r},{int(c > 0.5)}\n"
            for a, b, c, (d, e) in zip(s, y, score.tolist(), x.tolist())
        ),
        encoding="utf-8",
    )
    audits = [
        ["audit", csv, *policy, "--ci", ci, "--boot", "100"]
        for policy in (["--threshold", "0.5"], ["--pred-col", "yhat"])
        for ci in ("bootstrap", "asymptotic", "none")
    ]
    # the six mitigate commands of the benchmark
    mitigations = [
        ["mitigate", csv, *method, "--threshold", "0.5", "--features", "x1,x2",
         "--out", tmp_path / name]
        for name, method in [
            ("th", ["--method", "thresholds"]),
            ("eo", ["--method", "equalize-odds", "--criterion", "full"]),
            ("ms", ["--method", "massage"]),
            ("rw", ["--method", "reweigh"]),
            ("rp", ["--method", "repair"]),
            ("tr", ["--method", "train", "--penalty", "dp_correlation", "--lam", "1000"]),
        ]
    ]
    commands = [["--version"], ["validate", csv], *audits, *mitigations]
    # the two paths that do need scipy, last, so the check can see an import
    needing = [
        ["mitigate", csv, "--method", "train", "--link", "probit", "--features", "x1,x2",
         "--out", tmp_path / "pr"],
        ["synth", "--n", "20", "--out", tmp_path / "sy"],
    ]
    argv = json.dumps([[str(a) for a in c] for c in commands + needing])
    src = Path(fairaudit.__file__).resolve().parent.parent
    res = subprocess.run(
        [sys.executable, "-c", _COMMANDS_THEN_SCIPY_SPECIAL, argv], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    result = json.loads(res.stdout)
    for command, (code, special) in zip(commands, result):
        assert (code, special) == (0, []), (command, res.stderr)
    assert [code for code, _ in result[len(commands):]] == [0, 0]
    assert "scipy.special" in result[len(commands)][1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=csv_files(),
    argv=st.sampled_from([
        ["validate"],
        ["audit", "--threshold", "0.5", "--ci", "asymptotic"],
        ["audit", "--pred-col", "yhat", "--ci", "asymptotic"],
        ["audit", "--boot", "100"],
    ]),
)
def test_random_csv_exits_0_2_or_3_with_strict_json(tmp_path, capsys, text, argv):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run([argv[0], path, *argv[1:]], capsys)
    assert code in (0, 2, 3), err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.startswith("error: ")
        # a dataclass invariant is internal: valid input must never reach it
        assert "must be strictly decreasing" not in err and "must be non-decreasing" not in err, err


@pytest.mark.parametrize(
    "lines,line",
    [
        # the empty feature cell sends the body through the row loop
        (["s,y,score,x1", "0,0,0.2,1", "1,1,0.5,", "0,1,0." + "1" * 200_000 + ",2"], 4),
        (["s,y,score," + "h" * 140_000, "0,0,0.2,1", "1,1,0.5,2"], 1),
    ],
    ids=["body", "header"],
)
def test_field_beyond_csv_limit_exit_2_names_line(tmp_path, capsys, lines, line):
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(["validate", path], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: field larger than field limit")


def test_reports_are_strict_json(tmp_path):
    with pytest.raises(ValueError):
        _dump_json({"ratio": float("nan")}, None)
    path = tmp_path / "m.model.json"
    with pytest.raises(ValueError):
        LinearModel(coef=[float("nan")], intercept=0.0).save(path)
    assert not path.exists()


class TestValidateCommand:
    def test_reports_base_rates(self, toy_csv, capsys):
        code, out, _ = run(["validate", toy_csv], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["base_rates"]["0"] == 5 / 8
        assert report["base_rates"]["1"] == 9 / 16


def test_unbounded_lipschitz_ratio_reported_as_null(tmp_path, capsys):
    """Records 1 and 2 have equal features and different scores: d_x = 0 <
    d_y.  The pair ranks first and counts as a violation, with a null ratio."""
    path = tmp_path / "dup.csv"
    path.write_text("s,y,score,x1\n0,0,0.2,1\n0,1,0.7,1\n1,0,0.4,2\n1,1,0.9,2\n"
                    "0,1,0.6,3\n1,0,0.3,4\n", encoding="utf-8")
    code, out, err = run(["audit", path, "--threshold", "0.5", "--ci", "none"], capsys)
    assert code == 0, err
    lp = json.loads(out, parse_constant=_reject_constant)["individual"]["lipschitz"]
    assert lp["violations"] == 2 and lp["worst_ratio"] is None
    assert [(p["i"], p["j"], p["ratio"]) for p in lp["top_pairs"][:2]] == [
        (0, 1, None), (2, 3, None)
    ]


@pytest.mark.parametrize(
    "policy,phi0",
    [
        (["--threshold", "0.5", "--ci", "asymptotic"], None),
        (["--threshold", "0.5", "--ci", "none"], None),
        # group 1 has no positive decision, which the impact interval needs
        (["--pred-col", "yhat", "--ci", "none"], 1.0),
    ],
    ids=["threshold-asymptotic", "threshold-none", "pred-col-none"],
)
def test_phi_with_weights_near_1e198_exits_0(tmp_path, capsys, policy, phi0):
    """The margin product overflows.  At threshold 0.5 every record is
    decided 1, so group 0 has no negative decision and phi is undefined; by
    the yhat column group 0 is a perfect positive and a perfect negative."""
    path = tmp_path / "w.csv"
    path.write_text("y,s,w,score,yhat\n1.0,0,2.0571089860330838e+198,0.7245741901917072,1\n"
                    "0,0,1e-14,0.724574190191707,0\n0, 1,3.5223192043750508e+16,0.724574190191707,0\n",
                    encoding="utf-8")
    code, out, err = run(["audit", path, *policy], capsys)
    assert code == 0, err
    phi = json.loads(out, parse_constant=_reject_constant)["metrics"]["phi_fairness"]
    assert phi["group0"] == (None if phi0 is None else pytest.approx(phi0, rel=1e-15))
    assert phi["group1"] is None


# a row that loadtxt cannot parse but Python's float can (1_0) sends the body
# through the row loop: a file is read again from its start, a pipe's lines
# are kept
PIPE_CSVS = {
    "table": "s,y,score,x1\n0,0,0.2,1\n0,1,0.7,3\n1,0,0.4,2\n1,1,0.9,5\n0,1,0.6,3\n1,0,0.3,4\n",
    "row-loop": "s,y,score,x1\n0,0,0.2,1\n0,1,0.7,1_0\n1,0,0.4,2\n1,1,0.9,5\n0,1,0.6,3\n1,0,0.3,4\n",
    "bad": "s,y,score,x1\n0,0,0.2,1\n0,1,0.7,1_0\n1,2,0.4,2\n1,1,0.9,5\n",
}


def _cli(argv, **kw):
    src = Path(fairaudit.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "fairaudit.cli", *map(str, argv)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)}, **kw,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("name", sorted(PIPE_CSVS))
def test_piped_csv_reads_as_the_file(tmp_path, name):
    """The same CSV by path, through a pipe, and redirected from the file:
    the same report apart from the path, or the same error.  A pipe has
    nothing left to hash, so its digest is null; a redirected file is a
    regular file and keeps its digest."""
    path = tmp_path / "in.csv"
    path.write_text(PIPE_CSVS[name], encoding="utf-8")
    argv = ["--threshold", "0.5", "--ci", "none"]
    by_path = _cli(["audit", path, *argv], stdin=subprocess.DEVNULL)
    by_pipe = _cli(["audit", "/dev/stdin", *argv], input=PIPE_CSVS[name])
    with open(path) as fh:
        redirected = _cli(["audit", "/dev/stdin", *argv], stdin=fh)
    runs = (by_path, by_pipe, redirected)
    if name == "bad":
        for res in runs:
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr == "error: row 4: column 'y' must be 0 or 1, got '2'\n"
        return
    assert [res.returncode for res in runs] == [0, 0, 0], by_pipe.stderr
    reports = [json.loads(res.stdout) for res in runs]
    assert "- digest: `-`" in render_markdown(reports[1]).splitlines()
    digest = sha256_of_file(path)
    assert [r["dataset"].pop("sha256") for r in reports] == [digest, None, digest]
    assert [r["dataset"].pop("path") for r in reports] == [str(path), "/dev/stdin", "/dev/stdin"]
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_piped_mitigate_reports_null_digest(tmp_path):
    res = _cli(["mitigate", "/dev/stdin", "--method", "reweigh", "--out", tmp_path / "m"],
               input=PIPE_CSVS["table"])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["dataset"] == {"path": "/dev/stdin", "sha256": None, "n": 6}
