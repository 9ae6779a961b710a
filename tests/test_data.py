import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit._common import _dump_json
from fairaudit.data import (
    TOY_CSV,
    TOY_THRESHOLD,
    ColumnSchema,
    DataError,
    Dataset,
    ThresholdMixture,
    ThresholdPolicy,
    apply_policy,
    dataset_to_csv,
    load_csv,
    load_toy,
    validate,
)

DET = ThresholdMixture.deterministic


def RAND(t_lo, t_hi, p):
    """Threshold t_lo with probability p, else t_hi."""
    return ThresholdMixture((t_lo, t_hi), (p, 1.0 - p))


@pytest.fixture
def toy_csv_path(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_toy_groups(self, toy_csv_path):
        d = load_csv(toy_csv_path)
        assert len(d) == 24
        assert int((d.s == 0).sum()) == 8
        assert int((d.s == 1).sum()) == 16
        # row order preserved: scores strictly increasing by table position
        assert np.all(np.diff(d.score) > 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no records"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("s,y,score\n", encoding="utf-8")
        with pytest.raises(DataError, match="no records"):
            load_csv(path)

    def test_bad_y_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,y,score\n0,0,0.5\n1,2,0.6\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,y,score\n0,0,1.5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing column"):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s,y,x1\n0,1,fast\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_flip_score(self, toy_csv_path):
        d = load_csv(toy_csv_path, ColumnSchema(flip_score=True))
        assert d.score[0] == 1.0 - 1 / 24

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfs,y,score\n0,0,0.2\n1,1,0.8\n")
        d = load_csv(path)
        assert len(d) == 2

    def test_utf8_bom_tolerated_by_row_loop(self, tmp_path):
        """The empty cell sends the body through the row loop, which reads
        the file again from its start."""
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfs,y,score,x1\n0,0,0.2,\n1,1,0.8,1_0\n")
        d = load_csv(path)
        assert d.feature_names == ("x1",)
        assert np.array_equal(d.features[:, 0], [np.nan, 10.0], equal_nan=True)

    def test_load_peak_and_kept_memory(self, tmp_path):
        """50,000 rows of 8 columns (about 6.4 MB of text) are parsed from the
        file in chunks: the load peaks near 1.1 times the file, and what stays is
        the dataset's own arrays.  Reading every line first peaked near 3
        times the file, and score and weight were views that kept a
        transposed copy of the whole table alive."""
        rng = np.random.default_rng(0)
        n = 50_000
        table = np.column_stack([
            rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random(n),
            rng.uniform(0.5, 2.0, n), rng.normal(size=(n, 4)),
        ])
        path = tmp_path / "wide.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
                   header="s,y,score,w,x1,x2,x3,x4")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            d = load_csv(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(d.features, table[:, 4:])
        arrays = sum(a.nbytes for a in (d.s, d.y, d.score, d.weight, d.features))
        assert peak < 2 * size
        assert kept < arrays + 1e6

    def test_infinite_weight_names_row(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("s,y,score,w\n0,0,0.2,1\n1,1,0.8,inf\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3: weight must be finite"):
            load_csv(path)

    def test_infinite_feature_names_row_and_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("s,y,score,a,b\n0,0,0.2,1,\n1,1,0.8,2,-inf\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3: column 'b' value '-inf' is not finite"):
            load_csv(path)

    def test_duplicate_header_name(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("s,y,score,s\n0,0,0.2,1\n1,1,0.8,0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"duplicate column name\(s\) \['s'\]"):
            load_csv(path)

    def test_round_trip(self, toy_csv_path, tmp_path):
        d = load_csv(toy_csv_path)
        out = tmp_path / "rt.csv"
        out.write_text(dataset_to_csv(d), encoding="utf-8")
        d2 = load_csv(out)
        assert np.array_equal(d.score, d2.score)
        assert np.array_equal(d.s, d2.s)


class TestRecordValidation:
    def test_bad_group(self):
        with pytest.raises(DataError):
            Dataset(s=[2], y=[0])

    @pytest.mark.parametrize(
        "s,y,column", [([0.5, 1.0], [0, 1], "s"), ([0, 1], [0, 1.7], "y")], ids=["s", "y"]
    )
    def test_fractional_labels_rejected(self, s, y, column):
        # an int64 cast would truncate them to valid labels
        with pytest.raises(DataError, match=f"{column} values must be 0 or 1"):
            Dataset(s=s, y=y)

    def test_bad_weight(self):
        with pytest.raises(DataError, match="row 1"):
            Dataset(s=[0], y=[0], weight=[0.0])

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_dataset_rejects_non_finite_weight(self, w):
        with pytest.raises(DataError, match="row 2"):
            Dataset(s=[0, 1], y=[0, 1], weight=[1.0, w])

    @pytest.mark.parametrize("v", [math.inf, -math.inf])
    def test_dataset_rejects_infinite_feature(self, v):
        with pytest.raises(DataError, match="feature 'b' is not finite in row 2"):
            Dataset(s=[0, 1], y=[0, 1], features=[[0.0, 1.0], [2.0, v]], feature_names=("a", "b"))

    def test_dataset_keeps_missing_feature(self):
        d = Dataset(s=[0, 1], y=[0, 1], features=[[0.0, math.nan], [1.0, 2.0]])
        assert np.isnan(d.features[0, 1])

    def test_dataset_rejects_bad_score(self):
        with pytest.raises(DataError, match="row 2"):
            Dataset(s=[0, 1], y=[0, 1], score=[0.5, 1.2])


class TestApplyPolicy:
    def test_toy_threshold_reproduces_decision_row(self, toy):
        pred = apply_policy(toy, ThresholdPolicy.shared(TOY_THRESHOLD))
        expected = np.array([0] * 10 + [1] * 14)
        assert np.array_equal(pred.prob, expected)

    def test_threshold_one_rejects_everyone(self, toy):
        pred = apply_policy(toy, ThresholdPolicy.shared(1.0))
        assert pred.prob.sum() == 0

    def test_degenerate_mixture_equals_deterministic(self, toy):
        # p = 1 decides by t_lo and p = 0 by t_hi, bit for bit
        for p, t in ((1.0, 0.3), (0.0, 0.9)):
            det = apply_policy(toy, ThresholdPolicy(rules={g: DET(t) for g in (0, 1)}))
            mix = apply_policy(toy, ThresholdPolicy(rules={g: RAND(0.3, 0.9, p=p) for g in (0, 1)}))
            assert [v.hex() for v in mix.prob.tolist()] == [v.hex() for v in det.prob.tolist()]

    def test_one_and_two_thresholds_decide_as_before(self, toy):
        # the expressions of the former one- and two-threshold rule classes
        score = toy.score
        for t in (0.0, 0.3, 1.0):
            got = DET(t).decision_prob(score)
            assert got.tobytes() == (score > t).astype(float).tobytes()
        for t_lo, t_hi, p in ((0.2, 0.8, 0.25), (0.3, 0.3, 0.1), (0.05, 0.95, 1 / 3)):
            got = RAND(t_lo, t_hi, p).decision_prob(score)
            want = p * (score > t_lo) + (1.0 - p) * (score > t_hi)
            assert got.tobytes() == want.tobytes()

    def test_policy_json_kinds(self):
        rules = {
            0: DET(0.5),
            1: RAND(0.2, 0.8, 0.25),
            2: ThresholdMixture((0.2, 0.8, 1.0), (0.5, 0.25, 0.25)),
        }
        assert ThresholdPolicy(rules=rules).to_json_dict() == {
            "0": {"kind": "deterministic", "threshold": 0.5},
            "1": {"kind": "randomized", "t_lo": 0.2, "t_hi": 0.8, "p": 0.25},
            "2": {"kind": "mixture", "thresholds": [0.2, 0.8, 1.0], "probs": [0.5, 0.25, 0.25]},
        }

    def test_three_thresholds_sum_in_order(self, toy):
        rule = ThresholdMixture((0.2, 0.5, 1.0), (0.3, 0.6, 0.1))
        score = toy.score
        want = 0.3 * (score > 0.2) + 0.6 * (score > 0.5) + 0.1 * (score > 1.0)
        assert rule.decision_prob(score).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "thresholds,probs,match",
        [
            ((0.8, 0.2), (0.5, 0.5), "must not decrease"),
            ((0.2, 1.5), (0.5, 0.5), r"threshold must lie in \[0, 1\]"),
            ((0.2, 0.8), (1.5, -0.5), r"probability must lie in \[0, 1\]"),
            ((0.1, 0.2, 0.3, 0.4), (0.25,) * 4, "one to three thresholds"),
            ((0.1, 0.2), (1.0,), "one to three thresholds"),
        ],
    )
    def test_rule_validation(self, thresholds, probs, match):
        with pytest.raises(DataError, match=match):
            ThresholdMixture(thresholds, probs)

    def test_pure_function(self, toy):
        policy = ThresholdPolicy(rules={0: RAND(0.2, 0.8, 0.25), 1: DET(0.5)})
        a = apply_policy(toy, policy)
        b = apply_policy(toy, policy)
        assert np.array_equal(a.prob, b.prob)

    def test_missing_group_rule(self, toy):
        with pytest.raises(DataError, match="no rule for group 1"):
            apply_policy(toy, ThresholdPolicy(rules={0: DET(0.5)}))

    @given(st.integers(1, 23))
    @settings(max_examples=24, deadline=None)
    def test_strict_rule_at_observed_score(self, i):
        # a threshold equal to a record's score leaves that record negative
        d = load_toy()
        pred = apply_policy(d, ThresholdPolicy.shared(i / 24))
        assert pred.prob[i - 1] == 0

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_randomized_probabilities_in_unit_interval(self, a, b, p):
        t_lo, t_hi = min(a, b), max(a, b)
        d = load_toy()
        pred = apply_policy(d, ThresholdPolicy(rules={g: RAND(t_lo, t_hi, p) for g in (0, 1)}))
        assert np.all(pred.prob >= 0) and np.all(pred.prob <= 1)
        if p in (0.0, 1.0):
            assert set(np.unique(pred.prob)) <= {0.0, 1.0}


class TestValidate:
    def test_toy_base_rates(self, toy):
        rep = validate(toy)
        assert rep.group_sizes == {0: 8, 1: 16}
        assert rep.base_rates[0] == 5 / 8
        assert rep.base_rates[1] == 9 / 16

    def test_single_group_warning(self):
        d = Dataset(s=[0, 0], y=[0, 1], score=[0.2, 0.8])
        rep = validate(d)
        assert "group 1 empty" in rep.warnings

    def test_empty_group_has_size_zero_and_null_rate(self):
        d = Dataset(s=[0, 0, 0], y=[0, 1, 1], weight=[1.0, 2.0, 0.5], score=[0.2, 0.8, 0.5])
        rep = validate(d)
        assert rep.group_sizes == {0: 3, 1: 0}
        assert rep.base_rates == {0: 2.5 / 3.5, 1: None}
        assert rep.warnings == ["group 1 empty"]
        report = json.loads(_dump_json(asdict(rep), None))
        assert report["group_sizes"]["1"] == 0 and report["base_rates"]["1"] is None

    def test_constant_score_warning(self):
        d = Dataset(s=[0, 1], y=[0, 1], score=[0.4, 0.4])
        rep = validate(d)
        assert "constant score" in rep.warnings

    def test_constant_columns_sorted(self):
        d = Dataset(s=[0, 1], y=[0, 1], score=[0.4, 0.4], features=np.ones((2, 1)),
                    feature_names=["zz"])
        assert validate(d).constant_columns == ["score", "zz"]

    def test_missing_feature_counts(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s,y,score,x1\n0,0,0.1,\n1,1,0.9,2.0\n", encoding="utf-8")
        rep = validate(load_csv(path))
        assert rep.missing_feature_counts == {"x1": 1}
