"""The columnar CSV loader against the row loop it replaced.

``ref_load_csv`` is the earlier loader: it parses every cell of every row
through Python's ``float``.  It is kept here as the reference.  On any
input, ``load_csv`` must return arrays of the same dtype, shape, layout and
bits, or raise the same :class:`DataError` message.
"""

import csv
import gzip
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairaudit import data
from fairaudit.data import ColumnSchema, DataError, Dataset, load_csv


def _parse_binary(raw, col, row):
    try:
        v = float(raw)
    except ValueError:
        raise DataError(f"row {row}: column {col!r} value {raw!r} is not numeric")
    if v not in (0.0, 1.0):
        raise DataError(f"row {row}: column {col!r} must be 0 or 1, got {raw!r}")
    return int(v)


def _parse_float(raw, col, row):
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"row {row}: column {col!r} value {raw!r} is not numeric")


def ref_load_csv(path, schema=ColumnSchema()):
    """The row-by-row loader, as it was before the columnar one."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("no records (empty file)")
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(c.strip() for c in row)]

    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise DataError(f"duplicate column name(s) {duplicates} in header")

    if not rows:
        raise DataError("no records")
    for col in (schema.s_col, schema.y_col):
        if col not in header:
            raise DataError(f"missing column {col!r} (header: {header})")

    idx = {name: header.index(name) for name in header}
    has_score = schema.score_col is not None and schema.score_col in header
    has_weight = schema.weight_col is not None and schema.weight_col in header
    reserved = {schema.s_col, schema.y_col}
    if has_score:
        reserved.add(schema.score_col)
    if has_weight:
        reserved.add(schema.weight_col)

    if schema.feature_cols is not None:
        feat_names = list(schema.feature_cols)
        missing = [c for c in feat_names if c not in header]
        if missing:
            raise DataError(f"missing feature column(s) {missing}")
    else:
        feat_names = [h for h in header if h not in reserved]

    if not has_score and not feat_names:
        raise DataError("need a score column or at least one feature column")

    s_vals, y_vals, scores, weights, feats = [], [], [], [], []
    for i, row in enumerate(rows):
        rownum = i + 2
        if len(row) != len(header):
            raise DataError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        s_vals.append(_parse_binary(row[idx[schema.s_col]], schema.s_col, rownum))
        y_vals.append(_parse_binary(row[idx[schema.y_col]], schema.y_col, rownum))
        if has_score:
            v = _parse_float(row[idx[schema.score_col]], schema.score_col, rownum)
            if not 0.0 <= v <= 1.0:
                raise DataError(
                    f"row {rownum}: column {schema.score_col!r} outside [0, 1]: {v}"
                )
            scores.append(1.0 - v if schema.flip_score else v)
        if has_weight:
            w = _parse_float(row[idx[schema.weight_col]], schema.weight_col, rownum)
            if not 0 < w < math.inf:
                raise DataError(f"row {rownum}: weight must be finite and positive, got {w}")
            weights.append(w)
        if feat_names:
            vals = []
            for name in feat_names:
                raw = row[idx[name]].strip()
                v = math.nan if raw == "" else _parse_float(raw, name, rownum)
                if math.isinf(v):
                    raise DataError(f"row {rownum}: column {name!r} value {raw!r} is not finite")
                vals.append(v)
            feats.append(vals)

    return Dataset(
        s=s_vals,
        y=y_vals,
        score=scores if has_score else None,
        features=np.array(feats) if feats else None,
        weight=weights if has_weight else None,
        feature_names=feat_names,
        legit_names=schema.legit_cols,
    )


def outcome(loader, path, schema):
    """The loaded arrays with their dtype, shape and C-contiguity, or the error."""
    try:
        d = loader(path, schema)
    except DataError as exc:
        return ("DataError", str(exc))
    arrays = {
        name: None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
        for name, a in (("s", d.s), ("y", d.y), ("score", d.score),
                        ("features", d.features), ("weight", d.weight))
    }
    return arrays, d.feature_names, d.legit_names


ODD_CELLS = [
    "-0", "+0", " 1.5 ", "\t0.25", "0.5\xa0", "1_0", "0_1", "\u0661", "\u0660", "\uff11",
    "Infinity", "-Infinity", "inf", "nan", "-nan", "NaN", "1e400", "-1e400", "1e-400",
    "", " ", "\t", '"0.5"', '"0.5\n"', '"1\r\n"', '" 1 "', '"1,0"', '"0.5" ', ' "0.5"',
    '"0"1', '""', '"', "0x1p-2", "nan(1)", "1d0", "1e", ".", "1.", ".5", "+.5", "abc",
    "#1", "2", "-1", "\ufeff0.5", "0.5\x00", "0.5\x0c", "1\u2028",
]
ODD_LINES = ["", "   ", "\t", "#", "# 0,1,0.5", "#s,y", ",", ",,", '""', " , "]
VALUES = {
    "s": st.sampled_from(["0", "1", "1.0", "0.0", "1e0", " 1", "-0"]),
    "y": st.sampled_from(["0", "1", "1.0", "0.0"]),
    "yhat": st.sampled_from(["0", "1"]),
    "score": st.floats(0.0, 1.0).map(repr),
    "w": st.floats(1e-300, 1e300).map(repr),
    "x1": st.floats(allow_infinity=False).map(repr),
    "x2": st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-9, 9).map(str)),
}
# values each column's check rejects
BAD_VALUES = {
    "s": ["2", "0.5", "nan"],
    "y": ["-1", "nan"],
    "score": ["1.5", "-1e-9", "nan", "-1e-20"],  # 1 - (-1e-20) rounds to 1.0
    "w": ["0", "-1", "inf", "nan", "1e999"],
    "x1": ["inf", "-inf", "1e999"],
    "x2": ["-1e400", "Infinity"],
    "yhat": ["inf"],
}


@st.composite
def csv_files(draw):
    """CSV text over the loader's columns: records drawn per column, then a
    few faults injected (odd cells, odd lines, trailing commas), with mixed
    line ends and an optional BOM.  Half the files instead hold 6 to 12
    records without faults, scored on three adjacent doubles."""
    optional = ["score", "w", "x1", "x2", "yhat"]
    extra = draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    columns = draw(st.permutations(["s", "y", *extra]))
    if draw(st.integers(0, 9)) == 0:  # a missing or a duplicate column
        columns = columns[1:] if draw(st.booleans()) else [*columns, columns[0]]
    adjacent = draw(st.booleans())
    if adjacent and "score" not in columns:
        columns.append("score")
    n_rows = draw(st.integers(6, 12) if adjacent else st.integers(0, 6))
    rows = [[draw(VALUES[c]) for c in columns] for _ in range(n_rows)]
    if adjacent:
        # scores from three adjacent doubles whose middle one has an even
        # significand, so that both midpoints round onto it
        low = draw(st.floats(0.0, 0.9))
        middle = float(np.nextafter(low, 1.0))
        if np.float64(middle).view(np.int64) & 1:
            low, middle = middle, float(np.nextafter(middle, 1.0))
        run = [low, middle, float(np.nextafter(middle, 1.0))]
        for row in rows:
            row[columns.index("score")] = repr(draw(st.sampled_from(run)))
    lines = [",".join(columns)]
    kinds = ["value", "cell", "line", "comma", "commas"]
    faults = [] if adjacent else draw(st.lists(st.sampled_from(kinds), max_size=2))
    for fault in faults:
        if fault in ("value", "cell") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            j = draw(st.integers(0, len(row) - 1))
            odd = st.one_of(st.sampled_from(ODD_CELLS), st.text(max_size=3))
            row[j] = draw(st.sampled_from(BAD_VALUES[columns[j]]) if fault == "value" else odd)
    lines += [",".join(row) for row in rows]
    for fault in faults:
        if fault == "line":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(ODD_LINES)))
        elif fault == "comma":
            lines[draw(st.integers(0, len(lines) - 1))] += ","
        elif fault == "commas":
            lines = [line + "," for line in lines]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=2))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text


SCHEMAS = [
    ColumnSchema(),
    ColumnSchema(flip_score=True),
    ColumnSchema(feature_cols=["x1"], legit_cols=("x1",)),
    ColumnSchema(score_col=None, weight_col=None),
]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files(), schema=st.sampled_from(SCHEMAS))
def test_load_csv_matches_row_loop(tmp_path, text, schema):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, path, schema) == outcome(ref_load_csv, path, schema)


@pytest.mark.parametrize(
    "column,value", [(c, v) for c, values in BAD_VALUES.items() for v in values]
)
def test_bad_value_reported_like_row_loop(tmp_path, column, value):
    header = ["s", "y", "score", "w", "x1", "x2", "yhat"]
    rows = [
        ["0", "1", "0.25", "1.5", "-0.5", "3", "1"],
        ["1", "0", "0.75", "2.0", "1e-3", "-2", "0"],
        ["1", "1", "0.5", "0.5", "2.5", "0", "1"],
    ]
    rows[1][header.index(column)] = value
    path = tmp_path / "in.csv"
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. the int64 cast of a NaN label
        got = outcome(load_csv, path, ColumnSchema())
    assert got[0] == "DataError" and "row 3" in got[1]
    assert got == outcome(ref_load_csv, path, ColumnSchema())


def test_flipped_score_below_zero_reported_like_row_loop(tmp_path):
    # the range check sees the score as given: its flip 1 - (-1e-20) is 1.0
    path = tmp_path / "in.csv"
    path.write_text("s,y,score\n0,1,0.25\n1,0,-1e-20\n", encoding="utf-8")
    schema = ColumnSchema(flip_score=True)
    got = outcome(load_csv, path, schema)
    assert got == ("DataError", "row 3: column 'score' outside [0, 1]: -1e-20")
    assert got == outcome(ref_load_csv, path, schema)


@pytest.mark.parametrize(
    "body,fallback",
    [
        ("0,1,0.5,1.5\n1,0,0.25,-2\n", False),
        ("0,1,0.5,1.5\r\n1,0,0.25,-2\r\n\r\n", False),
        ("0,1,0.5,\n1,0,0.25,-2\n", True),  # an empty feature cell
        ("0,1,0.5,1_0\n1,0,0.25,-2\n", True),
        ("0,1,0.5,1.5\n  \n1,0,0.25,-2\n", True),  # a whitespace-only line
        ("0,1,0.5,1.5\n1,0,0.25,-2,\n", True),  # a trailing comma
    ],
)
def test_row_loop_runs_only_for_what_loadtxt_cannot_read(tmp_path, monkeypatch, body, fallback):
    path = tmp_path / "in.csv"
    path.write_text("s,y,score,x1\n" + body, encoding="utf-8")
    calls = []
    row_loop = data._dataset_from_rows

    def counted(*args):
        calls.append(1)
        return row_loop(*args)

    monkeypatch.setattr(data, "_dataset_from_rows", counted)
    try:
        load_csv(path)
    except DataError:
        pass
    assert bool(calls) == fallback


# ---------------------------------------------------------------------------
# The body by path, by the open file and by lines
# ---------------------------------------------------------------------------


def table_outcome(table):
    return None if table is None else (table.shape, table.tobytes())


HEADER_FIELDS = ["s", "y", "score", '"s\nx"', '"a\r\nb"', '"a\rb"', '"q,r"', '" w "']
QUOTED_CELLS = ['"0.5"', '"1"', '" 1 "', '"0.5\n"', '"1\r\n"', '"0\r"', '"1,0"', '""']


@st.composite
def routed_files(draw):
    """CSV text whose header may hold quoted fields with embedded line ends,
    and whose cells may be quoted, in LF, CRLF or lone-CR lines, with or
    without a BOM."""
    width = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(HEADER_FIELDS)) for _ in range(width)]
    cell = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["0", "1", "-2", "", "1_0"]),
                     st.sampled_from(QUOTED_CELLS))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    text = "".join(",".join(row) + draw(st.sampled_from(ends)) for row in [header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(routed_files(), csv_files()))
def test_body_by_path_parses_as_by_open_file(tmp_path, text):
    """``load_csv`` hands numpy the file by name, past the header's physical
    lines; numpy's chunked read of it gives the table its line-by-line read
    of the open file gave, bit for bit, or fails alike."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        by_file = data._float_table(fh)
    calls = []
    loadtxt = np.loadtxt

    def spy(body, *args, **kw):
        calls.append(body)
        try:
            table = loadtxt(body, *args, **kw)
        except (ValueError, UserWarning):
            calls.append(None)
            raise
        calls.append(table)
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", spy)
        try:
            load_csv(path)
        except DataError:
            pass
    if header is None or len(set(h.strip() for h in header)) < len(header):
        assert calls == []  # no records, or a duplicate column name
        return
    assert calls[0] == str(path)
    assert table_outcome(calls[1]) == table_outcome(by_file)


@pytest.fixture
def loadtxt_bodies(monkeypatch):
    """What each np.loadtxt call is handed as its body."""
    bodies = []
    loadtxt = np.loadtxt

    def spy(body, *args, **kw):
        bodies.append(body)
        return loadtxt(body, *args, **kw)

    monkeypatch.setattr(np, "loadtxt", spy)
    return bodies


TOY_TEXT = "s,y,score\n0,1,0.5\n1,0,0.25\n1,1,0.75\n"


def test_regular_file_reaches_loadtxt_by_path(tmp_path, loadtxt_bodies):
    path = tmp_path / "in.csv"
    path.write_text(TOY_TEXT, encoding="utf-8")
    d = load_csv(path)
    assert loadtxt_bodies == [str(path)]
    assert d.score.tolist() == [0.5, 0.25, 0.75]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_reaches_loadtxt_as_its_lines(loadtxt_bodies):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, TOY_TEXT.encode("utf-8"))
        os.close(write_end)
        write_end = None
        d = load_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    assert loadtxt_bodies == [TOY_TEXT.splitlines(keepends=True)[1:]]
    assert d.score.tolist() == [0.5, 0.25, 0.75]


@pytest.mark.parametrize("name", ["data.gz", "data.bz2", "data.xz", "data.lzma"])
def test_plain_csv_with_compression_suffix_loads(tmp_path, loadtxt_bodies, name):
    """numpy's path reader would decompress by suffix; such a name is read
    through the open file, as before."""
    path = tmp_path / name
    path.write_text(TOY_TEXT, encoding="utf-8")
    d = load_csv(path)
    assert [type(b) for b in loadtxt_bodies] == [io.TextIOWrapper]
    plain = tmp_path / "data.csv"
    plain.write_text(TOY_TEXT, encoding="utf-8")
    assert outcome(load_csv, path, ColumnSchema()) == outcome(load_csv, plain, ColumnSchema())
    assert len(d) == 3


def test_name_read_as_url_is_read_through_the_open_file(tmp_path, monkeypatch, loadtxt_bodies):
    (tmp_path / "x:" / "host").mkdir(parents=True)
    (tmp_path / "x:" / "host" / "in.csv").write_text(TOY_TEXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    d = load_csv("x://host/in.csv")
    assert [type(b) for b in loadtxt_bodies] == [io.TextIOWrapper]
    assert d.score.tolist() == [0.5, 0.25, 0.75]


def test_gzip_file_named_csv_exits_2_with_the_decode_message(tmp_path, capsys):
    from fairaudit.cli import main

    path = tmp_path / "in.csv"
    path.write_bytes(gzip.compress(TOY_TEXT.encode("utf-8")))
    assert main(["audit", str(path), "--threshold", "0.5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 'utf-8' codec can't decode byte 0x8b in position 1: invalid start byte\n"
