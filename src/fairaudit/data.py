"""Dataset model, CSV ingestion and score-to-decision thresholding.

The data model is deliberately small: every record carries a binary group
label ``s``, a binary outcome ``y``, an optional score in [0, 1], an
optional numeric feature vector and a positive weight (default 1).  All
downstream statistics are weight sums, so reweighting composes without
special cases.

Score orientation is fixed: large scores are associated with ``y = 1``.
Credit-score-style data (high score = low risk) can be flipped at load
time with ``ColumnSchema(flip_score=True)``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._common import cell_sums

__all__ = [
    "DataError",
    "DegenerateGroupError",
    "Dataset",
    "ColumnSchema",
    "ThresholdMixture",
    "ThresholdPolicy",
    "PredictionSet",
    "ValidationReport",
    "load_csv",
    "apply_policy",
    "validate",
    "csv_text",
    "dataset_to_csv",
    "load_toy",
    "TOY_CSV",
    "TOY_THRESHOLD",
]


class DataError(ValueError):
    """Malformed input data (maps to CLI exit code 2)."""


class DegenerateGroupError(ValueError):
    """A computation requires a group/class that is empty (CLI exit code 3)."""


class Dataset:
    """Immutable, array-backed sequence of records.

    Row order is preserved from the source.  Group-conditional operations
    raise :class:`DegenerateGroupError` when the requested group is empty.
    """

    def __init__(
        self,
        s: Sequence[int],
        y: Sequence[int],
        score: Sequence[float] | None = None,
        features: np.ndarray | None = None,
        weight: Sequence[float] | None = None,
        feature_names: Sequence[str] = (),
        legit_names: Sequence[str] = (),
    ):
        n = len(s)
        if n == 0:
            raise DataError("no records")
        if len(y) != n:
            raise DataError("s and y must have equal length")
        # checked as given: the int64 cast truncates 0.5 to 0 and warns on NaN
        if not np.isin(s, (0, 1)).all():
            raise DataError("s values must be 0 or 1")
        if not np.isin(y, (0, 1)).all():
            raise DataError("y values must be 0 or 1")
        self.s = np.asarray(s, dtype=np.int64)
        self.y = np.asarray(y, dtype=np.int64)

        self.score = None if score is None else np.asarray(score, dtype=float)
        if self.score is not None:
            if len(self.score) != n:
                raise DataError("score column length mismatch")
            bad = ~((self.score >= 0.0) & (self.score <= 1.0))
            if bad.any():
                raise DataError(
                    f"score outside [0, 1] in row {int(np.argmax(bad)) + 1}"
                )

        self.features = None if features is None else np.asarray(features, dtype=float)
        if self.features is not None and self.features.shape[0] != n:
            raise DataError("feature matrix length mismatch")

        self.weight = (
            np.ones(n) if weight is None else np.asarray(weight, dtype=float)
        )
        if len(self.weight) != n:
            raise DataError("weight column length mismatch")
        bad = ~((self.weight > 0) & np.isfinite(self.weight))
        if bad.any():
            raise DataError(
                f"weight must be finite and positive, row {int(np.argmax(bad)) + 1}"
            )

        self.feature_names = tuple(feature_names)
        if self.features is not None:
            if not self.feature_names:
                self.feature_names = tuple(f"x{j}" for j in range(self.features.shape[1]))
            elif len(self.feature_names) != self.features.shape[1]:
                raise DataError("feature_names length mismatch")
            bad = np.isinf(self.features)  # NaN stays: it marks a missing value
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise DataError(
                    f"feature {self.feature_names[j]!r} is not finite in row {i + 1}"
                )
        self.legit_names = tuple(legit_names)
        unknown = set(self.legit_names) - set(self.feature_names)
        if unknown:
            raise DataError(f"legitimate columns not present: {sorted(unknown)}")

        for arr in (self.s, self.y, self.score, self.features, self.weight):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.s)

    def require_group(self, g: int) -> np.ndarray:
        mask = self.s == g
        if not mask.any():
            raise DegenerateGroupError(f"group {g} is empty")
        return mask

    def require_scores(self) -> np.ndarray:
        if self.score is None:
            raise DataError("operation requires a score column")
        return self.score

    def feature_column(self, name: str) -> np.ndarray:
        if self.features is None or name not in self.feature_names:
            raise DataError(f"no feature column named {name!r}")
        return self.features[:, self.feature_names.index(name)]

    def with_(self, **kw) -> "Dataset":
        """Copy with some arrays replaced (used by mitigation steps)."""
        args = dict(
            s=self.s,
            y=self.y,
            score=self.score,
            features=self.features,
            weight=self.weight,
            feature_names=self.feature_names,
            legit_names=self.legit_names,
        )
        args.update(kw)
        return Dataset(**args)


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV columns onto the data model.

    Unless ``feature_cols`` is given, every numeric column that is not the
    group, outcome, score or weight column becomes a feature.
    """

    s_col: str = "s"
    y_col: str = "y"
    score_col: str | None = "score"
    weight_col: str | None = "w"
    feature_cols: Sequence[str] | None = None
    legit_cols: Sequence[str] = ()
    flip_score: bool = False


def _parse_binary(raw: str, col: str, row: int) -> int:
    try:
        v = float(raw)
    except ValueError:
        raise DataError(f"row {row}: column {col!r} value {raw!r} is not numeric")
    if v not in (0.0, 1.0):
        raise DataError(f"row {row}: column {col!r} must be 0 or 1, got {raw!r}")
    return int(v)


def _parse_float(raw: str, col: str, row: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"row {row}: column {col!r} value {raw!r} is not numeric")


# suffixes by which numpy's path reader picks a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _plain_file_name(path) -> str | None:
    """``path`` as a name that ``np.loadtxt`` opens as this plain local file,
    or None.  numpy opens a name through ``np.lib._datasource``, which
    decompresses by suffix and reads a ``scheme://host/...`` name as a URL."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if not isinstance(name, str) or "://" in name or name.endswith(_COMPRESSED):
        return None
    return name if os.path.isfile(name) else None


def _float_table(body, **kw) -> np.ndarray | None:
    """The body as one float table, or None if ``np.loadtxt`` cannot parse it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # raised on an empty body
            return np.loadtxt(
                body, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float, **kw
            )
    except (ValueError, UserWarning):
        return None


def load_csv(path, schema: ColumnSchema = ColumnSchema()) -> Dataset:
    """Load and validate a UTF-8 CSV file with a mandatory header row.

    Raises :class:`DataError` with the offending row number on the first
    malformed value encountered.

    The body is parsed as one float table by ``np.loadtxt`` and checked
    column by column.  A regular file is handed to it by name, past the
    header's lines, and read in chunks; a pipe by its lines, which are kept;
    a name with a compression suffix, or one numpy would read as a URL, by
    the open file, which numpy reads line by line.  A body it cannot parse,
    whose width differs from the header's, or whose values fail a check goes
    through a row loop instead, which finds the first bad cell in row order.
    That loop also reads what ``loadtxt`` does not: empty cells (missing
    features), blank-only lines, and numbers that only Python's ``float``
    accepts, such as ``1_0``.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # a file is read again, by numpy and for the row loop; a pipe's
        # lines are kept, since it cannot be read twice
        lines = None if fh.seekable() else fh.readlines()
        reader = csv.reader(fh if lines is None else lines)
        try:
            header = next(reader, None)
        except csv.Error as exc:  # e.g. a field longer than the csv module's limit
            raise DataError(f"line {reader.line_num}: {exc}") from None
        if header is None:
            raise DataError("no records (empty file)")
        header = [h.strip() for h in header]
        duplicates = sorted({h for h in header if header.count(h) > 1})
        if duplicates:
            raise DataError(f"duplicate column name(s) {duplicates} in header")

        name = _plain_file_name(path) if lines is None else None
        if name is not None:
            table = _float_table(name, skiprows=reader.line_num, encoding="utf-8-sig")
        else:
            table = _float_table(fh if lines is None else lines[reader.line_num :])
        if table is not None and table.shape[1] == len(header):
            d = _dataset_from_table(table, header, schema)
            if d is not None:
                return d
        if lines is None:
            fh.seek(0)
            lines = fh.readlines()
    return _dataset_from_rows(lines[reader.line_num :], header, schema, reader.line_num)


def _resolve_columns(header: list[str], schema: ColumnSchema):
    """The score column, weight column (each None when absent) and feature
    names that ``schema`` selects from ``header``."""
    for col in (schema.s_col, schema.y_col):
        if col not in header:
            raise DataError(f"missing column {col!r} (header: {header})")
    score_col = schema.score_col if schema.score_col in header else None
    weight_col = schema.weight_col if schema.weight_col in header else None
    if schema.feature_cols is not None:
        feat_names = list(schema.feature_cols)
        missing = [c for c in feat_names if c not in header]
        if missing:
            raise DataError(f"missing feature column(s) {missing}")
    else:
        reserved = {schema.s_col, schema.y_col, score_col, weight_col}
        feat_names = [h for h in header if h not in reserved]
    if score_col is None and not feat_names:
        raise DataError("need a score column or at least one feature column")
    return score_col, weight_col, feat_names


def _dataset_from_table(
    table: np.ndarray, header: list[str], schema: ColumnSchema
) -> Dataset | None:
    """The dataset of a parsed float table, or None if any value fails a check."""
    score_col, weight_col, feat_names = _resolve_columns(header, schema)
    column = dict(zip(header, table.T))
    # own copies: a strided view can change sums' last bits and keeps the table
    kept = {c: np.ascontiguousarray(column[c]) for c in (score_col, weight_col) if c is not None}
    try:
        d = Dataset(
            s=column[schema.s_col],
            y=column[schema.y_col],
            score=kept.get(score_col),
            features=np.column_stack([column[c] for c in feat_names]) if feat_names else None,
            weight=kept.get(weight_col),
            feature_names=feat_names,
            legit_names=schema.legit_cols,
        )
    except DataError:
        return None
    # flipped after the range check, which 1 - score can pass for a score below 0
    return d.with_(score=1.0 - d.score) if schema.flip_score and d.score is not None else d


def _dataset_from_rows(
    lines: list[str], header: list[str], schema: ColumnSchema, header_lines: int
) -> Dataset:
    """Parse the body, which follows ``header_lines`` file lines, cell by cell,
    raising on the first bad cell in row order."""
    reader = csv.reader(lines)
    try:
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    except csv.Error as exc:
        raise DataError(f"line {header_lines + reader.line_num}: {exc}") from None
    if not rows:
        raise DataError("no records")
    score_col, weight_col, feat_names = _resolve_columns(header, schema)
    idx = {name: header.index(name) for name in header}

    s_vals, y_vals, scores, weights, feats = [], [], [], [], []
    for i, row in enumerate(rows):
        rownum = i + 2  # 1-based, counting the header line
        if len(row) != len(header):
            raise DataError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        s_vals.append(_parse_binary(row[idx[schema.s_col]], schema.s_col, rownum))
        y_vals.append(_parse_binary(row[idx[schema.y_col]], schema.y_col, rownum))
        if score_col is not None:
            v = _parse_float(row[idx[score_col]], score_col, rownum)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"row {rownum}: column {score_col!r} outside [0, 1]: {v}")
            scores.append(1.0 - v if schema.flip_score else v)
        if weight_col is not None:
            w = _parse_float(row[idx[weight_col]], weight_col, rownum)
            if not 0 < w < math.inf:
                raise DataError(f"row {rownum}: weight must be finite and positive, got {w}")
            weights.append(w)
        if feat_names:
            vals = []
            for name in feat_names:
                raw = row[idx[name]].strip()
                # empty cells become NaN so validate() can count them
                v = math.nan if raw == "" else _parse_float(raw, name, rownum)
                if math.isinf(v):
                    raise DataError(f"row {rownum}: column {name!r} value {raw!r} is not finite")
                vals.append(v)
            feats.append(vals)

    return Dataset(
        s=s_vals,
        y=y_vals,
        score=scores if score_col is not None else None,
        features=np.array(feats) if feats else None,
        weight=weights if weight_col is not None else None,
        feature_names=feat_names,
        legit_names=schema.legit_cols,
    )


# ---------------------------------------------------------------------------
# Threshold policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdMixture:
    """Use threshold ``thresholds[k]`` with probability ``probs[k]``, one to
    three thresholds, increasing; each decides 1 iff score > it (strict:
    equality yields 0).  The expected decision is the sum of
    ``probs[k] * 1[score > thresholds[k]]`` in order; for two thresholds,
    ``p * 1[score > t_lo] + (1-p) * 1[score > t_hi]``.  The policy JSON
    kinds of one, two and three are deterministic, randomized and mixture.
    """

    thresholds: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.thresholds) == len(self.probs) <= 3:
            raise DataError("a rule mixes one to three thresholds, one probability each")
        for name, values in (("threshold", self.thresholds), ("mixture probability", self.probs)):
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise DataError(f"{name} must lie in [0, 1], got {v}")
        if list(self.thresholds) != sorted(self.thresholds):
            raise DataError("thresholds must not decrease")

    @classmethod
    def deterministic(cls, threshold: float) -> "ThresholdMixture":
        return cls((threshold,), (1.0,))

    def decision_prob(self, score: np.ndarray) -> np.ndarray:
        prob = self.probs[0] * (score > self.thresholds[0])
        for t, p in zip(self.thresholds[1:], self.probs[1:]):
            prob = prob + p * (score > t)
        return prob

    def to_json_dict(self) -> dict:
        t, p = self.thresholds, self.probs
        if len(t) == 1:
            return {"kind": "deterministic", "threshold": t[0]}
        if len(t) == 2:
            return {"kind": "randomized", "t_lo": t[0], "t_hi": t[1], "p": p[0]}
        return {"kind": "mixture", "thresholds": list(t), "probs": list(p)}


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-group decision rule."""

    rules: Mapping[int, ThresholdMixture]

    @classmethod
    def shared(cls, threshold: float) -> "ThresholdPolicy":
        rule = ThresholdMixture.deterministic(threshold)
        return cls(rules={0: rule, 1: rule})

    @classmethod
    def per_group(cls, t0: float, t1: float) -> "ThresholdPolicy":
        return cls(rules={g: ThresholdMixture.deterministic(t) for g, t in enumerate((t0, t1))})

    def rule_for(self, g: int) -> ThresholdMixture:
        if g not in self.rules:
            raise DataError(f"policy has no rule for group {g}")
        return self.rules[g]

    def to_json_dict(self) -> dict:
        return {str(g): rule.to_json_dict() for g, rule in sorted(self.rules.items())}


@dataclass(frozen=True)
class PredictionSet:
    """Per-record decisions.

    ``prob`` holds the decision probability; for deterministic policies the
    entries are exactly 0.0 or 1.0.
    """

    prob: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prob, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "prob", p)
        if ((p < 0) | (p > 1)).any():
            raise DataError("decision probabilities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.prob)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "PredictionSet":
        arr = np.asarray(labels, dtype=float)
        if not np.isin(arr, (0.0, 1.0)).all():
            raise DataError("labels must be 0 or 1")
        return cls(prob=arr)


def apply_policy(d: Dataset, policy: ThresholdPolicy) -> PredictionSet:
    """Score each record against its group's rule.

    Pure function: identical inputs produce bit-identical outputs.  A mixture
    with p of 0 or 1 decides exactly 0.0 or 1.0: 1.0 * a + 0.0 * b is a.

    A rule decides each record from its score alone, so when every group
    present has the same rule, one pass over all scores gives what a pass
    per group would.  Rules count as the same when they print alike: a
    probability -0.0 equals 0.0 but decides -0.0.
    """
    score = d.require_scores()
    groups = np.flatnonzero(np.bincount(d.s, minlength=2))
    rules = [policy.rule_for(int(g)) for g in groups]
    if len(set(map(repr, rules))) == 1:
        return PredictionSet(prob=rules[0].decision_prob(score))
    prob = np.empty(len(d))
    for g, rule in zip(groups, rules):
        mask = d.s == g
        prob[mask] = rule.decision_prob(score[mask])
    return PredictionSet(prob=prob)


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    n: int
    group_sizes: dict[int, int]
    base_rates: dict[int, float | None]
    missing_feature_counts: dict[str, int] = field(default_factory=dict)
    constant_columns: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _base_rates(d: Dataset) -> tuple[dict[int, float | None], np.ndarray]:
    """Each group's weighted rate of y = 1 (None if empty), and its record count."""
    (wy, w), counts = cell_sums(d.s, 2, d.weight * d.y, d.weight)
    return {g: float(wy[g] / w[g]) if counts[g] else None for g in (0, 1)}, counts


def validate(d: Dataset) -> ValidationReport:
    """Report-only sanity summary: group sizes, base rates, degenerate columns."""
    rates, counts = _base_rates(d)
    sizes = {g: int(counts[g]) for g in (0, 1)}
    warnings = [f"group {g} empty" for g in (0, 1) if not counts[g]]

    missing = {}
    constant = []
    if d.features is not None:
        for j, name in enumerate(d.feature_names):
            col = d.features[:, j]
            n_missing = int(np.isnan(col).sum())
            if n_missing:
                missing[name] = n_missing
            finite = col[~np.isnan(col)]
            if len(finite) and np.all(finite == finite[0]):
                constant.append(name)
                warnings.append(f"constant column {name!r}")
    if d.score is not None and np.all(d.score == d.score[0]):
        constant.append("score")
        warnings.append("constant score")

    return ValidationReport(
        n=len(d),
        group_sizes=sizes,
        base_rates=rates,
        missing_feature_counts=missing,
        constant_columns=sorted(constant),
        warnings=warnings,
    )


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """CSV text: the header row, then one row per position of the equal-length
    value ``columns``, every line ended by a newline.

    Each value is written with repr, so floats round-trip exactly.
    """
    rows = zip(*(map(repr, col) for col in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def dataset_to_csv(d: Dataset) -> str:
    """Serialize a dataset back to the canonical CSV schema."""
    header = ["s", "y"]
    columns = [d.s.tolist(), d.y.tolist()]
    if d.score is not None:
        header.append("score")
        columns.append(d.score.tolist())
    header.append("w")
    columns.append(d.weight.tolist())
    header.extend(d.feature_names)
    if d.features is not None:
        columns.extend(d.features.T.tolist())
    return csv_text(header, columns)


def sha256_of_file(path) -> str | None:
    if not os.path.isfile(path):  # load_csv has read a pipe to its end
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Canonical 24-row demo dataset
# ---------------------------------------------------------------------------

# Group/outcome pattern of the 24-observation demo table, ordered by score.
# Only the ordering is meaningful; the canonical file assigns score_i = i/24
# by table position, so every threshold fact is a position fact.

_TOY_S = (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
_TOY_Y = (0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1)

TOY_CSV = "s,y,score\n" + "".join(
    f"{s},{y},{i / 24!r}\n" for i, (s, y) in enumerate(zip(_TOY_S, _TOY_Y), start=1)
)

# threshold between the 10th and 11th scores reproduces the demo decisions
TOY_THRESHOLD = (10 / 24 + 11 / 24) / 2


def load_toy() -> Dataset:
    """The canonical 24-row dataset (8 records with s=0, 16 with s=1)."""
    return Dataset(
        s=_TOY_S,
        y=_TOY_Y,
        score=[i / 24 for i in range(1, 25)],
    )
