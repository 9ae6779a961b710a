"""Command-line front end: audit reports, mitigation pipelines, plot data.

Subcommands: audit, mitigate, plot, synth, validate.
Exit codes: 0 ok, 2 malformed input, 3 degenerate computation.

Reports are written as JSON (full precision, sorted keys, so identical runs
are byte-identical) plus a Markdown rendering whose numbers are the JSON
values rounded for print (one decimal of a percent).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, depmeasure, groupfair, indivfair, mitigate, rocstats, synth
from ._common import _dump_json
from .data import (
    ColumnSchema,
    DataError,
    Dataset,
    DegenerateGroupError,
    PredictionSet,
    ThresholdPolicy,
    _base_rates,
    apply_policy,
    csv_text,
    dataset_to_csv,
    load_csv,
    sha256_of_file,
    validate,
)

SCHEMA_VERSION = 2

TABLE_LABELS = {m: m.replace("_", " ") for m in groupfair.TABLE_METRICS}

# the side and margin of every SVG the plot command draws
SVG_SIZE = 320
SVG_PAD = 24


def _out(prefix, suffix: str) -> Path:
    """The file ``<prefix><suffix>`` a command writes, its directory created.

    Every file the CLI writes is named here: the suffix is appended to the
    ``--out`` prefix as given, dots included.
    """
    path = Path(f"{Path(prefix)}{suffix}")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _report(args, d: Dataset, policy_desc: dict, **blocks) -> dict:
    """A report: the tool and schema versions, the input dataset, the policy
    and the seeds, then ``blocks``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "dataset": {"path": str(args.data), "sha256": sha256_of_file(args.data), "n": len(d)},
        "policy": policy_desc,
        "seeds": {"cli": args.seed},
        **blocks,
    }


def _schema_from_args(args) -> ColumnSchema:
    feature_cols = None
    if getattr(args, "features", None):
        feature_cols = [c for c in args.features.split(",") if c]
        # the prediction column is read as a feature; _load_with_pred splits it off
        pred_col = getattr(args, "pred_col", None)
        if pred_col and pred_col not in feature_cols:
            feature_cols.append(pred_col)
    return ColumnSchema(
        s_col=args.s_col,
        y_col=args.y_col,
        score_col=args.score_col,
        weight_col=args.weight_col,
        feature_cols=feature_cols,
        legit_cols=tuple(args.legit.split(",")) if getattr(args, "legit", None) else (),
        flip_score=getattr(args, "flip_score", False),
    )


def _load_with_pred(args) -> tuple[Dataset, PredictionSet | None, dict]:
    """Load the dataset and derive predictions from the policy flags."""
    d = load_csv(args.data, _schema_from_args(args))
    pred_col = getattr(args, "pred_col", None)
    if pred_col:
        # the prediction column is read as a feature and must not stay one
        if pred_col not in d.feature_names:
            raise DataError(f"missing prediction column {pred_col!r}")
        raw = d.feature_column(pred_col)
        if not np.isin(raw, (0.0, 1.0)).all():
            raise DataError(f"prediction column {pred_col!r} must be 0/1")
        if pred_col in d.legit_names:
            raise DataError(f"--legit names the prediction column {pred_col!r}")
        pred = PredictionSet.from_labels(raw.astype(int))
        keep = [n for n in d.feature_names if n != pred_col]
        d = d.with_(
            features=np.column_stack([d.feature_column(n) for n in keep]) if keep else None,
            feature_names=keep,
        )
        return d, pred, {"kind": "column", "column": pred_col}

    by_group = getattr(args, "threshold_by_group", None)
    if by_group:
        rules = {}
        for item in by_group:
            g_str, _, t_str = item.partition("=")
            try:
                rules[int(g_str)] = float(t_str)
            except ValueError:
                raise DataError(f"bad --threshold-by-group value {item!r}, expected g=t")
        if set(rules) != {0, 1}:
            raise DataError("--threshold-by-group must cover groups 0 and 1")
        policy = ThresholdPolicy.per_group(rules[0], rules[1])
    elif getattr(args, "threshold", None) is not None:
        policy = ThresholdPolicy.shared(args.threshold)
    else:
        return d, None, {"kind": "none"}
    return d, apply_policy(d, policy), {"kind": "threshold", "policy": policy.to_json_dict()}


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _default_metrics(d: Dataset, pred: PredictionSet | None) -> list[str]:
    out = []
    if pred is not None:
        out += [*groupfair.TABLE_METRICS, "equalized_odds", "equalizing_disincentives",
                "phi_fairness"]
    if d.score is not None:
        out += [
            "auc_fairness",
            "roc_equality",
            "class_balance_weak",
            "class_balance_strong",
            "calibration_parity",
            "good_calibration",
        ]
    if pred is not None and d.legit_names:
        out.append("conditional_demographic_parity")
    return out


def _percent(v) -> str:
    return "-" if v is None else f"{v * 100:.1f}%"


def _points(v) -> str:
    return "-" if v is None else f"{v:.1f}"


def render_markdown(report: dict) -> str:
    lines = [
        "# Fairness audit",
        "",
        f"- dataset: `{report['dataset']['path']}` ({report['dataset']['n']} records)",
        f"- digest: `{(report['dataset']['sha256'] or '-')[:16]}`",
        f"- policy: `{json.dumps(report['policy'], sort_keys=True)}`",
        f"- epsilon: {report['epsilon']}",
        "",
    ]
    metrics = report["metrics"]
    table_rows = [m for m in TABLE_LABELS if m in metrics]
    if table_rows:
        lines += [
            "## Group metrics",
            "",
            "| metric | s=0 | s=1 | diff | (%) |",
            "|---|---:|---:|---:|---:|",
        ]
        for mid in table_rows:
            r = metrics[mid]
            rel = "-" if r["rel_diff"] is None else f"{r['rel_diff']:+.1f}%"
            lines.append(
                f"| {TABLE_LABELS[mid]} | {_percent(r['group0'])} | {_percent(r['group1'])} "
                f"| {_points(r['diff'])} | {rel} |"
            )
        lines.append("")
    extra = [m for m in metrics if m not in TABLE_LABELS]
    if extra:
        lines += ["## Other metrics", ""]
        for mid in sorted(extra):
            r = metrics[mid]
            if r["group0"] is not None:
                lines.append(
                    f"- {mid}: s=0 {_percent(r['group0'])}, s=1 {_percent(r['group1'])}, "
                    f"gap {_points(r['gap'])}"
                )
            else:
                lines.append(f"- {mid}: gap {_points(r['gap'])} (pass: {r['passed']})")
        lines.append("")
    if "disparate_impact" in report:
        di = report["disparate_impact"]
        lines += [
            "## Disparate impact",
            "",
            f"- ratio: {di['ratio']:.4f} (four-fifths flag: {di['flagged']})",
            f"- SPD: {di['spd']:.4f}  NSPD: "
            + ("-" if di["nspd"] is None else f"{di['nspd']:.4f}")
            + "  EOD: "
            + ("-" if di["eod"] is None else f"{di['eod']:.4f}"),
        ]
        if "interval" in report:
            ci = report["interval"]
            lines.append(
                f"- ratio estimate {ci['point']:.4f}, {int(ci['level'] * 100)}% CI "
                f"[{ci['lo']:.4f}, {ci['hi']:.4f}] ({ci['method']})"
            )
        lines.append("")
    if "independence" in report:
        ind = report["independence"]
        lines += ["## Independence", ""]
        for k in sorted(ind):
            v = ind[k]
            lines.append(f"- {k}: " + ("-" if v is None else f"{v:.4f}"))
        lines.append("")
    if "individual" in report:
        indiv = report["individual"]
        lines += ["## Individual fairness", ""]
        if "lipschitz" in indiv:
            lp = indiv["lipschitz"]
            lines.append(
                f"- lipschitz violations: {lp['violations']} of {lp['checked_pairs']} pairs "
                f"(mode {lp['mode']}, scale {lp['scale']})"
            )
        if "reconstruction" in indiv:
            rc = indiv["reconstruction"]
            if "auc" in rc:
                lines.append(
                    f"- reconstruction attacker AUC: {rc['auc']:.4f} ({rc['folds']} folds)"
                )
            else:
                lines.append(f"- reconstruction: undefined ({rc['undefined']})")
        lines.append("")
    return "\n".join(lines)


def _defined(measure):
    try:
        return measure()
    except depmeasure.ConstantInputError:
        return None


def cmd_audit(args) -> int:
    d, pred, policy_desc = _load_with_pred(args)
    if pred is None:
        raise DataError("audit needs --threshold, --threshold-by-group or --pred-col")

    limit = groupfair.max_calibration_bins(len(d))
    if d.score is not None and not 1 <= args.bins <= limit:
        raise DataError(
            f"--bins must be between 1 and {limit} for {len(d)} scored records, got {args.bins}"
        )
    if args.metrics:
        wanted = [m for m in args.metrics.split(",") if m]
    else:
        wanted = _default_metrics(d, pred)
    # a defaulted metric that this dataset cannot support is reported as
    # undefined; an explicitly requested one fails the audit
    results = groupfair.group_metrics(
        wanted, d, pred, epsilon=args.epsilon, bins=args.bins, undefined_ok=not args.metrics,
    )
    metrics = {mid: asdict(r) for mid, r in results.items()}

    di = groupfair.disparate_impact(d, pred, threshold=args.di_threshold, epsilon=args.epsilon)
    report = _report(
        args, d, policy_desc, epsilon=args.epsilon, metrics=metrics, disparate_impact=asdict(di)
    )
    if args.ci != "none":
        report["interval"] = asdict(groupfair.impact_ci(
            d, pred, method=args.ci, level=args.ci_level, n_boot=args.boot, seed=args.seed
        ))

    prob, s, w = pred.prob, d.s.astype(float), d.weight
    # a measure undefined on this data (a constant input, or weights so small
    # that a variance or margin product underflows) is reported as null
    measures = {
        "pearson_yhat_s": lambda: depmeasure.pearson(prob, s, w),
        "maxcor_yhat_s": lambda: depmeasure.maximal_correlation(prob, s, w),
        "maxcor_yhat_s_given_y": lambda: depmeasure.conditional_maximal_correlation(
            prob, s, d.y, w
        ).max_value,
        "mutual_information_yhat_s_nats": lambda: depmeasure.mutual_information(prob, s, w),
        "mutual_information_y_s_nats": lambda: depmeasure.mutual_information(d.y, d.s, w),
    }
    report["independence"] = {k: _defined(f) for k, f in measures.items()}
    del s  # a float copy, not held through the individual audits

    if args.individual:
        indiv = {}
        have_features = d.features is not None and not np.isnan(d.features).any()
        if have_features and d.score is not None:
            indiv["lipschitz"] = asdict(indivfair.lipschitz_audit(
                d, scale=args.lipschitz_scale, seed=args.seed
            ))
        if have_features or (d.features is None and d.score is not None):
            try:
                indiv["reconstruction"] = asdict(indivfair.reconstruction_audit(
                    d, pred, folds=5, seed=args.seed
                ))
            except DegenerateGroupError as exc:
                indiv["reconstruction"] = {"undefined": str(exc)}
        if indiv:
            report["individual"] = indiv

    json_text = _dump_json(report, _out(args.out, ".json") if args.out else None)
    md_text = render_markdown(report)
    if args.out:
        _out(args.out, ".md").write_text(md_text, encoding="utf-8")
    sys.stdout.write(md_text if args.format == "md" else json_text)
    return 0


# ---------------------------------------------------------------------------
# mitigate
# ---------------------------------------------------------------------------


def _evaluation(d: Dataset, pred: PredictionSet | None, epsilon: float) -> dict:
    """A report's ``before`` or ``after`` block: each group's weighted label
    rate, and the metric table of the decisions ``pred``, if any."""
    label_rates = {str(g): rate for g, rate in _base_rates(d)[0].items()}
    if label_rates["0"] is not None and label_rates["1"] is not None:
        label_rates["gap"] = abs(label_rates["1"] - label_rates["0"])
    metrics = {} if pred is None else groupfair.group_metrics(
        groupfair.TABLE_METRICS, d, pred, epsilon=epsilon
    )
    return {"label_rates": label_rates, "metrics": {mid: asdict(r) for mid, r in metrics.items()}}


def cmd_mitigate(args) -> int:
    d, pred, policy_desc = _load_with_pred(args)
    before = _evaluation(d, pred, args.epsilon)
    artifacts: dict[str, str] = {}
    # the after-block is evaluated on the written dataset with these decisions
    after_d, after_pred = d, pred
    if args.method == "train":
        if args.penalty == "none":
            spec = mitigate.PenaltySpec.none()
        elif args.penalty == "dp_correlation":
            spec = mitigate.PenaltySpec.dp_correlation(args.lam)
        elif args.penalty == "eo_correlation":
            spec = mitigate.PenaltySpec.eo_correlation(args.lam0, args.lam1)
        else:  # dp_maxcor: --penalty's choices admit no other value
            spec = mitigate.PenaltySpec.dp_maxcor(args.lam, degree=args.degree)
        model = mitigate.train_logistic(d, penalty=spec, link=args.link)
        if model.diverged or not model.converged:
            failure = "diverged (separable data)" if model.diverged else "did not converge"
            print(f"warning: training {failure} after {model.n_iter} iterations", file=sys.stderr)
        after_d = d.with_(score=model.predict_score(d.features))
        block = {
            "penalty": args.penalty,
            "converged": model.converged,
            "diverged": model.diverged,
            "n_iter": model.n_iter,
            # null for a constant fitted score
            "score_s_correlation": _defined(lambda: depmeasure.pearson(
                after_d.score, after_d.s.astype(float), after_d.weight
            )),
        }
        artifacts["model"] = str(_out(args.out, ".model.json"))
        model.save(artifacts["model"])
        artifacts["dataset"] = str(_out(args.out, ".scored.csv"))
        after_pred = (
            apply_policy(after_d, ThresholdPolicy.shared(args.threshold))
            if args.threshold is not None
            else None
        )
    else:
        features = [c for c in args.features.split(",") if c] if args.features else None
        res = {
            "reweigh": lambda: mitigate.reweigh(d),
            "massage": lambda: mitigate.massage_labels(d, eps=args.eps),
            "repair": lambda: mitigate.di_remove(d, features=features, amount=args.amount),
            "thresholds": lambda: mitigate.per_group_thresholds(d, objective=args.objective),
            "equalize-odds": lambda: mitigate.equalize_odds(d, criterion=args.criterion),
        }[args.method]()
        # the method block is the result's fields less its artifact, a
        # corrected dataset or a decision policy
        block = {
            f.name: getattr(res, f.name) for f in fields(res) if f.name not in ("dataset", "policy")
        }
        if args.method == "reweigh":
            block["factors"] = {f"{sv},{yv}": w for (sv, yv), w in sorted(res.factors.items())}
        if hasattr(res, "policy"):
            artifacts["policy"] = str(_out(args.out, ".policy.json"))
            _dump_json(res.policy.to_json_dict(), Path(artifacts["policy"]))
            after_pred = apply_policy(d, res.policy)
        else:
            after_d = res.dataset
            artifacts["dataset"] = str(_out(args.out, ".corrected.csv"))
    if "dataset" in artifacts:
        Path(artifacts["dataset"]).write_text(dataset_to_csv(after_d), encoding="utf-8")
    after = _evaluation(after_d, after_pred, args.epsilon)

    report = _report(
        args, d, policy_desc,
        method={"method": args.method, **block}, artifacts=artifacts, before=before, after=after,
    )
    text = _dump_json(report, _out(args.out, ".report.json"))
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def _svg(elements: list[str]) -> str:
    """A static SVG_SIZE-square picture: a white ground, then ``elements``."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
        + "".join(e + "\n" for e in elements)
        + "</svg>\n"
    )


def _roc_csv(curve: rocstats.RocCurve) -> str:
    return csv_text(
        ["fpr", "tpr", "threshold"],
        [curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist()],
    )


def _roc_svg(curves: list[tuple[str, rocstats.RocCurve]]) -> str:
    """One polyline per named curve, with its name, over the dashed diagonal."""
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    span = SVG_SIZE - 2 * SVG_PAD

    def sx(v: float) -> float:
        return SVG_PAD + v * span

    def sy(v: float) -> float:
        return SVG_SIZE - SVG_PAD - v * span

    parts = [
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#999" stroke-dasharray="4 3"/>'
    ]
    for k, (name, curve) in enumerate(curves):
        pts = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t in zip(curve.fpr, curve.tpr))
        color = colors[k % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{SVG_PAD + 4}" y="{SVG_PAD + 14 + 14 * k}" fill="{color}" '
            f'font-size="11" font-family="sans-serif">{name}</text>'
        )
    return _svg(parts)


def cmd_plot(args) -> int:
    d = load_csv(args.data, _schema_from_args(args))
    # one CSV row and one SVG bar per bin; the limit admits the default 20
    limit = max(len(d), 20)
    if args.kind == "score-hist" and not 1 <= args.bins <= limit:
        raise DataError(
            f"--bins must be between 1 and {limit} for {len(d)} records, got {args.bins}"
        )

    if args.kind == "roc":
        curve = rocstats.roc_curve(d)
        files = [(".csv", _roc_csv(curve)), (".svg", _roc_svg([("all", curve)]))]
    elif args.kind == "roc-by-group":
        curves = [(f"s={g}", c) for g, c in enumerate(rocstats.group_roc_curves(d))]
        files = [(f".s{g}.csv", _roc_csv(c)) for g, (_, c) in enumerate(curves)]
        files.append((".svg", _roc_svg(curves)))
    else:  # score-hist: --kind's choices admit no other value
        edges = np.linspace(0.0, 1.0, args.bins + 1)
        counts, _ = np.histogram(d.require_scores(), bins=edges, weights=d.weight)
        top = max(float(counts.max()), 1.0)
        span = SVG_SIZE - 2 * SVG_PAD
        bars = []
        for k in range(args.bins):
            x = SVG_PAD + span * k / args.bins
            h = span * counts[k] / top
            bars.append(
                f'<rect x="{x:.2f}" y="{SVG_SIZE - SVG_PAD - h:.2f}" '
                f'width="{span / args.bins:.2f}" '
                f'height="{h:.2f}" fill="#1f77b4" stroke="white" stroke-width="0.5"/>'
            )
        files = [
            (".csv", csv_text(["lo", "hi", "weight"],
                              [edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()])),
            (".svg", _svg(bars)),
        ]

    written = []
    for suffix, text in files:
        path = _out(args.out, suffix)
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    sys.stdout.write("\n".join(written) + "\n")
    return 0


# ---------------------------------------------------------------------------
# synth / validate
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            payload = json.load(fh)
        spec = synth.BetaSpec.from_json_dict(payload.get("cells", payload))
    elif args.preset == "uniform":
        spec = synth.uniform_spec()
    else:
        spec = synth.operating_point_spec()
    d = synth.sample_scores(spec, args.n, args.seed)
    csv_path = _out(args.out, ".csv")
    csv_path.write_text(dataset_to_csv(d), encoding="utf-8")
    sidecar = {
        "cells": spec.to_json_dict(),
        "n": args.n,
        "seed": args.seed,
        "generator": "philox4x64 keyed by (seed, 0); see fairaudit.synth docs",
        "tool_version": __version__,
    }
    _dump_json(sidecar, _out(args.out, ".spec.json"))
    sys.stdout.write(f"{csv_path}\n")
    return 0


def cmd_validate(args) -> int:
    d = load_csv(args.data, _schema_from_args(args))
    sys.stdout.write(_dump_json(asdict(validate(d)), None))
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for a float option that NaN or infinity would corrupt."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for a finite float option that must be at least 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _int_between(lo: int, hi: int, hi_text: str | None = None):
    """argparse type for an integer option from lo to hi."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            shown = hi_text or hi
            raise argparse.ArgumentTypeError(f"must be between {lo} and {shown}, got {text!r}")
        return value

    return parse


# --seed: an integer every seeded generator accepts
_seed = _int_between(0, 2**63 - 1, "2^63 - 1")


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s-col", default="s", help="group column name")
    p.add_argument("--y-col", default="y", help="outcome column name")
    p.add_argument("--score-col", default="score", help="score column name")
    p.add_argument("--weight-col", default="w", help="weight column name")
    p.add_argument("--features", default=None, help="comma-separated feature columns")
    p.add_argument("--flip-score", action="store_true", help="use 1 - score (credit-score data)")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=None, help="shared decision threshold")
    p.add_argument(
        "--threshold-by-group",
        action="append",
        default=None,
        metavar="G=T",
        help="per-group threshold, repeatable (e.g. 0=0.55)",
    )
    p.add_argument("--pred-col", default=None, help="column with 0/1 predictions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairaudit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("audit", help="group/individual fairness report")
    pa.add_argument("data")
    _add_schema_flags(pa)
    _add_policy_flags(pa)
    pa.add_argument("--metrics", default=None, help="comma-separated metric ids")
    pa.add_argument("--epsilon", type=_finite_float, default=0.05)
    pa.add_argument("--bins", type=int, default=10)
    pa.add_argument("--legit", default=None, help="legitimate columns for conditional parity")
    pa.add_argument("--di-threshold", type=_finite_float, default=0.8)
    pa.add_argument("--ci", choices=["bootstrap", "asymptotic", "none"], default="bootstrap")
    pa.add_argument("--ci-level", type=float, default=0.95)
    # up to 1000 times the default: a replicate that resamples records costs O(n)
    pa.add_argument("--boot", type=_int_between(100, 10**6), default=1000)
    pa.add_argument("--individual", action=argparse.BooleanOptionalAction, default=True)
    pa.add_argument("--lipschitz-scale", type=_non_negative_float, default=1.0)
    pa.add_argument("--seed", type=_seed, default=0)
    pa.add_argument("--format", choices=["json", "md"], default="json")
    pa.add_argument("--out", default=None, help="output path prefix")
    pa.set_defaults(func=cmd_audit)

    pm = sub.add_parser("mitigate", help="correct discrimination")
    pm.add_argument("data")
    _add_schema_flags(pm)
    _add_policy_flags(pm)
    pm.add_argument(
        "--method",
        required=True,
        choices=["massage", "reweigh", "repair", "train", "thresholds", "equalize-odds"],
    )
    pm.add_argument("--out", required=True, help="output path prefix")
    pm.add_argument("--eps", type=_finite_float, default=0.0, help="massage: target label-rate gap")
    pm.add_argument("--amount", type=float, default=1.0, help="repair: amount in [0, 1]")
    pm.add_argument(
        "--penalty",
        choices=["none", "dp_correlation", "eo_correlation", "dp_maxcor"],
        default="none",
        help="train: penalty kind",
    )
    pm.add_argument("--lam", type=_finite_float, default=0.0)
    pm.add_argument("--lam0", type=_finite_float, default=0.0)
    pm.add_argument("--lam1", type=_finite_float, default=0.0)
    # the max-correlation basis is n x degree; monomials of a score in [0, 1]
    # are nearly collinear well before degree 10
    pm.add_argument("--degree", type=_int_between(1, 10), default=3)
    pm.add_argument("--link", choices=["logistic", "probit"], default="logistic")
    pm.add_argument("--objective", choices=["dp", "eo_tpr"], default="dp")
    pm.add_argument("--criterion", choices=["full", "opportunity"], default="full")
    pm.add_argument("--epsilon", type=_finite_float, default=0.05)
    pm.add_argument("--seed", type=_seed, default=0)
    pm.set_defaults(func=cmd_mitigate)

    pp = sub.add_parser("plot", help="emit plot data (CSV + SVG)")
    pp.add_argument("data")
    _add_schema_flags(pp)
    pp.add_argument("--kind", required=True, choices=["roc", "score-hist", "roc-by-group"])
    pp.add_argument("--bins", type=int, default=20)
    pp.add_argument("--out", required=True, help="output path prefix")
    pp.set_defaults(func=cmd_plot)

    ps = sub.add_parser("synth", help="sample a synthetic scored dataset")
    ps.add_argument("--spec", default=None, help="JSON file with Beta cell parameters")
    ps.add_argument("--preset", choices=["uniform", "operating-point"], default="uniform")
    ps.add_argument("--n", type=_int_between(1, 10**8), required=True)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--out", required=True, help="output path prefix")
    ps.set_defaults(func=cmd_synth)

    pv = sub.add_parser("validate", help="report-only dataset sanity check")
    pv.add_argument("data")
    _add_schema_flags(pv)
    pv.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
