"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none is configurable.
"""

import itertools
import time

import numpy as np
import pytest

from fairaudit._common import ks_distance
from fairaudit.cli import main as cli_main
from fairaudit.data import (
    TOY_CSV,
    TOY_THRESHOLD,
    Dataset,
    ThresholdPolicy,
    apply_policy,
)
from fairaudit import depmeasure, groupfair, mitigate, rocstats, synth

from test_depmeasure import joint_pearson
from test_mitigate import applied_gaps, applied_rates, in_hull, make_logistic_data
from test_rocstats import brute_force_concordance, proportions_dataset
from test_synth import ks_two_sample_critical


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_toy_table_reproduction(toy, toy_pred):
    t0 = time.perf_counter()
    printed = {}
    for metric in groupfair.TABLE_METRICS:
        r = groupfair.group_metric(metric, toy, toy_pred)
        fmt = lambda v: "-" if v is None else f"{v * 100:.1f}"
        rel = "-" if r.rel_diff is None else f"{r.rel_diff:+.1f}"
        printed[metric] = (fmt(r.group0), fmt(r.group1), rel)
    assert printed["statistical_parity"] == ("25.0", "75.0", "+200.0")
    assert printed["equal_opportunity"] == ("40.0", "88.9", "+122.2")
    assert printed["predictive_equality"] == ("0.0", "57.1", "-")
    assert printed["conditional_accuracy"] == ("50.0", "75.0", "+50.0")
    assert printed["predictive_parity"] == ("100.0", "66.7", "-33.3")
    assert printed["accuracy_equality"] == ("62.5", "68.8", "+10.0")
    assert printed["treatment_equality"] == ("-", "25.0", "-")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"seven table rows at printed precision in {elapsed:.3f}s")


def test_criterion_02_threshold_narrative(toy):
    t_opt, acc = rocstats.best_accuracy_threshold(toy)
    assert 15 / 24 < t_opt < 16 / 24
    assert acc == 17 / 24  # error 7/24 = 29.17%, exact
    pred = apply_policy(toy, ThresholdPolicy.shared(t_opt))
    rate0 = float(np.mean(pred.prob[toy.s == 0]))
    rate1 = float(np.mean(pred.prob[toy.s == 1]))
    assert rate0 == 0.0 and rate1 > 0  # DP ratio exactly 0

    t_fair, ratio, err = rocstats.fairest_threshold(toy)
    assert 10 / 24 < t_fair < 11 / 24
    assert ratio == 1 / 3
    assert err == 8 / 24  # 33.33%, exact
    report(2, "optimal error 7/24 @ ratio 0; fair error 8/24 @ ratio 1/3, exact")


def test_criterion_03_disparate_impact(toy, toy_pred):
    di = groupfair.disparate_impact(toy, toy_pred)
    assert di.ratio == 1 / 3
    assert di.flagged  # four-fifths rule
    t_hat = groupfair.impact_point_estimate(toy, toy_pred)
    assert t_hat == (2 / 12) * (16 / 8) == 1 / 3
    report(3, "ratio exactly 1/3, flagged; estimator formula gives 1/3")


def test_criterion_04_confusion_figure_example():
    d, pred = proportions_dataset()
    sp = groupfair.group_metric("statistical_parity", d, pred)
    assert sp.group0 == sp.group1 == 0.5
    eo = groupfair.group_metric("equalized_odds", d, pred)
    assert eo.gap == 0.0
    acc = groupfair.group_metric("accuracy_equality", d, pred)
    assert acc.group0 == acc.group1 == 0.5
    ppv = groupfair.group_metric("predictive_parity", d, pred)
    assert {round(ppv.group0, 12), round(ppv.group1, 12)} == {0.4, 0.6}
    te = groupfair.group_metric("treatment_equality", d, pred)
    assert sorted((te.group0, te.group1)) == pytest.approx([2 / 3, 1.5], abs=1e-12)
    phi = groupfair.group_metric("phi_fairness", d, pred)
    assert phi.group0 == pytest.approx(0.0, abs=1e-15)
    assert phi.group1 == pytest.approx(0.0, abs=1e-15)
    report(4, "parity family exact, PPVs {40%, 60%}, FN/FP {1.5, 2/3}, phi = 0")


def test_criterion_05_auc_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            continue
        score = rng.integers(0, 10, size=n) / 9.0
        d = Dataset(s=np.zeros(n, dtype=int), y=y, score=score)
        assert rocstats.auc(rocstats.roc_curve(d)) == brute_force_concordance(score, y)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"200 datasets, trapezoid == concordance exactly, {elapsed:.2f}s")


def test_criterion_06_maximal_correlation():
    checked = 0
    for a, b, c in itertools.product(range(21), repeat=3):
        dd = 20 - a - b - c
        if dd < 0:
            continue
        P = np.array([[a, b], [c, dd]], dtype=float) / 20.0
        r, col = P.sum(axis=1), P.sum(axis=0)
        if min(r.min(), col.min()) == 0:
            continue
        assert depmeasure.maximal_correlation_joint(P) == pytest.approx(
            joint_pearson(P), abs=1e-9
        )
        checked += 1
    for px in (0.1, 0.3, 0.5, 0.7):
        for py in (0.2, 0.45, 0.8):
            P = np.outer([1 - px, px], [1 - py, py])
            assert depmeasure.maximal_correlation_joint(P) <= 1e-10

    rng = np.random.default_rng(60)
    x = rng.integers(0, 5, size=3000).astype(float)
    y = (x + rng.integers(0, 3, size=3000)) % 5.0
    exact = depmeasure.maximal_correlation(x, y)
    est = depmeasure.maximal_correlation(
        x, y, basis=depmeasure.BasisSpec(family="indicator", size=16)
    )
    assert est <= exact + 1e-6
    assert abs(est - exact) <= 1e-6
    report(6, f"{checked} binary joints == |pearson| @1e-9; basis within 1e-6")


def test_criterion_07_reweighting_factorizes(toy):
    from test_mitigate import TestReweigh

    err = TestReweigh.joint_factorization_error(mitigate.reweigh(toy).dataset)
    assert err <= 1e-12
    rng = np.random.default_rng(70)
    done = 0
    while done < 100:
        n = int(rng.integers(8, 80))
        d = Dataset(
            s=rng.integers(0, 2, size=n),
            y=rng.integers(0, 2, size=n),
            score=rng.random(n),
            weight=0.5 + rng.random(n),
        )
        if min(
            ((d.s == sv) & (d.y == yv)).sum() for sv in (0, 1) for yv in (0, 1)
        ) == 0:
            continue
        err = TestReweigh.joint_factorization_error(mitigate.reweigh(d).dataset)
        assert err <= 1e-12
        done += 1
    report(7, "toy + 100 random datasets factorize to 1e-12")


def test_criterion_08_quantile_repair():
    rng = np.random.default_rng(80)
    for _ in range(100):
        n0, n1 = int(rng.integers(3, 50)), int(rng.integers(3, 50))
        X = np.concatenate([rng.normal(0, 1, n0), rng.normal(1.5, 2.5, n1)])[:, None]
        d = Dataset(s=[0] * n0 + [1] * n1, y=rng.integers(0, 2, n0 + n1), features=X)

        identity = mitigate.di_remove(d, amount=0.0)
        assert np.array_equal(identity.dataset.features, X)

        res = mitigate.di_remove(d, amount=1.0)
        col = res.dataset.features[:, 0]
        for g in (0, 1):
            before = X[d.s == g, 0]
            order = np.argsort(before)
            assert np.all(np.diff(col[d.s == g][order]) > 0)
        ks = ks_distance(col[d.s == 0], col[d.s == 1])
        assert ks <= 1.0 / min(n0, n1) + 1e-12
    report(8, "100 datasets: identity at 0, ranks kept, KS <= 1/min group size")


def test_criterion_09_penalized_training():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90)

    # gradient vs central finite differences at 10 random points
    d_small, _, _ = make_logistic_data(rng, n=400, s_feature=True)
    wn = d_small.weight / d_small.weight.sum()
    Xs = (d_small.features - d_small.features.mean(axis=0)) / d_small.features.std(axis=0)
    y = d_small.y.astype(float)
    specs = [
        mitigate.PenaltySpec.dp_correlation(3.0),
        mitigate.PenaltySpec.eo_correlation(2.0, 4.0),
        mitigate.PenaltySpec.dp_maxcor(3.0),
    ]
    h = 1e-6
    for k in range(10):
        spec = specs[k % len(specs)]
        theta = rng.normal(scale=0.7, size=Xs.shape[1] + 1)
        _, grad = mitigate.objective_value_and_grad(theta, Xs, y, d_small.s, wn, spec, "logistic")
        fd = np.empty_like(grad)
        for j in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                mitigate.objective_value_and_grad(up, Xs, y, d_small.s, wn, spec, "logistic")[0]
                - mitigate.objective_value_and_grad(dn, Xs, y, d_small.s, wn, spec, "logistic")[0]
            ) / (2 * h)
        assert np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-10) <= 1e-5

    # lambda = 0 equals the plain fit
    d_mid, _, _ = make_logistic_data(rng, n=2000)
    plain = mitigate.train_logistic(d_mid)
    zero = mitigate.train_logistic(d_mid, mitigate.PenaltySpec.dp_correlation(0.0))
    assert np.max(np.abs(plain.coef - zero.coef)) <= 1e-8

    # the documented benchmark: n = 1e4, p = 5, group loads on feature 0
    d_big, _, _ = make_logistic_data(rng, n=10_000, p=5, s_feature=True)
    model = mitigate.train_logistic(d_big, mitigate.PenaltySpec.dp_correlation(1e3))
    assert model.converged
    cor = depmeasure.pearson(model.predict_score(d_big.features), d_big.s.astype(float))
    assert abs(cor) <= 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, f"FD @1e-5, lambda-0 match @1e-8, |cor|={abs(cor):.4f} <= 0.05, {elapsed:.1f}s")


def test_criterion_10_equalized_odds_postprocessing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    for trial in range(100):
        s, y, score = [], [], []
        for g in (0, 1):
            for yv in (0, 1):
                n_cell = int(rng.integers(50, 80))
                s += [g] * n_cell
                y += [yv] * n_cell
                loc = rng.uniform(0.3, 0.45) + (0.2 + 0.1 * rng.random()) * yv + 0.05 * g
                score += list(
                    np.clip(rng.normal(loc, rng.uniform(0.1, 0.2), n_cell), 0.01, 0.99)
                )
        d = Dataset(s=s, y=y, score=score)
        res = mitigate.equalize_odds(d, criterion="full")
        tpr_gap, fpr_gap = applied_gaps(d, res.policy)
        assert tpr_gap <= 1e-9
        assert fpr_gap <= 1e-9
        for g, point in enumerate(applied_rates(d, res.policy)):
            assert in_hull(d, g, point)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, f"100 datasets: applied |TPR gap|, |FPR gap| <= 1e-9, in both hulls, {elapsed:.1f}s")


def test_criterion_11_beta_invariance():
    t0 = time.perf_counter()
    n = 100_000
    for a in (0, 1, 2):
        for p0 in (0.25, 0.5, 0.75):
            ks = synth.invariance_check(a + 1.0, 1.0, p0, n, seed=110)
            kept = int(n * p0 ** (a + 1))
            assert ks <= ks_two_sample_critical(kept, n, level=0.01)
    ks_bad = synth.invariance_check(2.0, 2.0, 0.5, n, seed=110)
    kept_bad = int(n * 0.5)
    assert ks_bad > ks_two_sample_critical(kept_bad, n, level=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(11, f"power laws under the 1% KS bound, Beta(2,2) above it, {elapsed:.1f}s")


def test_criterion_12_operating_point():
    spec = synth.operating_point_spec()
    d = synth.sample_scores(spec, 100_000, seed=120)
    tpr = float(np.mean(d.score[d.y == 1] > 0.6))
    fpr = float(np.mean(d.score[d.y == 0] > 0.6))
    assert abs(tpr - 0.663) <= 0.01
    assert abs(fpr - 0.096) <= 0.01
    report(12, f"committed spec: TPR {tpr:.4f} (0.663), FPR {fpr:.4f} (0.096)")


def test_criterion_13_cli_determinism(tmp_path, capsys):
    src = tmp_path / "toy.csv"
    src.write_text(TOY_CSV, encoding="utf-8")
    argv = [
        "audit", str(src),
        "--threshold", str(TOY_THRESHOLD),
        "--seed", "13",
        "--boot", "300",
    ]
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    report(13, f"two audit runs byte-identical ({len(a)} bytes)")
