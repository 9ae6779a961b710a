"""The BFGS trainer against the gradient-descent loop it replaced.

``ref_train_gd`` is the earlier trainer: full-batch gradient descent with an
Armijo backtracking step that doubles each iteration up to 1e4.  It is kept
here as the reference.  The quasi-Newton solver must reach an objective no
higher than it, the same unpenalized coefficients, and the same
reconstruction fold AUCs.
"""

import math

import numpy as np
import pytest

from fairaudit import indivfair, mitigate, synth
from fairaudit.data import Dataset
from fairaudit.mitigate import LinearModel, PenaltySpec, objective_value_and_grad

from test_mitigate import PENALTY_SPECS, make_logistic_data, standardized_objective


def ref_train_gd(d, penalty=PenaltySpec.none(), link="logistic", tol=1e-7, max_iter=2000):
    """The gradient-descent trainer, as it was before the BFGS solver."""
    X = d.features
    wn = d.weight / d.weight.sum()
    mu = np.sum(wn[:, None] * X, axis=0)
    sd = np.sqrt(np.sum(wn[:, None] * (X - mu) ** 2, axis=0))
    sd = np.where(sd > 0, sd, 1.0)
    Xs = (X - mu) / sd
    y = d.y.astype(float)

    penalty_active = penalty.kind != "none" and max(penalty.lam, penalty.lam0, penalty.lam1) > 0
    if penalty_active:
        base = ref_train_gd(d, PenaltySpec.none(), link, tol, max_iter)
        theta = np.concatenate((base.coef * sd, [base.intercept + float(np.sum(base.coef * mu))]))
    else:
        theta = np.zeros(X.shape[1] + 1)
    step = 1.0
    converged = False
    diverged = False
    it = 0
    value, grad = objective_value_and_grad(theta, Xs, y, d.s, wn, penalty, link)
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            converged = True
            break
        step = min(step * 2.0, 1e4)
        while True:
            cand = theta - step * grad
            cand_value, cand_grad = objective_value_and_grad(cand, Xs, y, d.s, wn, penalty, link)
            if cand_value <= value - 1e-4 * step * gnorm**2:
                break
            step *= 0.5
            if step < 1e-20:
                cand, cand_value, cand_grad = theta, value, grad
                break
        if step < 1e-20:
            break
        theta, value, grad = cand, cand_value, cand_grad
        if np.linalg.norm(theta) > 1e3:
            diverged = True
            break

    if not penalty_active and not diverged:
        z = Xs @ theta[:-1] + theta[-1]
        if bool((z != 0).all() and ((z > 0) == (y == 1)).all()):
            diverged = True
            converged = False

    return LinearModel(
        coef=theta[:-1] / sd,
        intercept=float(theta[-1] - np.sum(theta[:-1] * mu / sd)),
        link=link,
        converged=converged,
        diverged=diverged,
        n_iter=it,
        standardization={"mean": mu, "scale": sd},
    )


@pytest.mark.parametrize("spec", PENALTY_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("link", ["logistic", "probit"])
def test_same_optimum_as_gradient_descent(spec, link):
    d, _, _ = make_logistic_data(np.random.default_rng(17), n=400, s_feature=True)
    new = mitigate.train_logistic(d, spec, link=link)
    old = ref_train_gd(d, spec, link)
    new_value, _ = standardized_objective(new, d, spec)
    old_value, _ = standardized_objective(old, d, spec)
    # both stop at a gradient norm below 1e-7, so they reach one optimum to
    # well within 1e-5 and their values differ by rounding, about 1e-14
    assert new.converged and old.converged
    assert np.max(np.abs(new.coef - old.coef)) <= 1e-5
    assert abs(new.intercept - old.intercept) <= 1e-5
    assert new_value <= old_value + 1e-12


def test_documented_benchmark_beats_gradient_descent():
    """n = 1e4, p = 5, dp_correlation lambda = 1e3: gradient descent stops
    at max_iter, and BFGS converges to a lower objective."""
    d, _, _ = make_logistic_data(np.random.default_rng(2), n=10_000, s_feature=True)
    spec = PenaltySpec.dp_correlation(1e3)
    new = mitigate.train_logistic(d, spec)
    old = ref_train_gd(d, spec)
    assert new.converged and not old.converged
    assert standardized_objective(new, d, spec)[0] <= standardized_objective(old, d, spec)[0]


def test_reconstruction_fold_aucs_match_gradient_descent(monkeypatch):
    d = synth.sample_scores(synth.operating_point_spec(), 3000, 11)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((len(d), 3))
    X += np.outer(d.s, [0.8, 0.0, 0.4]) + np.outer(d.y, [0.5, 1.0, 0.0])
    d = Dataset(s=d.s, y=d.y, score=d.score, features=X, feature_names=("x1", "x2", "x3"))
    new = indivfair.reconstruction_audit(d, folds=5, seed=3)
    monkeypatch.setattr(mitigate, "train_logistic", lambda data: ref_train_gd(data))
    old = indivfair.reconstruction_audit(d, folds=5, seed=3)
    assert len(new.fold_aucs) == len(old.fold_aucs) == 5
    for a, b in zip(new.fold_aucs, old.fold_aucs):
        assert math.isclose(a, b, rel_tol=0, abs_tol=1e-6)
