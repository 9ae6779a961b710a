import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from fairaudit import mitigate, rocstats, synth

from fairaudit.data import Dataset, DegenerateGroupError, apply_policy
from fairaudit.depmeasure import pearson
from fairaudit.mitigate import (
    PenaltySpec,
    TrainOptions,
    di_remove,
    equalize_odds,
    massage_labels,
    objective_value_and_grad,
    per_group_thresholds,
    reweigh,
    train_logistic,
)
from fairaudit._common import _midranks, ks_distance


def make_logistic_data(rng, n=10_000, p=5, beta=None, intercept=-0.3, s_feature=False):
    """Synthetic benchmark: features standard normal, labels from a known
    logistic model.  With s_feature=True the group variable loads on the
    first feature, so an unpenalized fit produces group-correlated scores."""
    s = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, p))
    if s_feature:
        X[:, 0] += 1.5 * s
    beta = np.asarray(beta if beta is not None else [1.0, -0.8, 0.5, 0.0, 0.25])[:p]
    z = X @ beta + intercept
    y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(int)
    d = Dataset(s=s, y=y, features=X, feature_names=tuple(f"x{j}" for j in range(p)))
    return d, beta, intercept


PENALTY_SPECS = [
    PenaltySpec.none(),
    PenaltySpec.dp_correlation(3.0),
    PenaltySpec.eo_correlation(2.0, 4.0),
    PenaltySpec.dp_maxcor(3.0, degree=3),
]


def standardized_objective(model, d, spec):
    """Objective value and gradient at the model's standardized parameters,
    on the standardized features the trainer fitted."""
    mu, sd = model.standardization["mean"], model.standardization["scale"]
    theta = np.append(model.coef * sd, model.intercept + np.sum(model.coef * mu))
    wn = d.weight / d.weight.sum()
    return objective_value_and_grad(
        theta, (d.features - mu) / sd, d.y.astype(float), d.s, wn, spec, model.link
    )


class TestTrainLogistic:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(101)
        d, beta, intercept = make_logistic_data(rng, n=10_000)
        model = train_logistic(d)
        assert model.converged
        rel = np.abs(model.coef - beta) / np.maximum(np.abs(beta), 0.25)
        assert np.all(rel < 0.05)
        assert abs(model.intercept - intercept) < 0.1

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_label_class_is_degenerate(self, label):
        X = np.arange(8.0).reshape(4, 2)
        d = Dataset(s=[0, 1, 0, 1], y=[label] * 4, features=X)
        with pytest.raises(DegenerateGroupError, match="training requires both label classes"):
            train_logistic(d)

    def test_zero_lambda_matches_plain_fit(self):
        rng = np.random.default_rng(5)
        d, _, _ = make_logistic_data(rng, n=2000)
        plain = train_logistic(d, PenaltySpec.none())
        zero = train_logistic(d, PenaltySpec.dp_correlation(0.0))
        assert np.max(np.abs(plain.coef - zero.coef)) <= 1e-8
        assert abs(plain.intercept - zero.intercept) <= 1e-8

    @pytest.mark.parametrize("spec", PENALTY_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("link", ["logistic", "probit"])
    def test_gradient_matches_central_differences(self, spec, link):
        rng = np.random.default_rng(17)
        d, _, _ = make_logistic_data(rng, n=400, s_feature=True)
        wn = d.weight / d.weight.sum()
        mu = d.features.mean(axis=0)
        sd = d.features.std(axis=0)
        Xs = (d.features - mu) / sd
        y = d.y.astype(float)
        h = 1e-6
        for _ in range(10):
            theta = rng.normal(scale=0.8, size=d.features.shape[1] + 1)
            _, grad = objective_value_and_grad(theta, Xs, y, d.s, wn, spec, link)
            fd = np.empty_like(grad)
            for k in range(len(theta)):
                up, dn = theta.copy(), theta.copy()
                up[k] += h
                dn[k] -= h
                vu, _ = objective_value_and_grad(up, Xs, y, d.s, wn, spec, link)
                vd, _ = objective_value_and_grad(dn, Xs, y, d.s, wn, spec, link)
                fd[k] = (vu - vd) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-10)
            assert rel <= 1e-5

    @pytest.mark.parametrize("spec", PENALTY_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("link", ["logistic", "probit"])
    def test_converges_to_stationary_point(self, spec, link):
        rng = np.random.default_rng(17)
        d, _, _ = make_logistic_data(rng, n=400, s_feature=True)
        model = train_logistic(d, spec, link=link)
        assert model.converged and not model.diverged
        _, grad = standardized_objective(model, d, spec)
        assert np.linalg.norm(grad) <= TrainOptions().tol

    def test_line_search_rejects_steps_that_do_not_descend(self):
        # the maximal-correlation penalty is scale-free, so on these 11 rows
        # the fit reaches a point where only steps leaving the objective
        # unchanged pass an Armijo test written as value + c * step * slope;
        # accepting them stalled the fit until max_iter
        x = [1143.558, 676.48, 746.473, 469.102, 893.975, 421.904, -173.645, 1006.831,
             237.823, -535.752, 350.59]
        w = [2.247, 4.722, 1.544, 0.843, 4.37, 0.119, 4.486, 0.971, 2.119, 4.333, 0.137]
        d = Dataset(s=[0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1], y=[0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1],
                    features=np.array(x)[:, None], weight=w)
        model = train_logistic(d, PenaltySpec.dp_maxcor(5.0), link="probit")
        assert model.n_iter < 100
        assert np.isfinite(model.coef).all()

    def test_heavy_dp_penalty_decorrelates_scores(self):
        rng = np.random.default_rng(2)
        d, _, _ = make_logistic_data(rng, n=10_000, s_feature=True)
        baseline = train_logistic(d)
        base_cor = pearson(baseline.predict_score(d.features), d.s.astype(float))
        assert abs(base_cor) > 0.2  # the benchmark really is biased
        model = train_logistic(d, PenaltySpec.dp_correlation(1e3))
        assert model.converged and model.n_iter < 100
        cor = pearson(model.predict_score(d.features), d.s.astype(float))
        assert abs(cor) <= 0.05

    def test_perfect_separation_guard(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
        y = (X[:, 0] > 1.5).astype(int)
        d = Dataset(s=[0, 1] * 20, y=y, features=X, feature_names=("x0",))
        model = train_logistic(d, opts=TrainOptions(max_iter=100_000, tol=0.0))
        assert model.diverged
        assert not model.converged

    def test_perfect_separation_guard_probit(self):
        # the probit gradient underflows to exactly zero before the norm cap
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
        y = (X[:, 0] > 1.5).astype(int)
        d = Dataset(s=[0, 1] * 20, y=y, features=X, feature_names=("x0",))
        model = train_logistic(d, opts=TrainOptions(max_iter=5000, tol=0.0), link="probit")
        assert model.diverged
        assert not model.converged
        assert model.n_iter < 1000

    def test_probit_link_fits(self):
        rng = np.random.default_rng(33)
        n = 4000
        X = rng.normal(size=(n, 2))
        from scipy.special import ndtr

        y = (rng.random(n) < ndtr(X @ np.array([0.8, -0.5]))).astype(int)
        d = Dataset(s=rng.integers(0, 2, size=n), y=y, features=X)
        model = train_logistic(d, link="probit")
        assert model.converged
        assert np.all(np.abs(model.coef - [0.8, -0.5]) < 0.12)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        d, _, _ = make_logistic_data(rng, n=500)
        model = train_logistic(d)
        path = tmp_path / "model.json"
        model.save(path)
        from fairaudit.mitigate import LinearModel

        loaded = LinearModel.load(path)
        assert np.array_equal(loaded.coef, model.coef)
        assert loaded.predict_score(d.features[:5]).tolist() == model.predict_score(
            d.features[:5]
        ).tolist()


def ref_sigmoid(z):
    """The logistic function as it was before the branch-free form: one
    masked scatter per sign."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_same_bits(got, want):
    """Equal doubles bit for bit, NaN where ``want`` is NaN (its sign bit,
    which no output shows, is not compared)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# exp(-|z|) turns subnormal past |z| = 708.4 and 0 past 745.13; exp(|z|)
# would overflow past 709.78
_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                  708.39, -708.4, 709.78, -709.78, 709.79, -709.79, 745.13, -745.13,
                  745.14, -745.14, 36.7, -36.7, 1e308, -1e308]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.sampled_from(_SIGMOID_EDGES),
            st.floats(700.0, 750.0).flatmap(lambda v: st.sampled_from([v, -v])),
            st.floats(-1e-300, 1e-300),
            st.floats(-40.0, 40.0),
        ),
        max_size=80,
    ))
    @example([])
    @example(_SIGMOID_EDGES)
    def test_matches_masked_form(self, values):
        z = np.array(values, dtype=float)
        assert_same_bits(mitigate._sigmoid(z), ref_sigmoid(z))

    def test_matches_masked_form_on_random_bits(self):
        # long enough for numpy's vectorized exp to run full SIMD lanes
        z = np.random.default_rng(0).integers(0, 2**64, 1 << 16, dtype=np.uint64).view(float)
        z = np.concatenate([z, np.random.default_rng(1).normal(size=1 << 16) * 300.0])
        assert_same_bits(mitigate._sigmoid(z), ref_sigmoid(z))

    def test_one_sigmoid_per_penalized_evaluation(self, monkeypatch):
        rng = np.random.default_rng(5)
        d, _, _ = make_logistic_data(rng, n=500, s_feature=True)
        calls = []
        sigmoid = mitigate._sigmoid
        monkeypatch.setattr(mitigate, "_sigmoid", lambda z: calls.append(1) or sigmoid(z))
        wn = d.weight / d.weight.sum()
        theta = rng.normal(size=d.features.shape[1] + 1)
        value, grad = objective_value_and_grad(
            theta, d.features, d.y.astype(float), d.s, wn, PenaltySpec.dp_correlation(3.0),
            "logistic",
        )
        assert len(calls) == 1 and np.isfinite(value) and np.isfinite(grad).all()


class TestMassageLabels:
    def imbalance_data(self):
        # group 0: 8/10 positive; group 1: 2/10 positive
        y = [1] * 8 + [0] * 2 + [1] * 2 + [0] * 8
        s = [0] * 10 + [1] * 10
        score = [i / 21 for i in range(1, 21)]
        return Dataset(s=s, y=y, score=score)

    def test_three_pair_swaps_balance_rates(self):
        res = massage_labels(self.imbalance_data(), eps=0.0)
        assert len(res.swaps) == 3
        assert res.reached_target
        d2 = res.dataset
        assert d2.y[d2.s == 0].mean() == 0.5
        assert d2.y[d2.s == 1].mean() == 0.5

    def test_preserves_total_positive_count(self):
        d = self.imbalance_data()
        res = massage_labels(d, eps=0.0)
        assert res.dataset.y.sum() == d.y.sum()

    def test_already_balanced_is_identity(self):
        d = Dataset(
            s=[0, 0, 1, 1],
            y=[0, 1, 0, 1],
            score=[0.1, 0.9, 0.2, 0.8],
        )
        res = massage_labels(d, eps=0.1)
        assert res.swaps == []
        assert np.array_equal(res.dataset.y, d.y)

    def test_vacuous_target_never_swaps(self):
        res = massage_labels(self.imbalance_data(), eps=1.0)
        assert res.swaps == []

    def test_swaps_pick_records_nearest_boundary(self):
        d = self.imbalance_data()
        res = massage_labels(d, eps=0.0, threshold=0.5)
        for demoted, promoted in res.swaps:
            assert d.s[demoted] == 0 and d.y[demoted] == 1
            assert d.s[promoted] == 1 and d.y[promoted] == 0


class TestReweigh:
    def test_toy_factors(self, toy):
        res = reweigh(toy)
        assert res.factors[(0, 1)] == pytest.approx((8 / 24) * (14 / 24) / (5 / 24), abs=1e-15)
        assert res.factors[(1, 0)] == pytest.approx((16 / 24) * (10 / 24) / (7 / 24), abs=1e-15)
        assert res.factors[(0, 1)] == pytest.approx(0.93333333, abs=1e-8)
        assert res.factors[(1, 0)] == pytest.approx(0.95238095, abs=1e-8)

    @staticmethod
    def joint_factorization_error(d):
        W = d.weight.sum()
        err = 0.0
        for sv in (0, 1):
            for yv in (0, 1):
                p_cell = d.weight[(d.s == sv) & (d.y == yv)].sum() / W
                p_s = d.weight[d.s == sv].sum() / W
                p_y = d.weight[d.y == yv].sum() / W
                err = max(err, abs(p_cell - p_s * p_y))
        return err

    def test_toy_weighted_joint_factorizes(self, toy):
        res = reweigh(toy)
        assert self.joint_factorization_error(res.dataset) <= 1e-12

    def test_random_datasets_factorize(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 100:
            n = int(rng.integers(8, 60))
            d = Dataset(
                s=rng.integers(0, 2, size=n),
                y=rng.integers(0, 2, size=n),
                score=rng.random(n),
                weight=rng.random(n) + 0.5,
            )
            cells = {(sv, yv): ((d.s == sv) & (d.y == yv)).sum() for sv in (0, 1) for yv in (0, 1)}
            if min(cells.values()) == 0:
                continue
            assert self.joint_factorization_error(reweigh(d).dataset) <= 1e-12
            done += 1

    def test_weights_match_per_record_loop(self):
        rng = np.random.default_rng(56)
        n = 500
        d = Dataset(
            s=rng.integers(0, 2, size=n),
            y=rng.integers(0, 2, size=n),
            weight=rng.random(n) + 0.5,
            score=rng.random(n),
        )
        res = reweigh(d)
        loop = d.weight * np.array([res.factors[(sv, yv)] for sv, yv in zip(d.s, d.y)])
        assert np.array_equal(res.dataset.weight, loop)

    def test_independent_joint_keeps_unit_weights(self):
        d = Dataset(
            s=[0, 0, 1, 1] * 5,
            y=[0, 1, 0, 1] * 5,
            score=[0.5] * 20,
        )
        res = reweigh(d)
        assert np.allclose(res.dataset.weight, 1.0, atol=1e-15)

    def test_empty_cell_raises(self):
        d = Dataset(s=[0, 0, 1], y=[0, 1, 0], score=[0.1, 0.9, 0.5])
        from fairaudit.data import DegenerateGroupError

        with pytest.raises(DegenerateGroupError, match=r"cell \(s=1, y=1\)"):
            reweigh(d)


@pytest.mark.parametrize("levels", [1, 2, 3, 7, None])
def test_midranks_match_scipy_average_ranks(levels):
    rng = np.random.default_rng(levels or 0)
    for n in (1, 2, 5, 40, 1000):
        x = rng.random(n) if levels is None else rng.integers(0, levels, n) * 0.5
        assert np.array_equal(_midranks(x), rankdata(x, method="average"))


class TestDiRemove:
    def test_hand_quantile_average(self):
        d = Dataset(
            s=[0, 0, 0, 1, 1, 1],
            y=[0, 1, 0, 1, 0, 1],
            features=np.array([[1.0], [2.0], [3.0], [11.0], [12.0], [13.0]]),
            feature_names=("x0",),
        )
        res = di_remove(d, amount=1.0)
        col = res.dataset.features[:, 0]
        assert col[:3].tolist() == [6.0, 7.0, 8.0]
        assert col[3:].tolist() == [6.0, 7.0, 8.0]

    def test_amount_zero_is_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        d = Dataset(s=rng.integers(0, 2, size=20), y=rng.integers(0, 2, size=20), features=X)
        res = di_remove(d, amount=0.0)
        assert np.array_equal(res.dataset.features, X)

    def test_identical_distributions_fixed_point(self):
        vals = np.array([0.5, 1.5, 2.5, 4.0])
        X = np.concatenate([vals, vals])[:, None]
        d = Dataset(s=[0] * 4 + [1] * 4, y=[0, 1] * 4, features=X)
        res = di_remove(d, amount=1.0)
        assert np.max(np.abs(res.dataset.features - X)) <= 1e-12

    def test_random_rank_preservation_and_ks_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n0, n1 = int(rng.integers(3, 40)), int(rng.integers(3, 40))
            X = np.concatenate([rng.normal(size=n0), 2 + 3 * rng.normal(size=n1)])[:, None]
            d = Dataset(
                s=[0] * n0 + [1] * n1,
                y=rng.integers(0, 2, size=n0 + n1),
                features=X,
            )
            res = di_remove(d, amount=1.0)
            col = res.dataset.features[:, 0]
            for g, ng in ((0, n0), (1, n1)):
                before = X[d.s == g, 0]
                after = col[d.s == g]
                order = np.argsort(before)
                assert np.all(np.diff(after[order]) > 0)  # distinct values stay ordered
            ks = ks_distance(col[d.s == 0], col[d.s == 1])
            assert ks <= 1.0 / min(n0, n1) + 1e-12

    def test_feature_subset_only(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        d = Dataset(
            s=rng.integers(0, 2, size=30),
            y=rng.integers(0, 2, size=30),
            features=X,
            feature_names=("a", "b"),
        )
        res = di_remove(d, features=("a",), amount=1.0)
        assert np.array_equal(res.dataset.features[:, 1], X[:, 1])
        assert not np.array_equal(res.dataset.features[:, 0], X[:, 0])


def brute_force_threshold_pairs(d, objective):
    """Oracle: full enumeration of per-group candidate thresholds."""
    tables = {}
    for g in (0, 1):
        mask = d.s == g
        m, y, w = d.score[mask], d.y[mask], d.weight[mask]
        distinct = np.unique(m)
        cands = np.unique(np.concatenate(([0.0, 1.0], (distinct[:-1] + distinct[1:]) / 2)))
        rows = []
        for t in cands:
            pos = m > t
            value = (
                w[pos].sum() / w.sum()
                if objective == "dp"
                else w[pos & (y == 1)].sum() / w[y == 1].sum()
            )
            correct = w[pos & (y == 1)].sum() + w[~pos & (y == 0)].sum()
            rows.append((value, correct))
        tables[g] = rows
    best = None
    for v0, c0 in tables[0]:
        for v1, c1 in tables[1]:
            key = (round(abs(v0 - v1), 15), -(c0 + c1))
            if best is None or key < best:
                best = key
    return best[0], -best[1]


class TestPerGroupThresholds:
    def test_toy_dp_rate_half(self, toy):
        res = per_group_thresholds(toy, objective="dp")
        assert res.values == (0.5, 0.5)
        assert res.gap == 0.0
        assert not res.granular
        pred = apply_policy(toy, res.policy)
        positives = set((np.flatnonzero(pred.prob) + 1).tolist())
        assert positives == {5, 6, 11, 12, 17, 18, 19, 20, 21, 22, 23, 24}
        assert res.accuracy == 20 / 24

    def test_toy_eo_tpr(self, toy):
        res = per_group_thresholds(toy, objective="eo_tpr")
        assert res.gap == 0.0
        assert res.values == (1.0, 1.0)
        assert res.accuracy == 18 / 24
        assert res.degenerate  # only the all-TPR endpoint aligns exactly

    def test_identical_groups_equal_thresholds(self):
        y = [0, 1, 0, 1, 1, 0]
        m = [i / 7 for i in range(1, 7)]
        d = Dataset(s=[0] * 6 + [1] * 6, y=y + y, score=m + m)
        res = per_group_thresholds(d, objective="dp")
        assert res.policy.rules[0] == res.policy.rules[1]
        assert res.gap == 0.0

    def test_adjacent_doubles_policy_realizes_its_values(self):
        # the midpoint of 1.0 and the double below it rounds to 1.0, a
        # threshold that selects nobody
        below = float(np.nextafter(1.0, 0.0))
        d = Dataset(s=[0, 0, 1, 1], y=[1, 0, 1, 0], score=[1.0, below, 1.0, below])
        res = per_group_thresholds(d, objective="dp")
        pred = apply_policy(d, res.policy)
        assert (res.values, res.accuracy) == ((0.5, 0.5), 1.0)
        assert pred.prob.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_one_record_group_flagged(self):
        d = Dataset(s=[1] * 9 + [0], y=[0, 1] * 5, score=[i / 11 for i in range(1, 11)])
        res = per_group_thresholds(d, objective="dp")
        assert res.gap <= 1.0
        assert res.degenerate

    @pytest.mark.parametrize("objective", ["dp", "eo_tpr"])
    def test_matches_brute_force_oracle(self, objective):
        rng = np.random.default_rng(31)
        done = 0
        while done < 25:
            n = int(rng.integers(10, 40))
            s = rng.integers(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            ok = all(((s == g) & (y == 1)).sum() > 0 for g in (0, 1)) and all(
                (s == g).sum() > 0 for g in (0, 1)
            )
            if not ok:
                continue
            d = Dataset(s=s, y=y, score=rng.integers(0, 12, size=n) / 11.0)
            res = per_group_thresholds(d, objective=objective)
            oracle_gap, oracle_correct = brute_force_threshold_pairs(d, objective)
            assert round(res.gap, 15) == oracle_gap
            assert res.accuracy * d.weight.sum() == pytest.approx(oracle_correct, abs=1e-9)
            done += 1


def in_hull(d, group, point, tol=1e-9):
    """Point lies under the group's upper envelope and above its lower hull."""
    from fairaudit.mitigate import _group_geometries

    geo = _group_geometries(d)[group]
    pts = np.column_stack([geo.fpr, geo.tpr])

    def boundary(points, upper):
        hull = []
        for i in range(len(points)):
            while len(hull) >= 2:
                o, a = points[hull[-2]], points[hull[-1]]
                cross = (a[0] - o[0]) * (points[i][1] - o[1]) - (a[1] - o[1]) * (
                    points[i][0] - o[0]
                )
                if (cross >= 0) if upper else (cross <= 0):
                    hull.pop()
                else:
                    break
            hull.append(i)
        return points[hull]

    def value_at(poly, x, hi):
        xs, ys = poly[:, 0], poly[:, 1]
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        k = np.searchsorted(xs, x, side="right") - 1
        k2 = min(k + 1, len(xs) - 1)
        if xs[k2] == xs[k]:
            return max(ys[k], ys[k2]) if hi else min(ys[k], ys[k2])
        u = (x - xs[k]) / (xs[k2] - xs[k])
        return (1 - u) * ys[k] + u * ys[k2]

    upper = boundary(pts, upper=True)
    lower = boundary(pts, upper=False)
    f, t = point
    return (t <= value_at(upper, f, hi=True) + tol) and (t >= value_at(lower, f, hi=False) - tol)


def applied_rates(d, policy):
    """Each group's (fpr, tpr) under the policy, from the confusion counts of
    its decisions."""
    confusions = rocstats.group_confusions(d, apply_policy(d, policy))
    return [(r.fpr, r.tpr) for r in map(rocstats.rates, confusions)]


def applied_gaps(d, policy):
    """|TPR gap| and |FPR gap| that applying the policy realizes."""
    (f0, t0), (f1, t1) = applied_rates(d, policy)
    return abs(t0 - t1), abs(f0 - f1)


def applied_accuracy(d, policy):
    """The share of weight the policy's decisions get right, over both groups."""
    counts = rocstats.group_confusions(d, apply_policy(d, policy))
    return sum(c.tp + c.tn for c in counts) / sum(c.total for c in counts)


class TestEqualizeOdds:
    def test_identical_groups_single_deterministic_threshold(self):
        y = [0, 1, 0, 1, 1, 0, 1, 0]
        m = [i / 9 for i in range(1, 9)]
        d = Dataset(s=[0] * 8 + [1] * 8, y=y + y, score=m + m)
        res = equalize_odds(d, criterion="full")
        assert len(res.policy.rules[0].thresholds) == 1 and not res.mixed
        assert res.policy.rules[0] == res.policy.rules[1]
        assert applied_gaps(d, res.policy) == (0.0, 0.0)

    def test_constructed_two_group_geometry(self):
        # group 1's hull vertex (0.3, 0.7) maximizes accuracy; it lies under
        # group 0's upper chain, on the ray from (0, 0) through group 0's raw
        # point (0.15, 0.35).  A search over two-threshold segments stopped
        # at that raw point, accuracy 0.6.
        s0_scores = [0.9] * 10 + [0.7] * 10 + [0.1] * 20
        s0_y = [1] * 7 + [0] * 3 + [1] * 9 + [0] * 1 + [1] * 4 + [0] * 16
        s1_scores = [0.8] * 10 + [0.1] * 10
        s1_y = [1] * 7 + [0] * 3 + [1] * 3 + [0] * 7
        d = Dataset(
            s=[0] * 40 + [1] * 20,
            y=s0_y + s1_y,
            score=s0_scores + s1_scores,
        )
        res = equalize_odds(d, criterion="full")
        assert max(applied_gaps(d, res.policy)) <= 1e-12
        for g, (fpr, tpr) in enumerate(applied_rates(d, res.policy)):
            assert tpr == pytest.approx(0.7, abs=1e-12)
            assert fpr == pytest.approx(0.3, abs=1e-12)
            assert in_hull(d, g, (fpr, tpr))
        assert res.accuracy == pytest.approx(0.7, abs=1e-12)
        # group 0 mixes t = 1.0, 0.4 and 0.0 with probabilities 1/6, 2/3, 1/6
        rule = res.policy.rules[0]
        assert rule.thresholds == pytest.approx((0.0, 0.4, 1.0), abs=1e-15)
        assert rule.probs == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-12)
        assert res.policy.rules[1].thresholds == (0.45,)

    def test_toy_full_gaps_and_hull_membership(self, toy):
        res = equalize_odds(toy, criterion="full")
        assert max(applied_gaps(toy, res.policy)) <= 1e-12
        for g, point in enumerate(applied_rates(toy, res.policy)):
            assert in_hull(toy, g, point)

    def test_toy_opportunity(self, toy):
        res = equalize_odds(toy, criterion="opportunity")
        assert res.tpr_gap <= 1e-9
        assert res.tpr_gap <= 1 / 5  # the coarser group-0 TPR grid
        assert res.mixed  # one group realizes the common TPR by mixing
        assert res.accuracy == pytest.approx(21 / 24, abs=1e-12)
        # the common TPR, as both groups' applied decisions realize it
        assert res.target[1] == pytest.approx(8 / 9, abs=1e-12)
        for _, tpr in applied_rates(toy, res.policy):
            assert tpr == pytest.approx(8 / 9, abs=1e-12)

    def test_degenerate_hulls_flagged(self):
        d = Dataset(s=[0, 0, 1, 1], y=[0, 1, 0, 1], score=[0.5, 0.5, 0.5, 0.5])
        res = equalize_odds(d, criterion="full")
        assert res.degenerate
        assert applied_rates(d, res.policy)[0] in ((0.0, 0.0), (1.0, 1.0))

    def test_random_datasets_realize_common_point(self):
        rng = np.random.default_rng(314)
        for trial in range(20):
            n_cell = 50
            s, y, score = [], [], []
            for g in (0, 1):
                for yv in (0, 1):
                    s += [g] * n_cell
                    y += [yv] * n_cell
                    loc = 0.35 + 0.25 * yv + 0.08 * g
                    score += list(np.clip(rng.normal(loc, 0.18, size=n_cell), 0.01, 0.99))
            d = Dataset(s=s, y=y, score=score)
            res = equalize_odds(d, criterion="full")
            assert max(applied_gaps(d, res.policy)) <= 1e-12
            for g, point in enumerate(applied_rates(d, res.policy)):
                assert in_hull(d, g, point)
            opp = equalize_odds(d, criterion="opportunity")
            assert opp.tpr_gap <= 1e-9

    def test_weighted_zero_scores_realize_common_point(self):
        # records scored exactly 0 stay negative at t = 0.0, so a group's
        # curve can stop short of (1, 1) and its lower chain can bind
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(20, 300))
            s = rng.integers(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            score = rng.integers(0, 11, size=n) / 10.0
            w = rng.uniform(0.1, 3.0, size=n)
            d = Dataset(s=s, y=y, score=score, weight=w)
            try:
                res = equalize_odds(d, criterion="full")
            except DegenerateGroupError:
                continue
            assert max(applied_gaps(d, res.policy)) <= 1e-12, trial

    def test_small_synth_sample_reaches_the_hull_optimum(self):
        # the former search over two-threshold segments stopped at 0.8486;
        # the optimum needs three thresholds in group 1
        d = synth.sample_scores(synth.operating_point_spec(), 30, 4)
        res = equalize_odds(d, criterion="full")
        assert res.accuracy == pytest.approx(0.8654545454545455, abs=1e-12)
        assert len(res.policy.rules[1].thresholds) == 3 and res.mixed
        assert max(applied_gaps(d, res.policy)) <= 1e-12
