import json

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from fairaudit.synth import (
    BetaSpec,
    _Stream,
    beta_sample,
    invariance_check,
    operating_point_spec,
    sample_scores,
    uniform_spec,
)


def ks_two_sample_critical(n1: int, n2: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at the given significance level."""
    coeff = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
    if level not in coeff:
        raise ValueError(f"unsupported level {level}; use one of {sorted(coeff)}")
    return coeff[level] * np.sqrt((n1 + n2) / (n1 * n2))


class TestBetaSpec:
    def test_rejects_bad_shapes(self):
        cells = {c: (1.0, 1.0, 0.25) for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
        cells[(0, 0)] = (0.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="positive"):
            BetaSpec(cells=cells)

    def test_rejects_bad_probs(self):
        cells = {c: (1.0, 1.0, 0.3) for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
        with pytest.raises(ValueError, match="sum"):
            BetaSpec(cells=cells)

    def test_json_round_trip(self):
        spec = operating_point_spec()
        again = BetaSpec.from_json_dict(spec.to_json_dict())
        assert again == spec


class TestSampler:
    def test_uniform_cells_mean(self):
        d = sample_scores(uniform_spec(), 100_000, seed=3)
        assert abs(float(np.mean(d.score)) - 0.5) <= 0.01

    def test_single_cell_constant_labels(self):
        cells = {c: (2.0, 2.0, 0.0) for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
        cells[(1, 0)] = (2.0, 2.0, 1.0)
        d = sample_scores(BetaSpec(cells=cells), 500, seed=0)
        assert set(d.y.tolist()) == {1} and set(d.s.tolist()) == {0}

    def test_seeded_determinism_bit_identical(self):
        spec = operating_point_spec()
        a = sample_scores(spec, 20_000, seed=42)
        b = sample_scores(spec, 20_000, seed=42)
        assert np.array_equal(a.score, b.score)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.y, b.y)
        c = sample_scores(spec, 20_000, seed=43)
        assert not np.array_equal(a.score, c.score)

    def test_beta_sample_matches_distribution(self):
        x = beta_sample(2.0, 5.0, 50_000, _Stream(7))
        grid = np.linspace(0.01, 0.99, 25)
        emp = np.searchsorted(np.sort(x), grid) / len(x)
        assert np.max(np.abs(emp - beta_dist.cdf(grid, 2, 5))) < 0.01

    def test_small_shape_boost_branch(self):
        x = beta_sample(0.5, 0.7, 50_000, _Stream(13))
        grid = np.linspace(0.02, 0.98, 25)
        emp = np.searchsorted(np.sort(x), grid) / len(x)
        assert np.max(np.abs(emp - beta_dist.cdf(grid, 0.5, 0.7))) < 0.01

    def test_operating_point_reproduced(self):
        d = sample_scores(operating_point_spec(), 100_000, seed=11)
        tpr = float(np.mean(d.score[d.y == 1] > 0.6))
        fpr = float(np.mean(d.score[d.y == 0] > 0.6))
        assert abs(tpr - 0.663) <= 0.01
        assert abs(fpr - 0.096) <= 0.01

    def test_committed_parameters_hit_targets_analytically(self):
        from importlib import resources

        payload = json.loads(
            resources.files("fairaudit.datasets")
            .joinpath("operating_point.json")
            .read_text()
        )
        for key, cell in payload["cells"].items():
            y = int(key.split(",")[0])
            sf = beta_dist.sf(0.6, cell["alpha"], cell["beta"])
            target = 0.663 if y == 1 else 0.096
            assert sf == pytest.approx(target, abs=1e-9)


class TestInvarianceCheck:
    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("p0", [0.25, 0.5, 0.75])
    def test_power_laws_within_ks_critical_value(self, a, p0):
        n = 100_000
        ks = invariance_check(a + 1.0, 1.0, p0, n, seed=5)
        kept = int(n * p0 ** (a + 1))  # E[#kept]: P[X <= p0] = p0^(a+1)
        assert ks <= ks_two_sample_critical(kept, n, level=0.01)

    def test_cubic_power_law_documented_tolerance(self):
        assert invariance_check(3.0, 1.0, 0.5, 100_000, seed=5) <= 0.02

    def test_uniform_small_p0(self):
        assert invariance_check(1.0, 1.0, 0.3, 100_000, seed=2) <= 0.02

    def test_symmetric_beta_is_not_invariant(self):
        ks = invariance_check(2.0, 2.0, 0.5, 100_000, seed=8)
        assert ks >= 0.05
        # the exact CDF distance is 2/9; sampling stays in that vicinity
        assert ks == pytest.approx(2 / 9, abs=0.03)

    def test_too_few_retained_samples(self):
        with pytest.raises(ValueError, match="increase n"):
            invariance_check(50.0, 1.0, 0.05, 2000, seed=0)

    def test_p0_domain(self):
        with pytest.raises(ValueError):
            invariance_check(1.0, 1.0, 1.0, 10_000, seed=0)


class TestProductConstruction:
    def test_power_product_is_beta_density(self):
        # x^a (1-x)^a' normalized against quadrature equals Beta(a+1, a'+1)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        grid = np.linspace(0.01, 0.99, 99)
        for a in (0, 1, 2, 3):
            for ap in (0, 1, 2, 3):
                unnorm = x**a * (1 - x) ** ap
                const = float(w @ unnorm)  # exact for polynomials
                density = grid**a * (1 - grid) ** ap / const
                expected = beta_dist.pdf(grid, a + 1, ap + 1)
                assert np.max(np.abs(density - expected)) < 1e-10

