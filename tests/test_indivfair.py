import tracemalloc

import numpy as np
import pytest

from fairaudit import indivfair
from fairaudit.data import DataError, Dataset, PredictionSet
from fairaudit.indivfair import lipschitz_audit, reconstruction_audit


def smooth_score_dataset(rng, n=200, lipschitz=0.25):
    """Scores are a smooth (bounded-slope) function of whitened features, so
    the similarity inequality holds with the matching scale constant."""
    X = rng.normal(size=(n, 3))
    # the audit whitens with the empirical covariance; build the score from
    # the same whitened coordinates so the true constant is known
    cov = np.cov(X, rowvar=False, bias=True)
    vals, vecs = np.linalg.eigh(cov)
    white = X @ (vecs @ np.diag(vals**-0.5) @ vecs.T).T
    direction = np.array([1.0, 0.0, 0.0])
    z = white @ direction  # |z_i - z_j| <= d_x(i, j)
    score = 0.5 + (lipschitz / np.pi) * np.arctan(z)  # slope <= lipschitz/pi... < lipschitz
    return Dataset(s=rng.integers(0, 2, size=n), y=rng.integers(0, 2, size=n), score=score, features=X)


def ref_lipschitz_audit(d, scale, top_k=10, seed=0):
    """The Lipschitz audit before the feature-major kernel and the
    PAIR_BLOCK walk: white[bi] row gathers, np.linalg.norm over each (m, p)
    block, the ratio from np.where, and self pairs dropped from all sampled
    pairs before 500k-pair blocks; the pair stream is unchanged.  An
    unbounded ratio is reported as None."""
    n = len(d)
    out = d.score
    white = d.features @ indivfair._mahalanobis_factor(d.features, d.feature_names).T
    exact = n <= indivfair.EXACT_PAIR_LIMIT
    if exact:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=indivfair.SAMPLED_PAIRS)
        jj = rng.integers(0, n, size=indivfair.SAMPLED_PAIRS)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    violations, worst, top = 0, 0.0, []
    for start in range(0, len(ii), 500_000):
        bi, bj = ii[start : start + 500_000], jj[start : start + 500_000]
        dx = np.linalg.norm(white[bi] - white[bj], axis=1)
        dyv = np.abs(out[bi] - out[bj])
        bad = dyv > scale * dx
        violations += int(bad.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dx > 0, dyv / dx, np.where(dyv > 0, np.inf, 0.0))
        if len(ratio):
            worst = max(worst, float(np.max(ratio)))
        bad_idx = np.flatnonzero(bad)
        for k in bad_idx[np.argsort(-ratio[bad_idx], kind="stable")][:top_k]:
            top.append((float(ratio[k]), int(bi[k]), int(bj[k]), float(dyv[k]), float(dx[k])))
    top.sort(key=lambda t: -t[0])
    # an unbounded ratio is reported as None
    top_pairs = [
        {"i": i, "j": j, "d_y": dy_, "d_x": dx_, "ratio": None if r == np.inf else r}
        for r, i, j, dy_, dx_ in top[:top_k]
    ]
    return violations, len(ii), None if worst == np.inf else worst, top_pairs, exact


class TestLipschitzAudit:
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("p", range(1, 10))
    def test_matches_fancy_index_gather(self, monkeypatch, p, exact):
        if not exact:  # sample pairs at a small n
            monkeypatch.setattr(indivfair, "EXACT_PAIR_LIMIT", 40)
            monkeypatch.setattr(indivfair, "SAMPLED_PAIRS", 20_000)
        rng = np.random.default_rng(p)
        n = 120
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=rng.random(n),
                    features=X)
        res = lipschitz_audit(d, scale=0.5)
        got = (res.violations, res.checked_pairs, res.worst_ratio, res.top_pairs, res.exact)
        assert got == ref_lipschitz_audit(d, scale=0.5)
        assert res.exact == exact and res.violations > 0

    @pytest.mark.parametrize("case", ["dup-equal", "dup-differ"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("p", range(1, 10))
    def test_duplicate_rows_match_fancy_index_gather(self, monkeypatch, p, exact, case):
        """Duplicated feature rows give d_x = 0: with equal outputs (0/0,
        ratio 0) or with different ones (an unbounded ratio, reported as None)."""
        if not exact:
            monkeypatch.setattr(indivfair, "EXACT_PAIR_LIMIT", 40)
            monkeypatch.setattr(indivfair, "SAMPLED_PAIRS", 20_000)
        rng = np.random.default_rng(p)
        n = 120
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        X[n // 2 :] = X[: n // 2]
        score = rng.random(n)
        if case == "dup-equal":
            score[n // 2 :] = score[: n // 2]
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=score, features=X)
        res = lipschitz_audit(d, scale=0.5)
        got = (res.violations, res.checked_pairs, res.worst_ratio, res.top_pairs, res.exact)
        assert got == ref_lipschitz_audit(d, scale=0.5)
        assert res.exact == exact
        if case == "dup-equal":
            assert 0 < res.worst_ratio < np.inf
        else:
            assert res.worst_ratio is None
            assert res.top_pairs[0]["ratio"] is None

    @pytest.mark.parametrize(
        "pairs", [None, 3_000, 3_001], ids=["exact", "sampled", "sampled-prime"]
    )
    @pytest.mark.parametrize("block", [1, 7, 2**20])
    def test_any_pair_block_matches_fancy_index_gather(self, monkeypatch, block, pairs):
        """The counts, the worst ratio and the top pairs do not depend on the
        block: each block's own first top_k include every pair of the global
        first top_k, and the self pairs dropped block by block are the ones
        a filter over all pairs drops.  3,001 pairs is a prime count, which
        no block above 1 divides."""
        monkeypatch.setattr(indivfair, "PAIR_BLOCK", block)
        exact = pairs is None
        if not exact:
            monkeypatch.setattr(indivfair, "EXACT_PAIR_LIMIT", 40)
            monkeypatch.setattr(indivfair, "SAMPLED_PAIRS", pairs)
        rng = np.random.default_rng(block)
        n = 60
        X = rng.normal(size=(n, 3))
        X[n // 2 :] = X[: n // 2]  # duplicated rows: ties at ratio inf
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=rng.random(n),
                    features=X)
        res = lipschitz_audit(d, scale=0.5, top_k=25)
        got = (res.violations, res.checked_pairs, res.worst_ratio, res.top_pairs, res.exact)
        assert got == ref_lipschitz_audit(d, scale=0.5, top_k=25)
        assert res.exact == exact and res.worst_ratio is None

    @pytest.mark.parametrize("p", range(1, 13))
    def test_pair_distances_are_norms_bit_for_bit(self, p):
        """Summed by column below 8 features, by np.linalg.norm from 8 on:
        both give norm's bits, where a column sum from 8 on would not."""
        rng = np.random.default_rng(p)
        white = rng.normal(size=(300, p)) * rng.uniform(0.1, 10.0, size=p)
        bi, bj = rng.integers(0, 300, 20_000), rng.integers(0, 300, 20_000)
        want = np.linalg.norm(white[bi] - white[bj], axis=1)
        # the row-major array and the feature-major one the audit holds
        for held in (white, np.ascontiguousarray(white.T).T):
            got = indivfair._pair_distances(held, bi, bj)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_block_allocates_no_pair_by_feature_block(self, monkeypatch):
        """One block of 500k sampled pairs at p = 4 peaks below two
        (500k, 4) float64 blocks, the pair indices included (about 21 MB);
        gathering whole rows held two such gathers at once and peaked at
        about 49 MB."""
        monkeypatch.setattr(indivfair, "SAMPLED_PAIRS", 500_000)
        monkeypatch.setattr(indivfair, "PAIR_BLOCK", 500_000)
        rng = np.random.default_rng(4)
        n = 2500
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=rng.random(n),
                    features=rng.normal(size=(n, 4)))
        tracemalloc.start()
        try:
            res = lipschitz_audit(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not res.exact and res.checked_pairs > 499_000
        assert peak < 2 * 500_000 * 4 * 8

    @pytest.mark.parametrize("n", [2, 3, 2001, 2500, 50_000, 2**31 - 1])
    def test_int32_pairs_are_the_int64_stream(self, n):
        """The sampled pairs are drawn as int32: below 2^31 both widths take
        the same buffered 32-bit draws, so the pairs and the generator state
        after them are those of the int64 draws."""
        wide, narrow = np.random.default_rng(7), np.random.default_rng(7)
        for size in (1, 999, 500_000):
            a = wide.integers(0, n, size=size)
            b = narrow.integers(0, n, size=size, dtype=np.int32)
            assert b.dtype == np.int32 and np.array_equal(a, b)

    @pytest.mark.parametrize("n", [3, 40, 41, 2001, 50_000, 2**31 - 1])
    @pytest.mark.parametrize("block", [1, 997, 65_536])
    def test_pair_blocks_are_the_whole_pair_list(self, monkeypatch, n, block):
        """Exact pairs come in np.triu_indices order a few rows at a time;
        sampled pairs are the one-shot draws of all ii, then all jj, from one
        generator, less the self pairs, whatever the block."""
        monkeypatch.setattr(indivfair, "PAIR_BLOCK", block)
        monkeypatch.setattr(indivfair, "EXACT_PAIR_LIMIT", 40)
        monkeypatch.setattr(indivfair, "SAMPLED_PAIRS", 10_007)
        blocks = list(indivfair._pair_blocks(n, seed=7))
        assert all(len(bi) <= max(block, n) and bi.dtype == np.intp for bi, _ in blocks)
        got = [np.concatenate(side) for side in zip(*blocks)]
        if n <= 40:
            want = np.triu_indices(n, k=1)
        else:
            rng = np.random.default_rng(7)
            ii, jj = rng.integers(0, n, size=10_007), rng.integers(0, n, size=10_007)
            want = ii[ii != jj], jj[ii != jj]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @staticmethod
    def _traced_audit(n):
        rng = np.random.default_rng(4)
        d = Dataset(s=rng.integers(0, 2, n), y=rng.integers(0, 2, n), score=rng.random(n),
                    features=rng.normal(size=(n, 4)))
        tracemalloc.start()
        try:
            res = lipschitz_audit(d)
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sampled_pairs_peak_below_int64_pairs(self):
        """2e6 sampled pairs on 2500 records, drawn and checked one 65,536-pair
        block at a time, peak near 3.6 MB.  Drawing all pairs as int32 (16 MB)
        before the first block peaked near 19 MB, and int64 pairs at 50.2 MB."""
        res, peak = self._traced_audit(2500)
        assert not res.exact and res.checked_pairs > 1_990_000
        assert peak < 6e6

    def test_exact_pairs_peak_below_triu_indices(self):
        """The 1,999,000 exact pairs of 2000 records, made a few rows at a
        time, peak near 3.7 MB; np.triu_indices(2000, 1) holds 32 MB of int64
        and peaked near 36 MB."""
        res, peak = self._traced_audit(2000)
        assert res.exact and res.checked_pairs == 1_999_000
        assert peak < 6e6

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, float("nan")])
    def test_negative_scale_rejected(self, scale):
        d = smooth_score_dataset(np.random.default_rng(2), n=10)
        with pytest.raises(ValueError, match="scale"):
            lipschitz_audit(d, scale=scale)

    def test_zero_scale_flags_every_pair_with_different_scores(self):
        d = smooth_score_dataset(np.random.default_rng(2), n=30)
        res = lipschitz_audit(d, scale=0.0)
        ii, jj = np.triu_indices(30, k=1)
        assert res.violations == int(np.count_nonzero(d.score[ii] != d.score[jj]))

    def test_identical_outputs_no_violations(self):
        rng = np.random.default_rng(1)
        d = Dataset(
            s=[0, 1] * 10,
            y=[0, 1] * 10,
            score=[0.4] * 20,
            features=rng.normal(size=(20, 2)),
        )
        res = lipschitz_audit(d)
        assert res.violations == 0
        assert res.checked_pairs == 20 * 19 // 2

    def test_smooth_function_respects_scale(self):
        rng = np.random.default_rng(7)
        d = smooth_score_dataset(rng, n=200, lipschitz=0.25)
        res = lipschitz_audit(d, scale=0.25)
        assert res.violations == 0
        assert res.exact

    def test_reorder_invariance(self):
        rng = np.random.default_rng(3)
        d = smooth_score_dataset(rng, n=60, lipschitz=1.0)
        res = lipschitz_audit(d, scale=0.01)
        perm = rng.permutation(60)
        d2 = Dataset(s=d.s[perm], y=d.y[perm], score=d.score[perm], features=d.features[perm])
        res2 = lipschitz_audit(d2, scale=0.01)
        assert res.violations == res2.violations

    def test_common_feature_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        d = smooth_score_dataset(rng, n=80, lipschitz=0.5)
        res = lipschitz_audit(d, scale=0.3)
        d_scaled = d.with_(features=d.features * 37.5)
        res_scaled = lipschitz_audit(d_scaled, scale=0.3)
        assert res.violations == res_scaled.violations
        assert res.worst_ratio == pytest.approx(res_scaled.worst_ratio, rel=1e-9)

    def test_requires_features(self, toy):
        with pytest.raises(DataError):
            lipschitz_audit(toy)


class TestReconstructionAudit:
    def test_no_signal_gives_exact_half(self):
        # constant features, scores, predictions and outcomes: the attacker
        # has literally nothing, so every fold AUC is exactly 1/2
        n = 40
        d = Dataset(
            s=[0, 1] * (n // 2),
            y=[0] * n,
            score=[0.5] * n,
            features=np.ones((n, 2)),
        )
        pred = PredictionSet.from_labels([0] * n)
        res = reconstruction_audit(d, pred, folds=5, seed=1)
        assert res.auc == 0.5
        assert all(a == 0.5 for a in res.fold_aucs)

    def test_group_leaked_into_feature(self):
        rng = np.random.default_rng(4)
        n = 400
        s = rng.integers(0, 2, size=n)
        X = np.column_stack([s.astype(float), rng.normal(size=n)])
        d = Dataset(s=s, y=rng.integers(0, 2, size=n), score=rng.random(n), features=X)
        res = reconstruction_audit(d, folds=5, seed=0)
        assert res.auc >= 0.99

    def test_independent_inputs_near_half(self):
        rng = np.random.default_rng(11)
        n = 1000
        s = rng.integers(0, 2, size=n)
        d = Dataset(
            s=s,
            y=rng.integers(0, 2, size=n),
            score=rng.random(n),
            features=rng.normal(size=(n, 3)),
        )
        res = reconstruction_audit(d, folds=5, seed=2)
        assert 0.45 <= res.auc <= 0.55

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        n = 200
        d = Dataset(
            s=rng.integers(0, 2, size=n),
            y=rng.integers(0, 2, size=n),
            score=rng.random(n),
            features=rng.normal(size=(n, 2)),
        )
        a = reconstruction_audit(d, folds=4, seed=5)
        b = reconstruction_audit(d, folds=4, seed=5)
        assert a.fold_aucs == b.fold_aucs

    def test_features_used_names(self, toy):
        res = reconstruction_audit(toy, folds=3, seed=0)
        assert res.features_used == ("score", "y")
