"""Secrecy-rate reports, outage probabilities, and the multi-eavesdropper
worst-case model."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from irs_secrecy import mcoracle
from irs_secrecy.errors import InvalidCovarianceError, ModelError
from irs_secrecy.scenario import build_channel_statistics, build_los_channel
from irs_secrecy.secrecy import (
    LN2,
    MultiEveModel,
    SecrecyReport,
    build_multi_eve_model,
    esr_an,
    esr_wiretap,
    norm_cdf,
    secrecy_terms,
    sop_multi_eve,
)

from conftest import corr, make_stats, solve_term, trial_rng, uniform_precoders


class TestNormCdf:
    """``norm_cdf`` against ``scipy.special.ndtr``, which uses the same
    piecewise erf/erfc form."""

    def test_matches_ndtr_on_normal_draws(self):
        x = np.random.default_rng(7).normal(0.0, 4.0, 100_000)
        np.testing.assert_allclose(norm_cdf(x), ndtr(x), rtol=5e-14, atol=0.0)

    def test_matches_ndtr_into_the_far_tail(self):
        """5e-14 relative down to x = -32. Below, Phi's relative condition
        number, about x**2, leaves each implementation good to only about
        x**2 * eps, so the bound grows to that; below -37.7 ndtr underflows
        to 0 while erfc still returns subnormals, which carry no relative
        precision, hence the absolute floor at the smallest normal."""
        x = np.linspace(-38.0, 9.0, 47_001)
        got, ref = norm_cdf(x), ndtr(x)
        rtol = np.maximum(5e-14, x * x * np.finfo(float).eps)
        assert np.all(np.abs(got - ref) <= rtol * ref + np.finfo(float).tiny)
        assert np.all(np.abs(got - ref)[x >= -32.0] <= 5e-14 * ref[x >= -32.0])

    def test_exactly_half_at_zero(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(-0.0) == 0.5

    def test_monotone_with_exact_limits(self):
        x = np.sort(np.random.default_rng(8).uniform(-40.0, 40.0, 20_001))
        vals = norm_cdf(x)
        assert np.all(np.diff(vals) >= 0.0)
        assert norm_cdf(-np.inf) == 0.0 and norm_cdf(np.inf) == 1.0
        assert math.isnan(norm_cdf(math.nan))

    def test_shapes_follow_the_input(self):
        rep = SecrecyReport(esr_nats=0.5, esr_bits=0.5 / LN2, mean_nats=0.5, variance=0.3)
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(norm_cdf(scalar)) is float
            assert type(rep.sop(scalar)) is float
        for arr in ([0.3], np.array([0.1, 0.2, 0.3])):
            assert isinstance(norm_cdf(arr), np.ndarray)
            assert rep.sop(arr).shape == np.shape(arr)
        assert norm_cdf(np.zeros((2, 3))).shape == (2, 3)


class TestOutageFromReport:
    def _report(self, mean_nats=1.2, variance=0.49):
        return SecrecyReport(
            esr_nats=max(0.0, mean_nats), esr_bits=max(0.0, mean_nats) / LN2,
            mean_nats=mean_nats, variance=variance)

    def test_half_at_the_mean(self):
        rep = self._report()
        assert rep.sop(rep.mean_nats / LN2) == pytest.approx(0.5, abs=1e-14)

    def test_limits_and_monotonicity(self):
        rep = self._report()
        grid = np.linspace(-40.0, 40.0, 81)
        vals = rep.sop(grid)
        assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= 0.0)

    def test_matches_normal_cdf(self):
        rep = self._report(mean_nats=0.9, variance=0.25)
        r_bits = 2.0
        expected = ndtr((r_bits * LN2 - 0.9) / 0.5)
        assert rep.sop(r_bits) == pytest.approx(float(expected), rel=1e-14)
        assert isinstance(rep.sop(r_bits), float)

    def test_nonpositive_variance_raises(self):
        for v in (0.0, -1e-3):
            rep = self._report(variance=v)
            with pytest.raises(InvalidCovarianceError):
                rep.sop(1.0)


class TestReductions:
    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_zero_noise_injection_matches_plain_wiretap(self, kind):
        stats = make_stats(kind)
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        plain = esr_wiretap(stats, P_W)
        reduced = esr_an(stats, P_W, np.zeros((stats.M, stats.M)))
        assert reduced.mean_nats == pytest.approx(plain.mean_nats, abs=1e-12)
        assert reduced.variance == pytest.approx(plain.variance, abs=1e-10)
        assert reduced.esr_nats == pytest.approx(plain.esr_nats, abs=1e-12)

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_zero_signal_power_gives_zero_rate(self, kind):
        stats = make_stats(kind)
        rep = esr_wiretap(stats, np.zeros((stats.M, stats.M)))
        assert rep.mean_nats == pytest.approx(0.0, abs=1e-12)
        assert rep.esr_nats == pytest.approx(0.0, abs=1e-12)

    def test_identical_receivers_give_zero_secrecy(self):
        L, M, N = 6, 4, 3
        R = 2.0 * corr(10.0, 20.0, N, 0.3)
        T_S = corr(35.0, 14.0, L, 0.4)
        stats = build_channel_statistics(
            model_kind="lbi",
            receivers=[(R, T_S, 0.9), (R, T_S, 0.9)],
            T=corr(5.0, 25.0, M, 0.35),
            H_T0=build_los_channel(M, L),
            theta=np.linspace(0.0, 1.0, L),
        )
        P_W, _ = uniform_precoders(M, 2.0)
        rep = esr_wiretap(stats, P_W)
        assert rep.mean_nats == pytest.approx(0.0, abs=1e-12)
        assert rep.esr_nats == 0.0

    def test_deaf_eavesdropper_recovers_main_channel_rate(self):
        P_W, _ = uniform_precoders(4, 2.0, split_w=1.0, split_v=0.0)
        gaps = []
        for z_e in [1.0, 1e2, 1e4, 1e6]:
            stats = make_stats("lbi", sigma2_E=z_e)
            bob = solve_term(stats, "B", P_W).rate
            gaps.append(bob - esr_wiretap(stats, P_W).mean_nats)
        gaps = np.array(gaps)
        assert np.all(gaps > 0.0)  # the eavesdropper always costs something
        assert np.all(np.diff(gaps) < 0.0)
        assert gaps[-1] < 1e-3

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_outage_reduction_with_zero_noise_injection(self, kind):
        stats = make_stats(kind)
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        grid = np.linspace(0.0, 6.0, 13)
        np.testing.assert_allclose(
            esr_an(stats, P_W, np.zeros((stats.M, stats.M))).sop(grid),
            esr_wiretap(stats, P_W).sop(grid),
            atol=1e-10,
        )


class TestEveSelection:
    def test_named_eve_matches_positional_order(self):
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        first = esr_an(stats, P_W, P_V)
        named = esr_an(stats, P_W, P_V, eve="E1")
        assert named.mean_nats == first.mean_nats
        second = esr_an(stats, P_W, P_V, eve="E2")
        assert second.mean_nats != first.mean_nats

    def test_unknown_eve_raises(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError):
            esr_wiretap(stats, P_W, eve="E9")

    def test_repeated_eve_tag_raises(self):
        # a repeated tag would leave a selector row of I_B alone and count
        # the other row's eavesdropper twice
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, _ = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError, match="eavesdropper tags must be distinct"):
            secrecy_terms(stats, P_W, eves=["E1", "E1"])


class TestNonFinitePrecoder:
    @pytest.mark.parametrize("kind", ["lbi", "double"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("which", [0, 1], ids=["P_W", "P_V"])
    def test_non_finite_precoder_entry_is_a_model_error(self, kind, value, which):
        # without the check a NaN or inf gave a finite but meaningless mean
        # on lbi and a raw LinAlgError on the double model
        stats = make_stats(kind)
        precoders = uniform_precoders(stats.M, 2.0)
        precoders[which][0, 0] = value
        with pytest.raises(ModelError, match="precoder has a non-finite entry"):
            esr_an(stats, *precoders)


class TestMultiEveModelConstruction:
    def test_single_eve_model_matches_report(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        model = build_multi_eve_model(stats, P_W, P_V)
        rep = esr_an(stats, P_W, P_V)
        assert stats.users()[1:] == ["E1"]
        assert model.n_eves == 1
        assert model.mu[0] == pytest.approx(rep.mean_nats, abs=1e-12)
        assert model.Q[0, 0] == pytest.approx(rep.variance, abs=1e-12)

    def test_two_eve_model_diagonal_matches_single_reports(self):
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        model = build_multi_eve_model(stats, P_W)
        assert stats.users()[1:] == ["E1", "E2"]
        assert model.Q.shape == (2, 2)
        assert np.array_equal(model.Q, model.Q.T)
        assert np.all(np.linalg.eigvalsh(model.Q) > -1e-12)
        for k, eve in enumerate(stats.users()[1:]):
            rep = esr_wiretap(stats, P_W, eve=eve)
            assert model.mu[k] == pytest.approx(rep.mean_nats, abs=1e-12)
            assert model.Q[k, k] == pytest.approx(rep.variance, abs=1e-10)

    def test_selectors_shape_tracks_descriptor_list(self):
        stats = make_stats("double", N_E=(3, 2))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        selectors = secrecy_terms(stats, P_W, P_V)[2]
        # noise-injection mode: (B, E1, E2) x (U, V) terms
        assert selectors.shape == (2, 6)
        np.testing.assert_array_equal(selectors[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(selectors[:, 1], [-1.0, -1.0])


class TestMultiEveOutage:
    def test_single_eve_agrees_with_normal_cdf(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        model = build_multi_eve_model(stats, P_W, P_V)
        rep = esr_an(stats, P_W, P_V)
        for r_bits in (0.5, 1.5, 3.0):
            (p,), (se,) = sop_multi_eve([model], r_bits, n_samples=200_000, seed=3)
            assert se > 0.0
            assert abs(p - rep.sop(r_bits)) <= 3.0 * se + 1e-12

    def test_independent_eves_match_product_form(self):
        mu = np.array([1.1, 0.7, 1.6])
        q = np.array([0.30, 0.55, 0.20])
        model = MultiEveModel(mu=mu, Q=np.diag(q))
        r_bits = 1.4
        marg = ndtr((r_bits * LN2 - mu) / np.sqrt(q))
        expected = 1.0 - np.prod(1.0 - marg)
        (p,), (se,) = sop_multi_eve([model], r_bits, n_samples=400_000, seed=7)
        assert abs(p - expected) <= 3.0 * se

    def test_threshold_array_is_monotone_and_consistent(self):
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        model = build_multi_eve_model(stats, P_W)
        grid = np.linspace(0.0, 5.0, 11)
        (p,), (se,) = sop_multi_eve([model], grid, n_samples=50_000, seed=1)
        assert p.shape == grid.shape and se.shape == grid.shape
        assert np.all(np.diff(p) >= 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))
        (p_one,), _ = sop_multi_eve([model], float(grid[4]), n_samples=50_000, seed=1)
        assert p_one == p[4]

    def test_worst_case_dominates_every_single_eve(self):
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        model = build_multi_eve_model(stats, P_W)
        r_bits = 1.0
        (p,), (se,) = sop_multi_eve([model], r_bits, n_samples=200_000, seed=2)
        singles = [esr_wiretap(stats, P_W, eve=e).sop(r_bits) for e in stats.users()[1:]]
        assert p >= max(singles) - 3.0 * se

    @pytest.mark.parametrize("threads", [None, "1", "2", "3"],
                             ids=["unset", "1", "2", "3"])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_samples_follow_the_documented_stream(self, k, threads, monkeypatch):
        # chunk c of 65,536 samples draws z from trial_rng(seed, c); the worst
        # rate per sample is the row minimum of mu + z @ chol.T, and a
        # threshold counts the sorted worst rates strictly below it. Every
        # model of one call reads the same z, so each row is also the call
        # with that model alone. The 1, 1, 2 and 4 chunks of the sample
        # counts below run on up to 3 workers, fewer where there are fewer
        # chunks, and the result is the same for every worker count.
        monkeypatch.setattr(mcoracle, "available_cores", lambda: 3)
        if threads is None:
            monkeypatch.delenv("IRS_SECRECY_THREADS", raising=False)
        else:
            monkeypatch.setenv("IRS_SECRECY_THREADS", threads)
        rng = np.random.default_rng(k)
        models = []
        for _ in range(3):
            A = rng.normal(size=(k, k))
            models.append(MultiEveModel(mu=rng.normal(size=k), Q=A @ A.T))
        r_bits = np.array([0.4, -1.5, 2.5, 0.0, 1.0])
        seed = 17
        for n in (1, 65_536, 65_537, 200_003):
            got_p, got_se = sop_multi_eve(models, r_bits, n_samples=n, seed=seed)
            assert got_p.shape == got_se.shape == (len(models),) + r_bits.shape
            for row, model in enumerate(models):
                chol = np.linalg.cholesky(model.Q + 1e-10 * np.eye(k))
                below = np.zeros(r_bits.shape, dtype=np.int64)
                for c, lo in enumerate(range(0, n, 65_536)):
                    z = trial_rng(seed, c).standard_normal((min(65_536, n - lo), k))
                    worst = np.sort((model.mu + z @ chol.T).min(axis=1))
                    below += np.searchsorted(worst, r_bits * LN2, side="left")
                p = below / n
                se = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n)
                assert np.array_equal(got_p[row], p), (k, n, row)
                assert np.array_equal(got_se[row], se), (k, n, row)
                alone_p, alone_se = sop_multi_eve([model], r_bits, n_samples=n, seed=seed)
                assert np.array_equal(alone_p[0], got_p[row]), (k, n, row)
                assert np.array_equal(alone_se[0], got_se[row]), (k, n, row)

    def test_worker_buffers_are_allocated_once_per_worker(self, monkeypatch):
        # two workers over four chunks: each worker's z, rates and worst
        # buffers hold one chunk and serve every chunk it takes, so the peak
        # stays near the two workers' buffers
        monkeypatch.setattr(mcoracle, "available_cores", lambda: 2)
        monkeypatch.delenv("IRS_SECRECY_THREADS", raising=False)
        model = MultiEveModel(mu=np.array([0.5, 0.8]), Q=np.array([[1.0, 0.3], [0.3, 0.7]]))
        buffers = 2 * 65_536 * (2 + 2 + 1) * np.dtype(float).itemsize
        # a first call does the lazy imports (thread pool, generator seeding)
        sop_multi_eve([model], 1.0, n_samples=2 * 65_536)
        tracemalloc.start()
        try:
            sop_multi_eve([model], np.linspace(0.0, 3.0, 7), n_samples=4 * 65_536, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * buffers, (peak, buffers)

    def test_models_must_share_the_eavesdropper_count(self):
        models = [MultiEveModel(mu=np.zeros(k), Q=np.eye(k)) for k in (2, 3)]
        with pytest.raises(ModelError, match="eavesdropper count"):
            sop_multi_eve(models, 1.0, n_samples=100)
        with pytest.raises(ModelError, match="at least one model"):
            sop_multi_eve([], 1.0, n_samples=100)

    def test_same_seed_reproduces(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        model = build_multi_eve_model(stats, P_W, P_V)
        a = sop_multi_eve([model], 1.0, n_samples=30_000, seed=5)
        b = sop_multi_eve([model], 1.0, n_samples=30_000, seed=5)
        assert np.array_equal(a, b)
