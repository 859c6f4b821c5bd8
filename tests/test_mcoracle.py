"""Monte-Carlo engine: exact MI evaluation, shared-factor semantics,
determinism, and agreement with the closed-form channel moments."""

import itertools
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from irs_secrecy import mcoracle
from irs_secrecy.cltcov import joint_cov
from irs_secrecy.errors import ConfigError, ModelError
from irs_secrecy.fixedpoint import (
    MiDescriptor,
    an_descriptors,
    precoder_map,
    wiretap_descriptors,
)
from irs_secrecy.mcoracle import mi_exact, run_mc, thread_budget
from irs_secrecy.scenario import (
    assemble_channel,
    build_channel_statistics,
    build_los_channel,
    draw_x,
    draw_y,
    sample_channel,
    trial_rng,
)
from irs_secrecy.secrecy import MultiEveModel, secrecy_terms, sop_multi_eve

from conftest import corr, make_stats, rand_psd, uniform_precoders


class TestExactMutualInformation:
    def test_two_by_two_hand_determinant(self):
        z = 0.7
        H = np.array([[1.0 + 0.5j, -0.3j], [0.2, 0.8 - 0.1j]])
        P = np.array([[1.5, 0.4 + 0.2j], [0.4 - 0.2j, 0.9]])
        G = z * np.eye(2) + H @ P @ H.conj().T
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        assert mi_exact(z, H, P) == pytest.approx(math.log(det.real), rel=1e-12)

    def test_zero_channel_and_zero_precoder_hit_the_noise_floor(self):
        z = 1.3
        H = np.zeros((3, 4))
        P = np.eye(4)
        assert mi_exact(z, H, P) == pytest.approx(3 * math.log(z), rel=1e-14)
        rng = np.random.default_rng(0)
        H = rng.normal(size=(3, 4))
        assert mi_exact(z, H, np.zeros((4, 4))) == pytest.approx(
            3 * math.log(z), rel=1e-14)

    def test_nonpositive_noise_raises(self):
        with pytest.raises(ModelError):
            mi_exact(0.0, np.eye(2), np.eye(2))

    def test_nonfinite_channel_raises(self):
        H = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ModelError):
            mi_exact(1.0, H, np.eye(2))


def _small_run(kind="lbi", n_trials=64, seed=9, **kwargs):
    stats = make_stats(kind)
    P_W, P_V = uniform_precoders(stats.M, 2.0)
    descs = an_descriptors(stats, eves=["E1"])
    precs = precoder_map(P_W, P_V)
    run = run_mc(stats, descs, precs, n_trials, seed, **kwargs)
    return stats, descs, precs, run


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        _, _, _, a = _small_run()
        _, _, _, b = _small_run()
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_mean, b.mi_mean)
        assert np.array_equal(a.mi_cov, b.mi_cov)

    def test_chunk_size_does_not_change_samples(self, monkeypatch):
        chunk_mis, calls = mcoracle._chunk_mis, []

        def counted(*args):
            calls.append(args)
            return chunk_mis(*args)

        monkeypatch.setattr(mcoracle, "_chunk_mis", counted)
        runs = {}
        for chunk in (7, 512):
            monkeypatch.setattr(mcoracle, "CHUNK", chunk)
            calls.clear()
            runs[chunk] = _small_run(n_trials=100)[3]
            # the constant is read on every call: ceil(100 / chunk) chunks
            assert len(calls) == -(-100 // chunk)
        a, b = runs[7], runs[512]
        assert np.array_equal(a.mi_samples, b.mi_samples)
        # moments are merged chunk-by-chunk; only the float reduction order
        # differs between partitions
        np.testing.assert_allclose(a.mi_mean, b.mi_mean, rtol=1e-13)
        np.testing.assert_allclose(a.mi_cov, b.mi_cov, rtol=1e-10, atol=1e-13)

    def test_thread_count_does_not_change_anything(self, monkeypatch):
        # sub-blocks of 5 split every chunk of 32, the last one partially
        monkeypatch.setattr(mcoracle, "CHUNK", 32)
        monkeypatch.setattr(mcoracle, "SUB_BLOCK", 5)
        monkeypatch.setenv("IRS_SECRECY_THREADS", "1")
        _, _, _, a = _small_run(n_trials=300)
        monkeypatch.setenv("IRS_SECRECY_THREADS", "4")
        _, _, _, b = _small_run(n_trials=300)
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_mean, b.mi_mean)
        assert np.array_equal(a.mi_cov, b.mi_cov)

    def test_every_trial_matches_documented_draw_order(self, monkeypatch):
        # both models, wiretap and noise-injection descriptors, two
        # eavesdroppers in either order, and chunk boundaries inside the run;
        # chunks of 7 hold sub-blocks of 3, 3 and 1 trials, then 3 and 1
        monkeypatch.setattr(mcoracle, "CHUNK", 7)
        monkeypatch.setattr(mcoracle, "SUB_BLOCK", 3)
        n_trials, seed = 11, 21
        for kind in ("lbi", "double"):
            stats = make_stats(kind, N_E=(3, 2))
            P_W, P_V = uniform_precoders(stats.M, 2.0)
            for eves, P_V_design in itertools.product((["E1", "E2"], ["E2", "E1"]),
                                                      (None, P_V)):
                descs, precs, _ = secrecy_terms(stats, P_W, P_V_design, eves=eves)
                run = run_mc(stats, descs, precs, n_trials, seed)
                # one X per user, drawn in order of first appearance (B, then
                # the eavesdroppers as listed); every term of a user reads it
                users = ["B"] + eves
                for t in range(n_trials):
                    rng = trial_rng(seed, t)
                    Y = draw_y(rng, stats.L, stats.M) if kind == "double" else None
                    xs = {u: draw_x(rng, stats.user_n(u), stats.L) for u in users}
                    for i, d in enumerate(descs):
                        H = assemble_channel(stats, d.user, xs[d.user], Y)
                        assert run.mi_samples[t, i] == mi_exact(
                            stats.user_sigma2(d.user), H, precs[d.precoder]), (
                                kind, eves, d.label, t)

    def test_chunk_peak_memory_stays_near_its_factor_stacks(self):
        # the per-trial normals live in a buffer of SUB_BLOCK rows, not one
        # row per trial of the chunk, which would add as much again as the
        # complex stacks of Y and both users' X
        stats = make_stats("double", M=32, L=64, N_B=16, N_E=(16,))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs, precs = an_descriptors(stats, eves=["E1"]), precoder_map(P_W, P_V)
        entries = stats.L * stats.M + 2 * stats.user_n("B") * stats.L
        stacks = mcoracle.CHUNK * entries * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            mcoracle._chunk_mis(stats, descs, precs, 0, 0, mcoracle.CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * stacks, (peak, stacks)

    def test_thread_budget_env_handling(self, monkeypatch):
        monkeypatch.setenv("IRS_SECRECY_THREADS", "3")
        assert thread_budget() == 3
        assert thread_budget(default=7) == 3
        monkeypatch.setenv("IRS_SECRECY_THREADS", "0")
        assert thread_budget() == 1
        monkeypatch.setenv("IRS_SECRECY_THREADS", "junk")
        with pytest.raises(ConfigError, match="^IRS_SECRECY_THREADS: must be an integer, "
                                              "got 'junk'$"):
            thread_budget()
        monkeypatch.delenv("IRS_SECRECY_THREADS")
        assert thread_budget() == 1
        assert thread_budget(default=7) == 7

    def test_pools_are_capped_at_the_available_cores(self, monkeypatch):
        # a budget far above the cores sizes each pool at the cores (the
        # caller is one worker, so the pool gets one thread fewer); the
        # stand-in pool records its size and runs every task at once on the
        # calling thread, so no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(mcoracle, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(mcoracle, "available_cores", lambda: 3)
        monkeypatch.setattr(mcoracle, "CHUNK", 4)
        model = MultiEveModel(mu=np.array([0.5, 0.8]), Q=np.array([[1.0, 0.3], [0.3, 0.7]]),
                              labels=("E1", "E2"), selectors=np.zeros((2, 2)))
        runs = {}
        for env in ("5000", "1"):
            monkeypatch.setenv("IRS_SECRECY_THREADS", env)
            assert thread_budget() == int(env)
            # 10 chunks of trials, then 4 chunks of worst-case samples
            runs[env] = (_small_run(n_trials=40)[3],
                         sop_multi_eve([model], [0.5, 1.0], n_samples=200_003, seed=4))
        assert sizes == [2, 2]
        (a, (p_a, se_a)), (b, (p_b, se_b)) = runs["5000"], runs["1"]
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_cov, b.mi_cov)
        assert np.array_equal(p_a, p_b) and np.array_equal(se_a, se_b)


class TestSharedFactorSemantics:
    def test_same_group_same_precoder_gives_identical_columns(self):
        stats = make_stats("lbi")
        Q = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)[0]
        # U = 0 + Q and V = Q: identical precoders on a shared X draw
        precs = precoder_map(np.zeros((stats.M, stats.M)), Q)
        descs = an_descriptors(stats, eves=[])
        run = run_mc(stats, descs, precs, 32, seed=4)
        assert np.array_equal(run.mi_samples[:, 0], run.mi_samples[:, 1])

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_unknown_user_tag_is_rejected(self, kind):
        stats = make_stats(kind)
        P_W, _ = uniform_precoders(stats.M, 2.0)
        descs = [
            MiDescriptor(user="B", precoder="W"),
            MiDescriptor(user="E2", precoder="W"),
        ]
        with pytest.raises(ModelError, match="unknown user tag 'E2'"):
            run_mc(stats, descs, precoder_map(P_W), 8, seed=0)

    def test_double_model_shares_the_middle_factor(self):
        stats = make_stats("double")
        sb = sample_channel(stats, "B", seed=5)
        se = sample_channel(stats, "E1", seed=5)
        assert np.array_equal(sb.Y, se.Y)
        assert sample_channel(make_stats("lbi"), "B", seed=5).Y is None


class TestChannelMoments:
    def test_zero_receive_correlation_pins_the_noise_floor(self):
        L, M, N = 6, 4, 3
        stats = build_channel_statistics(
            model_kind="lbi",
            R_B=np.zeros((N, N)), R_E_list=[1.5 * corr(-25.0, 15.0, N, 0.3)],
            T_S_B=corr(35.0, 14.0, L, 0.4), T_S_E_list=[corr(-50.0, 11.0, L, 0.4)],
            T=corr(5.0, 25.0, M, 0.35), H_T0=build_los_channel(M, L),
            theta=np.zeros(L), sigma2_B=0.8, sigma2_E_list=[1.1],
        )
        P_W, _ = uniform_precoders(M, 2.0, split_w=1.0, split_v=0.0)
        descs = wiretap_descriptors(stats, eves=[])
        run = run_mc(stats, descs, precoder_map(P_W), 16, seed=0)
        np.testing.assert_allclose(
            run.mi_samples[:, 0], N * math.log(0.8), rtol=1e-14)

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_empirical_gram_matches_closed_form(self, kind):
        stats = make_stats(kind)
        n, n_draws = stats.user_n("B"), 4000
        grams = np.empty((n_draws, n, n), dtype=complex)
        for t in range(n_draws):
            rng = trial_rng(123, t)
            Y = draw_y(rng, stats.L, stats.M) if kind == "double" else None
            X = draw_x(rng, n, stats.L)
            H = assemble_channel(stats, "B", X, Y)
            grams[t] = H @ H.conj().T
        if kind == "lbi":
            A = stats.lbi_aperture("B")
            scale = np.trace(A @ A.conj().T).real / stats.L
        else:
            scale = (np.trace(stats.T).real / stats.M
                     * np.trace(stats.ds_gram("B")).real / stats.L)
        expected = scale * stats.user_r("B")
        err = np.abs(grams.mean(axis=0) - expected)
        se = grams.std(axis=0) / math.sqrt(n_draws)
        assert np.all(err <= 5.0 * se + 1e-12)

    def test_small_and_large_runs_agree_within_noise(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        descs = wiretap_descriptors(stats)
        precs = precoder_map(P_W)
        small = run_mc(stats, descs, precs, 100, seed=8)
        large = run_mc(stats, descs, precs, 10_000, seed=8)
        gap = np.abs(small.mi_mean - large.mi_mean)
        assert np.all(gap <= 4.0 * small.mean_stderr() + 1e-12)


class TestSecrecyAggregation:
    def test_per_trial_secrecy_recomputes_from_samples(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs = an_descriptors(stats, eves=["E1"])
        u = secrecy_terms(stats, P_W, P_V, eves=["E1"])[2][0]
        run = run_mc(stats, descs, precoder_map(P_W, P_V), 128, seed=2, combiner=u)
        floors = np.array([stats.user_n(d.user) * math.log(stats.user_sigma2(d.user))
                           for d in descs])
        np.testing.assert_array_equal(run.secrecy, (run.mi_samples - floors) @ u)

    def test_empirical_variance_tracks_the_asymptotic_quad_form(self):
        stats = make_stats("lbi", M=8, L=32, N_B=4, N_E=(4,))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs = an_descriptors(stats, eves=["E1"])
        precs = precoder_map(P_W, P_V)
        u = secrecy_terms(stats, P_W, P_V, eves=["E1"])[2][0]
        run = run_mc(stats, descs, precs, 20_000, seed=3, combiner=u)
        analytic = joint_cov(stats, descs, precs).quad_form(u)
        empirical = float(np.var(run.secrecy, ddof=1))
        assert empirical == pytest.approx(analytic, rel=0.10)

    def test_secrecy_cdf_shape_and_guard(self):
        stats, descs, precs, run = _small_run(n_trials=256)
        assert run.secrecy is None
        with pytest.raises(ModelError):
            run.secrecy_cdf(np.array([0.0]))
        u = secrecy_terms(stats, precs["W"], precs["V"], eves=["E1"])[2][0]
        run = run_mc(stats, descs, precs, 256, seed=9, combiner=u)
        grid = np.linspace(run.secrecy.min() - 1.0, run.secrecy.max() + 1.0, 33)
        cdf = run.secrecy_cdf(grid)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)

    def test_rejects_empty_runs(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError):
            run_mc(stats, wiretap_descriptors(stats), precoder_map(P_W), 0, seed=0)

