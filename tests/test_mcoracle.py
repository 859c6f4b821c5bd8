"""Monte-Carlo engine: exact MI evaluation, shared-factor semantics,
determinism, and agreement with the closed-form channel moments."""

import itertools
import math
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from irs_secrecy import mcoracle
from irs_secrecy.errors import ConfigError, ModelError
from irs_secrecy.fixedpoint import MiDescriptor
from irs_secrecy.mcoracle import mi_exact, run_mc, thread_budget
from irs_secrecy.scenario import build_channel_statistics, build_los_channel, channel_assembler
from irs_secrecy.secrecy import MultiEveModel, esr_an, secrecy_terms, sop_multi_eve

from conftest import (corr, draw_factors, ds_gram, make_stats, rand_psd, spectrum_matrix,
                      uniform_precoders)


def eigvalsh_logdet(z, H, P):
    """logdet(z I + H P H^H) of each channel in a stack (n, N, M) from the
    Hermitian eigenvalues of the symmetrised Gram, clipped at zero: an
    eigenvalue oracle for the Cholesky kernel."""
    gram = H @ P @ H.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.conj().transpose(0, 2, 1)))
    return np.sum(np.log(z + np.clip(lam, 0.0, None)), axis=1)


def _complex_normal(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)


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

    def test_kernel_matches_the_eigenvalue_oracle_on_full_rank_stacks(self):
        rng = np.random.default_rng(5)
        for n, N, M in ((64, 1, 3), (64, 2, 4), (32, 4, 8), (16, 16, 32)):
            H = _complex_normal(rng, n, N, M)
            P = rand_psd(M, rng, scale=2.0)
            for z in (0.5, 1.0, 3.0):
                np.testing.assert_allclose(mcoracle._mi_batch(z, H, P),
                                           eigvalsh_logdet(z, H, P), rtol=1e-12)

    @pytest.mark.parametrize("N, M", [(1, 3), (2, 4), (4, 8), (16, 32)])
    def test_rank_one_precoder_matches_its_closed_form(self, N, M):
        # P = s v v^H: logdet(z I + s (Hv)(Hv)^H) = log(z + s |Hv|^2) +
        # (N - 1) log z, log1p(s |Hv|^2) at z = 1. Rounding the O(s) Gram
        # moves its z-sized eigenvalues by about eps s |Hv|^2 each.
        rng = np.random.default_rng(N)
        H = _complex_normal(rng, N, M)
        v = _complex_normal(rng, M)
        v /= np.linalg.norm(v)
        w = np.linalg.norm(H @ v) ** 2
        for z in (1.0, 0.3):
            for s in 10.0 ** np.arange(0, 13, 2):
                expected = N * math.log(z) + math.log1p(s * w / z)
                got = mi_exact(z, H, s * np.outer(v, v.conj()))
                tol = 4 * N * np.finfo(float).eps * s * w / z + 1e-14 * abs(expected)
                assert abs(got - expected) <= tol, (z, s, got, expected)

    def test_a_failed_factorization_is_a_model_error(self):
        # H's first column is all ones and P = s e1 e1^T, so the Gram is
        # exactly s times the all-ones matrix; at s = 2^54 (about 1.8e16) the
        # noise z = 1 rounds away and the second pivot is exactly zero
        H = np.ones((3, 4), dtype=complex)
        H[:, 1:] = np.random.default_rng(2).integers(-3, 4, size=(3, 3))
        P = np.zeros((4, 4), dtype=complex)
        P[0, 0] = 2.0 ** 54
        with pytest.raises(ModelError, match="not positive definite"):
            mi_exact(1.0, H, P)


def _small_run(kind="lbi", n_trials=64, seed=9, **kwargs):
    stats = make_stats(kind)
    P_W, P_V = uniform_precoders(stats.M, 2.0)
    descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=["E1"])
    run = run_mc(stats, descs, precs, n_trials, seed, **kwargs)
    return stats, descs, precs, run


def _trial_bytes(stats, users):
    """Bytes of the complex factors a trial draws: Y (double model) and one X
    per user."""
    entries = stats.L * sum(stats.receiver(u).n for u in users)
    entries += stats.L * stats.M if stats.model_kind == "double" else 0
    return entries * np.dtype(complex).itemsize


def _patch_block(monkeypatch, stats, users, trials):
    """Set ``BLOCK_BYTES`` to the complex factors of ``trials`` trials."""
    monkeypatch.setattr(mcoracle, "BLOCK_BYTES", trials * _trial_bytes(stats, users))


@pytest.fixture
def block_sizes(monkeypatch):
    """Trials per block, one entry per factor of every block run."""
    sizes, convert = [], mcoracle.complex_from_normals

    def recorded(normals, var, out=None):
        sizes.append(normals.shape[0])
        return convert(normals, var, out=out)

    monkeypatch.setattr(mcoracle, "complex_from_normals", recorded)
    return sizes


@pytest.fixture
def serial_pool(monkeypatch):
    """Sizes of the pools requested while a stand-in for
    ``ThreadPoolExecutor`` runs every task at once on the calling thread (so
    no thread starts), on a host patched to 3 cores."""
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
    return sizes


@pytest.fixture
def thread_pools(monkeypatch):
    """Sizes of the real thread pools started, on a host patched to 4
    cores."""
    sizes, pool = [], mcoracle.ThreadPoolExecutor

    def recorded(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(mcoracle, "ThreadPoolExecutor", recorded)
    monkeypatch.setattr(mcoracle, "available_cores", lambda: 4)
    return sizes


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        _, _, _, a = _small_run()
        _, _, _, b = _small_run()
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_mean, b.mi_mean)
        assert np.array_equal(a.mi_cov, b.mi_cov)

    def test_block_size_does_not_change_anything(self, monkeypatch, block_sizes,
                                                  thread_pools):
        # 100 trials in blocks of 1, 3 and 7 (the last block holding 1, 1 and
        # 2 trials), each on the caller alone and beside 3 pool threads
        runs = []
        for trials in (1, 3, 7):
            _patch_block(monkeypatch, make_stats("lbi"), ["B", "E1"], trials)
            for env in ("1", "4"):
                monkeypatch.setenv("IRS_SECRECY_THREADS", env)
                block_sizes.clear()
                runs.append(_small_run(n_trials=100)[3])
                # the constant is read on every call
                assert max(block_sizes) == trials
                assert len(block_sizes) == 2 * -(-100 // trials)
        assert thread_pools == [3, 3, 3]
        a = runs[0]
        for b in runs[1:]:
            assert np.array_equal(a.mi_samples, b.mi_samples)
            assert np.array_equal(a.mi_mean, b.mi_mean)
            assert np.array_equal(a.mi_cov, b.mi_cov)

    def test_thread_count_does_not_change_anything(self, monkeypatch, block_sizes,
                                                   thread_pools):
        # 301 trials run in 100 blocks of 3 and one of 1; the 4-worker run is
        # the caller beside 3 pool threads, all writing rows of one samples
        # array, with threads switched as often as the interpreter allows
        _patch_block(monkeypatch, make_stats("lbi"), ["B", "E1"], 3)
        monkeypatch.setenv("IRS_SECRECY_THREADS", "1")
        _, _, _, a = _small_run(n_trials=301)
        monkeypatch.setenv("IRS_SECRECY_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, _, _, b = _small_run(n_trials=301)
        finally:
            sys.setswitchinterval(interval)
        assert thread_pools == [3]
        assert sorted(set(block_sizes)) == [1, 3]
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_mean, b.mi_mean)
        assert np.array_equal(a.mi_cov, b.mi_cov)

    def test_every_trial_matches_documented_draw_order(self, monkeypatch, block_sizes):
        # both models, wiretap and noise-injection descriptors, two
        # eavesdroppers in either order, and block boundaries inside the run;
        # 11 trials run in blocks of 3, 3, 3 and 2
        n_trials, seed = 11, 21
        for kind in ("lbi", "double"):
            stats = make_stats(kind, N_E=(3, 2))
            _patch_block(monkeypatch, stats, ["B", "E1", "E2"], 3)
            P_W, P_V = uniform_precoders(stats.M, 2.0)
            for eves, P_V_design in itertools.product((["E1", "E2"], ["E2", "E1"]),
                                                      (None, P_V)):
                descs, precs, _ = secrecy_terms(stats, P_W, P_V_design, eves=eves)
                run = run_mc(stats, descs, precs, n_trials, seed)
                # one X per user, drawn in order of first appearance (B, then
                # the eavesdroppers as listed); every term of a user reads it
                users = ["B"] + eves
                for t in range(n_trials):
                    Y, xs = draw_factors(stats, users, seed, t)
                    for i, d in enumerate(descs):
                        H = channel_assembler(stats, d.user)(xs[d.user], Y)
                        assert run.mi_samples[t, i] == mi_exact(
                            stats.receiver(d.user).sigma2, H, precs[d.precoder]), (
                                kind, eves, d.label, t)
        assert sorted(set(block_sizes)) == [2, 3]

    def test_peak_memory_stays_near_a_blocks_factor_stacks(self, monkeypatch):
        # a run holds one block's normals, complex factors and channels
        # (BLOCK_BYTES of factors, 16 trials here), not run-wide stacks,
        # whose factors alone take 32 MiB at 512 trials and grow with the
        # run; only the (n_trials, K) samples and their deviations grow
        monkeypatch.setenv("IRS_SECRECY_THREADS", "1")
        stats = make_stats("double", M=32, L=64, N_B=16, N_E=(16,))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=["E1"])
        for n_trials in (512, 2048):
            tracemalloc.start()
            try:
                run_mc(stats, descs, precs, n_trials, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * mcoracle.BLOCK_BYTES + 2 * n_trials * len(descs) * 8, (
                n_trials, peak)

    def test_thread_budget_env_handling(self, monkeypatch):
        monkeypatch.setattr(mcoracle, "available_cores", lambda: 5)
        monkeypatch.setenv("IRS_SECRECY_THREADS", "3")
        assert thread_budget() == 3
        monkeypatch.setenv("IRS_SECRECY_THREADS", "0")
        assert thread_budget() == 1
        monkeypatch.setenv("IRS_SECRECY_THREADS", "junk")
        with pytest.raises(ConfigError, match="^IRS_SECRECY_THREADS: must be an integer, "
                                              "got 'junk'$"):
            thread_budget()
        monkeypatch.delenv("IRS_SECRECY_THREADS")
        assert thread_budget() == 5

    def test_pools_are_capped_at_the_available_cores(self, monkeypatch, serial_pool):
        # a budget far above the cores sizes each pool at the cores (the
        # caller is one worker, so the pool gets one thread fewer)
        _patch_block(monkeypatch, make_stats("lbi"), ["B", "E1"], 4)
        model = MultiEveModel(mu=np.array([0.5, 0.8]), Q=np.array([[1.0, 0.3], [0.3, 0.7]]))
        runs = {}
        for env in ("5000", "1"):
            monkeypatch.setenv("IRS_SECRECY_THREADS", env)
            assert thread_budget() == int(env)
            # 10 blocks of trials, then 4 chunks of worst-case samples
            runs[env] = (_small_run(n_trials=40)[3],
                         sop_multi_eve([model], [0.5, 1.0], n_samples=200_003, seed=4))
        assert serial_pool == [2, 2]
        (a, (p_a, se_a)), (b, (p_b, se_b)) = runs["5000"], runs["1"]
        assert np.array_equal(a.mi_samples, b.mi_samples)
        assert np.array_equal(a.mi_cov, b.mi_cov)
        assert np.array_equal(p_a, p_b) and np.array_equal(se_a, se_b)

    def test_run_mc_default_pool_is_sized_by_the_work(self, monkeypatch, serial_pool):
        # unset, a trial with under 4 KiB of factors runs on the caller
        # alone; from 4 KiB (up to M32 L64 N16's 64 KiB) the caller and a
        # pool of 2 threads share the 3 blocks on the 3 cores
        pools = {}
        for kind, M, L, N in (("lbi", 8, 16, 4), ("double", 8, 16, 4), ("double", 32, 64, 16)):
            stats = make_stats(kind, M=M, L=L, N_B=N, N_E=(N,))
            P_W, P_V = uniform_precoders(M, 2.0)
            descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=["E1"])
            nbytes = _trial_bytes(stats, ["B", "E1"])
            _patch_block(monkeypatch, stats, ["B", "E1"], 4)
            runs = []
            for env in (None, "1"):
                serial_pool.clear()
                if env is None:
                    monkeypatch.delenv("IRS_SECRECY_THREADS", raising=False)
                else:
                    monkeypatch.setenv("IRS_SECRECY_THREADS", env)
                runs.append(run_mc(stats, descs, precs, 12, 3))
                pools[nbytes, env] = list(serial_pool)
            a, b = runs
            assert np.array_equal(a.mi_samples, b.mi_samples)
            assert np.array_equal(a.mi_mean, b.mi_mean)
            assert np.array_equal(a.mi_cov, b.mi_cov)
        assert pools == {(2 << 10, None): [], (2 << 10, "1"): [],
                         (4 << 10, None): [2], (4 << 10, "1"): [],
                         (64 << 10, None): [2], (64 << 10, "1"): []}


class TestSharedFactorSemantics:
    def test_same_group_same_precoder_gives_identical_columns(self):
        stats = make_stats("lbi")
        Q = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)[0]
        # U = 0 + Q and V = Q: identical precoders on a shared X draw
        descs, precs, _ = secrecy_terms(stats, np.zeros((stats.M, stats.M)), Q, eves=[])
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
            run_mc(stats, descs, {"W": P_W}, 8, seed=0)


class TestChannelMoments:
    def test_zero_receive_correlation_pins_the_noise_floor(self):
        L, M, N = 6, 4, 3
        stats = build_channel_statistics(
            model_kind="lbi",
            receivers=[(np.zeros((N, N)), corr(35.0, 14.0, L, 0.4), 0.8),
                       (1.5 * corr(-25.0, 15.0, N, 0.3), corr(-50.0, 11.0, L, 0.4), 1.1)],
            T=corr(5.0, 25.0, M, 0.35), H_T0=build_los_channel(M, L),
            theta=np.zeros(L),
        )
        P_W, _ = uniform_precoders(M, 2.0, split_w=1.0, split_v=0.0)
        descs, precs, _ = secrecy_terms(stats, P_W, eves=[])
        run = run_mc(stats, descs, precs, 16, seed=0)
        np.testing.assert_allclose(
            run.mi_samples[:, 0], N * math.log(0.8), rtol=1e-14)

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_empirical_gram_matches_closed_form(self, kind):
        stats = make_stats(kind)
        n, n_draws = stats.receiver("B").n, 4000
        grams = np.empty((n_draws, n, n), dtype=complex)
        for t in range(n_draws):
            Y, xs = draw_factors(stats, ["B"], 123, t)
            H = channel_assembler(stats, "B")(xs["B"], Y)
            grams[t] = H @ H.conj().T
        if kind == "lbi":
            A = stats.lbi_aperture("B")
            scale = np.trace(A @ A.conj().T).real / stats.L
        else:
            scale = (np.trace(stats.T).real / stats.M
                     * np.trace(ds_gram(stats, "B")).real / stats.L)
        expected = scale * spectrum_matrix(stats.receiver("B").r)
        err = np.abs(grams.mean(axis=0) - expected)
        se = grams.std(axis=0) / math.sqrt(n_draws)
        assert np.all(err <= 5.0 * se + 1e-12)

    def test_small_and_large_runs_agree_within_noise(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        descs, precs, _ = secrecy_terms(stats, P_W)
        small = run_mc(stats, descs, precs, 100, seed=8)
        large = run_mc(stats, descs, precs, 10_000, seed=8)
        gap = np.abs(small.mi_mean - large.mi_mean)
        assert np.all(gap <= 4.0 * small.mean_stderr() + 1e-12)


class TestSecrecyAggregation:
    def test_per_trial_secrecy_recomputes_from_samples(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs, precs, selectors = secrecy_terms(stats, P_W, P_V, eves=["E1"])
        u = selectors[0]
        run = run_mc(stats, descs, precs, 128, seed=2, combiner=u)
        floors = np.array([stats.receiver(d.user).n * math.log(stats.receiver(d.user).sigma2)
                           for d in descs])
        np.testing.assert_array_equal(run.secrecy, (run.mi_samples - floors) @ u)

    def test_empirical_variance_tracks_the_asymptotic_quad_form(self):
        stats = make_stats("lbi", M=8, L=32, N_B=4, N_E=(4,))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs, precs, selectors = secrecy_terms(stats, P_W, P_V, eves=["E1"])
        u = selectors[0]
        run = run_mc(stats, descs, precs, 20_000, seed=3, combiner=u)
        analytic = esr_an(stats, P_W, P_V).variance
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
            run_mc(stats, *secrecy_terms(stats, P_W)[:2], 0, seed=0)

