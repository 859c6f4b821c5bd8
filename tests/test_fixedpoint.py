"""Fixed-point systems, their deterministic means and rates, and the
secrecy terms they are solved for."""

import dataclasses
import math

import numpy as np
import pytest

from irs_secrecy import fixedpoint
from irs_secrecy import scenario as scenario_module
from irs_secrecy.errors import ConvergenceError, ModelError
from irs_secrecy.fixedpoint import (
    MiDescriptor,
    solve_all,
    solve_ds,
    solve_lbi,
    transmit_spectra,
)
from irs_secrecy.scenario import Spectrum, dbm_to_watts
from irs_secrecy.secrecy import build_multi_eve_model, secrecy_terms

from conftest import (effective_transmit_corr, make_stats, rand_psd, solve_term, spectrum,
                      spectrum_matrix, uniform_precoders)


class TestLowRankFixedPoint:
    def test_scalar_unit_case_is_golden_ratio(self):
        sol = solve_lbi(spectrum(np.eye(1)), spectrum(np.eye(1)), z=1.0, m_dim=1)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert sol.alpha == pytest.approx(golden, abs=1e-9)
        assert sol.alpha_bar == pytest.approx(golden, abs=1e-9)
        # iteration count and final residual of the scalar Newton iteration,
        # which the benchmark's solver counters read
        assert sol.n_iter == 4
        assert sol.residual == pytest.approx(5.517808432387028e-13, rel=1e-6)

    def test_zero_receive_correlation(self):
        T_eff = np.diag([0.5, 1.5, 2.0])
        sol = solve_lbi(spectrum(np.zeros((2, 2))), spectrum(T_eff), z=1.0, m_dim=4)
        assert sol.alpha == pytest.approx(0.0, abs=1e-12)
        assert sol.alpha_bar == pytest.approx(np.trace(T_eff).real / 4.0, abs=1e-10)

    def test_direct_substitution_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, l, m = rng.integers(2, 12, size=3)
            R = rand_psd(int(n), rng, scale=1.5)
            T_eff = rand_psd(int(l), rng, scale=0.8)
            z = float(rng.uniform(0.2, 3.0))
            sol = solve_lbi(spectrum(R), spectrum(T_eff), z=z, m_dim=int(m))
            a = np.trace(R @ np.linalg.inv(z * np.eye(int(n)) + sol.alpha_bar * R)).real / m
            ab = np.trace(
                T_eff @ np.linalg.inv(np.eye(int(l)) + sol.alpha * T_eff)
            ).real / m
            assert abs(sol.alpha - a) < 1e-10
            assert abs(sol.alpha_bar - ab) < 1e-10

    def test_iteration_cap_raises(self, monkeypatch):
        # this solve takes 4 iterations uncapped
        monkeypatch.setattr(fixedpoint, "MAX_ITER", 2)
        rng = np.random.default_rng(1)
        with pytest.raises(ConvergenceError, match="after 2 iterations") as excinfo:
            solve_lbi(spectrum(rand_psd(4, rng)), spectrum(rand_psd(4, rng)), z=1.0, m_dim=4)
        assert excinfo.value.n_iter == 2
        assert excinfo.value.residual > fixedpoint.TOL


class TestSingleHopHighPower:
    @pytest.mark.parametrize("seed", range(6))
    def test_artificial_noise_model_solves_at_high_power(self, seed):
        # two eavesdroppers, P_V = 0.1 P_W: each of the six single-hop terms
        # solves (a ConvergenceError would propagate), up to 300 dBm per antenna
        stats = make_stats("lbi", seed=seed, N_E=(3, 2))
        for p_dbm in (60.0, 120.0, 300.0):
            P = dbm_to_watts(p_dbm) * np.eye(stats.M, dtype=complex)
            model = build_multi_eve_model(stats, P, 0.1 * P)
            assert np.all(np.isfinite(model.mu)), p_dbm
            assert np.all(np.isfinite(model.Q)), p_dbm


class TestNewtonStep:
    @pytest.mark.parametrize("n", [3])
    def test_matches_a_dense_solve(self, n):
        rng = np.random.default_rng(9)
        for _ in range(20):
            J = rng.standard_normal((n, n))
            x, diff = rng.standard_normal(n), rng.standard_normal(n)
            got = fixedpoint._newton_point(list(x), list(diff), tuple(map(tuple, J)))
            assert np.allclose(got, x + np.linalg.solve(np.eye(n) - J, diff),
                               rtol=1e-10, atol=1e-12)

    def test_singular_system_gives_no_step(self):
        # I - J has the rows (1, 2, 3), (2, 4, 6), (0, 1, 1): the second is
        # twice the first
        jac = ((0.0, -2.0, -3.0), (-2.0, -3.0, -6.0), (0.0, -1.0, 0.0))
        assert fixedpoint._newton_point([1.0, 1.0, 1.0], [0.1, 0.2, 0.3], jac) is None


class TestDoubleScatteringFixedPoint:
    def test_zero_signal_noise_floor(self):
        rng = np.random.default_rng(2)
        R = rand_psd(3, rng)
        S = rand_psd(5, rng)
        sol = solve_ds(spectrum(R), spectrum(S), spectrum(np.zeros((4, 4))), z=2.0, m_dim=4,
                       l_dim=5)
        # the Newton row of omega_bar reads omega_bar_new = 0 exactly
        assert sol.omega_bar == 0.0
        n = 3
        assert sol.mean == pytest.approx(n * math.log(2.0), abs=1e-9)

    def test_scalar_case_matches_nested_bisection(self):
        one = spectrum(np.eye(1))
        sol = solve_ds(one, one, one, z=1.0, m_dim=1, l_dim=1)

        # independent oracle: for fixed delta, the inner pair solves
        #   omega_bar = 1 / (1 + omega),  omega = delta / (1 + delta*omega_bar)
        # by bisection on omega; the outer bisection drives
        #   g(delta) = delta * (z + omega*omega_bar/delta) - 1 to zero.
        def inner(delta):
            lo, hi = 0.0, delta
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                ob = 1.0 / (1.0 + mid)
                val = delta / (1.0 + delta * ob)
                if val > mid:
                    lo = mid
                else:
                    hi = mid
            om = 0.5 * (lo + hi)
            return om, 1.0 / (1.0 + om)

        lo, hi = 1e-9, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            om, ob = inner(mid)
            if mid + om * ob < 1.0:
                lo = mid
            else:
                hi = mid
        delta = 0.5 * (lo + hi)
        om, ob = inner(delta)
        assert sol.delta == pytest.approx(delta, abs=1e-8)
        assert sol.omega == pytest.approx(om, abs=1e-8)
        assert sol.omega_bar == pytest.approx(ob, abs=1e-8)
        assert sol.n_iter == 5
        assert sol.residual == pytest.approx(5.3179682879545e-13, rel=1e-6)

    def test_direct_substitution_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, l, m = (int(v) for v in rng.integers(2, 10, size=3))
            R = rand_psd(n, rng, scale=1.2)
            S = rand_psd(l, rng, scale=0.9)
            T_eff = rand_psd(m, rng, scale=1.1)
            z = float(rng.uniform(0.3, 2.5))
            sol = solve_ds(spectrum(R), spectrum(S), spectrum(T_eff), z=z, m_dim=m, l_dim=l)
            kappa = m * sol.omega * sol.omega_bar / (l * sol.delta)
            d = np.trace(R @ np.linalg.inv(z * np.eye(n) + kappa * R)).real / l
            G_S = np.linalg.inv(np.eye(l) / sol.delta + sol.omega_bar * S)
            om = np.trace(S @ G_S).real / m
            G_T = np.linalg.inv(np.eye(m) + sol.omega * T_eff)
            ob = np.trace(T_eff @ G_T).real / m
            assert abs(sol.delta - d) < 1e-10
            assert abs(sol.omega - om) < 1e-10
            assert abs(sol.omega_bar - ob) < 1e-10

    def test_iteration_cap_raises(self, monkeypatch):
        # this solve takes 6 iterations uncapped
        monkeypatch.setattr(fixedpoint, "MAX_ITER", 2)
        rng = np.random.default_rng(6)
        with pytest.raises(ConvergenceError, match="after 2 iterations") as excinfo:
            solve_ds(spectrum(rand_psd(3, rng)), spectrum(rand_psd(4, rng)),
                     spectrum(rand_psd(5, rng)), z=1.0, m_dim=5, l_dim=4)
        assert excinfo.value.n_iter == 2

    def test_jacobian_matches_finite_differences_of_the_step_map(self):
        # J_F at the solution, from which the Newton step and the implicit
        # phase derivative of the outage gradient both build I - J_F, against
        # central differences of the right-hand sides in dense form
        rng = np.random.default_rng(8)
        n, l, m = 3, 4, 5
        R, S, T_eff = rand_psd(n, rng, 1.3), rand_psd(l, rng, 0.8), rand_psd(m, rng, 1.1)
        z = 0.7
        sol = solve_ds(spectrum(R), spectrum(S), spectrum(T_eff), z=z, m_dim=m, l_dim=l)

        def rhs(x):
            d, o, ob = x
            kappa = m * o * ob / (l * d)
            return np.array([
                np.trace(R @ np.linalg.inv(z * np.eye(n) + kappa * R)).real / l,
                np.trace(S @ np.linalg.inv(np.eye(l) / d + ob * S)).real / m,
                np.trace(T_eff @ np.linalg.inv(np.eye(m) + o * T_eff)).real / m,
            ])

        x0 = np.array([sol.delta, sol.omega, sol.omega_bar])
        h = 1e-6
        fd = np.column_stack([(rhs(x0 + h * e) - rhs(x0 - h * e)) / (2.0 * h)
                              for e in np.eye(3)])
        assert np.allclose(np.array(sol.jacobian), fd, rtol=1e-6, atol=1e-9)
        # the trace functionals it is built from, in dense form
        G_S = sol.s.resolvent(1.0 / sol.delta, sol.omega_bar)
        G_T = sol.t.resolvent(1.0, sol.omega)
        G_R = sol.r.resolvent(z, sol.kappa)
        SG, TG, RG = S @ G_S, T_eff @ G_T, R @ G_R
        assert sol.nu_S == pytest.approx(np.trace(SG @ SG).real / m, rel=1e-12)
        assert sol.nu_SI == pytest.approx(np.trace(SG @ G_S).real / m, rel=1e-12)
        assert sol.nu_T == pytest.approx(np.trace(TG @ TG).real / m, rel=1e-12)
        assert sol.nu_R == pytest.approx(np.trace(RG @ RG).real / l, rel=1e-12)

    def test_zero_receive_correlation_raises(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ModelError, match="Tr R > 0"):
            solve_ds(spectrum(np.zeros((3, 3))), spectrum(rand_psd(4, rng)),
                     spectrum(rand_psd(5, rng)), z=1.0, m_dim=5, l_dim=4)

    def test_kappa_property(self):
        rng = np.random.default_rng(4)
        sol = solve_ds(spectrum(rand_psd(3, rng)), spectrum(rand_psd(4, rng)),
                       spectrum(rand_psd(5, rng)), z=1.0, m_dim=5, l_dim=4)
        assert sol.kappa == pytest.approx(
            5 * sol.omega * sol.omega_bar / (4 * sol.delta), rel=1e-12
        )


class TestDeterministicEquivalents:
    def test_lbi_zero_receive_correlation_is_noise_floor(self):
        sol = solve_lbi(spectrum(np.zeros((3, 3))), spectrum(np.diag([1.0, 2.0])), z=1.7, m_dim=2)
        assert sol.mean == pytest.approx(3 * math.log(1.7), abs=1e-10)

    def test_vanishing_power_approaches_noise_floor_monotonically(self):
        stats = make_stats("lbi")
        n = stats.receiver("B").n
        floor = n * math.log(stats.receiver("B").sigma2)
        P_W, _ = uniform_precoders(stats.M, 1.0, split_w=1.0, split_v=0.0)
        vals = []
        for c in [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
            vals.append(solve_term(stats, "B", c * P_W).mean)
        diffs = np.array(vals) - floor
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 1e-3

    def test_noise_doubling_shifts_by_at_most_n_log_two(self):
        base = make_stats("double", sigma2_B=0.8)
        doubled = make_stats("double", sigma2_B=1.6)
        P_W, _ = uniform_precoders(base.M, 1.0)
        n = base.receiver("B").n
        lo = solve_term(base, "B", P_W).mean
        hi = solve_term(doubled, "B", P_W).mean
        assert lo <= hi <= lo + n * math.log(2.0) + 1e-9

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_mean_rate_subtracts_noise_floor(self, kind):
        # each term's floor is its own user's N log z (B: N 3, z 0.8; E1: N 2,
        # z 1.1): the dimension of its receive spectrum and its noise power
        stats = make_stats(kind, N_E=(2,))
        P_W, _ = uniform_precoders(stats.M, 1.0)
        for user in stats.users():
            sol = solve_term(stats, user, P_W)
            n = stats.receiver(user).n
            assert sol.rate == sol.mean - n * math.log(stats.receiver(user).sigma2)


def _logdet(mat: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(mat)
    assert sign.real > 0
    return float(val)


def _rank_deficient_psd(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return A @ A.conj().T / rank


class TestSpectralMeans:
    """The means are eigen-sums; they must equal the log-determinant forms."""

    def test_single_hop_matches_slogdet(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n, l, m = (int(v) for v in rng.integers(2, 10, size=3))
            R = rand_psd(n, rng, scale=1.3)
            # every third T_eff is rank-deficient, as a precoder of low rank makes it
            T_eff = (_rank_deficient_psd(l, max(1, l // 3), rng) if trial % 3 == 0
                     else rand_psd(l, rng, scale=0.7))
            z = float(rng.uniform(0.3, 2.5))
            sol = solve_lbi(spectrum(R), spectrum(T_eff), z=z, m_dim=m)
            dense = (_logdet(z * np.eye(n) + sol.alpha_bar * R)
                     + _logdet(np.eye(l) + sol.alpha * T_eff)
                     - m * sol.alpha * sol.alpha_bar)
            assert sol.mean == pytest.approx(dense, rel=1e-12)

    def test_double_hop_matches_slogdet(self):
        rng = np.random.default_rng(22)
        for trial in range(12):
            n, l, m = (int(v) for v in rng.integers(2, 10, size=3))
            R, S = rand_psd(n, rng, scale=1.1), rand_psd(l, rng, scale=0.9)
            T_eff = (_rank_deficient_psd(m, max(1, m // 3), rng) if trial % 3 == 0
                     else rand_psd(m, rng, scale=0.8))
            z = float(rng.uniform(0.3, 2.5))
            sol = solve_ds(spectrum(R), spectrum(S), spectrum(T_eff), z=z, m_dim=m, l_dim=l)
            dense = (_logdet(z * np.eye(n) + sol.kappa * R)
                     + _logdet(np.eye(l) + sol.delta * sol.omega_bar * S)
                     + _logdet(np.eye(m) + sol.omega * T_eff)
                     - 2.0 * m * sol.omega * sol.omega_bar)
            assert sol.mean == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("n, rank", [(7, 3), (5, 5), (6, 0)])
    def test_gram_spectrum_matches_the_full_one(self, n, rank):
        # a factor with fewer columns than rows is decomposed through its Gram
        rng = np.random.default_rng(23)
        factor = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        gram, full = Spectrum.of_factor(factor), Spectrum.of_matrix(factor @ factor.conj().T)
        assert gram.gram == (rank < n)
        assert np.allclose(spectrum_matrix(gram), spectrum_matrix(full), atol=1e-12)
        assert np.allclose(gram.resolvent(0.7, 1.9), full.resolvent(0.7, 1.9), atol=1e-12)
        assert gram.logdet(0.7, 1.9) == pytest.approx(full.logdet(0.7, 1.9), rel=1e-12)
        product = spectrum_matrix(full) @ full.resolvent(0.7, 1.9)
        for spec in (gram, full):
            root = spec.resolvent_root(0.7, 1.9)
            assert np.allclose(root @ root.conj().T, product, atol=1e-12)

    def test_transmit_spectrum_is_that_of_the_effective_correlation(self):
        rng = np.random.default_rng(24)
        for kind in ("lbi", "double"):
            stats = make_stats(kind)
            P = _rank_deficient_psd(stats.M, 2, rng)
            dense = np.linalg.eigvalsh(effective_transmit_corr(stats, "E1", P))
            lam = transmit_spectra(stats, ["E1"], P)["E1"].lam
            got = np.sort(np.concatenate([lam, np.zeros(dense.size - lam.size)]))
            assert np.allclose(got, dense, atol=1e-12)


class TestZeroTransmitSpectrum:
    def test_single_hop_closed_form(self):
        rng = np.random.default_rng(25)
        R = rand_psd(3, rng, scale=1.4)
        z, m = 0.6, 5
        for t in (spectrum(np.zeros((4, 4))), Spectrum(np.zeros(0), np.zeros((4, 0)), gram=True)):
            sol = solve_lbi(spectrum(R), t, z=z, m_dim=m)
            assert sol.alpha_bar == 0.0
            assert sol.alpha == pytest.approx(np.trace(R).real / (m * z), rel=1e-14)
            assert sol.mean == pytest.approx(3 * math.log(z), rel=1e-14)
            # the closed form is the start point, and the first test accepts it
            assert sol.n_iter == 1
            assert sol.residual == 0.0

    def test_zero_precoder_term_has_zero_mean_rate(self):
        stats = make_stats("lbi")
        _, P_V = uniform_precoders(stats.M, 1.0, split_w=1.0, split_v=0.0)
        assert transmit_spectra(stats, ["B"], P_V)["B"].lam.size == 0
        for user in stats.users():
            sol = solve_term(stats, user, P_V)
            assert sol.alpha_bar == 0.0
            assert sol.rate == 0.0


class TestWarmStart:
    def test_double_hop_warm_start_reaches_the_cold_point_sooner(self):
        # a phase step moves the surface Gram S; the solve from the previous
        # design's fixed point lands on the new cold fixed point in fewer steps
        stats = make_stats("double")
        P = uniform_precoders(stats.M, 1.0)[0]
        moved = stats.with_theta(stats.theta + 0.05 * np.sin(np.arange(stats.L)))
        for user in stats.users():
            before = solve_term(stats, user, P)
            cold = solve_term(moved, user, P)
            warm = solve_term(moved, user, P, start=before.point)
            for got, want in zip(warm.point, cold.point):
                assert abs(got - want) < fixedpoint.TOL
            assert warm.n_iter < cold.n_iter

    def test_single_hop_solve_takes_no_start(self):
        stats = make_stats("lbi")
        P = uniform_precoders(stats.M, 1.0)[0]
        with pytest.raises(ValueError, match="no start point"):
            solve_all(stats, [MiDescriptor("B", "W")], {"W": P}, starts=[(1.0, 1.0)])


class TestSolveAll:
    """``solve_all`` solves a design's terms together, decomposing each input
    that they share once, and gives the solutions one-term calls give."""

    @staticmethod
    def _an_terms(kind):
        stats = make_stats(kind, N_E=(3, 2))
        descs, precs, _ = secrecy_terms(stats, *uniform_precoders(stats.M, 2.0))
        return stats, descs, precs

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_joint_solves_match_one_term_solves(self, kind):
        stats, descs, precs = self._an_terms(kind)
        joint = solve_all(stats, descs, precs)
        assert len(descs) == 6
        for d, sol in zip(descs, joint):
            alone = solve_all(stats, [d], precs)[0]
            assert type(alone) is type(sol)
            for f in dataclasses.fields(sol):
                got, want = getattr(sol, f.name), getattr(alone, f.name)
                if isinstance(got, Spectrum):
                    assert np.array_equal(got.lam, want.lam)
                    assert np.array_equal(got.vecs, want.vecs)
                else:
                    assert got == want, f.name  # every scalar, n_iter and residual
            assert sol.mean == alone.mean

    def test_double_hop_terms_share_their_decompositions(self, monkeypatch):
        stats, descs, precs = self._an_terms("double")
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        sols = solve_all(stats, descs, precs)
        # terms (BU, BV, E1U, E1V, E2U, E2V): one Gram per user, one T_eff per
        # precoder, and no other decomposition
        assert sorted(calls) == sorted([(stats.L, stats.L)] * 3 + [(stats.M, stats.M)] * 2)
        for i in (0, 2, 4):
            assert sols[i].s is sols[i + 1].s
            assert sols[i].t is sols[0].t and sols[i + 1].t is sols[1].t
        assert sols[0].s is not sols[2].s and sols[2].s is not sols[4].s
        assert sols[0].t is not sols[1].t

    def test_single_hop_precoders_are_rooted_once_per_call(self, monkeypatch):
        # an AN design against two eavesdroppers: terms (BU, BV, E1U, E1V,
        # E2U, E2V) take one root per precoder and one T_eff Gram per term
        stats = make_stats("lbi", N_E=(3, 2))
        calls = []
        psd_eig = scenario_module.psd_eig
        monkeypatch.setattr(scenario_module, "psd_eig",
                            lambda mat, name: calls.append(name) or psd_eig(mat, name))
        build_multi_eve_model(stats, *uniform_precoders(stats.M, 2.0))
        assert sorted(calls) == ["T_eff"] * 6 + ["precoder"] * 2

    def test_single_hop_transmit_spectra_are_per_term(self):
        # the aperture differs per user, so no two terms share T_eff
        stats, descs, precs = self._an_terms("lbi")
        sols = solve_all(stats, descs, precs)
        assert len({id(sol.t) for sol in sols}) == len(sols)

    @pytest.mark.parametrize("starts", [[], [None], [None] * 3])
    def test_starts_must_match_the_descriptors(self, starts):
        stats = make_stats("double")
        descs, precs, _ = secrecy_terms(stats, uniform_precoders(stats.M, 1.0)[0])
        with pytest.raises(ModelError, match="start points for 2 descriptors"):
            solve_all(stats, descs, precs, starts=starts)


class TestEffectiveTransmitCorrelation:
    """``transmit_spectra`` as matrices: T_eff of the precoder."""

    def test_identity_precoder_returns_transmit_correlation(self):
        stats = make_stats("double")
        T_eff = spectrum_matrix(transmit_spectra(stats, ["B"], np.eye(stats.M, dtype=complex))["B"])
        assert np.allclose(T_eff, stats.T, atol=1e-12)

    def test_zero_precoder_returns_zero(self):
        for kind in ("lbi", "double"):
            stats = make_stats(kind)
            T_eff = spectrum_matrix(transmit_spectra(stats, ["E1"], np.zeros((stats.M, stats.M)))["E1"])
            assert np.allclose(T_eff, 0.0, atol=1e-14)

    def test_random_precoder_gives_psd(self):
        rng = np.random.default_rng(5)
        for kind in ("lbi", "double"):
            stats = make_stats(kind)
            T_eff = spectrum_matrix(transmit_spectra(stats, ["B"], rand_psd(stats.M, rng))["B"])
            assert np.linalg.eigvalsh(T_eff).min() > -1e-10


class TestDescriptors:
    """The terms and precoders of ``secrecy_terms``."""

    def test_wiretap_layout(self):
        stats = make_stats("lbi", N_E=(3, 2))
        descs, _, _ = secrecy_terms(stats, uniform_precoders(stats.M, 1.0)[0])
        assert [d.label for d in descs] == ["BW", "E1W", "E2W"]
        # one term per user, so no two terms share a factor
        assert len({d.user for d in descs}) == 3
        assert descs[1] == MiDescriptor(user="E1", precoder="W")

    def test_an_layout_shares_x_per_user(self):
        stats = make_stats("double")
        descs, _, _ = secrecy_terms(stats, *uniform_precoders(stats.M, 1.0))
        assert [d.label for d in descs] == ["BU", "BV", "E1U", "E1V"]
        assert descs[0].user == descs[1].user
        assert descs[2].user == descs[3].user
        assert descs[0].user != descs[2].user

    def test_eve_subset_selection(self):
        stats = make_stats("lbi", N_E=(3, 2))
        descs, _, _ = secrecy_terms(stats, uniform_precoders(stats.M, 1.0)[0], eves=["E2"])
        assert [d.label for d in descs] == ["BW", "E2W"]

    def test_precoder_map_keys(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 1.0)
        _, m, _ = secrecy_terms(stats, P_W, P_V)
        assert set(m) == {"W", "V", "U"}
        assert np.allclose(m["U"], P_W + P_V)
        _, m2, _ = secrecy_terms(stats, P_W)
        assert np.allclose(m2["U"], P_W)
        assert np.allclose(m2["V"], 0.0)

    def test_invalid_descriptor_fields(self):
        with pytest.raises(ModelError):
            MiDescriptor(user="B", precoder="Q")

    @pytest.mark.parametrize("noise", [
        {"sigma2_B": 0.0}, {"sigma2_E": -1.0}, {"sigma2_B": math.nan},
        {"sigma2_E": math.nan}, {"sigma2_B": math.inf}, {"sigma2_E": math.inf},
    ])
    def test_nonpositive_noise_power_is_rejected(self, noise):
        # every term takes its noise power from the statistics, so this
        # check guards them all
        with pytest.raises(ModelError, match="noise powers must be positive"):
            make_stats("lbi", **noise)
