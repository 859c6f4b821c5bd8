"""Asymptotic covariances of joint mutual-information vectors."""

import math
import warnings

import numpy as np
import pytest

from irs_secrecy.cltcov import CovarianceValidityWarning, joint_cov
from irs_secrecy.errors import InvalidCovarianceError
from irs_secrecy.fixedpoint import DsSolution, LbiSolution, MiDescriptor, solve_all
from irs_secrecy.scenario import Spectrum, build_scenario, parse_config
from irs_secrecy.secrecy import esr_an, secrecy_terms

from conftest import config_dict, make_stats, spectrum_matrix, uniform_precoders


def _an_setup(kind, **kwargs):
    stats = make_stats(kind, **kwargs)
    P_W, P_V = uniform_precoders(stats.M, 2.0)
    descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=["E1"])
    sols = solve_all(stats, descs, precs)
    return stats, precs, descs, sols


def _trace(*mats) -> float:
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return float(np.trace(prod).real)


def _dense_factors(stats, desc_i, desc_j, sol_i, sol_j) -> tuple:
    """(Delta_S, Delta) of a double-hop pair from dense four-matrix traces,
    with nu_SI as the ordered product nu_SI(i,j) nu_SI(j,i) of the traces
    (1/M) Tr[S_i^{-/2} S_j^{+/2} G_S,j G_S,i]; Delta is None across users."""
    m, ell = float(sol_i.m_dim), float(sol_i.l_dim)

    def dense(sol):
        return (spectrum_matrix(sol.r), sol.r.resolvent(sol.z, sol.kappa),
                spectrum_matrix(sol.s), sol.s.resolvent(1.0 / sol.delta, sol.omega_bar),
                spectrum_matrix(sol.t), sol.t.resolvent(1.0, sol.omega))

    R_i, G_R_i, S_i, G_S_i, T_i, G_T_i = dense(sol_i)
    R_j, G_R_j, S_j, G_S_j, T_j, G_T_j = dense(sol_j)
    nu_S = _trace(S_i, G_S_i, S_j, G_S_j) / m
    nu_T = _trace(T_i, G_T_i, T_j, G_T_j) / m
    Delta_S = 1.0 - nu_S * nu_T
    if desc_i.user != desc_j.user:
        return Delta_S, None
    nu_R = _trace(R_i, G_R_i, R_j, G_R_j) / ell
    minus_i = stats.ds_plus_half(desc_i.user).conj().T
    plus_j = stats.ds_plus_half(desc_j.user)
    nu_si_ij = np.trace(minus_i @ plus_j @ G_S_j @ G_S_i) / m
    nu_si_ji = np.trace(plus_j.conj().T @ minus_i.conj().T @ G_S_i @ G_S_j) / m
    nu_SI_sym = float((nu_si_ij * nu_si_ji).real)
    d_i, d_j = sol_i.delta, sol_j.delta
    Delta = (1.0
             - m * sol_i.omega_bar * sol_j.omega_bar * nu_R * nu_S / (ell * d_i * d_j)
             - m * nu_R * nu_SI_sym * nu_T / (ell * d_i**2 * d_j**2 * Delta_S))
    return Delta_S, Delta


def _dense_entry(stats, desc_i, desc_j, sol_i, sol_j) -> float:
    Delta_S, Delta = _dense_factors(stats, desc_i, desc_j, sol_i, sol_j)
    return -math.log(Delta_S) - (0.0 if Delta is None else math.log(Delta))


def _ds_solution(delta, omega, omega_bar, R, S, T, m_dim=1, l_dim=1) -> DsSolution:
    """A double-hop solution with the given scalars and inputs, unit noise;
    the Jacobian functionals are not read by ``joint_cov`` and are zero."""
    return DsSolution(delta=delta, omega=omega, omega_bar=omega_bar, z=1.0,
                      r=Spectrum.of_matrix(R), s=Spectrum.of_matrix(S),
                      t=Spectrum.of_matrix(T), m_dim=m_dim, l_dim=l_dim, n_iter=1,
                      residual=0.0, nu_R=0.0, nu_S=0.0, nu_SI=0.0, nu_T=0.0)


class TestPairFunctionalsScalarOracle:
    """With every dimension equal to one, each trace collapses to scalar
    arithmetic that can be recomputed by hand from the inputs and the
    solution scalars."""

    def test_double_hop_pair_matches_scalar_arithmetic(self):
        stats, precs, descs, sols = _an_setup("double", M=1, L=1, N_B=1, N_E=(1,))
        s_u, s_v, s_x = sols[0], sols[1], sols[2]  # BU, BV (same user), E1U

        def scalars(user, desc, sol):
            R = float(stats.receiver(user).r.lam[0])
            S = float(stats.ds_gram(user)[0, 0].real)
            T = float(stats.T[0, 0].real) * float(precs[desc.precoder][0, 0].real)
            kappa = sol.omega * sol.omega_bar / sol.delta
            g_r = 1.0 / (sol.z + kappa * R)
            g_s = 1.0 / (1.0 / sol.delta + sol.omega_bar * S)
            g_t = 1.0 / (1.0 + sol.omega * T)
            return R * g_r, S * g_s, T * g_t, g_s, S

        rg_u, sg_u, tg_u, g_u, S = scalars("B", descs[0], s_u)
        rg_v, sg_v, tg_v, g_v, _ = scalars("B", descs[1], s_v)
        delta_s = 1.0 - sg_u * sg_v * tg_u * tg_v
        nu_si = S * g_u * g_v
        di, dj = s_u.delta, s_v.delta
        delta = (1.0
                 - s_u.omega_bar * s_v.omega_bar * rg_u * rg_v * sg_u * sg_v / (di * dj)
                 - rg_u * rg_v * nu_si**2 * tg_u * tg_v / (di**2 * dj**2 * delta_s))
        _, sg_x, tg_x, _, _ = scalars("E1", descs[2], s_x)

        mat = joint_cov(descs, sols)
        assert mat[0, 1] == pytest.approx(-math.log(delta) - math.log(delta_s), rel=1e-12)
        assert mat[0, 2] == pytest.approx(-math.log(1.0 - sg_u * sg_x * tg_u * tg_x),
                                          rel=1e-12)

    def test_single_hop_pair_matches_scalar_arithmetic(self):
        stats, precs, descs, sols = _an_setup("lbi", M=1, L=1, N_B=1, N_E=(1,))
        s_u, s_v = sols[0], sols[1]
        R = float(stats.receiver("B").r.lam[0])
        # (M/L) |A|^2 P with A = T_S^{1/2} e^{j theta} H_0 T^{1/2}, |H_0| = 1
        aperture = float(stats.receiver("B").ts[0, 0].real) * float(stats.T[0, 0].real)
        T_u = aperture * float(precs["U"][0, 0].real)
        T_v = aperture * float(precs["V"][0, 0].real)
        g_r = R / (s_u.z + s_u.alpha_bar * R) * R / (s_v.z + s_v.alpha_bar * R)
        g_t = T_u / (1.0 + s_u.alpha * T_u) * T_v / (1.0 + s_v.alpha * T_v)

        mat = joint_cov(descs, sols)
        assert mat[0, 1] == pytest.approx(-math.log(1.0 - g_r * g_t), rel=1e-12)
        assert mat[0, 2] == 0.0


class TestPairFunctionalSymmetry:
    """``joint_cov`` evaluates each pair once, in descriptor order; a
    reversed descriptor order evaluates every pair the other way round."""

    @staticmethod
    def _reversed_matches(kind):
        stats, _, descs, sols = _an_setup(kind)
        mat = joint_cov(descs, sols)
        rev = joint_cov(descs[::-1], sols[::-1])
        np.testing.assert_allclose(rev[::-1, ::-1], mat, rtol=1e-12, atol=0.0)

    def test_double_hop_swap_invariance(self):
        self._reversed_matches("double")

    def test_single_hop_swap_invariance(self):
        self._reversed_matches("lbi")

    def test_double_hop_diagonal_pair_is_real_and_valid(self):
        stats, _, descs, sols = _an_setup("double")
        with warnings.catch_warnings():
            warnings.simplefilter("error", CovarianceValidityWarning)
            mat = joint_cov(descs, sols)
        assert mat.dtype == np.float64
        for i in range(len(descs)):
            Delta_S, Delta = _dense_factors(stats, descs[i], descs[i], sols[i], sols[i])
            assert 0.0 < Delta <= 1.0 and 0.0 < Delta_S <= 1.0
            assert mat[i, i] == pytest.approx(-math.log(Delta) - math.log(Delta_S), rel=1e-12)
            assert mat[i, i] > 0.0


class TestCovarianceEntries:
    def test_cross_user_double_hop_drops_the_shared_factor_term(self):
        stats, precs, _, _ = _an_setup("double")
        descs, precs, _ = secrecy_terms(stats, precs["W"], eves=["E1"])
        sols = solve_all(stats, descs, precs)
        Delta_S, Delta = _dense_factors(stats, descs[0], descs[1], sols[0], sols[1])
        assert Delta is None
        entry = joint_cov(descs, sols)[0, 1]
        assert entry == pytest.approx(-math.log(Delta_S), rel=1e-12)
        assert entry > 0.0

    def test_zero_precoder_decouples_the_pair(self):
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        descs, precs, _ = secrecy_terms(stats, P_W, np.zeros((stats.M, stats.M)), eves=[])
        assert [d.precoder for d in descs] == ["U", "V"]
        sols = solve_all(stats, descs, precs)
        Delta_S, Delta = _dense_factors(stats, descs[0], descs[1], sols[0], sols[1])
        assert Delta_S == pytest.approx(1.0, abs=1e-15)
        # the same-user term vanishes too: the V term's omega_bar is exactly 0,
        # so Delta is 1 up to roundoff
        assert Delta == pytest.approx(1.0, abs=1e-15)
        mat = joint_cov(descs, sols)
        assert mat[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert mat[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_single_hop_entry_vanishes_with_the_signal(self):
        stats = make_stats("lbi")
        entries = []
        for c in [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
            P_W, P_V = uniform_precoders(stats.M, c * 2.0)
            descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=[])
            sols = solve_all(stats, descs, precs)
            with warnings.catch_warnings():
                warnings.simplefilter("error", CovarianceValidityWarning)
                entries.append(joint_cov(descs, sols)[0, 1])
        entries = np.array(entries)
        assert np.all(entries > 0.0)
        assert np.all(np.diff(entries) < 0.0)
        assert entries[-1] < 1e-6
        # quadratic decay once the low-power regime is reached
        assert entries[-1] / entries[-2] < 0.02


class TestJointCovariance:
    def test_single_descriptor_gives_positive_one_by_one(self):
        for kind in ("lbi", "double"):
            stats = make_stats(kind)
            P_W, _ = uniform_precoders(stats.M, 2.0)
            descs, precs, _ = secrecy_terms(stats, P_W, eves=[])
            cov = joint_cov(descs, solve_all(stats, descs, precs))
            assert cov.shape == (1, 1)
            assert cov[0, 0] > 0.0

    def test_four_term_noise_injection_structure(self):
        stats, precs, descs, sols = _an_setup("double")
        mat = joint_cov(descs, sols)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) > 0.0)
        # same-user off-diagonal entries carry the shared-factor term
        assert mat[0, 1] == pytest.approx(
            _dense_entry(stats, descs[0], descs[1], sols[0], sols[1]), rel=1e-12)
        # cross-user entries reduce to the scatter-only term
        assert _dense_factors(stats, descs[0], descs[2], sols[0], sols[2])[1] is None
        assert mat[0, 2] == pytest.approx(
            _dense_entry(stats, descs[0], descs[2], sols[0], sols[2]), rel=1e-12)
        assert mat[0, 2] < mat[0, 1]

    def test_single_hop_block_diagonal_across_users(self):
        stats, _, descs, sols = _an_setup("lbi")
        mat = joint_cov(descs, sols)
        assert mat.shape == (4, 4)
        # users are (B, B, E1, E1); the 2x2 cross blocks are identically zero
        assert np.all(mat[:2, 2:] == 0.0)
        assert np.all(mat[2:, :2] == 0.0)
        assert np.all(np.diag(mat) > 0.0)
        assert mat[0, 1] > 0.0 and mat[2, 3] > 0.0

    def test_quad_form_matches_manual_contraction(self):
        # the report's variance is the selector's quadratic form of the
        # joint covariance of its four terms (BU, BV, E1U, E1V)
        stats, precs, descs, sols = _an_setup("double")
        cov = joint_cov(descs, sols)
        u = np.array([1.0, -1.0, -1.0, 1.0])
        manual = sum(u[i] * cov[i, j] * u[j] for i in range(4) for j in range(4))
        variance = esr_an(stats, precs["W"], precs["V"]).variance
        assert variance == pytest.approx(manual, rel=1e-14)

    def test_solve_all_caches_repeated_descriptors(self):
        stats, precs, descs, _ = _an_setup("double")
        repeated = [descs[0], descs[1], descs[0]]
        sols = solve_all(stats, repeated, precs)
        assert sols[0] is sols[2]
        assert sols[0] is not sols[1]

    @pytest.mark.parametrize("M, L, N", [(4, 8, 2), (8, 16, 4)])
    def test_double_hop_matches_the_dense_traces(self, M, L, N):
        # every entry of a two-eavesdropper noise-injection analysis against
        # the dense four-matrix traces and the ordered nu_SI product
        cfg = config_dict("double", M=M, L=L, N_B=N, N_E=(N, N), split_w=0.9, split_v=0.1,
                          theta_init="uniform")
        scenario = build_scenario(parse_config(cfg), seed=3)
        stats = scenario.stats
        descs, precs, _ = secrecy_terms(stats, *scenario.precoders())
        assert len(descs) == 6
        sols = solve_all(stats, descs, precs)
        mat = joint_cov(descs, sols)
        dense = np.array([[_dense_entry(stats, descs[i], descs[j], sols[i], sols[j])
                           for j in range(6)] for i in range(6)])
        np.testing.assert_allclose(mat, dense, rtol=1e-12, atol=0.0)


class TestValidityGuards:
    def test_negative_scatter_discriminant_raises(self):
        # S = T = 2 I with zero loadings: nu_S = nu_T = 8, Delta_S = -63,
        # which raises before Delta is read
        two = 2.0 * np.eye(2)
        sol = _ds_solution(1.0, 0.0, 0.0, np.eye(1), two, two)
        with pytest.warns(CovarianceValidityWarning, match=r"pair \(BW, BW\)"), \
                pytest.raises(InvalidCovarianceError, match=r"^Delta_S = -6\.300e\+01"):
            joint_cov([MiDescriptor("B", "W")], [sol])

    def test_negative_shared_discriminant_raises(self):
        # Delta_S = 1 - (100/101)^2 0.04 is in range; Delta is about -2.9
        sol = _ds_solution(1.0, 0.0, 1.0, np.array([[2.0]]), np.array([[100.0]]),
                           np.array([[0.2]]))
        descs = [MiDescriptor("B", "U"), MiDescriptor("B", "V")]
        # the warning shows both factors, the scatter-only one in range
        with pytest.warns(CovarianceValidityWarning,
                          match=r"pair \(BU, BU\) .*\(Delta_S=9\.608e-01, Delta=-2\.92"), \
                pytest.raises(InvalidCovarianceError, match=r"^Delta = -2\.92"):
            joint_cov(descs, [sol, sol])

    def test_single_hop_out_of_range_raises(self):
        # R = T_eff = 2 I with zero scalars: L_R = L_T = I, Xi = 1 - 8 * 8
        two = Spectrum.of_matrix(2.0 * np.eye(2))
        sol = LbiSolution(alpha=0.0, alpha_bar=0.0, z=1.0, r=two, t=two, m_dim=1,
                          n_iter=1, residual=0.0)
        descs = [MiDescriptor("B", "U"), MiDescriptor("B", "V")]
        with pytest.warns(CovarianceValidityWarning), \
                pytest.raises(InvalidCovarianceError, match=r"^Xi = -6\.300e\+01"):
            joint_cov(descs, [sol, sol])

    def test_out_of_range_pair_warns_and_flags_invalid(self):
        # the single-hop warning names the pair and its factor before the
        # entry raises
        two = Spectrum.of_matrix(2.0 * np.eye(2))
        sol = LbiSolution(alpha=0.0, alpha_bar=0.0, z=1.0, r=two, t=two, m_dim=1,
                          n_iter=1, residual=0.0)
        descs = [MiDescriptor("B", "U")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidCovarianceError):
                joint_cov(descs, [sol])
        assert [w.category for w in caught] == [CovarianceValidityWarning]
        assert str(caught[0].message) == (
            "pair (BU, BU) outside the asymptotic validity region (Xi=-6.300e+01)")

    def test_in_range_pairs_do_not_warn(self):
        for kind in ("lbi", "double"):
            stats, _, descs, sols = _an_setup(kind)
            with warnings.catch_warnings():
                warnings.simplefilter("error", CovarianceValidityWarning)
                mat = joint_cov(descs, sols)
            assert np.all(np.isfinite(mat))
