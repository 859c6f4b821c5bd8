"""Asymptotic covariances of joint mutual-information vectors."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irs_secrecy.cltcov import (
    CovarianceValidityWarning,
    LbiPairQuantities,
    PairQuantities,
    cov_entry_ds,
    cov_entry_lbi,
    joint_cov,
    lbi_pair_quantities,
    pair_quantities,
    solve_all,
)
from irs_secrecy.errors import InvalidCovarianceError
from irs_secrecy.fixedpoint import LbiSolution
from irs_secrecy.scenario import Spectrum
from irs_secrecy.secrecy import esr_an, secrecy_terms

from conftest import make_stats, uniform_precoders


def _an_setup(kind, **kwargs):
    stats = make_stats(kind, **kwargs)
    P_W, P_V = uniform_precoders(stats.M, 2.0)
    descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=["E1"])
    sols = solve_all(stats, descs, precs)
    return stats, precs, descs, sols


class TestPairFunctionalsScalarOracle:
    """With every dimension equal to one, each trace collapses to scalar
    arithmetic that can be recomputed by hand from the solution fields."""

    def test_double_hop_pair_matches_scalar_arithmetic(self):
        stats, _, descs, sols = _an_setup("double", M=1, L=1, N_B=1, N_E=(1,))
        d_u, d_v = descs[0], descs[1]  # same user, different precoders
        s_u, s_v = sols[0], sols[1]

        pair = pair_quantities(stats, d_u, d_v, s_u, s_v)

        S = float(s_u.S[0, 0].real)
        nu_S = S * float(s_u.G_S[0, 0].real) * S * float(s_v.G_S[0, 0].real)
        nu_T = (
            float(s_u.T_eff[0, 0].real) * float(s_u.G_T[0, 0].real)
            * float(s_v.T_eff[0, 0].real) * float(s_v.G_T[0, 0].real)
        )
        delta_s = 1.0 - nu_S * nu_T
        R = float(s_u.R[0, 0].real)
        nu_R = R * float(s_u.G_R[0, 0].real) * R * float(s_v.G_R[0, 0].real)
        root_s = complex(stats.ds_plus_half("B")[0, 0])
        nu_si = abs(root_s) ** 2 * float(s_u.G_S[0, 0].real) * float(s_v.G_S[0, 0].real)
        nu_si_sym = nu_si**2
        di, dj = s_u.delta, s_v.delta
        delta = (
            1.0
            - s_u.omega_bar * s_v.omega_bar * nu_R * nu_S / (di * dj)
            - nu_R * nu_si_sym * nu_T / (di**2 * dj**2 * delta_s)
        )

        assert pair.nu_S == pytest.approx(nu_S, rel=1e-12)
        assert pair.nu_T == pytest.approx(nu_T, rel=1e-12)
        assert pair.Delta_S == pytest.approx(delta_s, rel=1e-12)
        assert pair.nu_R == pytest.approx(nu_R, rel=1e-12)
        assert pair.nu_SI_sym == pytest.approx(nu_si_sym, rel=1e-12)
        assert pair.Delta == pytest.approx(delta, rel=1e-12)
        assert cov_entry_ds(pair) == pytest.approx(
            -math.log(delta) - math.log(delta_s), rel=1e-12
        )

    def test_single_hop_pair_matches_scalar_arithmetic(self):
        stats, _, descs, sols = _an_setup("lbi", M=1, L=1, N_B=1, N_E=(1,))
        s_u, s_v = sols[0], sols[1]
        pair = lbi_pair_quantities(s_u, s_v)

        R = float(s_u.R[0, 0].real)
        g_r = R * float(s_u.L_R[0, 0].real) * R * float(s_v.L_R[0, 0].real)
        g_t = (
            float(s_u.T_eff[0, 0].real) * float(s_u.L_T[0, 0].real)
            * float(s_v.T_eff[0, 0].real) * float(s_v.L_T[0, 0].real)
        )
        assert pair.gamma_R == pytest.approx(g_r, rel=1e-12)
        assert pair.gamma_T == pytest.approx(g_t, rel=1e-12)
        assert pair.Xi == pytest.approx(1.0 - g_r * g_t, rel=1e-12)
        assert cov_entry_lbi(pair) == pytest.approx(
            -math.log(1.0 - g_r * g_t), rel=1e-12
        )


class TestPairFunctionalSymmetry:
    def test_double_hop_swap_invariance(self):
        stats, _, descs, sols = _an_setup("double")
        pair_uv = pair_quantities(stats, descs[0], descs[1], sols[0], sols[1])
        pair_vu = pair_quantities(stats, descs[1], descs[0], sols[1], sols[0])
        for field in ("nu_S", "nu_T", "Delta_S", "nu_R", "nu_SI_sym", "Delta"):
            assert getattr(pair_uv, field) == pytest.approx(
                getattr(pair_vu, field), rel=1e-12
            ), field

    def test_single_hop_swap_invariance(self):
        stats, _, descs, sols = _an_setup("lbi")
        p_uv = lbi_pair_quantities(sols[0], sols[1])
        p_vu = lbi_pair_quantities(sols[1], sols[0])
        assert p_uv.gamma_R == pytest.approx(p_vu.gamma_R, rel=1e-12)
        assert p_uv.gamma_T == pytest.approx(p_vu.gamma_T, rel=1e-12)
        assert p_uv.Xi == pytest.approx(p_vu.Xi, rel=1e-12)

    def test_double_hop_diagonal_pair_is_real_and_valid(self):
        stats, _, descs, sols = _an_setup("double")
        pair = pair_quantities(stats, descs[0], descs[0], sols[0], sols[0])
        assert pair.valid
        assert pair.nu_SI_sym > 0.0
        assert 0.0 < pair.Delta <= 1.0
        assert 0.0 < pair.Delta_S <= 1.0


class TestCovarianceEntries:
    def test_cross_user_double_hop_drops_the_shared_factor_term(self):
        stats, precs, _, _ = _an_setup("double")
        descs, precs, _ = secrecy_terms(stats, precs["W"], eves=["E1"])
        sols = solve_all(stats, descs, precs)
        pair = pair_quantities(stats, descs[0], descs[1], sols[0], sols[1])
        assert pair.nu_R is None and pair.nu_SI_sym is None and pair.Delta is None
        entry = cov_entry_ds(pair)
        assert entry == pytest.approx(-math.log(pair.Delta_S), rel=1e-12)
        assert entry > 0.0

    def test_zero_precoder_decouples_the_pair(self):
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        descs, precs, _ = secrecy_terms(stats, P_W, np.zeros((stats.M, stats.M)), eves=[])
        assert [d.precoder for d in descs] == ["U", "V"]
        sols = solve_all(stats, descs, precs)
        pair = pair_quantities(stats, descs[0], descs[1], sols[0], sols[1])
        assert pair.nu_T == pytest.approx(0.0, abs=1e-15)
        assert pair.Delta_S == pytest.approx(1.0, abs=1e-15)
        # the scatter-only entry -log Delta_S
        scatter = replace(pair, nu_R=None, nu_SI_sym=None, Delta=None)
        assert cov_entry_ds(scatter) == pytest.approx(0.0, abs=1e-14)
        # the same-user term vanishes too: the V term's omega_bar is exactly 0,
        # so Delta is 1 up to roundoff
        assert pair.Delta == pytest.approx(1.0, abs=1e-15)

    def test_single_hop_entry_vanishes_with_the_signal(self):
        stats = make_stats("lbi")
        entries = []
        for c in [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
            P_W, P_V = uniform_precoders(stats.M, c * 2.0)
            descs, precs, _ = secrecy_terms(stats, P_W, P_V, eves=[])
            sols = solve_all(stats, descs, precs)
            pair = lbi_pair_quantities(sols[0], sols[1])
            assert pair.valid
            entries.append(cov_entry_lbi(pair))
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
            cov = joint_cov(stats, descs, solve_all(stats, descs, precs))
            assert cov.shape == (1, 1)
            assert cov[0, 0] > 0.0

    def test_four_term_noise_injection_structure(self):
        stats, precs, descs, sols = _an_setup("double")
        mat = joint_cov(stats, descs, sols)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) > 0.0)
        # same-user off-diagonal entries carry the shared-factor term
        pair_b = pair_quantities(stats, descs[0], descs[1], sols[0], sols[1])
        assert mat[0, 1] == pytest.approx(cov_entry_ds(pair_b), rel=1e-12)
        # cross-user entries reduce to the scatter-only term
        pair_x = pair_quantities(stats, descs[0], descs[2], sols[0], sols[2])
        assert pair_x.Delta is None
        assert mat[0, 2] == pytest.approx(cov_entry_ds(pair_x), rel=1e-12)
        assert mat[0, 2] < mat[0, 1]

    def test_single_hop_block_diagonal_across_users(self):
        stats, _, descs, sols = _an_setup("lbi")
        mat = joint_cov(stats, descs, sols)
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
        cov = joint_cov(stats, descs, sols)
        u = np.array([1.0, -1.0, -1.0, 1.0])
        manual = sum(u[i] * cov[i, j] * u[j] for i in range(4) for j in range(4))
        variance = esr_an(stats, precs["W"], precs["V"], eve="E1").variance
        assert variance == pytest.approx(manual, rel=1e-14)

    def test_solve_all_caches_repeated_descriptors(self):
        stats, precs, descs, _ = _an_setup("double")
        repeated = [descs[0], descs[1], descs[0]]
        sols = solve_all(stats, repeated, precs)
        assert sols[0] is sols[2]
        assert sols[0] is not sols[1]


class TestValidityGuards:
    def test_negative_scatter_discriminant_raises(self):
        pair = PairQuantities(
            nu_S=2.0, nu_T=1.0, Delta_S=-0.5,
            nu_R=None, nu_SI_sym=None, Delta=None, valid=False,
        )
        with pytest.raises(InvalidCovarianceError):
            cov_entry_ds(pair)

    def test_negative_shared_discriminant_raises(self):
        pair = PairQuantities(
            nu_S=0.2, nu_T=0.2, Delta_S=0.96,
            nu_R=0.5, nu_SI_sym=0.5, Delta=-0.25, valid=False,
        )
        with pytest.raises(InvalidCovarianceError):
            cov_entry_ds(pair)
        # the scatter-only entry of the same functionals is still well defined
        assert cov_entry_ds(replace(pair, nu_R=None, nu_SI_sym=None, Delta=None)) > 0.0

    def test_single_hop_out_of_range_raises(self):
        pair = LbiPairQuantities(gamma_R=2.0, gamma_T=1.0, Xi=-1.0, valid=False)
        with pytest.raises(InvalidCovarianceError):
            cov_entry_lbi(pair)

    def test_out_of_range_pair_warns_and_flags_invalid(self):
        # R = T_eff = 2 I with zero scalars: L_R = L_T = I
        two = Spectrum.of_matrix(2.0 * np.eye(2))
        sol = LbiSolution(alpha=0.0, alpha_bar=0.0, z=1.0, r=two, t=two, m_dim=1,
                          n_iter=1, residual=0.0)
        with pytest.warns(CovarianceValidityWarning):
            pair = lbi_pair_quantities(sol, sol)
        assert not pair.valid
        assert pair.Xi < 0.0

    def test_in_range_pairs_do_not_warn(self):
        stats, _, descs, sols = _an_setup("double")
        with warnings.catch_warnings():
            warnings.simplefilter("error", CovarianceValidityWarning)
            pair = pair_quantities(stats, descs[0], descs[1], sols[0], sols[1])
        assert pair.valid
