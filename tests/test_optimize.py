"""Precoder and phase optimizers: projections, surrogate gradients, the
alternating driver, and the outage descent."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irs_secrecy import fixedpoint, optimize
from irs_secrecy.errors import ConvergenceError, ModelError
from irs_secrecy.fixedpoint import solve_lbi
from irs_secrecy.optimize import (
    algorithm1,
    algorithm2_ao,
    esr_phase_gradient,
    feasibility_violation,
    optimize_sop,
    psd_trace_project,
    sca_gradients,
    signed_an_mean,
    solve_inner_p6,
    sop_phase_gradient,
    wrap_phase,
)
from irs_secrecy.scenario import dbm_to_watts
from irs_secrecy.secrecy import build_multi_eve_model, esr_an, esr_wiretap

from conftest import (effective_transmit_corr, experiment_stats, make_stats, rand_psd,
                      spectrum, uniform_precoders)


def _herm_direction(rng: np.random.Generator, m: int) -> np.ndarray:
    B = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    D = 0.5 * (B + B.conj().T)
    return D / np.linalg.norm(D)


def _surrogate_n(stats, P_W, P_V) -> float:
    """The linearized part of the signed mean: eavesdropper at U, user at V."""
    terms = [("E1", P_W + P_V), ("B", P_V)]
    out = 0.0
    for user, P in terms:
        sol = solve_lbi(stats.receiver(user).r, spectrum(effective_transmit_corr(stats, user, P)),
                        stats.receiver(user).sigma2, stats.M)
        out += sol.mean
    return out


class TestFeasibility:
    def test_zero_for_feasible_pairs(self):
        P = 0.3 * np.eye(3)
        assert feasibility_violation(P, P, 2.0) == 0.0

    def test_reports_trace_excess(self):
        P_W = np.diag([2.0, 1.0]).astype(complex)
        v = feasibility_violation(P_W, np.zeros((2, 2)), 1.0)
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_reports_negative_eigenvalue(self):
        P_W = np.diag([1.0, -0.5]).astype(complex)
        v = feasibility_violation(P_W, np.zeros((2, 2)), 10.0)
        assert v == pytest.approx(0.5, abs=1e-12)


class TestProjection:
    def test_hand_worked_diagonal_case(self):
        P_W = np.diag([0.9, 0.5]).astype(complex)
        P_V = np.diag([-5.0, -0.2]).astype(complex)
        new_w, new_v = psd_trace_project(P_W, P_V, 1.0)
        np.testing.assert_allclose(new_w, np.diag([0.7, 0.3]), atol=1e-12)
        np.testing.assert_allclose(new_v, np.zeros((2, 2)), atol=1e-12)

    def test_beats_random_feasible_candidates(self):
        rng = np.random.default_rng(5)
        budget = 2.0
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        P_W = 0.5 * (B + B.conj().T) + 0.4 * np.eye(2)
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        P_V = 0.5 * (C + C.conj().T)

        new_w, new_v = psd_trace_project(P_W, P_V, budget)
        assert feasibility_violation(new_w, new_v, budget) <= 1e-10
        best = (np.linalg.norm(new_w - P_W) ** 2
                + np.linalg.norm(new_v - P_V) ** 2)

        for _ in range(20_000):
            lam = rng.uniform(0.0, 1.0, 4)
            lam *= rng.uniform(0.0, budget) / max(lam.sum(), 1e-12)
            qw = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))[0]
            qv = np.linalg.qr(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))[0]
            cw = (qw * lam[:2]) @ qw.conj().T
            cv = (qv * lam[2:]) @ qv.conj().T
            dist = (np.linalg.norm(cw - P_W) ** 2
                    + np.linalg.norm(cv - P_V) ** 2)
            assert best <= dist + 1e-9

    def test_feasible_input_is_unchanged(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        P_W = A @ A.conj().T
        P_W *= 0.8 / np.trace(P_W).real
        P_V = 0.1 * np.eye(3, dtype=complex)
        new_w, new_v = psd_trace_project(P_W, P_V, 2.0)
        np.testing.assert_allclose(new_w, P_W, atol=1e-12)
        np.testing.assert_allclose(new_v, P_V, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        P_W = 0.5 * (B + B.conj().T)
        once = psd_trace_project(P_W, 2.0 * np.eye(3), 1.5)
        twice = psd_trace_project(*once, 1.5)
        np.testing.assert_allclose(twice[0], once[0], atol=1e-12)
        np.testing.assert_allclose(twice[1], once[1], atol=1e-12)

    def test_uniform_overbudget_input_lands_on_the_budget(self):
        m, budget = 4, 3.0
        new_w, new_v = psd_trace_project(
            (2.0 * budget / m) * np.eye(m), np.zeros((m, m)), budget)
        np.testing.assert_allclose(new_w, (budget / m) * np.eye(m), atol=1e-12)
        assert float(np.trace(new_w).real) == pytest.approx(budget, abs=1e-12)

    def test_nonpositive_budget_raises(self):
        with pytest.raises(ModelError):
            psd_trace_project(np.eye(2), np.eye(2), 0.0)


class TestSurrogateGradients:
    def test_gradients_are_hermitian(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        assert np.linalg.norm(g_w - g_w.conj().T) < 1e-12
        assert np.linalg.norm(g_v - g_v.conj().T) < 1e-12

    def test_matches_finite_differences(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        rng = np.random.default_rng(7)
        h = 1e-5
        for grad, which in ((g_w, "W"), (g_v, "V")):
            for _ in range(3):
                D = _herm_direction(rng, stats.M)
                if which == "W":
                    hi = _surrogate_n(stats, P_W + h * D, P_V)
                    lo = _surrogate_n(stats, P_W - h * D, P_V)
                else:
                    hi = _surrogate_n(stats, P_W, P_V + h * D)
                    lo = _surrogate_n(stats, P_W, P_V - h * D)
                fd = (hi - lo) / (2.0 * h)
                analytic = float(np.vdot(grad, D).real)
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_precoders_stay_finite(self):
        stats = make_stats("lbi")
        Z = np.zeros((stats.M, stats.M))
        g_w, g_v = sca_gradients(stats, Z, Z)
        assert np.all(np.isfinite(g_w)) and np.all(np.isfinite(g_v))

    def test_wrong_model_kind_is_rejected(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError):
            sca_gradients(stats, P_W, P_V)


class TestInnerSurrogate:
    def _pieces(self, stats, P_W, P_V):
        sol_b = solve_lbi(stats.receiver("B").r,
                          spectrum(effective_transmit_corr(stats, "B", P_W + P_V)),
                          stats.receiver("B").sigma2, stats.M)
        sol_e = solve_lbi(stats.receiver("E1").r,
                          spectrum(effective_transmit_corr(stats, "E1", P_V)),
                          stats.receiver("E1").sigma2, stats.M)
        return sol_b.alpha, sol_e.alpha

    def _objective(self, stats, a1, a2, g_w, g_v, w, v):
        c = stats.M / stats.L
        A_b = stats.lbi_aperture("B")
        A_e = stats.lbi_aperture("E1")
        eye = np.eye(stats.L)
        m1 = eye + a1 * c * A_b @ (w + v) @ A_b.conj().T
        m2 = eye + a2 * c * A_e @ v @ A_e.conj().T
        val = (np.linalg.slogdet(m1)[1] + np.linalg.slogdet(m2)[1]
               - np.vdot(g_w, w).real - np.vdot(g_v, v).real)
        return float(val)

    def test_single_antenna_matches_dense_grid(self):
        stats = make_stats("lbi", M=1, L=4, N_B=2, N_E=(2,))
        budget = 2.0
        P_W, P_V = uniform_precoders(1, budget * 0.5)
        a1, a2 = self._pieces(stats, P_W, P_V)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        w, v = solve_inner_p6(stats, a1, a2, g_w, g_v, P_W, P_V, budget)
        f_star = self._objective(stats, a1, a2, g_w, g_v, w, v)

        c = stats.M / stats.L
        a_b = stats.lbi_aperture("B")[:, 0]
        a_e = stats.lbi_aperture("E1")[:, 0]
        nb, ne = np.vdot(a_b, a_b).real, np.vdot(a_e, a_e).real
        ws = np.linspace(0.0, budget, 401)[:, None]
        vs = np.linspace(0.0, budget, 401)[None, :]
        f = (np.log1p(a1 * c * (ws + vs) * nb) + np.log1p(a2 * c * vs * ne)
             - g_w[0, 0].real * ws - g_v[0, 0].real * vs)
        f[ws + vs > budget] = -np.inf
        assert f_star >= float(f.max()) - 1e-6

    def test_never_loses_to_scaled_identity_candidates(self):
        stats = make_stats("lbi")
        budget = 3.0
        P_W, P_V = uniform_precoders(stats.M, budget * 0.4)
        a1, a2 = self._pieces(stats, P_W, P_V)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        w, v = solve_inner_p6(stats, a1, a2, g_w, g_v, P_W, P_V, budget)
        assert feasibility_violation(w, v, budget) <= 1e-9
        f_star = self._objective(stats, a1, a2, g_w, g_v, w, v)
        assert f_star >= self._objective(stats, a1, a2, g_w, g_v, P_W, P_V) - 1e-9
        eye = np.eye(stats.M)
        for s_w in np.linspace(0.0, 1.0, 9):
            for s_v in np.linspace(0.0, 1.0 - s_w, 5):
                cand_w = s_w * budget / stats.M * eye
                cand_v = s_v * budget / stats.M * eye
                f_cand = self._objective(stats, a1, a2, g_w, g_v, cand_w, cand_v)
                assert f_star >= f_cand - 1e-7

    def test_freeze_mode_keeps_the_second_variable(self):
        stats = make_stats("lbi")
        budget = 2.0
        P_W, P_V = uniform_precoders(stats.M, budget * 0.4)
        a1, a2 = self._pieces(stats, P_W, P_V)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        w, v = solve_inner_p6(stats, a1, a2, g_w, g_v, P_W, P_V, budget,
                              freeze_v=True)
        np.testing.assert_array_equal(v, np.asarray(P_V, dtype=complex))
        assert float(np.trace(w).real) <= budget - np.trace(P_V).real + 1e-9


class TestPrecoderAlternation:
    def test_monotone_and_stable_on_restart(self):
        stats = make_stats("lbi")
        budget = 3.0
        P_W, P_V = uniform_precoders(stats.M, budget * 0.5)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        w, v, trace = algorithm1(stats, P_W, P_V, g_w, g_v, budget)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs >= -1e-8 * max(1.0, abs(trace[0])))
        w2, v2, trace2 = algorithm1(stats, w, v, g_w, g_v, budget)
        assert len(trace2) <= 3
        assert trace2[-1] == pytest.approx(trace[-1], rel=1e-6)

    def test_exhausted_budget_raises(self, monkeypatch):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 1.0)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        monkeypatch.setattr(optimize, "PRECODER_MAX_ROUNDS", 0)
        with pytest.raises(ConvergenceError):
            algorithm1(stats, P_W, P_V, g_w, g_v, 2.0)


class TestEsrPhaseGradient:
    def test_matches_finite_differences(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        g, _ = esr_phase_gradient(stats, P_W, P_V)
        rng = np.random.default_rng(3)
        h = 1e-6
        for idx in rng.choice(stats.L, size=4, replace=False):
            e = np.zeros(stats.L)
            e[idx] = 1.0
            hi = signed_an_mean(stats.with_theta(stats.theta + h * e), P_W, P_V)
            lo = signed_an_mean(stats.with_theta(stats.theta - h * e), P_W, P_V)
            fd = (hi - lo) / (2.0 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_identity_element_gains_make_phases_irrelevant(self):
        stats = make_stats("lbi", identity_ts=True)
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        g, _ = esr_phase_gradient(stats, P_W, P_V)
        assert np.max(np.abs(g)) < 1e-10
        base = signed_an_mean(stats, P_W, P_V)
        rotated = signed_an_mean(
            stats.with_theta(stats.theta + np.linspace(0.3, 2.0, stats.L)),
            P_W, P_V)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_gradient_is_an_ascent_direction(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        g, _ = esr_phase_gradient(stats, P_W, P_V)
        assert np.linalg.norm(g) > 1e-6
        base = signed_an_mean(stats, P_W, P_V)
        stepped = signed_an_mean(stats.with_theta(stats.theta + 1e-4 * g), P_W, P_V)
        assert stepped > base


class TestDesignEvaluation:
    """The optimizers evaluate a design through ``secrecy_terms``: the same
    terms, signs and rates as the ESR reports, with a zero noise covariance
    evaluated as the wiretap pair."""

    def test_an_design_mean_is_the_report_mean(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        rep = esr_an(stats, P_W, P_V)
        assert signed_an_mean(stats, P_W, P_V) == rep.mean_nats
        assert esr_phase_gradient(stats, P_W, P_V)[1] == rep.mean_nats

    def test_zero_noise_covariance_is_the_wiretap_mean(self):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        rep = esr_wiretap(stats, P_W)
        assert signed_an_mean(stats, P_W, P_V) == rep.mean_nats
        assert esr_phase_gradient(stats, P_W, P_V)[1] == rep.mean_nats

    @pytest.mark.parametrize("split_v, solves", [(0.0, 2), (0.1, 4)])
    def test_zero_noise_covariance_skips_the_two_noise_terms(self, monkeypatch,
                                                             split_v, solves):
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0, split_w=1.0 - split_v,
                                     split_v=split_v)
        calls = []
        solve = fixedpoint.solve_lbi

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "solve_lbi", counted)
        signed_an_mean(stats, P_W, P_V)
        assert len(calls) == solves
        esr_phase_gradient(stats, P_W, P_V)
        assert len(calls) == 2 * solves


class TestAlternatingDriver:
    def test_objective_is_monotone_and_feasible(self, monkeypatch):
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 6)
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 3.0 / stats.M, 0.5, 0.5)
        state = algorithm2_ao(stats, 3.0, P_W, P_V)
        obj = np.array(state.objective)
        assert np.all(np.diff(obj) >= -1e-8 * np.maximum(1.0, np.abs(obj[:-1])))
        for row in state.trace:
            assert row.feasibility_violation <= 1e-9
        assert state.esr_nats == obj[-1]
        assert state.esr_bits == pytest.approx(obj[-1] / math.log(2.0), rel=1e-15)
        assert [row.iteration for row in state.trace] == list(range(len(obj)))
        assert [row.objective for row in state.trace] == list(obj)

    def test_zero_budget_returns_the_initial_point(self, monkeypatch):
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 0)
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0 / stats.M, 0.5, 0.5)
        state = algorithm2_ao(stats, 2.0, P_W, P_V)
        assert state.t == 0
        assert len(state.objective) == 1
        expected = (2.0 / (2 * stats.M)) * np.eye(stats.M)
        np.testing.assert_allclose(state.P_W, expected, atol=1e-15)
        np.testing.assert_allclose(state.P_V, expected, atol=1e-15)

    def test_plain_wiretap_mode_pins_the_noise_covariance_at_zero(self, monkeypatch):
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 4)
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0 / stats.M, 1.0, 0.0)
        state = algorithm2_ao(stats, 2.0, P_W)
        assert np.all(state.P_V == 0.0)
        rep = esr_wiretap(stats.with_theta(state.theta), state.P_W)
        assert state.esr_nats == rep.esr_nats

    def test_infeasible_start_is_rejected(self):
        stats = make_stats("lbi")
        with pytest.raises(ModelError):
            algorithm2_ao(stats, p_budget=1.0, P_W=np.eye(stats.M, dtype=complex) * 10.0)

    def test_frozen_phases_still_improve_the_precoders(self, monkeypatch):
        # the precoder-only design: a zero phase gradient never moves theta
        stats = make_stats("lbi")
        gradient = optimize.esr_phase_gradient
        monkeypatch.setattr(optimize, "esr_phase_gradient",
                            lambda *args: (np.zeros(stats.L), gradient(*args)[1]))
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 5)
        P_W, P_V = uniform_precoders(stats.M, 3.0 / stats.M, 0.5, 0.5)
        state = algorithm2_ao(stats, 3.0, P_W, P_V)
        np.testing.assert_array_equal(state.theta, stats.theta)
        assert all(row.grad_norm == 0.0 and row.step_size == 0.0 for row in state.trace)
        assert state.objective[-1] >= state.objective[0] - 1e-10


class TestSopPhaseGradient:
    def test_probability_and_moments_match_the_report_path(self):
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        sg = sop_phase_gradient(stats, P_W, r_bits=1.0)
        rep = esr_wiretap(stats, P_W)
        assert sg.mean_nats == rep.mean_nats
        assert sg.variance == pytest.approx(rep.variance, rel=1e-10)
        assert sg.prob == pytest.approx(rep.sop(1.0), rel=1e-10)
        assert sg.solve_residual <= 1e-10

    def test_value_is_the_model_report_bit_for_bit(self):
        # the gradient contracts its own solves as build_multi_eve_model does;
        # with no start points those solves are the model's
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        r_bits = 1.0
        sg = sop_phase_gradient(stats, P_W, r_bits)
        report = build_multi_eve_model(stats, P_W, eves=["E1"]).report(0)
        assert sg.mean_nats == report.mean_nats
        assert sg.variance == report.variance
        assert sg.prob == report.sop(r_bits)

    def test_matches_finite_differences_through_the_full_chain(self):
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        r_bits = 1.0
        sg = sop_phase_gradient(stats, P_W, r_bits)
        rng = np.random.default_rng(11)
        h = 1e-6
        for idx in rng.choice(stats.L, size=4, replace=False):
            e = np.zeros(stats.L)
            e[idx] = 1.0
            hi = esr_wiretap(stats.with_theta(stats.theta + h * e), P_W).sop(r_bits)
            lo = esr_wiretap(stats.with_theta(stats.theta - h * e), P_W).sop(r_bits)
            fd = (hi - lo) / (2.0 * h)
            assert sg.grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-9)

    def test_identity_element_gains_zero_the_gradient(self):
        stats = make_stats("double", identity_ts=True)
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        sg = sop_phase_gradient(stats, P_W, r_bits=1.0)
        assert np.max(np.abs(sg.grad)) < 1e-10

    def test_wrong_model_kind_is_rejected(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError):
            sop_phase_gradient(stats, P_W, r_bits=1.0)


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestCommonPhaseOffset:
    """theta -> theta + c 1 changes no statistic (Theta^H X Theta is
    unchanged), so the partials of every objective sum to zero and the
    outage probability stays put up to rounding."""

    @_PROPERTY
    @given(seed=st.integers(0, 40), p_scale=st.floats(0.05, 20.0),
           r_bits=st.floats(0.0, 3.0), offset=st.floats(-7.0, 7.0))
    def test_outage_gradient_sums_to_zero(self, seed, p_scale, r_bits, offset):
        stats = make_stats("double", seed=seed)
        P_W = rand_psd(stats.M, np.random.default_rng(seed), scale=p_scale)
        sg = sop_phase_gradient(stats, P_W, r_bits)
        assert abs(np.sum(sg.grad)) <= 1e-12 * np.sum(np.abs(sg.grad))
        shifted = sop_phase_gradient(stats.with_theta(stats.theta + offset), P_W, r_bits)
        assert shifted.prob == pytest.approx(sg.prob, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("an", [False, True], ids=["wiretap", "an"])
    @_PROPERTY
    @given(seed=st.integers(0, 40), p_scale=st.floats(0.05, 20.0))
    def test_secrecy_mean_gradient_sums_to_zero(self, an, seed, p_scale):
        stats = make_stats("lbi", seed=seed)
        rng = np.random.default_rng(seed)
        P_W = rand_psd(stats.M, rng, scale=p_scale)
        P_V = rand_psd(stats.M, rng, scale=0.3 * p_scale) if an else np.zeros_like(P_W)
        g, _ = esr_phase_gradient(stats, P_W, P_V)
        assert abs(np.sum(g)) <= 1e-12 * np.sum(np.abs(g))


class TestSopDescent:
    def test_outage_never_increases_along_the_trace(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 25)
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        res = optimize_sop(stats, P_W, r_bits=1.2)
        probs = [row.objective for row in res.trace]
        assert res.prob == probs[-1]
        assert np.all(np.diff(probs) <= 1e-15)
        assert probs[-1] < probs[0]
        if res.converged:
            final = sop_phase_gradient(stats.with_theta(res.theta), P_W, 1.2)
            assert np.linalg.norm(final.grad) < 1e-6

    def test_warm_started_trials_halve_the_solver_iterations(self, monkeypatch):
        # every line-search trial starts its two solves from the current
        # design's fixed points; the same descent with every solve started
        # from all ones is the baseline (M4L8N2 at 40 dBm, the regime of the
        # benchmark's optimize-sop jobs)
        stats = experiment_stats("double", M=4, L=8, N_B=2, N_E=(2,))
        P_W, _ = uniform_precoders(stats.M, dbm_to_watts(40.0), split_w=1.0, split_v=0.0)
        solve_ds = fixedpoint.solve_ds
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 20)

        def descent(cold: bool):
            iters = []

            def counted(*args, start=None, **kwargs):
                sol = solve_ds(*args, start=None if cold else start, **kwargs)
                iters.append(sol.n_iter)
                return sol

            monkeypatch.setattr(fixedpoint, "solve_ds", counted)
            return optimize_sop(stats, P_W, r_bits=1.0), sum(iters)

        warm_res, warm = descent(cold=False)
        cold_res, cold = descent(cold=True)
        assert len(warm_res.trace) == len(cold_res.trace) > 10
        assert warm_res.prob == pytest.approx(cold_res.prob, rel=1e-8)
        assert warm <= 0.5 * cold

    def test_initial_phases_are_honored(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 3)
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        theta0 = np.linspace(0.1, 1.9, stats.L)
        res = optimize_sop(stats.with_theta(theta0), P_W, r_bits=1.2)
        expected = esr_wiretap(stats.with_theta(theta0), P_W).sop(1.2)
        assert res.trace[0].objective == pytest.approx(expected, rel=1e-10)

    def test_phase_invariant_scenario_converges_immediately(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 10)
        stats = make_stats("double", identity_ts=True)
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        res = optimize_sop(stats, P_W, r_bits=1.0)
        assert res.converged
        assert len(res.trace) == 1
        np.testing.assert_array_equal(res.theta, stats.theta)

    def test_wrong_model_kind_is_rejected(self):
        stats = make_stats("lbi")
        P_W, _ = uniform_precoders(stats.M, 2.0)
        with pytest.raises(ModelError):
            optimize_sop(stats, P_W, r_bits=1.0)


class TestLineSearchStall:
    """With the step floor above the first step every step is rejected; each
    line search takes its own way out."""

    @pytest.fixture(autouse=True)
    def _no_step_accepted(self, monkeypatch):
        monkeypatch.setattr(optimize, "ARMIJO_FLOOR", 2.0 * optimize.ARMIJO_STEP0)

    def test_inner_ascent_warns_and_returns_its_input(self):
        stats = make_stats("lbi")
        budget = 2.0
        P_W, P_V = uniform_precoders(stats.M, budget * 0.4)
        g_w, g_v = sca_gradients(stats, P_W, P_V)
        with pytest.warns(RuntimeWarning, match="line search stalled"):
            w, v = solve_inner_p6(stats, 1.0, 1.0, g_w, g_v, P_W, P_V, budget)
        np.testing.assert_array_equal(w, P_W)
        np.testing.assert_array_equal(v, P_V)

    def test_phase_ascent_keeps_theta_with_step_zero(self, monkeypatch):
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 2)
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 2.0 / stats.M, 0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = algorithm2_ao(stats, 2.0, P_W, P_V)
        np.testing.assert_array_equal(state.theta, stats.theta)
        assert len(state.trace) > 1
        for row in state.trace[1:]:
            assert row.grad_norm > 0.0
            assert row.step_size == 0.0

    def test_outage_descent_stops_unconverged_with_theta_unchanged(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 10)
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        with pytest.warns(RuntimeWarning, match="outage line search stalled"):
            res = optimize_sop(stats, P_W, r_bits=1.2)
        assert not res.converged
        np.testing.assert_array_equal(res.theta, stats.theta)
        assert len(res.trace) == 2
        assert res.trace[-1].step_size == 0.0
        assert res.prob == res.trace[0].objective

    def test_outage_descent_warns_that_it_stalled(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 10)
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        with pytest.warns(RuntimeWarning, match="^outage line search stalled"):
            res = optimize_sop(stats, P_W, r_bits=1.2)
        assert not res.converged


def test_wrap_phase_stays_below_two_pi():
    """np.mod rounds a tiny negative angle up to exactly 2 pi; the wrap maps
    every angle into [0, 2 pi)."""
    two_pi = 2.0 * math.pi
    assert np.mod(-1e-17, two_pi) == two_pi
    tiny = -np.logspace(-320, -16, 200)
    theta = np.concatenate([tiny, [-0.0, 0.0, two_pi, -two_pi, 3.0 * two_pi, -1e-300, 1.0]])
    out = wrap_phase(theta)
    assert out.shape == theta.shape
    assert np.all((out >= 0.0) & (out < two_pi))
    assert np.all(out[:tiny.size] == 0.0)
    assert out[-1] == 1.0
