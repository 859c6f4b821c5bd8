"""Acceptance gate for the toolkit.

Each class pins one deliverable-level contract: solver accuracy and speed,
statistical agreement between the closed forms and the Monte-Carlo oracle,
worst-case eavesdropper behavior, gradient fidelity, optimizer guarantees,
reduction identities, and command-line determinism. Every tolerance is
stated inline next to its assertion.
"""

import math
import time

import numpy as np
import pytest

from irs_secrecy import optimize
from irs_secrecy.cli import main as cli_main
from irs_secrecy.cltcov import joint_cov
from irs_secrecy.fixedpoint import solve_all, solve_ds, solve_lbi
from irs_secrecy.mcoracle import run_mc
from irs_secrecy.optimize import (
    algorithm2_ao,
    esr_phase_gradient,
    optimize_sop,
    sca_gradients,
    signed_an_mean,
    sop_phase_gradient,
)
from irs_secrecy.scenario import build_channel_statistics, build_los_channel, dbm_to_watts
from irs_secrecy.secrecy import (
    LN2,
    build_multi_eve_model,
    esr_an,
    esr_wiretap,
    secrecy_terms,
    sop_multi_eve,
)

from conftest import (
    config_dict,
    corr,
    effective_transmit_corr,
    experiment_stats,
    make_stats,
    rand_psd,
    spectrum,
    uniform_precoders,
)


class TestFixedPointSolvers:
    """Direct-substitution residual < 1e-10 and at most 20 iterations on 50
    random PSD scenarios per model (more would mean the Newton step has lost
    its quadratic convergence: the single-hop solve has fallen back to plain
    substitution, the double-hop one to its damped step); a single solve
    stays under one second at dimension 64; every single-hop term of a
    two-eavesdropper design takes at most 20 iterations at 300 dBm; every
    solve converges from -300 to 300 dBm."""

    def test_single_hop_residuals_on_random_scenarios(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        most_iters = 0
        for _ in range(50):
            n, l, m = (int(v) for v in rng.integers(2, 20, size=3))
            R = rand_psd(n, rng, scale=float(rng.uniform(0.3, 2.0)))
            T_eff = rand_psd(l, rng, scale=float(rng.uniform(0.3, 2.0)))
            z = float(rng.uniform(0.3, 3.0))
            sol = solve_lbi(spectrum(R), spectrum(T_eff), z, m)
            most_iters = max(most_iters, sol.n_iter)
            a = np.trace(R @ np.linalg.inv(
                z * np.eye(n) + sol.alpha_bar * R)).real / m
            ab = np.trace(T_eff @ np.linalg.inv(
                np.eye(l) + sol.alpha * T_eff)).real / m
            worst = max(worst, abs(a - sol.alpha), abs(ab - sol.alpha_bar))
        assert worst < 1e-10
        assert most_iters <= 20

    def test_double_hop_residuals_on_random_scenarios(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        most_iters = 0
        for _ in range(50):
            n, l, m = (int(v) for v in rng.integers(2, 20, size=3))
            R = rand_psd(n, rng, scale=float(rng.uniform(0.3, 2.0)))
            S = rand_psd(l, rng, scale=float(rng.uniform(0.3, 2.0)))
            T_eff = rand_psd(m, rng, scale=float(rng.uniform(0.3, 2.0)))
            z = float(rng.uniform(0.3, 3.0))
            sol = solve_ds(spectrum(R), spectrum(S), spectrum(T_eff), z, m, l)
            most_iters = max(most_iters, sol.n_iter)
            kappa = m * sol.omega * sol.omega_bar / (l * sol.delta)
            d = np.trace(R @ np.linalg.inv(z * np.eye(n) + kappa * R)).real / l
            o = np.trace(S @ np.linalg.inv(
                np.eye(l) / sol.delta + sol.omega_bar * S)).real / m
            ob = np.trace(T_eff @ np.linalg.inv(
                np.eye(m) + sol.omega * T_eff)).real / m
            worst = max(worst, abs(d - sol.delta), abs(o - sol.omega),
                        abs(ob - sol.omega_bar))
        assert worst < 1e-10
        assert most_iters <= 20

    def test_solves_stay_under_one_second_at_dimension_64(self):
        rng = np.random.default_rng(12)
        dim = 64
        R = rand_psd(dim, rng)
        T_eff = rand_psd(dim, rng)
        S = rand_psd(dim, rng)
        t0 = time.perf_counter()
        solve_lbi(spectrum(R), spectrum(T_eff), 1.0, dim)
        t_lbi = time.perf_counter() - t0
        t0 = time.perf_counter()
        solve_ds(spectrum(R), spectrum(S), spectrum(T_eff), 1.0, dim, dim)
        t_ds = time.perf_counter() - t0
        assert t_lbi < 1.0
        assert t_ds < 1.0

    def test_single_hop_terms_converge_in_20_iterations_at_300_dbm(self):
        # two eavesdroppers with artificial noise (split 0.9 / 0.1): the
        # scalar Newton iteration needs no more steps at the top of the
        # power range than on the random scenarios above
        stats = experiment_stats("lbi", N_E=(4, 4), d_irs_e=(40.0, 35.0))
        P_W, P_V = uniform_precoders(stats.M, dbm_to_watts(300.0), 0.9, 0.1)
        descriptors, precoders, _ = secrecy_terms(stats, P_W, P_V)
        iters = {d.label: sol.n_iter
                 for d, sol in zip(descriptors, solve_all(stats, descriptors, precoders))}
        assert max(iters.values()) <= 20, iters

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_every_solve_converges_from_minus_300_to_300_dbm(self, kind):
        # two eavesdroppers, artificial noise off and on, 10 dB steps: every
        # term's solve converges (a ConvergenceError would propagate), and the
        # per-eavesdropper secrecy means and their covariance are finite
        stats = experiment_stats(kind, N_E=(4, 4), d_irs_e=(40.0, 35.0))
        for p_dbm in range(-300, 301, 10):
            for split_v in (0.0, 0.1):
                P_W, P_V = uniform_precoders(stats.M, dbm_to_watts(p_dbm),
                                             1.0 - split_v, split_v)
                model = build_multi_eve_model(stats, P_W, P_V if split_v else None)
                assert np.all(np.isfinite(model.mu)), (p_dbm, split_v)
                assert np.all(np.isfinite(model.Q)), (p_dbm, split_v)


class TestMeanAccuracy:
    """Analytic mean MI within max(0.05 nats, 3 SE) of Monte-Carlo over
    2e4 trials at the measurement-campaign settings (M=8, L=16, N=4), and
    the error shrinks when every dimension doubles. Runtime under 2 min."""

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_mean_mi_matches_monte_carlo(self, kind):
        stats = experiment_stats(kind)
        P_W, P_V = uniform_precoders(stats.M, 1.0)  # 30 dBm per antenna
        descs, precs, _ = secrecy_terms(stats, P_W, P_V)
        run = run_mc(stats, descs, precs, n_trials=20_000, seed=0)
        analytic = np.array([s.mean for s in solve_all(stats, descs, precs)])
        err = np.abs(analytic - run.mi_mean)
        tol = np.maximum(0.05, 3.0 * run.mean_stderr())
        assert np.all(err <= tol), (err, tol)

    def test_error_shrinks_when_all_dimensions_double(self):
        # At the campaign settings the deterministic-equivalent bias sits
        # below the Monte-Carlo noise floor, so the shrink is measured in an
        # O(1)-scale correlated regime where the finite-size bias is
        # resolvable (about 18 standard errors at the smaller size).
        t0 = time.perf_counter()
        errs = []
        for (m, l, n) in [(8, 16, 4), (16, 32, 8)]:
            stats = make_stats("lbi", M=m, L=l, N_B=n, N_E=(n,), seed=1)
            P_W, P_V = uniform_precoders(m, 1.0)
            descs, precs, _ = secrecy_terms(stats, P_W, P_V)
            run = run_mc(stats, descs, precs, n_trials=100_000, seed=42)
            analytic = np.array([s.mean for s in solve_all(stats, descs, precs)])
            errs.append(float(np.max(np.abs(analytic - run.mi_mean))))
        assert errs[1] < errs[0], errs
        assert time.perf_counter() - t0 < 120.0


class TestCovarianceAccuracy:
    """Empirical covariance of the four-term noise-injection MI vector over
    2e4 trials matches the closed form entrywise within
    max(10% relative, 3 SE) at L = 32."""

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_four_term_covariance_matches_monte_carlo(self, kind):
        stats = make_stats(kind, M=8, L=32, N_B=4, N_E=(4,))
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        descs, precs, _ = secrecy_terms(stats, P_W, P_V)
        n = 20_000
        run = run_mc(stats, descs, precs, n_trials=n, seed=0)
        analytic = joint_cov(descs, solve_all(stats, descs, precs))
        diag = np.diag(analytic)
        # sampling stderr of a Gaussian covariance entry
        se = np.sqrt((np.outer(diag, diag).clip(0.0) + analytic**2) / n)
        err = np.abs(run.mi_cov - analytic)
        tol = np.maximum(0.10 * np.abs(analytic), 3.0 * se)
        assert np.all(err <= tol), (err, tol)


class TestOutageCurveAccuracy:
    """Max absolute deviation between the normal outage approximation and
    the empirical secrecy-rate CDF over a 40-point grid is at most 0.03
    with 1e5 trials at L = 32."""

    def _max_cdf_deviation(self, stats, an: bool) -> float:
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        if an:
            descs, precs, selectors = secrecy_terms(stats, P_W, P_V, eves=["E1"])
            rep = esr_an(stats, P_W, P_V)
        else:
            P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
            descs, precs, selectors = secrecy_terms(stats, P_W, eves=["E1"])
            rep = esr_wiretap(stats, P_W)
        run = run_mc(stats, descs, precs, n_trials=100_000, seed=0, combiner=selectors[0])
        sd = math.sqrt(rep.variance)
        grid_bits = np.linspace(rep.mean_nats - 5 * sd,
                                rep.mean_nats + 5 * sd, 40) / LN2
        analytic = rep.sop(grid_bits)
        empirical = run.secrecy_cdf(grid_bits * LN2)
        return float(np.max(np.abs(analytic - empirical)))

    def test_wiretap_curve_on_the_double_hop_model(self):
        stats = make_stats("double", M=8, L=32, N_B=4, N_E=(4,))
        assert self._max_cdf_deviation(stats, an=False) <= 0.03

    def test_noise_injection_curve_on_the_single_hop_model(self):
        stats = make_stats("lbi", M=8, L=32, N_B=4, N_E=(4,))
        assert self._max_cdf_deviation(stats, an=True) <= 0.03


class TestWorstCaseEavesdroppers:
    """The joint worst-case model reduces to the single-eavesdropper normal
    curve, dominates every individual eavesdropper, and higher transmit
    power lowers the curve pointwise."""

    def test_single_eavesdropper_reduces_to_the_normal_curve(self):
        stats = make_stats("double")
        P_W, P_V = uniform_precoders(stats.M, 2.0)
        model = build_multi_eve_model(stats, P_W, P_V)
        rep = esr_an(stats, P_W, P_V)
        sd_bits = math.sqrt(rep.variance) / LN2
        for r_bits in rep.mean_nats / LN2 + np.array([-1.0, 0.0, 1.0]) * sd_bits:
            (p,), (se,) = sop_multi_eve([model], float(r_bits), n_samples=10**6, seed=0)
            assert abs(p - rep.sop(float(r_bits))) <= 3.0 * se

    def test_two_eavesdroppers_dominate_each_single_curve(self):
        stats = make_stats("lbi", N_E=(3, 2))
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        model = build_multi_eve_model(stats, P_W)
        grid = np.linspace(0.0, 5.0, 11)
        (p,), (se,) = sop_multi_eve([model], grid, n_samples=200_000, seed=1)
        for eve in stats.users()[1:]:
            single = build_multi_eve_model(stats, P_W, eves=[eve]).report(0).sop(grid)
            assert np.all(p >= single - 3.0 * se - 1e-12)

    def test_more_transmit_power_lowers_the_curve_pointwise(self):
        grid = np.linspace(0.0, 8.0, 40)
        # single eavesdropper: the normal curves compare exactly
        stats = experiment_stats("lbi")
        lo = esr_wiretap(stats, np.eye(stats.M, dtype=complex)).sop(grid)
        hi = esr_wiretap(stats, 100.0 * np.eye(stats.M, dtype=complex)).sop(grid)
        assert np.all(hi <= lo + 1e-12)
        # two eavesdroppers: sampled worst-case curves with a 3 SE slack
        stats2 = experiment_stats("lbi", N_E=(4, 4), d_irs_e=(40.0, 35.0))
        (p_lo,), (se_lo,) = sop_multi_eve(
            [build_multi_eve_model(stats2, np.eye(stats2.M, dtype=complex))],
            grid, n_samples=200_000, seed=2)
        (p_hi,), (se_hi,) = sop_multi_eve(
            [build_multi_eve_model(stats2, 100.0 * np.eye(stats2.M, dtype=complex))],
            grid, n_samples=200_000, seed=2)
        assert np.all(p_hi <= p_lo + 3.0 * (se_lo + se_hi) + 1e-12)


def _rel_err(analytic: float, fd: float) -> float:
    scale = max(abs(analytic), abs(fd), 1e-8)
    return abs(analytic - fd) / scale


class TestGradientFidelity:
    """Closed-form gradients against central finite differences at 10
    random points each: phase and precoder gradients of the secrecy mean
    within 1e-4 relative, the outage-probability chain within 1e-3."""

    def test_phase_gradient_of_the_secrecy_mean(self):
        h = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            stats = make_stats("lbi", seed=seed)
            P_W = rand_psd(stats.M, rng, scale=0.6)
            P_V = rand_psd(stats.M, rng, scale=0.3)
            g, _ = esr_phase_gradient(stats, P_W, P_V)
            idx = int(rng.integers(stats.L))
            e = np.zeros(stats.L)
            e[idx] = 1.0
            hi = signed_an_mean(stats.with_theta(stats.theta + h * e), P_W, P_V)
            lo = signed_an_mean(stats.with_theta(stats.theta - h * e), P_W, P_V)
            assert _rel_err(g[idx], (hi - lo) / (2 * h)) <= 1e-4

    def test_precoder_gradients_of_the_linearized_terms(self):
        def surrogate(stats, P_W, P_V):
            out = 0.0
            for user, P in (("E1", P_W + P_V), ("B", P_V)):
                sol = solve_lbi(stats.receiver(user).r,
                                spectrum(effective_transmit_corr(stats, user, P)),
                                stats.receiver(user).sigma2, stats.M)
                out += sol.mean
            return out

        h = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            stats = make_stats("lbi", seed=seed)
            m = stats.M
            P_W = rand_psd(m, rng, scale=0.5) + 0.2 * np.eye(m)
            P_V = rand_psd(m, rng, scale=0.3) + 0.2 * np.eye(m)
            g_w, g_v = sca_gradients(stats, P_W, P_V)
            B = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            D = 0.5 * (B + B.conj().T)
            D /= np.linalg.norm(D)
            for grad, args in ((g_w, (P_W + h * D, P_V, P_W - h * D, P_V)),
                               (g_v, (P_W, P_V + h * D, P_W, P_V - h * D))):
                fd = (surrogate(stats, args[0], args[1])
                      - surrogate(stats, args[2], args[3])) / (2 * h)
                assert _rel_err(float(np.vdot(grad, D).real), fd) <= 1e-4

    def test_phase_gradient_of_the_outage_probability(self):
        h = 1e-6
        r_bits = 1.0
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            stats = make_stats("double", seed=seed)
            P_W = rand_psd(stats.M, rng, scale=0.6)
            sg = sop_phase_gradient(stats, P_W, r_bits)
            assert sg.solve_residual <= 1e-10
            idx = int(rng.integers(stats.L))
            e = np.zeros(stats.L)
            e[idx] = 1.0
            hi = esr_wiretap(stats.with_theta(stats.theta + h * e), P_W).sop(r_bits)
            lo = esr_wiretap(stats.with_theta(stats.theta - h * e), P_W).sop(r_bits)
            assert _rel_err(sg.grad[idx], (hi - lo) / (2 * h)) <= 1e-3


class TestOptimizerBehavior:
    """The alternating ascent is monotone to 1e-8; enabling noise injection
    never finishes below the plain wiretap design under the same scenario
    and iteration budget; the outage descent strictly improves at least 90%
    of 20 random phase initializations."""

    def test_alternating_ascent_is_monotone(self, monkeypatch):
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 15)
        stats = make_stats("lbi")
        P_W, P_V = uniform_precoders(stats.M, 3.0 / stats.M, 0.5, 0.5)
        state = algorithm2_ao(stats, 3.0, P_W, P_V)
        obj = np.array(state.objective)
        assert np.all(np.diff(obj) >= -1e-8 * np.maximum(1.0, np.abs(obj[:-1])))
        assert obj[-1] >= obj[0]

    def test_noise_injection_never_loses_to_plain_wiretap(self, monkeypatch):
        stats = make_stats("lbi")
        monkeypatch.setattr(optimize, "AO_MAX_ROUNDS", 10)
        P_W, _ = uniform_precoders(stats.M, 3.0 / stats.M, 1.0, 0.0)
        wt = algorithm2_ao(stats, 3.0, P_W)
        # warm-start the noise-injection search at the wiretap solution, from
        # no noise; by monotonicity its final value cannot drop below the
        # wiretap one
        an = algorithm2_ao(stats.with_theta(wt.theta), 3.0, wt.P_W, np.zeros_like(wt.P_W))
        assert an.esr_nats >= wt.esr_nats - 1e-8

    def test_outage_descent_improves_most_random_phase_starts(self, monkeypatch):
        monkeypatch.setattr(optimize, "SOP_MAX_ITER", 30)
        stats = make_stats("double")
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        rng = np.random.default_rng(17)
        improved = 0
        for _ in range(20):
            theta0 = rng.uniform(0.0, 2.0 * math.pi, stats.L)
            res = optimize_sop(stats.with_theta(theta0), P_W, r_bits=1.2)
            if res.prob < res.trace[0].objective - 1e-12:
                improved += 1
        assert improved >= 18


class TestReductionIdentities:
    """Zero noise injection reproduces the plain wiretap quantities
    (mean to 1e-12, outage to 1e-10) and the positive-part clamp holds on
    a symmetric scenario."""

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_zero_noise_injection_reduces_exactly(self, kind):
        stats = make_stats(kind)
        P_W, _ = uniform_precoders(stats.M, 2.0, split_w=1.0, split_v=0.0)
        Z = np.zeros((stats.M, stats.M))
        plain = esr_wiretap(stats, P_W)
        reduced = esr_an(stats, P_W, Z)
        assert abs(reduced.mean_nats - plain.mean_nats) <= 1e-12
        assert abs(reduced.esr_nats - plain.esr_nats) <= 1e-12
        grid = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(reduced.sop(grid), plain.sop(grid), atol=1e-10)

    def test_symmetric_receivers_clamp_to_zero(self):
        L, M, N = 6, 4, 3
        R = 2.0 * corr(10.0, 20.0, N, 0.3)
        T_S = corr(35.0, 14.0, L, 0.4)
        stats = build_channel_statistics(
            model_kind="lbi", receivers=[(R, T_S, 0.9), (R, T_S, 0.9)],
            T=corr(5.0, 25.0, M, 0.35), H_T0=build_los_channel(M, L),
            theta=np.linspace(0.0, 1.0, L),
        )
        P_W, _ = uniform_precoders(M, 2.0)
        rep = esr_wiretap(stats, P_W)
        assert abs(rep.mean_nats) <= 1e-12
        assert rep.esr_nats == max(0.0, rep.mean_nats)
        # a disadvantaged legitimate user drives the mean negative and the
        # reported rate clamps at exactly zero
        noisy = make_stats("lbi", sigma2_B=8.0)
        P_W, _ = uniform_precoders(noisy.M, 2.0, split_w=1.0, split_v=0.0)
        rep = esr_wiretap(noisy, P_W)
        assert rep.mean_nats < 0.0
        assert rep.esr_nats == 0.0


class TestCliDeterminism:
    """Any repeated run with the same seed writes byte-identical files."""

    CASES = {
        "esr": (dict(kind="lbi", N_E=(2, 2)), ["--seed", "3"]),
        "sop": (dict(kind="lbi", N_E=(2, 2)),
                ["--seed", "3", "--trials", "3000", "--r-steps", "5"]),
        "mc-validate": (dict(kind="double", split_w=0.9, split_v=0.1),
                        ["--seed", "3", "--trials", "400"]),
        "optimize-esr": (dict(kind="lbi", split_w=0.9, split_v=0.1),
                         ["--seed", "3"]),
        "optimize-sop": (dict(kind="double", theta_init="uniform"),
                         ["--seed", "3", "--r-min", "1.0"]),
        # --trials samples the worst case, so the sweep has two eavesdroppers
        "sweep": (dict(kind="lbi", N_E=(2, 2)),
                  ["--seed", "3", "--trials", "500", "--r-steps", "4"]),
    }

    @pytest.mark.parametrize("subcommand", sorted(CASES))
    def test_reruns_are_byte_identical(self, subcommand, write_config, tmp_path):
        cfg_kwargs, extra = self.CASES[subcommand]
        path = write_config(config_dict(**cfg_kwargs))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = cli_main([subcommand, "--config", path,
                             "--out", str(out)] + extra)
            assert code == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
