"""Scenario construction: correlation models, path loss, channel statistics,
configuration parsing."""

import json
import math
import warnings

import numpy as np
import pytest

from irs_secrecy import scenario as scenario_module
from irs_secrecy.errors import ConfigError, ModelError
from irs_secrecy.scenario import (
    CorrelationSpec,
    Scenario,
    Spectrum,
    build_channel_statistics,
    build_correlation_matrix,
    build_los_channel,
    build_scenario,
    complex_from_normals,
    dbm_to_watts,
    load_config,
    parse_config,
    path_loss,
    psd_eig,
    psd_root,
    quadrature_step,
    trial_streams,
)

from irs_secrecy.secrecy import build_multi_eve_model, secrecy_terms

from conftest import (
    REF_LOSS_1,
    REF_LOSS_2,
    complex_gaussian,
    config_dict,
    corr,
    make_stats,
    spectrum_matrix,
    trial_rng,
)


class TestCorrelationMatrix:
    def test_single_antenna_is_unit(self):
        c = build_correlation_matrix(CorrelationSpec(1.0, 0.0, 5.0, 1))
        assert c.shape == (1, 1)
        assert abs(c[0, 0] - 1.0) < 1e-6

    def test_hermitian_exactly(self):
        c = build_correlation_matrix(CorrelationSpec(0.7, 30.0, 12.0, 6))
        assert np.array_equal(c, c.conj().T)

    def test_off_diagonal_matches_fine_trapezoid_oracle(self):
        spec = CorrelationSpec(1.0, 0.0, 5.0, 2)
        c = build_correlation_matrix(spec)
        phi = np.arange(-180.0, 180.0 + 0.0005, 0.001)
        dens = np.exp(-((phi - spec.eta) ** 2) / (2 * spec.delta**2))
        dens /= math.sqrt(2 * math.pi * spec.delta**2)
        integrand = dens * np.exp(
            1j * 2 * math.pi * spec.d_r * 1 * np.sin(np.pi * phi / 180.0)
        )
        oracle = np.trapezoid(integrand, phi)
        assert abs(c[1, 0] - oracle) < 1e-6

    def test_positive_semidefinite(self):
        c = build_correlation_matrix(CorrelationSpec(1.0, 60.0, 5.0, 16))
        assert np.linalg.eigvalsh(c).min() > -1e-10

    @pytest.mark.parametrize("d_r", [0.5, 1.0, 2.0])
    def test_step_rule_matches_the_finest_grid(self, d_r):
        """Every spec over n, delta and eta against a 0.01-degree trapezoid
        oracle built here: within 1e-10 relative (max entry) where a coarser
        step is chosen, bitwise equal where the rule falls back to 0.01
        degrees. An oracle row costs about 3 ms, so at n = 64 and 256 it
        covers every 7th offset and the last 8, and a fallback, which runs the
        same 0.01-degree code at any n, is built only at n <= 16."""
        phi = np.arange(-180.0, 180.0 + 0.5 * 0.01, 0.01)
        w = np.full(phi.shape, 0.01)
        w[0] *= 0.5
        w[-1] *= 0.5
        fast = 0
        for n in (1, 16, 64, 256):
            ks = np.arange(n) if n <= 16 else np.unique(np.r_[0:n:7, n - 8:n])
            rows = np.exp(1j * 2.0 * math.pi * d_r * np.outer(ks, np.sin(np.pi * phi / 180.0)))
            for delta in (1.0, 5.0, 30.0, 90.0):
                for eta in (0.0, 60.0, 170.0):
                    spec = CorrelationSpec(d_r, eta, delta, n)
                    step = quadrature_step(spec)
                    kink = 180.0 - eta < math.sqrt(2.0 * math.log(1e16)) * delta
                    assert (step == 0.01) if kink else (step > 0.01), (spec, step)
                    if kink and n > 16:
                        continue
                    dens = np.exp(-((phi - eta) ** 2) / (2.0 * delta**2))
                    dens /= math.sqrt(2.0 * math.pi * delta**2)
                    col = rows @ (dens * w)
                    c = build_correlation_matrix(spec)
                    if kink:
                        idx = np.subtract.outer(ks, ks)
                        ref = np.where(idx >= 0, col[np.abs(idx)], np.conj(col[np.abs(idx)]))
                        assert np.array_equal(c, 0.5 * (ref + ref.conj().T)), spec
                    else:
                        fast += 1
                        assert np.max(np.abs(c[ks, 0] - col)) <= 1e-10 * np.max(np.abs(col)), spec
        assert fast == 20

    @staticmethod
    def _full_circle(spec, ks):
        """Entries ``ks`` of the first column under the trapezoid rule over all
        of [-180, 180] at ``quadrature_step(spec)``, the nodes the window is
        cut from."""
        step = quadrature_step(spec)
        phi = np.arange(-180.0, 180.0 + 0.5 * step, step)
        w = np.full(phi.shape, step)
        w[0] *= 0.5
        w[-1] *= 0.5
        dens = np.exp(-((phi - spec.eta) ** 2) / (2.0 * spec.delta**2))
        dens /= math.sqrt(2.0 * math.pi * spec.delta**2)
        rows = np.exp(1j * 2.0 * math.pi * spec.d_r * np.outer(ks, np.sin(np.pi * phi / 180.0)))
        return rows @ (dens * w)

    @staticmethod
    def _oracle(spec, ks):
        """The same rule in extended precision, each entry the exact (fsum) sum
        of its terms; nodes more than 12 delta from eta, where the density is
        below 1e-31 of its peak, are left out."""
        ld = np.longdouble
        pi = 4 * np.arctan(ld(1))
        nodes = round(360.0 / quadrature_step(spec))
        phi = ld(360) * np.arange(nodes + 1) / nodes - 180
        w = np.full(phi.shape, ld(360) / nodes)
        w[0] /= 2
        w[-1] /= 2
        keep = np.abs(phi - spec.eta) <= 12 * spec.delta
        phi, w = phi[keep], w[keep]
        delta = ld(spec.delta)
        weighted = w * np.exp(-((phi - spec.eta) ** 2) / (2 * delta**2)) / np.sqrt(2 * pi * delta**2)
        arg = 2 * pi * ld(spec.d_r) * np.outer(ks, np.sin(pi * phi / 180))
        return np.array([complex(math.fsum((weighted * np.cos(row)).astype(float)),
                                 math.fsum((weighted * np.sin(row)).astype(float)))
                         for row in arg])

    @pytest.mark.parametrize("d_r", [0.5, 1.0, 2.0])
    def test_window_matches_a_compensated_sum_oracle(self, d_r):
        """Every spec over n, delta and eta, each matrix against the oracle
        above: no farther from it than twice the error of the full-circle rule
        plus 1e-15 of the largest entry, and within 1e-13 relative of that
        rule. (eta, delta) = (0, 20) has a window past both ends of [-180,
        180] without a kink. Kink specs run the full-circle rule, which the
        finest-grid tests check bit for bit. At n = 64 the oracle covers every
        7th offset and the last 8."""
        window = math.sqrt(2.0 * math.log(1e18))
        checked = 0
        for n in (1, 2, 8, 16, 64):
            ks = np.arange(n) if n <= 16 else np.unique(np.r_[0:n:7, n - 8:n])
            specs = [CorrelationSpec(d_r, eta, delta, n)
                     for delta in (1.0, 5.0, 8.0, 30.0, 60.0)
                     for eta in np.linspace(-170.0, 170.0, 9).tolist()]
            specs.append(CorrelationSpec(d_r, 0.0, 20.0, n))
            for spec in specs:
                if 180.0 - abs(spec.eta) < math.sqrt(2.0 * math.log(1e16)) * spec.delta:
                    assert quadrature_step(spec) == 0.01, spec
                    continue
                if spec.delta == 20.0:
                    assert window * spec.delta > 180.0
                checked += 1
                got = build_correlation_matrix(spec)[ks, 0]
                full, oracle = self._full_circle(spec, ks), self._oracle(spec, ks)
                scale = np.max(np.abs(oracle))
                bound = 2.0 * np.max(np.abs(full - oracle)) + 1e-15 * scale
                assert np.max(np.abs(got - oracle)) <= bound, spec
                assert np.max(np.abs(got - full)) <= 1e-13 * np.max(np.abs(full)), spec
        assert checked == 5 * (9 + 7 + 5 + 1)

    def test_kink_fallback_is_the_finest_full_circle_grid_at_n_64(self):
        spec = CorrelationSpec(1.0, 175.0, 5.0, 64)
        assert quadrature_step(spec) == 0.01
        col = self._full_circle(spec, np.arange(spec.n))
        idx = np.subtract.outer(np.arange(spec.n), np.arange(spec.n))
        ref = np.where(idx >= 0, col[np.abs(idx)], np.conj(col[np.abs(idx)]))
        assert np.array_equal(build_correlation_matrix(spec), 0.5 * (ref + ref.conj().T))

    @pytest.mark.parametrize("args, field", [
        ((1.0, 1e308, 5.0, 2), "eta"),      # was an overflow warning and a zero matrix
        ((1.0, 0.0, 1e300, 2), "delta"),    # was a bare OverflowError
        ((1.0, math.nan, 5.0, 2), "eta"),   # was a NaN matrix
        ((math.inf, 0.0, 5.0, 2), "d_r"),
        ((1.0, -180.5, 5.0, 2), "eta"),
        ((1.0, 0.0, 360.5, 2), "delta"),
        ((1.0, 0.0, -1.0, 2), "delta"),
        ((0.0, 0.0, 5.0, 2), "d_r"),
        ((1.0, 0.0, 5.0, 0), "n"),
    ])
    def test_spec_built_in_python_is_validated(self, args, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=f"^{field}: "):
                CorrelationSpec(*args)

    def test_unresolvable_spec_is_rejected(self):
        for spec in (CorrelationSpec(1e300, 0.0, 5.0, 2), CorrelationSpec(1.0, 0.0, 1e-300, 2)):
            assert quadrature_step(spec) is None
            with pytest.raises(ModelError):
                build_correlation_matrix(spec)


class TestLosChannel:
    def test_unit_modulus(self):
        h = build_los_channel(5, 9)
        assert h.shape == (9, 5)
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)

    def test_scalar_case(self):
        h = build_los_channel(1, 1)
        assert h.shape == (1, 1)
        assert abs(abs(h[0, 0]) - 1.0) < 1e-12

    def test_matches_independent_reimplementation(self):
        M, L = 4, 8
        h = build_los_channel(M, L)
        ref = np.empty((L, M), dtype=complex)
        for l in range(L):
            for m in range(M):
                t1 = math.pi * l / L
                p2 = 2.0 * math.pi * m / M
                ref[l, m] = np.exp(1j * 2 * math.pi * (l * math.sin(p2) + m * math.sin(t1)))
        assert np.allclose(h, ref, atol=1e-12)

    def test_full_rank(self):
        h = build_los_channel(4, 8)
        assert np.linalg.matrix_rank(h) == 4


class TestPathLossAndPower:
    def test_reference_value(self):
        assert path_loss(10.0**-23.05, 20.0, 2.2) == pytest.approx(1.224e-26, rel=1e-3)

    def test_unit_distance_returns_reference(self):
        assert path_loss(0.37, 1.0, 3.67) == 0.37

    def test_second_reference_value(self):
        assert path_loss(10.0**-25.95, 30.0, 3.67) == pytest.approx(
            10.0**-25.95 / 30.0**3.67, rel=1e-12
        )

    def test_dbm_conversion(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(-94.0) == pytest.approx(10.0**-12.4, rel=1e-12)


class TestPsdSqrt:
    """PSD square roots: the thin factor of ``psd_root`` and the PSD check
    of ``psd_eig`` that every decomposition goes through."""

    def test_reconstructs_psd_input(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = a @ a.conj().T
        s = psd_root(p)
        assert np.allclose(s @ s.conj().T, p, atol=1e-10)

    def test_clips_tiny_negative_eigenvalues(self):
        p = np.diag([1.0, -1e-14])
        lam, _ = psd_eig(p)
        assert lam.tolist() == [0.0, 1.0]
        s = psd_root(p)
        assert s.shape == (2, 1) and np.all(np.isfinite(s))

    def test_rejects_indefinite(self):
        with pytest.raises(ModelError, match="not PSD"):
            psd_eig(np.diag([1.0, -0.5]))


class TestChannelStatistics:
    def test_users_and_accessors(self):
        stats = make_stats("lbi", N_E=(3, 2))
        assert stats.users() == ["B", "E1", "E2"]
        assert stats.receiver("B").n == 3
        assert stats.receiver("E2").n == 2
        with pytest.raises(ModelError):
            stats.receiver("E3")

    def test_receivers_hold_their_own_inputs_in_order(self):
        # K = 2 through the config path: each record holds its own R times
        # its own path gain, its own T_S and the noise power
        cfg = parse_config(config_dict(L=8, N_B=2, N_E=(3, 2)))
        stats = build_scenario(cfg).stats
        assert list(stats.receivers) == stats.users() == ["B", "E1", "E2"]
        hop = path_loss(REF_LOSS_1, 20.0, 2.2)
        expected = {  # tag: (path gain, R, T_S)
            "B": (hop * path_loss(REF_LOSS_2, 30.0, 3.67),
                  corr(0.0, 5.0, 2), corr(5.0, 8.0, 8)),
            "E1": (hop * path_loss(REF_LOSS_2, 40.0, 3.67),
                   corr(60.0, 5.0, 3), corr(10.0, 8.0, 8)),
            "E2": (hop * path_loss(REF_LOSS_2, 35.0, 3.67),
                   corr(50.0, 5.0, 2), corr(15.0, 8.0, 8)),
        }
        assert [rx.gain for rx in cfg.receivers] == [g for g, _, _ in expected.values()]
        for tag, (gain, R, T_S) in expected.items():
            rx = stats.receiver(tag)
            assert rx is stats.receivers[tag] and rx.n == R.shape[0]
            spec = Spectrum.of_matrix(gain * R)
            assert np.array_equal(rx.r.lam, spec.lam) and np.array_equal(rx.r.vecs, spec.vecs)
            assert np.array_equal(rx.ts, T_S)
            assert rx.sigma2 == cfg.sigma2_watts
        # noise powers that differ stay with their receivers
        sigma2 = [rx.sigma2 for rx in make_stats("lbi", N_E=(3, 2)).receivers.values()]
        assert sigma2 == [0.8, 1.1, 1.1 + 0.15]
        with pytest.raises(ModelError, match="unknown user tag 'E3'"):
            stats.receiver("E3")
        P_W = np.eye(stats.M, dtype=complex)
        for eve in ("B", "E", "E3"):
            with pytest.raises(ModelError, match=f"unknown eavesdropper tag '{eve}'"):
                build_multi_eve_model(stats, P_W, eves=[eve])
        # without the check, 'B' as an eavesdropper would give 2 I_B quietly
        with pytest.raises(ModelError, match="unknown eavesdropper tag 'B'"):
            secrecy_terms(stats, P_W, eves=["B"])

    def test_lbi_aperture_matches_direct_formula(self):
        stats = make_stats("lbi")
        A = stats.lbi_aperture("B")

        def sqrtm(mat):  # Hermitian square root
            lam, u = np.linalg.eigh(mat)
            return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T

        direct = (
            sqrtm(stats.receiver("B").ts)
            @ np.diag(np.exp(1j * stats.theta))
            @ stats.H_T0
            @ sqrtm(stats.T)
        )
        assert np.allclose(A, direct, atol=1e-12)

    def test_ds_gram_is_hermitian_psd(self):
        stats = make_stats("double")
        S = stats.ds_gram("E1")
        assert np.allclose(S, S.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(S).min() > -1e-10

    def test_with_theta_changes_aperture(self):
        stats = make_stats("lbi")
        other = stats.with_theta(np.zeros(stats.L))
        assert not np.allclose(stats.lbi_aperture("B"), other.lbi_aperture("B"))
        assert np.allclose(stats.T, other.T)

    # inputs no config file can give (``parse_config`` rejects them first)
    # are ModelErrors like every other bad input of the builder, and name
    # no config field
    def test_double_requires_r_s(self):
        with pytest.raises(ModelError, match="requires R_S"):
            build_channel_statistics(**{**_small_inputs(), "R_S": None})

    def test_unknown_model_kind_is_a_model_error(self):
        with pytest.raises(ModelError, match="^model_kind must be 'lbi' or 'double'"):
            build_channel_statistics(**_small_inputs("triple"))

    def test_no_eavesdropper_is_a_model_error(self):
        inputs = _small_inputs()
        with pytest.raises(ModelError, match="at least one eavesdropper"):
            build_channel_statistics(**{**inputs, "receivers": inputs["receivers"][:1]})


def _small_inputs(model_kind: str = "double") -> dict:
    """Keyword inputs of ``build_channel_statistics`` with K = 2, identity
    correlations (L = 3, N = 2, M = 2) and unit noise powers."""
    eye = lambda n: np.eye(n, dtype=complex)
    return dict(model_kind=model_kind, receivers=[[eye(2), eye(3), 1.0] for _ in range(3)],
                T=eye(2), H_T0=build_los_channel(2, 3), theta=np.zeros(3), R_S=eye(3))


class TestNonFiniteInputs:
    """``build_channel_statistics`` is the Python entry point: a NaN or inf
    in any matrix, in theta or in a noise power is a ModelError naming it,
    before any decomposition or solve sees it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name, key, index", [
        ("R_B", "R_B", None), ("R_E2", "R_E_list", 1), ("T_S_B", "T_S_B", None),
        ("T_S_E1", "T_S_E_list", 0), ("T", "T", None), ("R_S", "R_S", None),
        ("theta", "theta", None),
    ])
    def test_non_finite_entry_is_named(self, name, key, index, bad):
        inputs = _small_inputs()
        (R_B, T_S_B, _), *eves = inputs["receivers"]
        arrays = {**inputs, "R_B": R_B, "T_S_B": T_S_B,
                  "R_E_list": [e[0] for e in eves], "T_S_E_list": [e[1] for e in eves]}
        target = arrays[key] if index is None else arrays[key][index]
        target.flat[0] = bad
        with pytest.raises(ModelError, match=f"^{name} has a non-finite entry"):
            build_channel_statistics(**inputs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_noise_power_names_the_receiver(self, bad):
        inputs = _small_inputs("lbi")
        inputs["receivers"][2][2] = bad
        with pytest.raises(ModelError, match="^noise powers must be positive.* for E2$"):
            build_channel_statistics(**inputs)


class TestGaussianFactors:
    def test_complex_gaussian_reads_real_then_imaginary_parts(self):
        # one stream of 2 * rows * cols normals: the real parts row by row,
        # then the imaginary parts, each scaled to carry var/2; the documented
        # draw of the tests' oracle gives the Monte-Carlo kernel's factors
        rows, cols, var = 3, 5, 0.4
        z = trial_rng(8, 2).standard_normal((2, rows, cols))
        expected = math.sqrt(var / 2.0) * (z[0] + 1j * z[1])
        assert np.array_equal(complex_from_normals(z, var), expected)
        assert np.array_equal(complex_gaussian(trial_rng(8, 2), rows, cols, var), expected)

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_trial_streams_draw_what_trial_rng_draws(self, seed):
        stream = trial_streams(seed)
        for trial in (0, 1, 5, 0, 2**63, 2**64 - 1, 3):
            for size in (1, 7, 1000):
                expected = trial_rng(seed, trial).standard_normal(size)
                assert np.array_equal(stream(trial).standard_normal(size), expected)
            # a re-key also drops a half-used 64-bit word and buffered output
            stream(trial).integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(stream(trial).random(5), trial_rng(seed, trial).random(5))

    def test_a_batch_of_blocks_gives_the_entries_of_each_block(self):
        normals = np.random.default_rng(0).standard_normal((7, 2, 3, 4))
        batch = complex_from_normals(normals, 0.25)
        assert batch.shape == (7, 3, 4)
        for t in range(7):
            assert np.array_equal(batch[t], complex_from_normals(normals[t], 0.25))


class TestConfigParsing:
    def test_valid_config_roundtrip(self, write_config):
        cfg = config_dict("double", split_w=0.9, split_v=0.1)
        config = load_config(write_config(cfg))
        assert config.model_kind == "double"
        assert config.M == 4
        assert config.p_watts == pytest.approx(1.0)
        assert config.sigma2_watts == pytest.approx(10.0**-12.4)

    def test_missing_key_reports_field_path(self, write_config):
        cfg = config_dict()
        del cfg["dimensions"]["M"]
        with pytest.raises(ConfigError, match="dimensions.M"):
            load_config(write_config(cfg))

    def test_missing_section_reports_path(self, write_config):
        cfg = config_dict()
        del cfg["noise"]
        with pytest.raises(ConfigError, match="noise"):
            load_config(write_config(cfg))

    def test_unknown_model_kind(self, write_config):
        cfg = config_dict()
        cfg["model"]["kind"] = "triple"
        with pytest.raises(ConfigError, match="model.kind"):
            load_config(write_config(cfg))

    def test_eve_list_length_mismatch(self, write_config):
        cfg = config_dict(N_E=(2, 2))
        cfg["correlations"]["R_E"] = cfg["correlations"]["R_E"][:1]
        with pytest.raises(ConfigError):
            load_config(write_config(cfg))

    def test_split_sum_validated(self, write_config):
        cfg = config_dict(split_w=0.8, split_v=0.4)
        with pytest.raises(ConfigError, match="power"):
            load_config(write_config(cfg))

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_theta_file_roundtrip(self, write_config, tmp_path):
        theta = [0.3, 1.1, 2.2, 0.0, 5.9, 4.4, 3.3, 1.0]
        tfile = tmp_path / "theta.json"
        tfile.write_text(json.dumps(theta))
        cfg = config_dict(L=8)
        cfg["theta"] = {"init": "file", "file": str(tfile)}
        scenario = build_scenario(load_config(write_config(cfg)))
        assert np.allclose(scenario.stats.theta, theta)

    def test_theta_file_wrong_length(self, write_config, tmp_path):
        tfile = tmp_path / "theta.json"
        tfile.write_text(json.dumps([0.1, 0.2]))
        cfg = config_dict(L=8)
        cfg["theta"] = {"init": "file", "file": str(tfile)}
        with pytest.raises(ConfigError):
            build_scenario(load_config(write_config(cfg)))


class TestBuildScenario:
    def test_power_bookkeeping(self, write_config):
        cfg = config_dict(M=4, P_dbm=30.0, split_w=0.7, split_v=0.2)
        scenario = build_scenario(parse_config(cfg))
        assert isinstance(scenario, Scenario)
        assert scenario.p_budget == pytest.approx(4.0)
        P_W, P_V = scenario.precoders()
        assert np.trace(P_W).real == pytest.approx(0.7 * 4.0)
        assert np.trace(P_V).real == pytest.approx(0.2 * 4.0)

    def test_precoders_at_a_given_power_without_noise_injection(self):
        cfg = config_dict(M=4, P_dbm=30.0, split_w=0.7, split_v=0.0)
        scenario = build_scenario(parse_config(cfg))
        P_W, P_V = scenario.precoders(40.0)
        assert P_V is None  # split_v 0: artificial noise is off
        assert np.array_equal(P_W, 0.7 * dbm_to_watts(40.0) * np.eye(4))

    def test_pathloss_folded_into_receive_correlations(self):
        cfg = parse_config(config_dict(M=4, L=8, N_B=2))
        scenario = build_scenario(cfg)
        g_b = path_loss(REF_LOSS_1, 20.0, 2.2) * path_loss(REF_LOSS_2, 30.0, 3.67)
        expected = g_b * corr(0.0, 5.0, 2)
        assert np.allclose(spectrum_matrix(scenario.stats.receiver("B").r), expected, atol=1e-15)

    def test_uniform_theta_seeded(self):
        cfg = parse_config(config_dict(theta_init="uniform"))
        a = build_scenario(cfg, seed=5).stats.theta
        b = build_scenario(cfg, seed=5).stats.theta
        c = build_scenario(cfg, seed=6).stats.theta
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_each_distinct_spec_is_built_once(self, monkeypatch):
        specs = []

        def counting(spec):
            specs.append(spec)
            return build_correlation_matrix(spec)

        monkeypatch.setattr(scenario_module, "build_correlation_matrix", counting)
        cfg = parse_config(config_dict(kind="double", N_E=(2, 2)))
        assert cfg.receivers[0].T_S == cfg.R_S
        stats = build_scenario(cfg).stats
        assert len(specs) == len(set(specs)) == 6  # 7 entries; R_S is T_S_B's spec
        assert np.array_equal(stats.receiver("B").ts_sqrt, stats.R_S_sqrt)

    def test_null_correlation_is_identity(self):
        cfg = parse_config(config_dict(M=4))
        scenario = build_scenario(cfg)
        assert np.array_equal(scenario.stats.T, np.eye(4, dtype=complex))
