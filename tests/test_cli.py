"""Command-line front end: outputs, determinism, and failure modes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irs_secrecy
from irs_secrecy import mcoracle
from irs_secrecy.cli import main
from irs_secrecy.fixedpoint import DsSolution

from conftest import config_dict


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEsrCommand:
    def test_writes_per_eve_and_worst_case(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi", N_E=(2, 2))
        out = tmp_path / "out"
        assert main(["esr", "--config", write_config(cfg), "--out", str(out)]) == 0
        data = _read_json(out / "esr.json")
        assert data["an"] is False
        assert data["model_kind"] == "lbi"
        assert data["p_budget_watts"] == pytest.approx(4.0, rel=1e-12)
        assert set(data["eves"]) == {"E1", "E2"}
        worst = min(e["esr_nats"] for e in data["eves"].values())
        assert data["esr_nats"] == pytest.approx(worst, abs=1e-15)
        assert data["esr_bits"] == pytest.approx(worst / math.log(2.0), rel=1e-12)
        for entry in data["eves"].values():
            assert entry["variance"] > 0.0

    def test_noise_injection_defaults_on_with_positive_split(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi", split_w=0.9, split_v=0.1)
        out = tmp_path / "out"
        assert main(["esr", "--config", write_config(cfg), "--out", str(out)]) == 0
        assert _read_json(out / "esr.json")["an"] is True

    def test_forced_noise_mode_with_zero_split_reduces_to_wiretap(
            self, write_config, tmp_path):
        plain = config_dict(kind="double")
        out_a = tmp_path / "a"
        assert main(["esr", "--config", write_config(plain, "a.json"),
                     "--out", str(out_a)]) == 0
        forced = config_dict(kind="double")
        forced["power"]["an"] = True
        out_b = tmp_path / "b"
        assert main(["esr", "--config", write_config(forced, "b.json"),
                     "--out", str(out_b)]) == 0
        a = _read_json(out_a / "esr.json")
        b = _read_json(out_b / "esr.json")
        assert b["an"] is True and a["an"] is False
        assert b["esr_nats"] == pytest.approx(a["esr_nats"], abs=1e-10)
        assert b["eves"]["E1"]["variance"] == pytest.approx(
            a["eves"]["E1"]["variance"], abs=1e-10)

    def test_rerun_is_byte_identical(self, write_config, tmp_path):
        path = write_config(config_dict(kind="double"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["esr", "--config", path, "--out", str(out_a)]) == 0
        assert main(["esr", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "esr.json").read_bytes() == (out_b / "esr.json").read_bytes()


class TestSopCommand:
    def test_analytic_only_by_default(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sop", "--config", write_config(config_dict()),
                     "--out", str(out), "--r-steps", "9"])
        assert code == 0
        header, rows = _read_csv(out / "sop.csv")
        assert header == ["R_bits", "sop_analytic"]
        assert len(rows) == 9
        probs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(probs) >= 0.0)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_empirical_columns_with_trials(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sop", "--config", write_config(config_dict()),
                     "--out", str(out), "--trials", "800", "--r-steps", "7"])
        assert code == 0
        header, rows = _read_csv(out / "sop.csv")
        assert header == ["R_bits", "sop_analytic", "sop_empirical", "stderr"]
        emp = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(emp) >= 0.0)
        assert np.all((emp >= 0.0) & (emp <= 1.0))

    def test_multi_eve_worst_case_curve(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi", N_E=(2, 2))
        out = tmp_path / "out"
        code = main(["sop", "--config", write_config(cfg), "--out", str(out),
                     "--trials", "4000", "--r-steps", "6"])
        assert code == 0
        header, rows = _read_csv(out / "sop.csv")
        assert header == ["R_bits", "sop_analytic", "stderr"]
        assert len(rows) == 6
        probs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(probs) >= 0.0)

    def test_rerun_is_byte_identical(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi", N_E=(2, 2))
        path = write_config(cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--trials", "3000", "--r-steps", "5", "--seed", "7"]
        assert main(["sop", "--config", path, "--out", str(out_a)] + args) == 0
        assert main(["sop", "--config", path, "--out", str(out_b)] + args) == 0
        assert (out_a / "sop.csv").read_bytes() == (out_b / "sop.csv").read_bytes()

    def test_bad_grid_is_a_config_error(self, write_config, tmp_path, capsys):
        code = main(["sop", "--config", write_config(config_dict()),
                     "--out", str(tmp_path / "o"), "--r-min", "4.0",
                     "--r-max", "1.0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_empty_grid_is_a_config_error(self, write_config, tmp_path, capsys):
        code = main(["sop", "--config", write_config(config_dict()),
                     "--out", str(tmp_path / "o"), "--r-steps", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --r-steps: ")


class TestMcValidateCommand:
    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_report_structure(self, write_config, tmp_path, kind):
        cfg = config_dict(kind=kind, split_w=0.9, split_v=0.1)
        out = tmp_path / "out"
        code = main(["mc-validate", "--config", write_config(cfg),
                     "--out", str(out), "--trials", "1500"])
        assert code == 0
        header, rows = _read_csv(out / "mc_validate.csv")
        assert header == ["quantity", "analytic", "empirical", "stderr",
                          "abs_diff", "tol", "pass"]
        names = [r[0] for r in rows]
        # four noise-injection terms: 4 means + 10 upper-triangle covariances
        assert sum(n.startswith("mean_") for n in names) == 4
        assert sum(n.startswith("cov_") for n in names) == 10
        for row in rows:
            assert row[6] in {"0", "1"}
            # columns carry 12 significant digits; the difference of two
            # near-equal O(10) values loses ~1e-11 absolute to print rounding
            assert float(row[4]) == pytest.approx(
                abs(float(row[1]) - float(row[2])), abs=1e-10)

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    def test_zero_noise_precoder_rows_pass_with_exact_zeros(self, write_config, tmp_path,
                                                           kind):
        # noise injection forced on with split_v 0: every V sample is exactly
        # N log z, so its rows must carry no roundoff variance
        cfg = config_dict(kind=kind)
        cfg["power"]["an"] = True
        out = tmp_path / "out"
        code = main(["mc-validate", "--config", write_config(cfg),
                     "--out", str(out), "--trials", "500"])
        assert code == 0
        _, rows = _read_csv(out / "mc_validate.csv")
        assert all(row[6] == "1" for row in rows), rows
        v_rows = [row for row in rows if any(label.endswith("V")
                                             for label in row[0].split("_")[1:])]
        cov_rows = [row for row in v_rows if row[0].startswith("cov_")]
        assert len(v_rows) == 2 + 7 and len(cov_rows) == 7
        for row in v_rows:
            assert float(row[3]) == 0.0, row
        for row in cov_rows:
            assert float(row[2]) == 0.0, row


class TestOptimizeEsrCommand:
    def test_trace_and_result(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi", split_w=0.9, split_v=0.1)
        out = tmp_path / "out"
        code = main(["optimize-esr", "--config", write_config(cfg),
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out / "optimize_esr_trace.csv")
        assert header == ["iter", "objective_nats", "step_size", "grad_norm",
                          "feasibility_violation"]
        objective = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(objective) >= -1e-8)
        assert all(float(r[4]) <= 1e-9 for r in rows)

        result = _read_json(out / "optimize_esr_result.json")
        assert result["an"] is True
        assert result["iterations"] == len(rows)
        assert result["esr_nats"] == pytest.approx(objective[-1], rel=1e-12)
        assert len(result["theta"]) == cfg["dimensions"]["L"]
        eig_w = result["p_w_eigenvalues"]
        assert len(eig_w) == cfg["dimensions"]["M"]
        assert eig_w == sorted(eig_w, reverse=True)
        total = sum(eig_w) + sum(result["p_v_eigenvalues"])
        budget = cfg["dimensions"]["M"] * 1.0  # 30 dBm = 1 W per transmit antenna
        assert total <= budget + 1e-9

    def test_wiretap_mode_zeroes_the_noise_covariance(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi")
        out = tmp_path / "out"
        code = main(["optimize-esr", "--config", write_config(cfg),
                     "--out", str(out)])
        assert code == 0
        result = _read_json(out / "optimize_esr_result.json")
        assert result["an"] is False
        assert all(v == 0.0 for v in result["p_v_eigenvalues"])


class TestOptimizeSopCommand:
    def test_descent_on_the_double_model(self, write_config, tmp_path):
        cfg = config_dict(kind="double", theta_init="uniform")
        out = tmp_path / "out"
        code = main(["optimize-sop", "--config", write_config(cfg),
                     "--out", str(out), "--r-min", "1.0", "--seed", "3"])
        assert code == 0
        header, rows = _read_csv(out / "optimize_sop_trace.csv")
        assert header == ["iter", "objective_nats", "step_size", "grad_norm",
                          "feasibility_violation"]
        probs = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(probs) <= 1e-15)
        result = _read_json(out / "optimize_sop_result.json")
        assert result["model_kind"] == "double"
        assert result["r_bits"] == 1.0
        assert result["sop"] == pytest.approx(probs[-1], rel=1e-12)
        assert result["p_v_eigenvalues"] == [0.0] * cfg["dimensions"]["M"]

    def test_rejects_noise_injection_mode(self, write_config, tmp_path, capsys):
        cfg = config_dict(kind="double", split_w=0.9, split_v=0.1)
        path = write_config(cfg)
        code = main(["optimize-sop", "--config", path,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [optimize-sop, config {path}]")
        assert "wiretap" in err

    @pytest.mark.parametrize("p_dbm", [120.0, 200.0])
    def test_descent_at_high_power(self, write_config, tmp_path, capsys, p_dbm):
        # delta and omega fall and omega_bar grows with the power, decades
        # apart here; the implicit-derivative system is well posed in the
        # relative derivatives, so its singularity test passes
        out = tmp_path / "o"
        code = main(["optimize-sop", "--config",
                     write_config(config_dict(kind="double", P_dbm=p_dbm)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0, err
        assert (out / "optimize_sop_result.json").exists()

    def test_zero_information_precoder_is_a_zero_variance_error(
            self, write_config, tmp_path, capsys):
        # split_w = 0 puts omega_bar at 0: the singularity test keeps that
        # column unscaled, and the run stops at the variance check
        path = write_config(config_dict(kind="double", split_w=0.0))
        code = main(["optimize-sop", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == (f"error [optimize-sop, config {path}]: "
                       "variance 0.000e+00 is not positive\n")


_NO_SCIPY_SCRIPT = """
import json, sys
from irs_secrecy.cli import main
assert "scipy" not in sys.modules, "scipy loaded by the import"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"scipy loaded by {argv[0]}"
"""


def test_runtime_never_loads_scipy(write_config, tmp_path):
    """A fresh interpreter imports the CLI and runs one analytic ``sop`` and
    one ``optimize-sop`` job without scipy entering ``sys.modules``."""
    jobs = [
        ["sop", "--config", write_config(config_dict(kind="lbi"), "lbi.json"),
         "--out", str(tmp_path / "sop"), "--trials", "0"],
        ["optimize-sop", "--config",
         write_config(config_dict(kind="double", theta_init="uniform"), "double.json"),
         "--out", str(tmp_path / "opt"), "--r-min", "1.0", "--seed", "3"],
    ]
    src = os.path.dirname(os.path.dirname(irs_secrecy.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(jobs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sop" / "sop.csv").exists()
    assert (tmp_path / "opt" / "optimize_sop_result.json").exists()


class TestSweepCommand:
    def test_default_powers(self, write_config, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(config_dict()),
                     "--out", str(out), "--r-steps", "4"])
        assert code == 0
        header, rows = _read_csv(out / "sop_sweep.csv")
        assert header == ["P_dbm", "R_bits", "sop_analytic"]
        powers = sorted({float(r[0]) for r in rows})
        assert powers == [30.0, 50.0]
        assert len(rows) == 2 * 4

    def test_custom_power_list_and_monotone_benefit(self, write_config, tmp_path):
        cfg = config_dict(kind="lbi")
        cfg["sweep"] = {"P_dbm": [20.0, 40.0]}
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(cfg), "--out", str(out),
                     "--r-min", "0.5", "--r-max", "3.0", "--r-steps", "6"])
        assert code == 0
        _, rows = _read_csv(out / "sop_sweep.csv")
        lo = np.array([float(r[2]) for r in rows if float(r[0]) == 20.0])
        hi = np.array([float(r[2]) for r in rows if float(r[0]) == 40.0])
        assert lo.shape == hi.shape == (6,)
        assert np.all(hi <= lo + 1e-12)

    def test_trials_with_one_eavesdropper_is_a_config_error(self, write_config, tmp_path,
                                                            capsys):
        # with one eavesdropper the sweep has no Monte-Carlo columns to fill
        out = tmp_path / "out"
        code = main(["sweep", "--config", write_config(config_dict()), "--out", str(out),
                     "--r-steps", "4", "--trials", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --trials: ")
        assert not (out / "sop_sweep.csv").exists()

    def test_two_eve_sweep_is_byte_identical_for_any_worker_count(
            self, write_config, tmp_path, monkeypatch):
        # 3 chunks of worst-case samples on 1 worker, then on the default
        # pool (3 workers on a host patched to 3 cores)
        monkeypatch.setattr(mcoracle, "available_cores", lambda: 3)
        cfg = config_dict(kind="double", N_E=(2, 2), split_w=0.9, split_v=0.1)
        cfg["sweep"] = {"P_dbm": [20.0, 40.0]}
        path = write_config(cfg)
        files = {}
        for env in ("1", None):
            if env is None:
                monkeypatch.delenv("IRS_SECRECY_THREADS")
            else:
                monkeypatch.setenv("IRS_SECRECY_THREADS", env)
            out = tmp_path / f"threads-{env}"
            assert main(["sweep", "--config", path, "--out", str(out), "--r-steps", "6",
                         "--trials", "140000", "--seed", "3"]) == 0
            files[env] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert list(files["1"]) == ["sop_sweep.csv"]
        assert files["1"] == files[None]

    @pytest.mark.parametrize("kind, split_v", [("lbi", 0.0), ("double", 0.1)])
    def test_two_eve_sweep_matches_sop_at_each_power(self, write_config, tmp_path,
                                                     kind, split_v):
        # the powers share one set of worst-case draws, and each power's
        # cells are those of a separate sop run with the same seed
        powers = [20.0, 40.0, 60.0]
        grid = ["--r-min", "0.5", "--r-max", "4.0", "--r-steps", "5",
                "--trials", "70000", "--seed", "11"]
        cfg = config_dict(kind=kind, N_E=(2, 2), split_w=1.0 - split_v, split_v=split_v)
        cfg["sweep"] = {"P_dbm": powers}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_config(cfg, "sweep.json"),
                     "--out", str(out)] + grid) == 0
        header, rows = _read_csv(out / "sop_sweep.csv")
        assert header == ["P_dbm", "R_bits", "sop_analytic", "stderr"]
        for p_dbm in powers:
            one = config_dict(kind=kind, N_E=(2, 2), P_dbm=p_dbm,
                              split_w=1.0 - split_v, split_v=split_v)
            out_p = tmp_path / f"sop{p_dbm:g}"
            assert main(["sop", "--config", write_config(one, f"sop{p_dbm:g}.json"),
                         "--out", str(out_p)] + grid) == 0
            _, sop_rows = _read_csv(out_p / "sop.csv")
            assert [r[1:] for r in rows if float(r[0]) == p_dbm] == sop_rows


# (key path, replacement value, expected start of the message)
_MALFORMED = [
    (("dimensions", "M"), "four", "dimensions.M"),
    (("power", "P_dbm"), "x", "power.P_dbm"),
    (("correlations", "R_B", "delta"), "wide", "correlations.R_B.delta"),
    # angles outside the quadrature's domain, and spectra no grid resolves
    (("correlations", "R_B", "eta"), 1e308, "correlations.R_B.eta"),
    (("correlations", "R_B", "delta"), 1e300, "correlations.R_B.delta"),
    (("correlations", "R_B", "delta"), 1e-300, "correlations.R_B.delta"),
    (("correlations", "R_B", "d_r"), 1e300, "correlations.R_B.d_r"),
    (("power", "split_w"), None, "power.split_w"),
    (("dimensions", "N_E"), [2.5], "dimensions.N_E[0]"),
    (("theta",), {"init": "file", "file": "no-such-dir/theta.json"}, "theta.file"),
    (("dimensions", "L"), 1.7, "dimensions.L"),
    (("noise", "sigma2_dbm"), math.inf, "noise.sigma2_dbm"),
    (("noise", "sigma2_dbm"), math.nan, "noise.sigma2_dbm"),
    (("pathloss", "C1"), -0.004, "pathloss.C1"),
    (("power", "P_dbm"), 4000.0, "power.P_dbm"),
    (("power", "P_dbm"), 300.5, "power.P_dbm"),
    (("noise", "sigma2_dbm"), -4000.0, "noise.sigma2_dbm"),
    (("sweep",), {"P_dbm": [30.0, 4000.0]}, "sweep.P_dbm[1]"),
    (("dimensions",), [1], "dimensions: expected an object"),
    # hop gains C / d**alpha that leave the float range
    (("pathloss", "alpha1"), 400.0, "pathloss.C1, pathloss.alpha1, pathloss.d_bs_irs: "),
    (("pathloss", "d_bs_irs"), 1e300, "pathloss.C1, pathloss.alpha1, pathloss.d_bs_irs: "),
    (("pathloss", "alpha2"), -400.0, "pathloss.C2, pathloss.alpha2, pathloss.d_irs_b: "),
    (("pathloss", "d_irs_e"), [1e-300], "pathloss.C2, pathloss.alpha2, pathloss.d_irs_e[0]: "),
    # a subnormal BS-IRS hop gain whose product with the IRS-B hop is 0.0
    (("pathloss", "C1"), 1e-320, "pathloss.C1, pathloss.alpha1, pathloss.d_bs_irs, "
     "pathloss.C2, pathloss.alpha2, pathloss.d_irs_b: end-to-end"),
    (("theta",), {"init": "spiral"}, "theta.init"),
    (("theta",), {"init": "file"}, "theta.file"),
    (("power", "an"), "yes", "power.an"),
    # a misspelt key would otherwise leave its default in force
    (("correlations", "T_SB"), {"kind": "gaussian", "d_r": 1.0, "eta": 5.0, "delta": 8.0},
     "correlations.T_SB: unknown key"),
    (("power", "split_V"), 0.1, "power.split_V: unknown key"),
    (("power", "Pdbm"), 30.0, "power.Pdbm: unknown key"),
    (("thetas",), {"init": "uniform"}, "config.thetas: unknown key"),
    (("dimensions", "K"), 1, "dimensions.K: unknown key"),
    (("model", "type"), "lbi", "model.type: unknown key"),
    (("pathloss", "d_irs_E"), [40.0], "pathloss.d_irs_E: unknown key"),
    (("noise", "sigma2"), -94.0, "noise.sigma2: unknown key"),
    (("theta", "seed"), 3, "theta.seed: unknown key"),
    (("sweep",), {"P_dBm": [30.0]}, "sweep.P_dBm: unknown key"),
    (("correlations", "R_B", "spread"), 5.0, "correlations.R_B.spread: unknown key"),
    (("correlations", "T"), {"kind": "identity", "eta": 0.0}, "correlations.T.eta: unknown key"),
]


class TestFailureModes:
    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["esr", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_top_level_non_object_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        code = main(["esr", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: top level must be an object")

    def test_missing_file_is_a_config_error(self, tmp_path, capsys):
        code = main(["esr", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_section_names_the_field(self, write_config, tmp_path, capsys):
        cfg = config_dict()
        del cfg["dimensions"]["M"]
        code = main(["esr", "--config", write_config(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dimensions.M" in capsys.readouterr().err

    def test_negative_seed_and_trials_are_usage_errors(self, write_config,
                                                       tmp_path, capsys):
        path = write_config(config_dict())
        assert main(["esr", "--config", path, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: --seed: ")
        assert main(["sop", "--config", path, "--out", str(tmp_path / "o"),
                     "--trials", "-5"]) == 2
        assert capsys.readouterr().err.startswith("config error: --trials: ")

    @pytest.mark.parametrize("subcommand, eves", [
        ("sop", (2, 2)), ("sop", (2,)), ("mc-validate", (2,))])
    def test_seed_beyond_the_philox_key_is_a_config_error(
            self, write_config, tmp_path, capsys, subcommand, eves):
        # the samplers key a uint64 Philox on the seed: 2**64 - 1 is the last
        # seed they accept
        path = write_config(config_dict(N_E=eves))
        args = [subcommand, "--config", path, "--trials", "10", "--r-steps", "3"]
        assert main(args + ["--out", str(tmp_path / "a"), "--seed", str(2**64)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed: must be below 2**64"), err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()
        assert main(args + ["--out", str(tmp_path / "b"), "--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize("subcommand, flag, value, kind", [
        ("sop", "--r-max", "nan", "lbi"),
        ("sop", "--r-min", "nan", "lbi"),
        ("sop", "--r-max", "inf", "lbi"),
        ("optimize-sop", "--r-min", "nan", "double"),
    ])
    def test_non_finite_threshold_is_a_config_error(
            self, write_config, tmp_path, capsys, subcommand, flag, value, kind):
        path = write_config(config_dict(kind=kind))
        code = main([subcommand, "--config", path, "--out", str(tmp_path / "o"),
                     flag, value])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: {flag}: "), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, field", _MALFORMED,
                             ids=[f"{'.'.join(p)}={v!r}" for p, v, _ in _MALFORMED])
    def test_malformed_field_is_a_config_error_naming_it(
            self, write_config, tmp_path, capsys, path, value, field):
        cfg = config_dict()
        _set(cfg, path, value)
        code = main(["esr", "--config", write_config(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: {field}"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, eves", [
        ("sop", (2, 2)), ("mc-validate", (2,)), ("esr", (2,))])
    def test_malformed_thread_setting_is_a_config_error(
            self, write_config, tmp_path, capsys, monkeypatch, subcommand, eves):
        # read before --out is made, also by a subcommand that runs no pool
        monkeypatch.setenv("IRS_SECRECY_THREADS", "junk")
        out = tmp_path / "o"
        code = main([subcommand, "--config", write_config(config_dict(N_E=eves)),
                     "--out", str(out), "--trials", "10", "--r-steps", "3"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == "config error: IRS_SECRECY_THREADS: must be an integer, got 'junk'\n"
        assert not out.exists()

    def test_failed_mc_factorization_exits_1_without_a_traceback(
            self, write_config, tmp_path, capsys):
        # 2 transmit antennas into 4 receive antennas: every Gram H P H^H
        # has rank 2, and at 300 dBm the noise rounds away next to it, so the
        # Cholesky factorization of the Monte-Carlo kernel fails
        path = write_config(config_dict(M=2, L=8, N_B=4, N_E=(4,), P_dbm=300.0))
        out = tmp_path / "o"
        code = main(["mc-validate", "--config", path, "--out", str(out), "--trials", "50"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error [mc-validate, config {path}]: "), err
        assert "not positive definite" in err and "Traceback" not in err
        assert not (out / "mc_validate.csv").exists()

    def test_singular_implicit_system_exits_1_without_a_traceback(
            self, write_config, tmp_path, capsys, monkeypatch):
        # a step-map Jacobian with I - J all ones: rank one, singular under
        # any column scaling
        monkeypatch.setattr(DsSolution, "jacobian",
                            property(lambda sol: tuple(map(tuple, np.eye(3) - 1.0))))
        path = write_config(config_dict(kind="double"))
        out = tmp_path / "o"
        code = main(["optimize-sop", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error [optimize-sop, config {path}]: "
                              "implicit-derivative system is singular"), err
        assert "product of row norms" in err and "below 1e-14" in err
        assert "Traceback" not in err
        assert not (out / "optimize_sop_result.json").exists()

    @pytest.mark.parametrize("kind", ["lbi", "double"])
    @pytest.mark.parametrize("p_dbm, sigma2_dbm",
                             [(300.0, -300.0), (-300.0, 300.0), (300.0, 300.0), (-300.0, -300.0)])
    def test_accepted_dbm_extremes_end_without_a_traceback(
            self, write_config, tmp_path, capsys, kind, p_dbm, sigma2_dbm):
        cfg = config_dict(kind=kind)
        cfg["power"]["P_dbm"] = p_dbm
        cfg["noise"]["sigma2_dbm"] = sigma2_dbm
        code = main(["esr", "--config", write_config(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert "Traceback" not in err


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _paths(node, prefix=()):
    """Every section, field and list element of a config, as key paths."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# Small dimensions keep every example cheap; no value exceeds 64, so no
# example can allocate a large matrix.
_MUTANTS = ["x", True, None, -1, 0, 1.5, math.nan, math.inf, -math.inf, [], {}]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_paths(config_dict(M=4, L=8)))),
       value=st.sampled_from(_MUTANTS))
def test_mutated_configs_never_print_a_traceback(path, value):
    cfg = config_dict(M=4, L=8)
    _set(cfg, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config_path = os.path.join(tmp, "scenario.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        code = main(["esr", "--config", config_path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
