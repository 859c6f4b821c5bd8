"""Shared builders for the test suite.

Two scenario families are used throughout:

* ``make_stats``: O(1)-scale correlation matrices and noise, moderate
  angular spreads. Numerically benign; good for unit checks and gradient
  oracles.
* ``experiment_stats``: the measurement-campaign regime: path-loss-scaled
  receive correlations, -94 dBm noise, transmit power set in dBm. Used by
  the statistical validation tests.
"""

import json
import math

import numpy as np
import pytest

from irs_secrecy.fixedpoint import MiDescriptor, solve_all
from irs_secrecy.scenario import (
    CorrelationSpec,
    Spectrum,
    build_correlation_matrix,
    build_los_channel,
    build_channel_statistics,
    dbm_to_watts,
    path_loss,
)

REF_LOSS_1 = 10.0 ** -2.305
REF_LOSS_2 = 10.0 ** -2.595
NOISE_WATTS = dbm_to_watts(-94.0)


def corr(eta: float, delta: float, n: int, d_r: float = 1.0) -> np.ndarray:
    return build_correlation_matrix(CorrelationSpec(d_r, eta, delta, n))


def rand_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix with trace n * scale."""
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = A @ A.conj().T
    return P * (scale * n / np.trace(P).real)


def spectrum(mat: np.ndarray) -> Spectrum:
    """The ``scenario.Spectrum`` of a dense PSD matrix, the form in which the
    fixed-point solvers take their inputs."""
    return Spectrum.of_matrix(np.asarray(mat, dtype=complex))


def spectrum_matrix(spec) -> np.ndarray:
    """The dense matrix X of a ``scenario.Spectrum``, rebuilt from the
    eigenvectors (a dense test oracle)."""
    v = spec.vecs if spec.gram else spec.vecs * spec.lam
    return v @ spec.vecs.conj().T


def make_stats(
    kind: str,
    M: int = 4,
    L: int = 6,
    N_B: int = 3,
    N_E: tuple = (3,),
    seed: int = 0,
    sigma2_B: float = 0.8,
    sigma2_E: float = 1.1,
    identity_ts: bool = False,
):
    """O(1)-scale statistics with moderate correlation and random phases."""
    rng = np.random.default_rng(seed)
    eye_ts = np.eye(L, dtype=complex)
    receivers = [(2.0 * corr(10.0, 20.0, N_B, d_r=0.3),
                  eye_ts if identity_ts else corr(35.0, 14.0, L, d_r=0.4), sigma2_B)]
    receivers += [(1.5 * corr(-25.0 + 7 * k, 15.0, n, d_r=0.3),
                   eye_ts if identity_ts else corr(-50.0 + 5 * k, 11.0, L, d_r=0.4),
                   sigma2_E + 0.15 * k) for k, n in enumerate(N_E)]
    return build_channel_statistics(
        model_kind=kind,
        receivers=receivers,
        T=corr(5.0, 25.0, M, d_r=0.35),
        H_T0=build_los_channel(M, L),
        theta=rng.uniform(0.0, 2.0 * np.pi, L),
        R_S=corr(0.0, 30.0, L, d_r=0.3) if kind == "double" else None,
    )


def experiment_stats(
    kind: str,
    M: int = 8,
    L: int = 16,
    N_B: int = 4,
    N_E: tuple = (4,),
    d_irs_e: tuple = (40.0,),
    theta_seed: int = 11,
):
    """Measurement-campaign regime: path-loss-folded gains, -94 dBm noise."""
    g_bs = path_loss(REF_LOSS_1, 20.0, 2.2)
    g_b = g_bs * path_loss(REF_LOSS_2, 30.0, 3.67)
    g_e = [g_bs * path_loss(REF_LOSS_2, d, 3.67) for d in d_irs_e]
    theta = np.random.default_rng(theta_seed).uniform(0.0, 2.0 * np.pi, L)
    receivers = [(g_b * corr(0.0, 5.0, N_B), corr(5.0, 8.0, L), NOISE_WATTS)]
    receivers += [(g * corr(60.0 - 10 * k, 5.0, n), corr(10.0 + 5 * k, 8.0, L), NOISE_WATTS)
                  for k, (g, n) in enumerate(zip(g_e, N_E))]
    return build_channel_statistics(
        model_kind=kind,
        receivers=receivers,
        T=np.eye(M, dtype=complex),
        H_T0=build_los_channel(M, L),
        theta=theta,
        R_S=corr(5.0, 8.0, L) if kind == "double" else None,
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented stream of one Monte-Carlo trial (or one worst-case
    sampler chunk), built fresh: a Generator over a Philox bit generator
    with key [seed, trial] and counter 0. ``scenario.trial_streams`` re-keys
    one generator into this state."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def solve_term(stats, user: str, P: np.ndarray, start=None):
    """The fixed point of one receiver under the precoder P, from the double-hop
    ``start`` when one is given: a one-term ``fixedpoint.solve_all`` call."""
    return solve_all(stats, [MiDescriptor(user, "W")], {"W": P},
                     None if start is None else [start])[0]


def effective_transmit_corr(stats, user: str, P: np.ndarray) -> np.ndarray:
    """Dense transmit-side correlation T_eff of one receiver under the
    precoder P, whose spectrum ``fixedpoint.transmit_spectra`` takes
    without forming it: (M/L) A P A^H (L x L, A the aperture) on the
    single-hop model, T^{1/2} P T^{1/2} (M x M) on the double-hop one."""
    P = np.asarray(P, dtype=complex)
    if stats.model_kind == "lbi":
        A = stats.lbi_aperture(user)
        out = (stats.M / stats.L) * (A @ P @ A.conj().T)
    else:
        out = stats.T_sqrt @ P @ stats.T_sqrt
    return 0.5 * (out + out.conj().T)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int, var: float) -> np.ndarray:
    """One documented factor draw: 2 * rows * cols standard normals, the
    real parts then the imaginary parts, each scaled to carry var/2."""
    z = rng.standard_normal((2, rows, cols))
    return math.sqrt(var / 2.0) * (z[0] + 1j * z[1])


def draw_factors(stats, users, seed: int, trial: int) -> tuple:
    """``(Y, {user: X})``: the Gaussian factors of one Monte-Carlo trial in
    the documented draw order, from ``trial_rng(seed, trial)``. Y (L x M,
    CN(0, 1/M)) comes first and only for the double model (else None), then
    one X per user (N_u x L, CN(0, 1/L)) in the order of ``users``."""
    rng = trial_rng(seed, trial)
    Y = (complex_gaussian(rng, stats.L, stats.M, 1.0 / stats.M)
         if stats.model_kind == "double" else None)
    return Y, {u: complex_gaussian(rng, stats.receiver(u).n, stats.L, 1.0 / stats.L)
               for u in users}


def uniform_precoders(M: int, p_watts: float, split_w: float = 0.9, split_v: float = 0.1):
    eye = np.eye(M, dtype=complex)
    return split_w * p_watts * eye, split_v * p_watts * eye


def config_dict(
    kind: str = "lbi",
    M: int = 4,
    L: int = 8,
    N_B: int = 2,
    N_E: tuple = (2,),
    P_dbm: float = 30.0,
    split_w: float = 1.0,
    split_v: float = 0.0,
    theta_init: str = "zeros",
) -> dict:
    """Scenario configuration in the experiment regime (JSON-ready dict)."""
    gauss = lambda eta, delta: {"kind": "gaussian", "d_r": 1.0, "eta": eta, "delta": delta}
    cfg = {
        "dimensions": {
            "M": M,
            "L": L,
            "N_B": N_B,
            "N_E": list(N_E),
            "K_eves": len(N_E),
        },
        "model": {"kind": kind},
        "correlations": {
            "R_B": gauss(0.0, 5.0),
            "T_S_B": gauss(5.0, 8.0),
            "T": None,
            "R_E": [gauss(60.0 - 10 * k, 5.0) for k in range(len(N_E))],
            "T_S_E": [gauss(10.0 + 5 * k, 8.0) for k in range(len(N_E))],
        },
        "pathloss": {
            "C1": REF_LOSS_1,
            "C2": REF_LOSS_2,
            "alpha1": 2.2,
            "alpha2": 3.67,
            "d_bs_irs": 20.0,
            "d_irs_b": 30.0,
            "d_irs_e": [40.0 - 5.0 * k for k in range(len(N_E))],
        },
        "noise": {"sigma2_dbm": -94.0},
        "power": {"P_dbm": P_dbm, "split_w": split_w, "split_v": split_v},
        "theta": {"init": theta_init},
    }
    if kind == "double":
        cfg["correlations"]["R_S"] = gauss(5.0, 8.0)
    return cfg


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg: dict, name: str = "scenario.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write
