"""Coupled fixed-point systems and deterministic mutual-information means.

Two systems are solved by damped fixed-point iteration:

- ``lbi`` (single correlated Rayleigh hop, N x M channel through an L-element
  deterministic aperture):

      alpha     = (1/M) Tr[ R (z I + alpha_bar R)^{-1} ]
      alpha_bar = (1/M) Tr[ T_eff (I + alpha T_eff)^{-1} ]

  with mean mutual information (natural log of det(z I + H P H^H))

      D = logdet(z I + alpha_bar R) + logdet(I + alpha T_eff) - M alpha alpha_bar.

- ``double`` (two correlated Rayleigh hops sharing a middle matrix):

      delta     = (1/L) Tr[ R G_R ],  G_R = (z I + (M omega omega_bar / (L delta)) R)^{-1}
      omega     = (1/M) Tr[ S G_S ],  G_S = ((1/delta) I + omega_bar S)^{-1}
      omega_bar = (1/M) Tr[ T G_T ],  G_T = (I + omega T)^{-1}

  with mean

      C = logdet(z I + (M omega omega_bar / (L delta)) R)
          + logdet(I + delta omega_bar S) + logdet(I + omega T)
          - 2 M omega omega_bar.

Both systems run through one damped loop with fixed constants: from all
scalars at 1, each iteration moves the scalars a fraction ``DAMPING`` (0.5)
of the way to the right-hand sides, and the loop stops at the first point
whose direct-substitution residual (the largest absolute change when the
right-hand sides are re-evaluated there) is below ``TOL`` (1e-10). After
``MAX_ITER`` (10,000) iterations it raises ``ConvergenceError``.

Each solver diagonalizes its input matrices once, so one iteration costs
O(N + L + M); the resolvent-style matrices are materialized after
convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ModelError
from .scenario import ChannelStatistics, psd_eig

TOL = 1e-10
MAX_ITER = 10_000
DAMPING = 0.5


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiDescriptor:
    """One mutual-information term of a joint analysis: the log-determinant
    of one receiver at its own noise power.

    user: receiver tag, 'B' or 'E<i>'. Terms with the same user share that
        user's Gaussian factor X, and ``stats.user_sigma2(user)`` is the noise
        power z of the term.
    precoder: which transmit covariance the term sees, 'W' (information),
        'V' (noise injection) or 'U' (their sum).
    """

    user: str
    precoder: str

    def __post_init__(self):
        if self.precoder not in ("W", "V", "U"):
            raise ModelError(f"precoder tag must be 'W', 'V' or 'U', got {self.precoder!r}")

    @property
    def label(self) -> str:
        return f"{self.user}{self.precoder}"


def wiretap_descriptors(stats: ChannelStatistics, eves: Optional[list] = None) -> list:
    """Descriptors (B,W), (E1,W), ...: one term per user."""
    users = ["B"] + (eves if eves is not None else [f"E{i+1}" for i in range(stats.K_eves)])
    return [MiDescriptor(user=u, precoder="W") for u in users]


def an_descriptors(stats: ChannelStatistics, eves: Optional[list] = None) -> list:
    """Descriptors (B,U), (B,V), (E1,U), (E1,V), ...: both terms of one user
    share that user's X realization."""
    users = ["B"] + (eves if eves is not None else [f"E{i+1}" for i in range(stats.K_eves)])
    return [MiDescriptor(user=u, precoder=p) for u in users for p in ("U", "V")]


def precoder_map(P_W: np.ndarray, P_V: Optional[np.ndarray] = None) -> dict:
    """Tag-to-matrix map used everywhere a descriptor selects its covariance."""
    if P_V is None:
        P_V = np.zeros_like(P_W)
    return {"W": P_W, "V": P_V, "U": P_W + P_V}


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LbiSolution:
    """Converged single-hop system: scalars, resolvent-style matrices and the
    inputs they were computed from."""

    alpha: float
    alpha_bar: float
    L_R: np.ndarray  # (z I + alpha_bar R)^{-1}
    L_T: np.ndarray  # (I + alpha T_eff)^{-1}
    z: float
    R: np.ndarray
    T_eff: np.ndarray
    m_dim: int
    n_iter: int
    residual: float


@dataclass(frozen=True)
class DsSolution:
    """Converged double-hop system: scalars, resolvents and inputs."""

    delta: float
    omega: float
    omega_bar: float
    G_R: np.ndarray  # (z I + (M omega omega_bar/(L delta)) R)^{-1}
    G_S: np.ndarray  # ((1/delta) I + omega_bar S)^{-1}
    G_T: np.ndarray  # (I + omega T)^{-1}
    z: float
    R: np.ndarray
    S: np.ndarray
    T_eff: np.ndarray
    m_dim: int
    l_dim: int
    n_iter: int
    residual: float

    @property
    def kappa(self) -> float:
        """The receive-side loading M omega omega_bar / (L delta)."""
        return self.m_dim * self.omega * self.omega_bar / (self.l_dim * self.delta)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _damped_fixed_point(step, x: list, system: str) -> tuple:
    """Iterate x <- (1 - DAMPING) x + DAMPING step(x) until the current point
    passes the direct-substitution test max|step(x) - x| < TOL.

    Returns (x, iterations, residual), the iteration count including the
    final test. The constants are read on every call.
    """
    tol, damping = TOL, DAMPING
    keep = 1.0 - damping
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        new = step(*x)
        residual = max(map(abs, map(sub, new, x)))
        if residual < tol:
            return x, it, residual
        x = [keep * o + damping * n for o, n in zip(x, new)]
    raise ConvergenceError(f"{system} fixed point did not converge", residual)


def _resolvent(u: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """u diag(1 / denom) u^H."""
    return (u / denom) @ u.conj().T


def solve_lbi(R: np.ndarray, T_eff: np.ndarray, z: float, m_dim: int) -> LbiSolution:
    """Solve the single-hop system to a direct-substitution residual < TOL."""
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    R, T_eff = np.asarray(R, dtype=complex), np.asarray(T_eff, dtype=complex)
    lam_r, u_r = psd_eig(R, "R")
    lam_t, u_t = psd_eig(T_eff, "T_eff")
    m = float(m_dim)

    def step(a: float, ab: float) -> tuple:
        a_new = float((lam_r / (z + ab * lam_r)).sum() / m)
        ab_new = float((lam_t / (1.0 + a * lam_t)).sum() / m)
        return a_new, ab_new

    (a, ab), it, residual = _damped_fixed_point(step, [1.0, 1.0], "single-hop")
    return LbiSolution(
        alpha=a, alpha_bar=ab, L_R=_resolvent(u_r, z + ab * lam_r),
        L_T=_resolvent(u_t, 1.0 + a * lam_t), z=float(z), R=R, T_eff=T_eff,
        m_dim=m_dim, n_iter=it, residual=residual,
    )


def solve_ds(R: np.ndarray, S: np.ndarray, T_eff: np.ndarray, z: float, m_dim: int,
             l_dim: int) -> DsSolution:
    """Solve the double-hop system to a direct-substitution residual < TOL."""
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    R, S, T_eff = (np.asarray(x, dtype=complex) for x in (R, S, T_eff))
    lam_r, u_r = psd_eig(R, "R")
    lam_s, u_s = psd_eig(S, "S")
    lam_t, u_t = psd_eig(T_eff, "T_eff")
    m, ell = float(m_dim), float(l_dim)
    if np.sum(lam_r) <= 0:
        raise ModelError("degenerate receive correlation: the double-hop system needs Tr R > 0")

    def step(d: float, o: float, ob: float) -> tuple:
        if d <= 0:
            raise ModelError("double-hop system hit delta <= 0 (degenerate regime)")
        kappa = m * o * ob / (ell * d)
        d_new = float((lam_r / (z + kappa * lam_r)).sum() / ell)
        o_new = float((lam_s / (1.0 / d + ob * lam_s)).sum() / m)
        ob_new = float((lam_t / (1.0 + o * lam_t)).sum() / m)
        return d_new, o_new, ob_new

    (d, o, ob), it, residual = _damped_fixed_point(step, [1.0, 1.0, 1.0], "double-hop")
    kappa = m * o * ob / (ell * d)
    return DsSolution(
        delta=d, omega=o, omega_bar=ob, G_R=_resolvent(u_r, z + kappa * lam_r),
        G_S=_resolvent(u_s, 1.0 / d + ob * lam_s), G_T=_resolvent(u_t, 1.0 + o * lam_t),
        z=float(z), R=R, S=S, T_eff=T_eff, m_dim=m_dim, l_dim=l_dim, n_iter=it,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# deterministic equivalents
# ---------------------------------------------------------------------------

def _logdet_psd(mat: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(mat)
    if sign.real <= 0:
        raise ModelError("logdet argument is not positive definite")
    return float(val)


def det_equiv_lbi(sol: LbiSolution) -> float:
    """Deterministic mean of logdet(z I + H P H^H) for the single-hop model
    (nats)."""
    n = sol.R.shape[0]
    d = _logdet_psd(sol.z * np.eye(n) + sol.alpha_bar * sol.R)
    d += _logdet_psd(np.eye(sol.T_eff.shape[0]) + sol.alpha * sol.T_eff)
    return d - sol.m_dim * sol.alpha * sol.alpha_bar


def det_equiv_ds(sol: DsSolution) -> float:
    """Deterministic mean of logdet(z I + H P H^H) for the double-hop model
    (nats)."""
    n = sol.R.shape[0]
    c = _logdet_psd(sol.z * np.eye(n) + sol.kappa * sol.R)
    c += _logdet_psd(np.eye(sol.S.shape[0]) + sol.delta * sol.omega_bar * sol.S)
    c += _logdet_psd(np.eye(sol.T_eff.shape[0]) + sol.omega * sol.T_eff)
    return c - 2.0 * sol.m_dim * sol.omega * sol.omega_bar


# ---------------------------------------------------------------------------
# effective transmit correlations and descriptor-level wrappers
# ---------------------------------------------------------------------------

def effective_transmit_corr(stats: ChannelStatistics, user: str, P: np.ndarray) -> np.ndarray:
    """Transmit-side correlation seen by the solvers once the precoder P is
    absorbed.

    double: T^{1/2} P T^{1/2} (M x M).
    lbi:    (M/L) A P A^H with A the deterministic aperture (L x L). The M/L
            factor rescales the solver's unit-variance trace convention to the
            per-column 1/L variance of the sampled Gaussian factor; without it
            the closed forms and the sampled channel describe different
            ensembles.
    """
    P = np.asarray(P, dtype=complex)
    if P.shape != (stats.M, stats.M):
        raise ModelError(f"precoder must be {stats.M}x{stats.M}, got {P.shape}")
    if stats.model_kind == "lbi":
        A = stats.lbi_aperture(user)
        out = (stats.M / stats.L) * (A @ P @ A.conj().T)
    else:
        out = stats.T_sqrt @ P @ stats.T_sqrt
    return 0.5 * (out + out.conj().T)


def solve_user(stats: ChannelStatistics, user: str, P: np.ndarray):
    """Solve the model-appropriate fixed point of one receiver, at its own
    noise power, under the transmit covariance P."""
    T_eff = effective_transmit_corr(stats, user, P)
    R = stats.user_r(user)
    z = stats.user_sigma2(user)
    if stats.model_kind == "lbi":
        return solve_lbi(R, T_eff, z, stats.M)
    return solve_ds(R, stats.ds_gram(user), T_eff, z, stats.M, stats.L)


def solve_descriptor(stats: ChannelStatistics, desc: MiDescriptor, precoders: dict):
    """Solve the model-appropriate fixed point for one descriptor."""
    return solve_user(stats, desc.user, precoders[desc.precoder])


def mean_mi(stats: ChannelStatistics, desc: MiDescriptor, precoders: dict,
            solution=None) -> float:
    """Deterministic mean of the descriptor's logdet term (nats)."""
    sol = solution if solution is not None else solve_descriptor(stats, desc, precoders)
    return det_equiv_lbi(sol) if stats.model_kind == "lbi" else det_equiv_ds(sol)


def mean_rate(stats: ChannelStatistics, desc: MiDescriptor, precoders: dict,
              solution=None) -> float:
    """Deterministic mean rate: mean logdet minus the N log z noise floor."""
    floor = stats.user_n(desc.user) * math.log(stats.user_sigma2(desc.user))
    return mean_mi(stats, desc, precoders, solution=solution) - floor
