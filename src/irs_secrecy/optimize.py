"""Optimizers for the transmit covariances and the reflecting-surface phases.

Three layers:

* Precoder design on the single-hop (lbi) model: the signed secrecy mean is
  written as two concave terms minus a term that is linearized at the current
  iterate (``sca_gradients``). The resulting concave inner problem is solved
  by projected gradient ascent (``solve_inner_p6``) inside a
  minorize-maximize alternation that refreshes the fixed-point scalars
  (``algorithm1``). Feasibility (positive semidefiniteness and the joint
  trace budget) is kept exact by ``psd_trace_project``.
* Joint alternating optimization (``algorithm2_ao``): precoder rounds
  alternate with backtracking gradient ascent on the surface phases, whose
  gradient (``esr_phase_gradient``) is closed-form via the envelope property
  of the converged fixed points.
* Outage minimization on the double-hop model (``optimize_sop``): gradient
  descent on the Gaussian outage surrogate, with every phase partial obtained
  by implicit differentiation of the three fixed-point scalars per user
  (``sop_phase_gradient``).

The three line searches (inner precoder step, phase ascent, outage descent)
share one Armijo backtracking loop, ``_backtrack``: steps 1.0, 0.5, ... down
to 1e-12, each with its own sufficient-change test (constant 0.3) and its
own handling when no step is accepted. Tolerances and round caps are module
constants read on every call; every design is made against the first
eavesdropper, ``EVE`` ("E1").
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from .errors import (ConvergenceError, DegenerateRegimeError,
                     InvalidCovarianceError, ModelError)
from .fixedpoint import det_equiv_ds, det_equiv_lbi, solve_user
from .scenario import ChannelStatistics

LN2 = math.log(2.0)

ARMIJO_C = 0.3
ARMIJO_STEP0 = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_FLOOR = 1e-12

INNER_REL_TOL = 1e-8
INNER_MAX_ITER = 500
PRECODER_REL_TOL = 1e-6
PRECODER_MAX_ROUNDS = 200
AO_REL_TOL = 1e-6
SOP_GRAD_TOL = 1e-6

EVE = "E1"

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TraceRow:
    """One optimizer iteration for logging; the objective column carries
    nats for rate ascent and a probability for outage descent."""

    iteration: int
    objective: float
    step_size: float
    grad_norm: float
    feasibility_violation: float


def _herm(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re Tr(a^H b) on matrices."""
    return float(np.vdot(a, b).real)


def _backtrack(trial: Callable[[float], object]) -> Optional[Tuple[float, object]]:
    """``(step, candidate)`` for the first step, from ``ARMIJO_STEP0`` down by
    ``ARMIJO_SHRINK`` to ``ARMIJO_FLOOR``, whose ``trial(step)`` returns a
    candidate rather than None; None if every step is rejected."""
    step = ARMIJO_STEP0
    while step >= ARMIJO_FLOOR:
        candidate = trial(step)
        if candidate is not None:
            return step, candidate
        step *= ARMIJO_SHRINK
    return None


def feasibility_violation(P_W: np.ndarray, P_V: np.ndarray, p_budget: float) -> float:
    """Trace-budget excess plus worst negative-eigenvalue magnitude."""
    excess = max(0.0, float((np.trace(P_W) + np.trace(P_V)).real) - p_budget)
    neg = 0.0
    for mat in (P_W, P_V):
        lam = np.linalg.eigvalsh(_herm(mat))
        neg = max(neg, max(0.0, -float(lam[0])))
    return excess + neg


# ---------------------------------------------------------------------------
# feasible-set projection
# ---------------------------------------------------------------------------

def _cap_simplex_project(v: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of a real vector onto {x >= 0, sum x <= budget}."""
    clipped = np.clip(v, 0.0, None)
    if clipped.sum() <= budget:
        return clipped
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.max(np.nonzero(u - (css - budget) / j > 0)[0])) + 1
    tau = (css[rho - 1] - budget) / rho
    return np.clip(v - tau, 0.0, None)


def psd_trace_project(P_W: np.ndarray, P_V: np.ndarray,
                      p_budget: float) -> Tuple[np.ndarray, np.ndarray]:
    """Closest (Frobenius) pair of PSD matrices with joint trace <= budget.

    Eigenvectors are kept per matrix; the stacked eigenvalue vector is
    projected onto the capped simplex. Idempotent on feasible input.
    """
    if p_budget <= 0:
        raise ModelError(f"power budget must be positive, got {p_budget}")
    lam_w, u_w = np.linalg.eigh(_herm(P_W))
    lam_v, u_v = np.linalg.eigh(_herm(P_V))
    stacked = _cap_simplex_project(np.concatenate([lam_w, lam_v]), p_budget)
    new_w = (u_w * stacked[: lam_w.size]) @ u_w.conj().T
    new_v = (u_v * stacked[lam_w.size:]) @ u_v.conj().T
    return _herm(new_w), _herm(new_v)


# ---------------------------------------------------------------------------
# precoder design on the single-hop model
# ---------------------------------------------------------------------------

def _require_lbi(stats: ChannelStatistics, what: str) -> None:
    if stats.model_kind != "lbi":
        raise ModelError(f"{what} is defined on the single-hop (lbi) model")


def _require_double(stats: ChannelStatistics, what: str) -> None:
    if stats.model_kind != "double":
        raise ModelError(f"{what} is defined on the double-hop model")


def sca_gradients(stats: ChannelStatistics, P_W: np.ndarray,
                  P_V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the linearized (concave, to-be-upper-bounded) part of the
    signed secrecy mean: the eavesdropper term at P_U = P_W + P_V and the
    legitimate-user term at P_V.

    Returns (d/dP_W, d/dP_V); both are Hermitian M x M matrices.
    """
    _require_lbi(stats, "sca_gradients")
    c = stats.M / stats.L
    P_U = P_W + P_V

    sol_eu = solve_user(stats, EVE, P_U)
    A_e = stats.lbi_aperture(EVE)
    g_eu = sol_eu.alpha * c * _herm(A_e.conj().T @ sol_eu.L_T @ A_e)

    sol_bv = solve_user(stats, "B", P_V)
    A_b = stats.lbi_aperture("B")
    g_bv = sol_bv.alpha * c * _herm(A_b.conj().T @ sol_bv.L_T @ A_b)

    return g_eu, g_eu + g_bv


def _logdet_hpd(mat: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(mat)
    if sign.real <= 0:
        raise ConvergenceError("log-determinant argument lost positive definiteness",
                               float("nan"))
    return float(val)


def solve_inner_p6(
    stats: ChannelStatistics,
    alpha1: float,
    alpha2: float,
    grad_w_n: np.ndarray,
    grad_v_n: np.ndarray,
    P_W: np.ndarray,
    P_V: np.ndarray,
    p_budget: float,
    freeze_v: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize the concave surrogate

        logdet(I + a1 c A_B P_U A_B^H) + logdet(I + a2 c A_E P_V A_E^H)
            - <grad_w_n, P_W> - <grad_v_n, P_V>,   P_U = P_W + P_V,

    over the PSD pair with joint trace budget, by projected gradient ascent
    with Armijo backtracking. With freeze_v the second variable is held fixed
    and only P_W moves inside its remaining budget.
    """
    _require_lbi(stats, "solve_inner_p6")
    c = stats.M / stats.L
    A_b = stats.lbi_aperture("B")
    A_e = stats.lbi_aperture(EVE)
    eye = np.eye(stats.L)

    def objective(w: np.ndarray, v: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        m1 = eye + alpha1 * c * _herm(A_b @ (w + v) @ A_b.conj().T)
        m2 = eye + alpha2 * c * _herm(A_e @ v @ A_e.conj().T)
        f = (_logdet_hpd(m1) + _logdet_hpd(m2)
             - _inner(grad_w_n, w) - _inner(grad_v_n, v))
        return f, m1, m2

    w, v = _herm(np.asarray(P_W, dtype=complex)), _herm(np.asarray(P_V, dtype=complex))
    f_cur, m1, m2 = objective(w, v)
    v_budget = float(np.trace(v).real)

    for _ in range(INNER_MAX_ITER):
        l1 = np.linalg.inv(m1)
        g_common = alpha1 * c * _herm(A_b.conj().T @ l1 @ A_b)
        g_w = g_common - grad_w_n
        if freeze_v:
            g_v = np.zeros_like(g_w)
        else:
            l2 = np.linalg.inv(m2)
            g_v = g_common + alpha2 * c * _herm(A_e.conj().T @ l2 @ A_e) - grad_v_n

        def trial(gamma):
            if freeze_v:
                w_new, _ = psd_trace_project(w + gamma * g_w, np.zeros_like(w),
                                             max(p_budget - v_budget, 1e-15))
                v_new = v
            else:
                w_new, v_new = psd_trace_project(w + gamma * g_w, v + gamma * g_v,
                                                 p_budget)
            gain = _inner(g_w, w_new - w) + _inner(g_v, v_new - v)
            f_new, m1_new, m2_new = objective(w_new, v_new)
            accept = f_new >= f_cur + ARMIJO_C * gain
            return (w_new, v_new, f_new, m1_new, m2_new) if accept else None

        found = _backtrack(trial)
        if found is None:
            warnings.warn("inner surrogate line search stalled; returning the "
                          "best feasible iterate", RuntimeWarning, stacklevel=2)
            break
        _, (w, v, f_new, m1, m2) = found
        moved = abs(f_new - f_cur)
        f_prev, f_cur = f_cur, f_new
        if moved <= INNER_REL_TOL * max(1.0, abs(f_prev)):
            break
    return w, v


def algorithm1(
    stats: ChannelStatistics,
    P_W: np.ndarray,
    P_V: np.ndarray,
    grad_w_n: np.ndarray,
    grad_v_n: np.ndarray,
    p_budget: float,
    freeze_v: bool = False,
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Alternate fixed-scalar refreshes with inner surrogate maximizations
    until the surrogate objective stabilizes. Monotone by the
    minorize-maximize property; returns (P_W, P_V, objective trace)."""
    _require_lbi(stats, "algorithm1")

    def full_objective(w, v):
        sol_b = solve_user(stats, "B", w + v)
        sol_e = solve_user(stats, EVE, v)
        f = (det_equiv_lbi(sol_b) + det_equiv_lbi(sol_e)
             - _inner(grad_w_n, w) - _inner(grad_v_n, v))
        return f, sol_b, sol_e

    obj, sol_b, sol_e = full_objective(P_W, P_V)
    trace = [obj]
    for _ in range(PRECODER_MAX_ROUNDS):
        P_W, P_V = solve_inner_p6(stats, sol_b.alpha, sol_e.alpha, grad_w_n,
                                  grad_v_n, P_W, P_V, p_budget, freeze_v=freeze_v)
        new_obj, sol_b, sol_e = full_objective(P_W, P_V)
        trace.append(new_obj)
        if new_obj < obj - 1e-8 * max(1.0, abs(obj)):
            warnings.warn(f"surrogate objective decreased by {obj - new_obj:.3e}",
                          RuntimeWarning, stacklevel=2)
        if abs(new_obj - obj) <= PRECODER_REL_TOL * max(1.0, abs(obj)):
            return P_W, P_V, trace
        obj = new_obj
    raise ConvergenceError(
        f"precoder alternation did not stabilize in {PRECODER_MAX_ROUNDS} rounds",
        abs(trace[-1] - trace[-2]) if len(trace) > 1 else float("inf"))


# ---------------------------------------------------------------------------
# phase gradient and joint alternating optimization (single-hop model)
# ---------------------------------------------------------------------------

def signed_an_mean(stats: ChannelStatistics, P_W: np.ndarray, P_V: np.ndarray) -> float:
    """Signed deterministic secrecy mean (nats) of the four-term combination;
    the noise floors cancel pairwise per user."""
    _require_lbi(stats, "signed_an_mean")
    P_U = P_W + P_V
    d_bu = det_equiv_lbi(solve_user(stats, "B", P_U))
    d_bv = det_equiv_lbi(solve_user(stats, "B", P_V))
    d_eu = det_equiv_lbi(solve_user(stats, EVE, P_U))
    d_ev = det_equiv_lbi(solve_user(stats, EVE, P_V))
    return (d_bu - d_bv) - (d_eu - d_ev)


def esr_phase_gradient(stats: ChannelStatistics, P_W: np.ndarray,
                       P_V: np.ndarray) -> np.ndarray:
    """Gradient of the signed secrecy mean with respect to the surface phases.

    Each of the four terms contributes 2 a c Im diag(Z E) with
    Z = T_S^{1/2} L_T T_S^{1/2} and E = Theta W Theta^H,
    W = H_0 T^{1/2} P T^{1/2} H_0^H; the converged scalars make all implicit
    contributions vanish.
    """
    _require_lbi(stats, "esr_phase_gradient")
    c = stats.M / stats.L
    phases = np.exp(1j * stats.theta)
    P_U = P_W + P_V

    w_cache: Dict[str, np.ndarray] = {}

    def conjugated(P: np.ndarray, tag: str) -> np.ndarray:
        if tag not in w_cache:
            core = stats.H_T0 @ (stats.T_sqrt @ P @ stats.T_sqrt) @ stats.H_T0.conj().T
            w_cache[tag] = (phases[:, None] * core) * phases.conj()[None, :]
        return w_cache[tag]

    grad = np.zeros(stats.L)
    for user, P, tag, sign in (("B", P_U, "U", 1.0), ("B", P_V, "V", -1.0),
                               (EVE, P_U, "U", -1.0), (EVE, P_V, "V", 1.0)):
        sol = solve_user(stats, user, P)
        ts_sqrt = stats.user_ts_sqrt(user)
        z_mat = ts_sqrt @ sol.L_T @ ts_sqrt
        e_mat = conjugated(P, tag)
        grad += sign * 2.0 * sol.alpha * c * np.einsum("ij,ji->i", z_mat, e_mat).imag
    return grad


@dataclass(frozen=True)
class AoState:
    """State of the alternating precoder/phase optimizer."""

    P_W: np.ndarray
    P_V: np.ndarray
    theta: np.ndarray
    t: int
    objective: Tuple[float, ...]
    trace: Tuple[TraceRow, ...]
    stats: ChannelStatistics

    @property
    def esr_nats(self) -> float:
        return self.objective[-1]

    @property
    def esr_bits(self) -> float:
        return self.objective[-1] / LN2


def algorithm2_ao(
    stats: ChannelStatistics,
    p_budget: float,
    P_W: Optional[np.ndarray] = None,
    P_V: Optional[np.ndarray] = None,
    budget: int = 100,
    an: bool = True,
    optimize_theta: bool = True,
) -> AoState:
    """Alternating maximization of the ergodic secrecy rate over the transmit
    covariances and (optionally) the surface phases.

    Each round linearizes the non-concave part at the current iterate, runs
    the precoder alternation, then takes one backtracking ascent step on the
    phases accepting when K(theta + g grad) >= K(theta) + c g ||grad||.
    With an=False the artificial-noise covariance is pinned at zero and the
    plain wiretap design results.
    """
    _require_lbi(stats, "algorithm2_ao")
    m = stats.M
    if P_W is None and P_V is None:
        if an:
            P_W = P_V = (p_budget / (2 * m)) * np.eye(m, dtype=complex)
        else:
            P_W = (p_budget / m) * np.eye(m, dtype=complex)
            P_V = np.zeros((m, m), dtype=complex)
    elif P_W is None:
        P_W = np.zeros((m, m), dtype=complex)
    elif P_V is None:
        P_V = np.zeros((m, m), dtype=complex)
    P_W = _herm(np.asarray(P_W, dtype=complex))
    P_V = _herm(np.asarray(P_V, dtype=complex))
    viol = feasibility_violation(P_W, P_V, p_budget)
    if viol > 1e-9:
        raise ModelError(f"initial precoders violate the constraints by {viol:.3e}")

    k_mean = signed_an_mean(stats, P_W, P_V)
    esr = max(0.0, k_mean)
    objective = [esr]
    trace = [TraceRow(0, esr, 0.0, 0.0, viol)]

    for t in range(1, budget + 1):
        grad_w_n, grad_v_n = sca_gradients(stats, P_W, P_V)
        P_W, P_V, _ = algorithm1(stats, P_W, P_V, grad_w_n, grad_v_n, p_budget,
                                 freeze_v=not an)
        step_used = 0.0
        grad_norm = 0.0
        if optimize_theta:
            g = esr_phase_gradient(stats, P_W, P_V)
            grad_norm = float(np.linalg.norm(g))
            if grad_norm > 0.0:
                k_cur = signed_an_mean(stats, P_W, P_V)

                def trial(gamma):
                    theta_new = stats.theta + gamma * g
                    k_new = signed_an_mean(stats.with_theta(theta_new), P_W, P_V)
                    accept = k_new >= k_cur + ARMIJO_C * gamma * grad_norm
                    return stats.with_theta(np.mod(theta_new, TWO_PI)) if accept else None

                found = _backtrack(trial)
                if found is not None:
                    step_used, stats = found

        k_mean = signed_an_mean(stats, P_W, P_V)
        esr = max(0.0, k_mean)
        objective.append(esr)
        trace.append(TraceRow(t, esr, step_used,
                              grad_norm, feasibility_violation(P_W, P_V, p_budget)))
        if abs(objective[-1] - objective[-2]) <= AO_REL_TOL * max(1.0, abs(objective[-2])):
            break

    return AoState(P_W=P_W, P_V=P_V, theta=stats.theta.copy(), t=trace[-1].iteration,
                   objective=tuple(objective), trace=tuple(trace), stats=stats)


# ---------------------------------------------------------------------------
# outage-probability phase gradient (double-hop model)
# ---------------------------------------------------------------------------

def _trace_against_phase_derivative(X: np.ndarray, U: np.ndarray,
                                    V: np.ndarray) -> np.ndarray:
    """L-vector of Tr[X dS/dtheta_l] for the rank-two phase derivative
    dS/dtheta_l = -j (u_l v_l^H - v_l u_l^H), u_l/v_l the columns of U/V."""
    a = np.einsum("ij,ji->i", V.conj().T @ X, U)
    b = np.einsum("ij,ji->i", U.conj().T @ X, V)
    return -1j * (a - b)


class _UserDerivatives:
    """Per-user pieces of the outage gradient chain on the double-hop model."""

    def __init__(self, stats: ChannelStatistics, user: str, P_W: np.ndarray):
        sol = solve_user(stats, user, P_W)
        self.sol = sol
        m, ell = float(stats.M), float(stats.L)
        self.m, self.ell = m, ell

        phases = np.exp(1j * stats.theta)
        conj_ts = (phases.conj()[:, None] * stats.user_ts(user)) * phases[None, :]
        self.U = stats.R_S_sqrt
        self.V = stats.R_S_sqrt @ conj_ts

        S, G = sol.S, sol.G_S
        SG = S @ G
        SG2 = SG @ G
        SG3 = SG2 @ G
        S2G3 = SG @ SG @ G
        S3G3 = SG @ SG @ SG
        G2 = G @ G
        self.nu_S = float(np.trace(SG @ SG).real) / m
        self.nu_SI = float(np.trace(SG2).real) / m
        self.tr_S2G3 = float(np.trace(S2G3).real)
        self.tr_S3G3 = float(np.trace(S3G3).real)
        self.tr_SG3 = float(np.trace(SG3).real)

        T, GT = sol.T_eff, sol.G_T
        TGT = T @ GT
        self.nu_T = float(np.trace(TGT @ TGT).real) / m
        self.tr_T3GT3 = float(np.trace(TGT @ TGT @ TGT).real)

        R, GR = sol.R, sol.G_R
        RGR = R @ GR
        self.nu_R = float(np.trace(RGR @ RGR).real) / ell
        self.tr_R3GR3 = float(np.trace(RGR @ RGR @ RGR).real)

        self.Delta_S = 1.0 - self.nu_S * self.nu_T
        d = sol.delta
        self.Gamma = (m / (ell * d * d)) * (
            sol.omega_bar ** 2 * self.nu_S
            + self.nu_SI ** 2 * self.nu_T / (d * d * self.Delta_S))
        self.Delta = 1.0 - self.nu_R * self.Gamma
        if self.Delta_S <= 0.0 or self.Delta <= 0.0:
            raise InvalidCovarianceError(
                f"user {user}: fluctuation scale factors out of range "
                f"(Delta_S={self.Delta_S:.3e}, Delta={self.Delta:.3e})")

        # phase contractions Tr[X dS/dtheta_l]
        self.tG = self.trf(G)
        self.tSG2 = self.trf(SG2)
        self.tS2G3 = self.trf(S2G3)
        self.tG2 = self.trf(G2)
        self.tSG3 = self.trf(SG3)

        self._solve_implicit()
        self._nu_derivatives()

    def trf(self, X: np.ndarray) -> np.ndarray:
        return _trace_against_phase_derivative(X, self.U, self.V)

    def _solve_implicit(self) -> None:
        sol, m, ell = self.sol, self.m, self.ell
        d, om, omb = sol.delta, sol.omega, sol.omega_bar
        A = np.array([
            [1.0 - m * om * omb * self.nu_R / (ell * d * d),
             m * omb * self.nu_R / (ell * d),
             m * om * self.nu_R / (ell * d)],
            [-self.nu_SI / (d * d), 1.0, self.nu_S],
            [0.0, self.nu_T, 1.0],
        ])
        row_scale = np.prod(np.linalg.norm(A, axis=1))
        det = np.linalg.det(A)
        if abs(det) < 1e-14 * max(row_scale, 1e-300):
            raise DegenerateRegimeError(
                f"implicit-derivative system is singular (det {det:.3e})")
        q = np.zeros((3, self.tG.size))
        q[1] = ((self.tG - omb * self.tSG2) / m).real
        p = np.linalg.solve(A, q)
        self.solve_residual = float(np.max(np.abs(A @ p - q)))
        self.d_delta, self.d_omega, self.d_omega_bar = p[0], p[1], p[2]

    def _nu_derivatives(self) -> None:
        sol, m, ell = self.sol, self.m, self.ell
        d, om, omb = sol.delta, sol.omega, sol.omega_bar
        dd, dom, domb = self.d_delta, self.d_omega, self.d_omega_bar

        d_kappa = (m / (ell * d)) * (dom * omb + om * domb) \
            - (m * om * omb / (ell * d * d)) * dd
        self.d_nu_R = -(2.0 / ell) * self.tr_R3GR3 * d_kappa
        self.d_nu_T = -(2.0 / m) * self.tr_T3GT3 * dom
        self.d_nu_S = (2.0 / m) * (self.tSG2.real
                                   + (dd / d ** 2) * self.tr_S2G3
                                   - domb * self.tr_S3G3
                                   - omb * self.tS2G3.real)
        self.d_nu_SI = (1.0 / m) * (self.tG2.real
                                    + 2.0 * (dd / d ** 2) * self.tr_SG3
                                    - 2.0 * domb * self.tr_S2G3
                                    - 2.0 * omb * self.tSG3.real)
        d_Delta_S = -(self.d_nu_S * self.nu_T + self.nu_S * self.d_nu_T)
        self.d_Delta_S = d_Delta_S
        self.d_Gamma = (m / ell) * (
            (2.0 * omb * domb * self.nu_S + omb ** 2 * self.d_nu_S) / d ** 2
            - 2.0 * dd * omb ** 2 * self.nu_S / d ** 3
            + (2.0 * self.nu_SI * self.d_nu_SI * self.nu_T
               + self.nu_SI ** 2 * self.d_nu_T) / (d ** 4 * self.Delta_S)
            - 4.0 * dd * self.nu_SI ** 2 * self.nu_T / (d ** 5 * self.Delta_S)
            - self.nu_SI ** 2 * self.nu_T * d_Delta_S / (d ** 4 * self.Delta_S ** 2))
        self.var = -math.log(self.Delta) - math.log(self.Delta_S)
        self.d_var = ((self.d_nu_S * self.nu_T + self.nu_S * self.d_nu_T) / self.Delta_S
                      + (self.d_nu_R * self.Gamma + self.nu_R * self.d_Gamma) / self.Delta)
        self.d_mean = omb * self.tG.real


@dataclass(frozen=True)
class SopGradient:
    """Phase gradient of the Gaussian outage surrogate with its chain
    intermediates (mean and variance pieces)."""

    grad: np.ndarray
    prob: float
    mean_nats: float
    variance: float
    solve_residual: float


def sop_phase_gradient(stats: ChannelStatistics, P_W: np.ndarray,
                       r_bits: float) -> SopGradient:
    """All L partials of the outage probability of the plain wiretap pair on
    the double-hop model, with the per-user scalar derivatives obtained from
    the 3 x 3 implicit systems."""
    _require_double(stats, "sop_phase_gradient")
    m = float(stats.M)

    ub = _UserDerivatives(stats, "B", P_W)
    ue = _UserDerivatives(stats, EVE, P_W)

    # cross-user quantities (shared BS-side factor)
    S_b, G_b = ub.sol.S, ub.sol.G_S
    S_e, G_e = ue.sol.S, ue.sol.G_S
    SbGb, SeGe = S_b @ G_b, S_e @ G_e
    nu_S_be = float(np.trace(SbGb @ SeGe).real) / m
    c1 = np.trace(SbGb @ G_b @ SeGe)
    c2 = np.trace(SbGb @ SbGb @ SeGe)
    c3 = np.trace(SbGb @ SeGe @ G_e)
    c4 = np.trace(SbGb @ SeGe @ SeGe)
    x_b1 = G_b @ SeGe
    x_e1 = G_e @ SbGb
    x_b2 = G_b @ SeGe @ SbGb
    x_e2 = G_e @ SbGb @ SeGe
    d_nu_S_be = (ub.trf(x_b1) + ue.trf(x_e1)
                 + (ub.d_delta / ub.sol.delta ** 2) * c1
                 - ub.d_omega_bar * c2
                 - ub.sol.omega_bar * ub.trf(x_b2)
                 + (ue.d_delta / ue.sol.delta ** 2) * c3
                 - ue.d_omega_bar * c4
                 - ue.sol.omega_bar * ue.trf(x_e2)).real / m

    tau = np.linalg.eigvalsh(_herm(ub.sol.T_eff))
    g_tb = 1.0 / (1.0 + ub.sol.omega * tau)
    g_te = 1.0 / (1.0 + ue.sol.omega * tau)
    nu_T_be = float(np.sum(tau ** 2 * g_tb * g_te)) / m
    d_nu_T_be = -(ub.d_omega * float(np.sum(tau ** 3 * g_tb ** 2 * g_te))
                  + ue.d_omega * float(np.sum(tau ** 3 * g_tb * g_te ** 2))) / m

    Delta_S_be = 1.0 - nu_S_be * nu_T_be
    if Delta_S_be <= 0.0:
        raise InvalidCovarianceError(
            f"cross pair fluctuation factor out of range (Delta_S={Delta_S_be:.3e})")
    w_cross = -math.log(Delta_S_be)
    d_w_cross = (d_nu_S_be * nu_T_be + nu_S_be * d_nu_T_be) / Delta_S_be

    variance = ub.var + ue.var - 2.0 * w_cross
    if variance <= 0.0:
        raise InvalidCovarianceError(f"variance {variance:.3e} is not positive")
    var_grad = ub.d_var + ue.d_var - 2.0 * d_w_cross

    n_b, n_e = stats.user_n("B"), stats.user_n(EVE)
    mean_nats = (det_equiv_ds(ub.sol) - n_b * math.log(ub.sol.z)) \
        - (det_equiv_ds(ue.sol) - n_e * math.log(ue.sol.z))
    mean_grad = ub.d_mean - ue.d_mean

    r_nats = float(r_bits) * LN2
    sd = math.sqrt(variance)
    t_std = (r_nats - mean_nats) / sd
    t_grad = -mean_grad / sd - (r_nats - mean_nats) * var_grad / (2.0 * variance * sd)
    pdf = math.exp(-0.5 * t_std * t_std) / math.sqrt(2.0 * math.pi)
    grad = pdf * t_grad

    return SopGradient(
        grad=grad, prob=float(ndtr(t_std)), mean_nats=mean_nats, variance=variance,
        solve_residual=max(ub.solve_residual, ue.solve_residual),
    )


@dataclass(frozen=True)
class SopResult:
    """Outcome of the outage-probability phase descent."""

    theta: np.ndarray
    prob: float
    trace: Tuple[TraceRow, ...]
    stats: ChannelStatistics
    converged: bool


def optimize_sop(
    stats: ChannelStatistics,
    P_W: np.ndarray,
    r_bits: float,
    budget: int = 100,
) -> SopResult:
    """Minimize the closed-form outage probability over the surface phases by
    backtracking gradient descent from ``stats.theta`` (sufficient decrease
    c g ||grad||^2); the trace's objective column carries the outage
    probability."""
    _require_double(stats, "optimize_sop")

    sg = sop_phase_gradient(stats, P_W, r_bits)
    trace = [TraceRow(0, sg.prob, 0.0, float(np.linalg.norm(sg.grad)), 0.0)]
    converged = False
    for t in range(1, budget + 1):
        g = sg.grad
        g_norm = float(np.linalg.norm(g))
        if g_norm < SOP_GRAD_TOL:
            converged = True
            break

        def trial(gamma):
            cand = stats.with_theta(np.mod(stats.theta - gamma * g, TWO_PI))
            sg_new = sop_phase_gradient(cand, P_W, r_bits)
            accept = sg_new.prob <= sg.prob - ARMIJO_C * gamma * g_norm ** 2
            return (cand, sg_new) if accept else None

        found = _backtrack(trial)
        if found is None:
            trace.append(TraceRow(t, sg.prob, 0.0, g_norm, 0.0))
            break
        gamma, (stats, sg) = found
        trace.append(TraceRow(t, sg.prob, gamma, g_norm, 0.0))
    return SopResult(theta=stats.theta.copy(), prob=sg.prob, trace=tuple(trace),
                     stats=stats, converged=converged)
