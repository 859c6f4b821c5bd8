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
  of the converged fixed points. The gradient returns the signed mean of
  its own solves of ``secrecy_terms`` (the wiretap pair when P_V is zero),
  which is the line search's K(theta), and the round's closing mean when
  no phase step is accepted.
* Outage minimization on the double-hop model (``optimize_sop``): gradient
  descent on the Gaussian outage surrogate. ``sop_phase_gradient`` takes its
  value from ``secrecy.contract_terms`` of its own ``solve_all`` solutions,
  as ``build_multi_eve_model`` does, and keeps only the derivative chain:
  per user, the three scalars move by c q1 with c = (I - J_F)^{-1} e_1, the
  variance's partials are Python floats, and the gradient is one weight
  5-vector times five (5, L) phase contractions, plus the cross pair's two
  trace terms. Each line-search trial starts the solves from the current
  design's fixed points.

The three line searches (inner precoder step, phase ascent, outage descent)
share one Armijo backtracking loop, ``_backtrack``: steps 1.0, 0.5, ... down
to 1e-12, each with its own sufficient-change test (constant 0.3) and its
own handling when no step is accepted. Tolerances and round caps are module
constants read on every call: ``INNER_REL_TOL`` and ``INNER_MAX_ITER`` of
the inner search, ``PRECODER_REL_TOL`` and ``PRECODER_MAX_ROUNDS`` of the
precoder alternation, ``AO_REL_TOL`` and ``AO_MAX_ROUNDS`` of the joint
rounds, ``SOP_GRAD_TOL`` and ``SOP_MAX_ITER`` of the outage descent. Every
design is made against the first eavesdropper, ``EVE`` ("E1").
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DegenerateRegimeError, ModelError
from .fixedpoint import DsSolution, MiDescriptor, solve_all
from .scenario import ChannelStatistics
from .secrecy import contract_terms, secrecy_terms

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
AO_MAX_ROUNDS = 100
SOP_GRAD_TOL = 1e-6
SOP_MAX_ITER = 100

EVE = "E1"

TWO_PI = 2.0 * math.pi

# precoder-design term pairs under {"U": P_W + P_V, "V": P_V}: the two that
# ``sca_gradients`` linearizes and the two that ``algorithm1`` keeps exact
_LINEARIZED_TERMS = (MiDescriptor(EVE, "U"), MiDescriptor("B", "V"))
_EXACT_TERMS = (MiDescriptor("B", "U"), MiDescriptor(EVE, "V"))


def wrap_phase(theta: np.ndarray) -> np.ndarray:
    """Phases reduced to [0, 2 pi). ``np.mod`` alone rounds a tiny negative
    angle up to exactly 2 pi, which is mapped to 0."""
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped < TWO_PI, wrapped, 0.0)


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
    sol_eu, sol_bv = solve_all(stats, _LINEARIZED_TERMS, {"U": P_W + P_V, "V": P_V})
    A_e, A_b = stats.lbi_aperture(EVE), stats.lbi_aperture("B")
    g_eu = sol_eu.alpha * c * _herm(A_e.conj().T @ sol_eu.L_T @ A_e)
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
        sol_b, sol_e = solve_all(stats, _EXACT_TERMS, {"U": w + v, "V": v})
        f = sol_b.mean + sol_e.mean - _inner(grad_w_n, w) - _inner(grad_v_n, v)
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

def _solved_terms(stats: ChannelStatistics, P_W: np.ndarray, P_V: np.ndarray) -> tuple:
    """Descriptors, precoders, selector row and fixed points of the design's
    ``secrecy_terms`` against ``EVE``; a zero P_V gives the wiretap pair."""
    descriptors, precoders, selectors = secrecy_terms(
        stats, P_W, P_V if P_V.any() else None, eves=[EVE])
    return descriptors, precoders, selectors[0], solve_all(stats, descriptors, precoders)


def signed_an_mean(stats: ChannelStatistics, P_W: np.ndarray, P_V: np.ndarray) -> float:
    """Signed deterministic secrecy mean (nats) of the design, the
    ``mean_nats`` of ``esr_an`` (``esr_wiretap`` when P_V is zero)."""
    _require_lbi(stats, "signed_an_mean")
    _, _, u, sols = _solved_terms(stats, P_W, P_V)
    return float(u @ np.array([s.rate for s in sols]))


def esr_phase_gradient(stats: ChannelStatistics, P_W: np.ndarray,
                       P_V: np.ndarray) -> Tuple[np.ndarray, float]:
    """Gradient of the signed secrecy mean with respect to the surface
    phases, and the mean itself (``signed_an_mean`` of the same solves).

    Each term of ``secrecy_terms`` contributes its signed 2 a c Im diag(Z E)
    with Z = T_S^{1/2} L_T T_S^{1/2} and E = Theta W Theta^H,
    W = H_0 T^{1/2} P T^{1/2} H_0^H; the converged scalars make all implicit
    contributions vanish. A term with a zero precoder contributes nothing.
    """
    _require_lbi(stats, "esr_phase_gradient")
    c = stats.M / stats.L
    phases = np.exp(1j * stats.theta)
    descriptors, precoders, u, sols = _solved_terms(stats, P_W, P_V)

    w_cache: Dict[str, np.ndarray] = {}

    def conjugated(tag: str) -> np.ndarray:
        if tag not in w_cache:
            P = precoders[tag]
            core = stats.H_T0 @ (stats.T_sqrt @ P @ stats.T_sqrt) @ stats.H_T0.conj().T
            w_cache[tag] = (phases[:, None] * core) * phases.conj()[None, :]
        return w_cache[tag]

    grad = np.zeros(stats.L)
    for d, sign, sol in zip(descriptors, u, sols):
        ts_sqrt = stats.receiver(d.user).ts_sqrt
        z_mat = ts_sqrt @ sol.L_T @ ts_sqrt
        grad += sign * 2.0 * sol.alpha * c * np.einsum(
            "ij,ji->i", z_mat, conjugated(d.precoder)).imag
    return grad, float(u @ np.array([s.rate for s in sols]))


@dataclass(frozen=True)
class AoState:
    """State of the alternating precoder/phase optimizer."""

    P_W: np.ndarray
    P_V: np.ndarray
    theta: np.ndarray
    t: int
    objective: Tuple[float, ...]
    trace: Tuple[TraceRow, ...]

    @property
    def esr_nats(self) -> float:
        return self.objective[-1]

    @property
    def esr_bits(self) -> float:
        return self.objective[-1] / LN2


def algorithm2_ao(
    stats: ChannelStatistics,
    p_budget: float,
    P_W: np.ndarray,
    P_V: Optional[np.ndarray] = None,
) -> AoState:
    """Alternating maximization of the ergodic secrecy rate over the transmit
    covariances and the surface phases, from the design (P_W, P_V), for at
    most ``AO_MAX_ROUNDS`` rounds.

    Each round linearizes the non-concave part at the current iterate, runs
    the precoder alternation, then takes one backtracking ascent step on the
    phases accepting when K(theta + g grad) >= K(theta) + c g ||grad||.
    The final design's statistics are ``stats.with_theta(state.theta)``.
    P_V None is the plain wiretap design, as ``secrecy_terms`` reads it: the
    noise covariance is zero and stays there, and only P_W moves
    (``freeze_v``). A noise-injection search that starts from no noise
    passes a zero P_V.
    """
    _require_lbi(stats, "algorithm2_ao")
    freeze_v = P_V is None
    P_W = _herm(np.asarray(P_W, dtype=complex))
    P_V = np.zeros_like(P_W) if freeze_v else _herm(np.asarray(P_V, dtype=complex))
    viol = feasibility_violation(P_W, P_V, p_budget)
    if viol > 1e-9:
        raise ModelError(f"initial precoders violate the constraints by {viol:.3e}")

    k_mean = signed_an_mean(stats, P_W, P_V)
    esr = max(0.0, k_mean)
    objective = [esr]
    trace = [TraceRow(0, esr, 0.0, 0.0, viol)]

    for t in range(1, AO_MAX_ROUNDS + 1):
        grad_w_n, grad_v_n = sca_gradients(stats, P_W, P_V)
        P_W, P_V, _ = algorithm1(stats, P_W, P_V, grad_w_n, grad_v_n, p_budget,
                                 freeze_v=freeze_v)
        step_used = 0.0
        g, k_cur = esr_phase_gradient(stats, P_W, P_V)
        k_mean = k_cur  # signed mean at the round's final design
        grad_norm = float(np.linalg.norm(g))
        if grad_norm > 0.0:

            def trial(gamma):
                theta_new = stats.theta + gamma * g
                k_new = signed_an_mean(stats.with_theta(theta_new), P_W, P_V)
                accept = k_new >= k_cur + ARMIJO_C * gamma * grad_norm
                return stats.with_theta(wrap_phase(theta_new)) if accept else None

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
                   objective=tuple(objective), trace=tuple(trace))


# ---------------------------------------------------------------------------
# outage-probability phase gradient (double-hop model)
# ---------------------------------------------------------------------------

class _UserChain:
    """One user's outage gradient chain. The implicit system in (delta,
    omega, omega_bar) has one nonzero row, q1 = (Tr[G_S dS] - omega_bar
    Tr[S G_S^2 dS]) / M, so the scalars move by c q1. The user's variance,
    -log Delta - log Delta_S, moves by ``a`` q1 plus ``p_S`` and ``p_SI``
    times the explicit parts of d nu_S and d nu_SI."""

    def __init__(self, stats: ChannelStatistics, user: str, sol: DsSolution):
        self.sol = sol
        m, ell = float(stats.M), float(stats.L)
        d, om, omb = sol.point
        nu_R, nu_S, nu_SI, nu_T = sol.nu_R, sol.nu_S, sol.nu_SI, sol.nu_T

        # the phase derivative dS/dtheta_l = -j (u_l v_l^H - v_l u_l^H) has
        # u_l, v_l the columns of U = R_S^{1/2} and V = U Theta^H T_S Theta;
        # here they are held in S's eigenbasis W as W^H U and W^H V
        phases = np.exp(1j * stats.theta)
        conj_ts = (phases.conj()[:, None] * stats.receiver(user).ts) * phases[None, :]
        self.wu = sol.s.vecs.conj().T @ stats.R_S_sqrt
        self.wv = self.wu @ conj_ts

        # S, G_S and their products share S's eigenvectors: traces are
        # eigen-sums, as are those of (T_eff G_T)^3 and (R G_R)^3
        sigma = sol.s.lam
        g = 1.0 / (1.0 / d + omb * sigma)
        self.g, self.sg = g, sigma * g  # eigenvalues of G_S and S G_S
        tr_S2G3 = float(np.sum(sigma ** 2 * g ** 3))
        tr_S3G3 = float(np.sum((sigma * g) ** 3))
        tr_SG3 = float(np.sum(sigma * g ** 3))
        self.g_t = 1.0 / (1.0 + om * sol.t.lam)  # eigenvalues of G_T
        tr_T3GT3 = float(np.sum((sol.t.lam * self.g_t) ** 3))
        tr_R3GR3 = float(np.sum((sol.r.lam / (sol.z + sol.kappa * sol.r.lam)) ** 3))
        # phase contractions of G, S G^2, S^2 G^3, G^2 and S G^3, all
        # diagonal in W
        self.t5 = np.stack([g, sigma * g ** 2, sigma ** 2 * g ** 3, g ** 2, sigma * g ** 3]) @ (
            2.0 * (np.conj(self.wv) * self.wu).imag)

        self.c, residual = self._implicit_column()
        self.solve_residual = residual * float(np.max(np.abs(self.t5[0] - omb * self.t5[1]))) / m
        cd, co, cob = self.c
        # each nu's change per unit q1, through the scalars
        k_R = -(2.0 * m / (ell * ell * d)) * tr_R3GR3 * (co * omb + om * cob - om * omb * cd / d)
        k_S = (2.0 / m) * (cd * tr_S2G3 / d ** 2 - cob * tr_S3G3)
        k_SI = (2.0 / m) * (cd * tr_SG3 / d ** 2 - cob * tr_S2G3)
        k_T = -(2.0 / m) * tr_T3GT3 * co

        # partials of the variance in (delta, omega_bar, nu_R, nu_S, nu_SI,
        # nu_T), with Delta = 1 - nu_R (A + B), A + B = Gamma
        Delta_S = 1.0 - nu_S * nu_T
        A = m * omb ** 2 * nu_S / (ell * d * d)
        B = m * nu_SI ** 2 * nu_T / (ell * d ** 4 * Delta_S)
        inv_Delta = 1.0 / (1.0 - nu_R * (A + B))
        r = nu_R * inv_Delta
        p_delta = -r * (2.0 * A + 4.0 * B) / d
        p_omega_bar = r * 2.0 * m * omb * nu_S / (ell * d * d)
        p_R = (A + B) * inv_Delta
        self.p_S = r * (m * omb ** 2 / (ell * d * d) + B * nu_T / Delta_S) + nu_T / Delta_S
        self.p_SI = r * 2.0 * m * nu_SI * nu_T / (ell * d ** 4 * Delta_S)
        p_T = r * (m * nu_SI ** 2 / (ell * d ** 4 * Delta_S) + B * nu_S / Delta_S) + nu_S / Delta_S
        self.a = (p_delta * cd + p_omega_bar * cob + p_R * k_R + self.p_S * k_S
                  + self.p_SI * k_SI + p_T * k_T)

    def _implicit_column(self) -> Tuple[tuple, float]:
        """c = (I - J_F)^{-1} e_1, with I - J_F the matrix of the solver's
        Newton step, and the residual max |(I - J_F) c - e_1|."""
        A = np.eye(3) - np.array(self.sol.jacobian)
        # |det| over the product of row norms, which bounds it (Hadamard):
        # 1 for orthogonal rows, 0 when singular. It is taken with column k
        # scaled by the k-th scalar x_k (1 where x_k = 0), the system in the
        # relative derivatives dx/x, so that it does not depend on the
        # scales of (delta, omega, omega_bar), which run decades apart at
        # high power
        scaled = A * np.array([x if x != 0.0 else 1.0 for x in self.sol.point])
        measure = abs(np.linalg.det(scaled)) / max(
            np.prod(np.linalg.norm(scaled, axis=1)), 1e-300)
        if measure < 1e-14:
            raise DegenerateRegimeError(
                "implicit-derivative system is singular (|det(I - J)| / product of "
                f"row norms = {measure:.3e}, below 1e-14, with column k scaled by x_k)")
        e1 = np.array([0.0, 1.0, 0.0])
        c = np.linalg.solve(A, e1)
        return tuple(c.tolist()), float(np.max(np.abs(A @ c - e1)))

    def trf(self, X: np.ndarray) -> np.ndarray:
        """L-vector of Tr[W X W^H dS/dtheta_l] for a Hermitian X."""
        return 2.0 * np.sum(np.conj(self.wv) * (X @ self.wu), axis=0).imag


@dataclass(frozen=True)
class SopGradient:
    """Phase gradient of the Gaussian outage surrogate and its value, the
    ``contract_terms(...).report(0)`` of its own solves and that report's
    ``sop(r_bits)``. ``solve_residual`` is the larger of the two users'
    residuals of the 3 x 3 column solve, max |(I - J_F) c - e_1| scaled by
    max |q1|."""

    grad: np.ndarray
    prob: float
    mean_nats: float
    variance: float
    solve_residual: float
    points: tuple  # fixed points (delta, omega, omega_bar) of B and EVE


def sop_phase_gradient(stats: ChannelStatistics, P_W: np.ndarray, r_bits: float, *,
                       start: Optional[tuple] = None) -> SopGradient:
    """All L partials of the outage probability of the plain wiretap pair on
    the double-hop model, with the per-user scalar derivatives obtained from
    the 3 x 3 implicit systems. ``start`` is a pair of solver start points
    for B and EVE, such as the ``points`` of a nearby gradient."""
    _require_double(stats, "sop_phase_gradient")
    m = float(stats.M)

    descriptors, precoders, sel = secrecy_terms(stats, P_W, eves=[EVE])
    sols = solve_all(stats, descriptors, precoders, starts=start)
    report = contract_terms(descriptors, sols, sel).report(0)
    prob = report.sop(r_bits)
    b, e = _UserChain(stats, "B", sols[0]), _UserChain(stats, EVE, sols[1])

    # d prob = pdf (-d mean / sd - t d variance / (2 variance)), with the
    # mean's change omega_bar Tr[G_S dS] per user, signed by the selector
    sd = math.sqrt(report.variance)
    t_std = (float(r_bits) * LN2 - report.mean_nats) / sd
    pdf = math.exp(-0.5 * t_std * t_std) / math.sqrt(2.0 * math.pi)
    k_var = -pdf * t_std / (2.0 * report.variance)

    # the variance holds -2 log Delta_S of the cross pair, Delta_S = 1 -
    # nu_S nu_T, taken in the two users' S eigenbases: with O = W_b^H W_e,
    # Tr[f_b(S_b) f_e(S_e)] = f_b . |O|^2 f_e, and G_b S_e G_e (I -
    # omega_bar_b S_b G_b) = G_b S_e G_e G_b / delta_b
    overlap = b.sol.s.vecs.conj().T @ e.sol.s.vecs
    nu_S = float(b.sg @ np.abs(overlap) ** 2 @ e.sg) / m
    tau = sols[0].t.lam  # the one T_eff of both users
    nu_T = float(np.sum(tau ** 2 * b.g_t * e.g_t)) / m
    # -2 d(-log Delta_S) = scale (nu_T M d nu_S + nu_S M d nu_T)
    scale = -2.0 / (m * (1.0 - nu_S * nu_T))
    grad = np.zeros(stats.L)
    for u, other, o, sign in ((b, e, overlap, sel[0][0]), (e, b, overlap.conj().T, sel[0][1])):
        cd, co, cob = u.c
        o2 = np.abs(o) ** 2
        y = u.g[:, None] * ((o * other.sg) @ o.conj().T) * u.g / u.sol.delta
        a = u.a + scale * (
            nu_T * (cd / u.sol.delta ** 2 * float((u.sg * u.g) @ o2 @ other.sg)
                    - cob * float(u.sg ** 2 @ o2 @ other.sg))
            - nu_S * co * float(np.sum(tau ** 3 * u.g_t ** 2 * other.g_t)))
        # weights on the rows of t5 of a q1 + p_S d nu_S' + p_SI d nu_SI'
        # (primes: the explicit parts), and of the mean's change
        omb = u.sol.omega_bar
        w = (k_var / m) * np.array([a, 2.0 * u.p_S - a * omb, -2.0 * omb * u.p_S,
                                    u.p_SI, -2.0 * omb * u.p_SI])
        w[0] -= pdf / sd * sign * omb
        grad += w @ u.t5 + k_var * scale * nu_T * u.trf(y)

    return SopGradient(
        grad=grad, prob=prob, mean_nats=report.mean_nats, variance=report.variance,
        solve_residual=max(b.solve_residual, e.solve_residual),
        points=(b.sol.point, e.sol.point),
    )


@dataclass(frozen=True)
class SopResult:
    """Outcome of the outage-probability phase descent."""

    theta: np.ndarray
    prob: float
    trace: Tuple[TraceRow, ...]
    converged: bool


def optimize_sop(stats: ChannelStatistics, P_W: np.ndarray, r_bits: float) -> SopResult:
    """Minimize the closed-form outage probability over the surface phases by
    backtracking gradient descent from ``stats.theta`` (sufficient decrease
    c g ||grad||^2), for at most ``SOP_MAX_ITER`` iterations; the trace's
    objective column carries the outage probability. When no step is
    accepted it warns that the line search stalled and stops unconverged.
    The final design's statistics are ``stats.with_theta(result.theta)``."""
    _require_double(stats, "optimize_sop")

    sg = sop_phase_gradient(stats, P_W, r_bits)
    trace = [TraceRow(0, sg.prob, 0.0, float(np.linalg.norm(sg.grad)), 0.0)]
    converged = False
    for t in range(1, SOP_MAX_ITER + 1):
        g = sg.grad
        g_norm = float(np.linalg.norm(g))
        if g_norm < SOP_GRAD_TOL:
            converged = True
            break

        def trial(gamma):
            cand = stats.with_theta(wrap_phase(stats.theta - gamma * g))
            sg_new = sop_phase_gradient(cand, P_W, r_bits, start=sg.points)
            accept = sg_new.prob <= sg.prob - ARMIJO_C * gamma * g_norm ** 2
            return (cand, sg_new) if accept else None

        found = _backtrack(trial)
        if found is None:
            warnings.warn("outage line search stalled; returning the current phases",
                          RuntimeWarning, stacklevel=2)
            trace.append(TraceRow(t, sg.prob, 0.0, g_norm, 0.0))
            break
        gamma, (stats, sg) = found
        trace.append(TraceRow(t, sg.prob, gamma, g_norm, 0.0))
    return SopResult(theta=stats.theta.copy(), prob=sg.prob, trace=tuple(trace),
                     converged=converged)
