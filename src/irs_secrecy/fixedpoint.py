"""Coupled fixed-point systems and deterministic mutual-information means.

Two coupled fixed-point systems are solved:

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

The single-hop system is one scalar equation: alpha_bar = f(alpha) is
explicit, so alpha solves alpha = g(f(alpha)), where g o f is increasing and
bounded with a unique fixed point (Hachem, Loubaton & Najim, Ann. Appl.
Probab. 17, 2007). The solve starts at alpha = g(0) = Tr R / (M z), the top
of the root's bracket and the exact root when T_eff is zero. It takes the
Newton step alpha + (g(f(alpha)) - alpha) / (1 - g'f'), where
g'f' = (1/M) sum_r q_r^2 (1/M) sum_t q_t^2 over the terms
q_r = lam_r / (z + alpha_bar lam_r) and q_t = lam_t / (1 + alpha lam_t) of
the two eigen-sums, or plain substitution alpha <- g(f(alpha)) when that
point leaves [0, inf) or g'f' = 1. It stops when
|g(f(alpha)) - alpha| < max(TOL, ROUNDOFF alpha) and
|f(g(f(alpha))) - f(alpha)| < max(TOL, ROUNDOFF f(alpha)), and returns
(g(f(alpha)), f(alpha)). Both scalars are tested: at high power alpha is
about 1e-28, and a test on alpha alone accepts a wrong root.

The double-hop solve runs Newton on x = F(x), x = (delta, omega, omega_bar),
from the caller's ``start`` (the SOP descent passes a nearby design's fixed
points as ``solve_all``'s ``starts``), else from all ones; a start changes
only where the iteration begins. Each iteration evaluates F(x) with its
analytic Jacobian J_F(x), whose entries are eigen-sums over the same
vectors, and takes x + (I - J_F)^{-1} (F(x) - x) when that point stays in
the domain (every scalar finite and >= 0, delta > 0), else the damped step
x <- (1 - DAMPING) x + DAMPING F(x), ``DAMPING`` = 0.5. It stops at the
first x with |F_i(x) - x_i| < max(TOL, ROUNDOFF |x_i|) for every scalar.

``TOL`` (1e-10) is absolute; the relative floor ``ROUNDOFF`` (64 machine
epsilons) takes over only for a scalar so large that 1e-10 is below its
roundoff, as at very high transmit power. After ``MAX_ITER`` (10,000)
iterations a solve raises ``ConvergenceError``.

Each solver takes the spectra of its inputs (``scenario.Spectrum``), so
one iteration costs O(N + L + M). ``solve_all``, the one solver of a
design's terms, passes the receive spectra that ``ChannelStatistics`` keeps,
one decomposition of each input its terms share (a user's surface Gram S;
a precoder's T^{1/2} P T^{1/2} on the double model and its root P^{1/2} on
the single-hop one, which no user changes) and a single-hop transmit
spectrum from the min(M, L)-sized Gram of sqrt(M/L) A P^{1/2}
(``transmit_spectra``). The means D and C are sums over those eigenvalues
(log det(a I + b X) = sum_i log(a + b lam_i)): a solution's ``mean`` is its
D or C, and its ``rate`` that mean less the N log z noise floor. A solution
keeps its inputs as spectra and forms no dense input matrix: it builds the
resolvent roots H (H H^H = X (a I + b X)^{-1}, one column per eigenvalue of
X), whose cross traces give its model's covariance factors
(``pair_factors``, assembled by ``cltcov``), and the single-hop transmit
resolvent L_T of the precoder gradients, from the spectra when a caller
first reads them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, ModelError
from .scenario import ChannelStatistics, Spectrum, psd_root

TOL = 1e-10
ROUNDOFF = 64 * sys.float_info.epsilon
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
        user's Gaussian factor X, and ``stats.receiver(user).sigma2`` is the
        noise power z of the term.
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


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

def _rate(sol) -> float:
    """Deterministic mean rate of a solution: its ``mean`` less the N log z
    noise floor, N the dimension of the receive spectrum. The floors cancel
    inside a same-user U/V pair but not across users."""
    return sol.mean - sol.r.vecs.shape[0] * math.log(sol.z)


def _cross_trace(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """Tr[h_i h_i^H h_j h_j^H] = ||h_i^H h_j||_F^2."""
    return float(np.sum(np.abs(h_i.conj().T @ h_j) ** 2))


@dataclass(frozen=True)
class LbiSolution:
    """Converged single-hop system: scalars and the spectra of the inputs
    they were solved on. The resolvent roots ``H_R``, ``H_T`` and the
    transmit resolvent ``L_T`` are built from the spectra on first use."""

    alpha: float
    alpha_bar: float
    z: float
    r: Spectrum  # receive correlation R
    t: Spectrum  # effective transmit correlation T_eff
    m_dim: int
    n_iter: int
    residual: float

    @property
    def mean(self) -> float:
        """Deterministic mean of logdet(z I + H P H^H) (nats), D of the
        module docstring, from the eigenvalues the system was solved on."""
        d = self.r.logdet(self.z, self.alpha_bar) + self.t.logdet(1.0, self.alpha)
        return d - self.m_dim * self.alpha * self.alpha_bar

    @property
    def rate(self) -> float:
        return _rate(self)

    def pair_factors(self, other: "LbiSolution", same_user: bool) -> dict:
        """{Xi} of this term's covariance with ``other`` for a same-user
        pair; {} across users, whose terms share no Gaussian factor."""
        if not same_user:
            return {}
        m = float(self.m_dim)
        gamma_R = _cross_trace(self.H_R, other.H_R) / m
        gamma_T = _cross_trace(self.H_T, other.H_T) / m
        return {"Xi": 1.0 - gamma_R * gamma_T}

    @cached_property
    def L_T(self) -> np.ndarray:
        """(I + alpha T_eff)^{-1}"""
        return self.t.resolvent(1.0, self.alpha)

    @cached_property
    def H_R(self) -> np.ndarray:
        """H with H H^H = R L_R, L_R = (z I + alpha_bar R)^{-1}"""
        return self.r.resolvent_root(self.z, self.alpha_bar)

    @cached_property
    def H_T(self) -> np.ndarray:
        """H with H H^H = T_eff L_T"""
        return self.t.resolvent_root(1.0, self.alpha)


@dataclass(frozen=True)
class DsSolution:
    """Converged double-hop system: scalars, the spectra of its inputs, and
    the trace functionals of the step map's Jacobian at the returned point.
    The resolvent roots ``H_R``, ``H_S``, ``H_T`` are built on first use."""

    delta: float
    omega: float
    omega_bar: float
    z: float
    r: Spectrum  # receive correlation R
    s: Spectrum  # surface Gram S
    t: Spectrum  # effective transmit correlation T_eff
    m_dim: int
    l_dim: int
    n_iter: int
    residual: float
    nu_R: float  # (1/L) Tr[(R G_R)^2]
    nu_S: float  # (1/M) Tr[(S G_S)^2]
    nu_SI: float  # (1/M) Tr[S G_S^2]
    nu_T: float  # (1/M) Tr[(T_eff G_T)^2]

    @property
    def point(self) -> tuple:
        """(delta, omega, omega_bar): a ``start`` for a nearby solve."""
        return self.delta, self.omega, self.omega_bar

    @property
    def kappa(self) -> float:
        """The receive-side loading M omega omega_bar / (L delta)."""
        return self.m_dim * self.omega * self.omega_bar / (self.l_dim * self.delta)

    @property
    def mean(self) -> float:
        """Deterministic mean of logdet(z I + H P H^H) (nats), C of the
        module docstring, from the eigenvalues the system was solved on."""
        c = (self.r.logdet(self.z, self.kappa) + self.s.logdet(1.0, self.delta * self.omega_bar)
             + self.t.logdet(1.0, self.omega))
        return c - 2.0 * self.m_dim * self.omega * self.omega_bar

    @property
    def rate(self) -> float:
        return _rate(self)

    @property
    def jacobian(self) -> tuple:
        """J_F, the Jacobian of the step map (delta, omega, omega_bar) ->
        right-hand sides, at the returned point: the matrix the solver's
        Newton step and the implicit phase derivative both invert as I - J_F."""
        return _ds_jacobian(float(self.m_dim), float(self.l_dim), self.delta, self.omega,
                            self.omega_bar, self.nu_R, self.nu_S, self.nu_SI, self.nu_T)

    def pair_factors(self, other: "DsSolution", same_user: bool) -> dict:
        """{Delta_S} of this term's covariance with ``other``, and Delta for
        a same-user pair, whose terms see one surface Gram S."""
        m, ell = float(self.m_dim), float(self.l_dim)
        nu_S = _cross_trace(self.H_S, other.H_S) / m
        nu_T = _cross_trace(self.H_T, other.H_T) / m
        Delta_S = 1.0 - nu_S * nu_T
        if not same_user:
            return {"Delta_S": Delta_S}
        nu_R = _cross_trace(self.H_R, other.H_R) / ell
        lam = self.s.lam
        g_i = 1.0 / (1.0 / self.delta + self.omega_bar * lam)
        g_j = 1.0 / (1.0 / other.delta + other.omega_bar * lam)
        nu_SI = float((lam * g_i) @ g_j) / m
        d_i, d_j = self.delta, other.delta
        Delta = (1.0 - m * self.omega_bar * other.omega_bar * nu_R * nu_S / (ell * d_i * d_j)
                 - m * nu_R * nu_SI**2 * nu_T / (ell * d_i**2 * d_j**2 * Delta_S))
        return {"Delta_S": Delta_S, "Delta": Delta}

    @cached_property
    def H_R(self) -> np.ndarray:
        """H with H H^H = R G_R, G_R = (z I + kappa R)^{-1}"""
        return self.r.resolvent_root(self.z, self.kappa)

    @cached_property
    def H_S(self) -> np.ndarray:
        """H with H H^H = S G_S, G_S = ((1/delta) I + omega_bar S)^{-1}"""
        return self.s.resolvent_root(1.0 / self.delta, self.omega_bar)

    @cached_property
    def H_T(self) -> np.ndarray:
        """H with H H^H = T_eff G_T, G_T = (I + omega T_eff)^{-1}"""
        return self.t.resolvent_root(1.0, self.omega)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _newton_point(x: list, diff: list, jac: tuple) -> Optional[list]:
    """x + (I - J)^{-1} diff for 3 scalars, by the adjugate in Python floats
    (at this size numpy's per-call overhead would be most of the cost), or
    None when I - J is singular."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
    a00, a01, a02 = 1.0 - j00, -j01, -j02
    a10, a11, a12 = -j10, 1.0 - j11, -j12
    a20, a21, a22 = -j20, -j21, 1.0 - j22
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    if det == 0.0:
        return None
    r0, r1, r2 = diff
    return [x[0] + (c00 * r0 + (a02 * a21 - a01 * a22) * r1 + (a01 * a12 - a02 * a11) * r2) / det,
            x[1] + (c01 * r0 + (a00 * a22 - a02 * a20) * r1 + (a02 * a10 - a00 * a12) * r2) / det,
            x[2] + (c02 * r0 + (a01 * a20 - a00 * a21) * r1 + (a00 * a11 - a01 * a10) * r2) / det]


def solve_lbi(r: Spectrum, t: Spectrum, z: float, m_dim: int) -> LbiSolution:
    """Solve the single-hop system as alpha = g(f(alpha)) (module docstring)
    on the spectra ``r`` of R and ``t`` of T_eff. ``n_iter`` counts the
    iterations including the final test; ``residual`` is the larger of the
    two scalars' residuals."""
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    lam_r, lam_t = r.lam, t.lam
    m = float(m_dim)
    a = float((lam_r / z).sum()) / m
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        q_t = lam_t / (1.0 + a * lam_t)
        ab = float(q_t.sum()) / m
        q_r = lam_r / (z + ab * lam_r)
        a_next = float(q_r.sum()) / m
        residual = abs(a_next - a)
        if residual < max(TOL, ROUNDOFF * a):
            ab_next = float((lam_t / (1.0 + a_next * lam_t)).sum()) / m
            residual = max(residual, abs(ab_next - ab))
            if abs(ab_next - ab) < max(TOL, ROUNDOFF * ab):
                return LbiSolution(alpha=a_next, alpha_bar=ab, z=float(z), r=r, t=t,
                                   m_dim=m_dim, n_iter=it, residual=residual)
        slope = float(q_r @ q_r) * float(q_t @ q_t) / (m * m)
        new = a + (a_next - a) / (1.0 - slope) if slope != 1.0 else a_next
        a = new if 0.0 <= new < math.inf else a_next
    raise ConvergenceError("single-hop fixed point did not converge", residual, MAX_ITER)


def _ds_jacobian(m: float, ell: float, d: float, o: float, ob: float, nu_R: float,
                 nu_S: float, nu_SI: float, nu_T: float) -> tuple:
    """Jacobian of the double-hop right-hand sides in (delta, omega,
    omega_bar), from the trace functionals nu_* at that point."""
    c = m * nu_R / (ell * d)
    return ((c * o * ob / d, -c * ob, -c * o),
            (nu_SI / (d * d), 0.0, -nu_S),
            (0.0, -nu_T, 0.0))


def solve_ds(r: Spectrum, s: Spectrum, t: Spectrum, z: float, m_dim: int, l_dim: int, *,
             start: Optional[Sequence[float]] = None) -> DsSolution:
    """Solve the double-hop system by Newton (module docstring) on the
    spectra ``r`` of R, ``s`` of S and ``t`` of T_eff, from ``start`` =
    (delta, omega, omega_bar), by default all ones. ``n_iter`` counts the
    iterations including the final test; ``residual`` is max_i |F_i(x) - x_i|."""
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    lam_r, lam_s, lam_t = r.lam, s.lam, t.lam
    m, ell = float(m_dim), float(l_dim)
    if np.sum(lam_r) <= 0:
        raise ModelError("degenerate receive correlation: the double-hop system needs Tr R > 0")

    def moments(d: float, o: float, ob: float) -> tuple:
        """Right-hand sides and (nu_R, nu_S, nu_SI, nu_T) at (d, o, ob)."""
        if d <= 0:
            raise ModelError("double-hop system hit delta <= 0 (degenerate regime)")
        kappa = m * o * ob / (ell * d)
        q_r = lam_r / (z + kappa * lam_r)
        g_s = 1.0 / (1.0 / d + ob * lam_s)
        q_s = lam_s * g_s
        q_t = lam_t / (1.0 + o * lam_t)
        f = (float(q_r.sum()) / ell, float(q_s.sum()) / m, float(q_t.sum()) / m)
        nus = (float(q_r @ q_r) / ell, float(q_s @ q_s) / m, float(q_s @ g_s) / m,
               float(q_t @ q_t) / m)
        return f, nus

    tol, roundoff, damping = TOL, ROUNDOFF, DAMPING
    keep = 1.0 - damping
    x = [1.0, 1.0, 1.0] if start is None else list(start)
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        f, nus = moments(*x)
        diff = [fi - xi for fi, xi in zip(f, x)]
        residual = max(map(abs, diff))
        if all(abs(di) < max(tol, roundoff * abs(xi)) for di, xi in zip(diff, x)):
            (d, o, ob), (nu_R, nu_S, nu_SI, nu_T) = x, nus
            return DsSolution(
                delta=d, omega=o, omega_bar=ob, z=float(z), r=r, s=s, t=t, m_dim=m_dim,
                l_dim=l_dim, n_iter=it, residual=residual, nu_R=nu_R, nu_S=nu_S, nu_SI=nu_SI,
                nu_T=nu_T,
            )
        new = _newton_point(x, diff, _ds_jacobian(m, ell, *x, *nus))
        # NaN fails both comparisons of the domain check
        if new is None or not (new[0] > 0.0 and all(0.0 <= v < math.inf for v in new)):
            new = [keep * xi + damping * fi for xi, fi in zip(x, f)]
        x = new
    raise ConvergenceError("double-hop fixed point did not converge", residual, MAX_ITER)


# ---------------------------------------------------------------------------
# solving a design's terms
# ---------------------------------------------------------------------------

def transmit_spectra(stats: ChannelStatistics, users: Sequence[str],
                     P: np.ndarray) -> dict:
    """Spectrum of the transmit-side correlation T_eff that each of ``users``
    sees once the precoder P is absorbed, by user tag.

    double: T^{1/2} P T^{1/2} (M x M), decomposed once and shared by every
            user.
    lbi:    (M/L) A P A^H with A the user's deterministic aperture (L x L),
            taken from its factor sqrt(M/L) A F through its min(M, L)-sized
            Gram, with one root F = ``psd_root(P)`` for every user; a zero
            precoder gives the empty spectrum.
            The M/L factor rescales the solver's unit-variance trace
            convention to the per-column 1/L variance of the sampled
            Gaussian factor; without it the closed forms and the sampled
            channel describe different ensembles.
    """
    P = np.asarray(P, dtype=complex)
    if P.shape != (stats.M, stats.M):
        raise ModelError(f"precoder must be {stats.M}x{stats.M}, got {P.shape}")
    if not np.isfinite(P).all():
        raise ModelError("precoder has a non-finite entry")
    if stats.model_kind == "double":
        out = stats.T_sqrt @ P @ stats.T_sqrt
        return dict.fromkeys(users, Spectrum.of_matrix(0.5 * (out + out.conj().T), "T_eff"))
    root = psd_root(P, "precoder")
    if root.shape[1] == 0:
        return dict.fromkeys(users, Spectrum(np.zeros(0), np.zeros((stats.L, 0), dtype=complex),
                                             gram=True))
    scale = math.sqrt(stats.M / stats.L)
    return {user: Spectrum.of_factor(scale * (stats.lbi_aperture(user) @ root), "T_eff")
            for user in users}


def solve_all(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor],
              precoders: dict, starts: Optional[Sequence] = None) -> list:
    """Fixed points of the descriptors, in order, each distinct one solved once
    under ``precoders[d.precoder]``. Inputs the terms share are decomposed once
    per call: a user's surface Gram, and a precoder's T^{1/2} P T^{1/2} on the
    double model or its root on the single-hop one (``transmit_spectra``).
    ``starts`` holds a double-hop start point (delta, omega, omega_bar) or
    None per descriptor; a single-hop term takes none."""
    descriptors = list(descriptors)
    starts = [None] * len(descriptors) if starts is None else list(starts)
    if len(starts) != len(descriptors):
        raise ModelError(f"{len(starts)} start points for {len(descriptors)} descriptors")
    users = {}
    for d in dict.fromkeys(descriptors):
        users.setdefault(d.precoder, []).append(d.user)
    transmits = {tag: transmit_spectra(stats, tag_users, precoders[tag])
                 for tag, tag_users in users.items()}
    double = stats.model_kind == "double"
    grams, solved = {}, {}
    for d, start in zip(descriptors, starts):
        if d in solved:
            continue
        rx, t = stats.receiver(d.user), transmits[d.precoder][d.user]
        if double:
            if d.user not in grams:
                grams[d.user] = Spectrum.of_matrix(stats.ds_gram(d.user), "S")
            solved[d] = solve_ds(rx.r, grams[d.user], t, rx.sigma2, stats.M, stats.L,
                                 start=start)
        else:
            if start is not None:
                raise ValueError("the single-hop solve takes no start point")
            solved[d] = solve_lbi(rx.r, t, rx.sigma2, stats.M)
    return [solved[d] for d in descriptors]
