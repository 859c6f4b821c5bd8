"""Asymptotic covariances of joint mutual-information fluctuations.

For the double-hop model the (i, j) covariance entry is

    [M]_{ij} = -1{X_i = X_j} log(Delta_{ij}) - log(Delta_S,ij)

and for the single-hop (lbi) model

    [F]_{ij} = -1{X_i = X_j} log(Xi_{ij}),

where the indicator is 1 when both terms share the same realization of the
user-side Gaussian factor, which is exactly when they belong to the same
user. The scalar functionals are cross-resolvent traces of the two converged
fixed points:

    nu_R  = (1/L) Tr[R_i G_R,i R_j G_R,j]        (same user only)
    nu_S  = (1/M) Tr[S_i G_S,i S_j G_S,j]
    nu_SI = (1/M) Tr[S_i^{-/2} S_j^{+/2} G_S,j G_S,i]
    nu_T  = (1/M) Tr[T_i G_T,i T_j G_T,j]
    Delta_S = 1 - nu_S nu_T
    Delta = 1 - M wb_i wb_j nu_R nu_S / (L d_i d_j)
              - M nu_R nu_SI(i,j) nu_SI(j,i) nu_T / (L d_i^2 d_j^2 Delta_S)
    gamma_R = (1/M) Tr[R_i L_R,i R_j L_R,j]
    gamma_T = (1/M) Tr[T_i L_T,i T_j L_T,j]
    Xi = 1 - gamma_R gamma_T

(T_i denotes the effective transmit correlation of term i, precoder folded.)
The single-hop traces are taken from the solutions' spectra as
||H_i^H H_j||_F^2, with H H^H = R L_R or T L_T (``LbiSolution.H_R``, ``H_T``),
so no resolvent matrix is formed for them.

The ordered product nu_SI(i,j) nu_SI(j,i) keeps Delta real and symmetric;
the two factors are complex conjugates, and they coincide with the single
real trace (1/M)Tr[S G_j G_i] whenever both terms belong to one user.

A factor leaving (0, 1] means the asymptotic regime is violated: pair
quantities then carry ``valid=False`` and emit a CovarianceValidityWarning,
and entry evaluation raises InvalidCovarianceError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CovarianceValidityWarning, InvalidCovarianceError, ModelError
from .fixedpoint import DsSolution, LbiSolution, MiDescriptor, solve_user
from .scenario import ChannelStatistics


def _real_trace(*mats) -> float:
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return float(np.trace(prod).real)


def _cross_trace(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """Tr[h_i h_i^H h_j h_j^H] = ||h_i^H h_j||_F^2."""
    return float(np.sum(np.abs(h_i.conj().T @ h_j) ** 2))


@dataclass(frozen=True)
class PairQuantities:
    """Cross-resolvent functionals of one ordered pair of double-hop terms."""

    nu_S: float
    nu_T: float
    Delta_S: float
    nu_R: Optional[float]  # same-user pairs only
    nu_SI_sym: Optional[float]  # nu_SI(i,j) nu_SI(j,i), same-user pairs only
    Delta: Optional[float]
    valid: bool


@dataclass(frozen=True)
class LbiPairQuantities:
    """Cross-resolvent functionals of one pair of single-hop terms."""

    gamma_R: float
    gamma_T: float
    Xi: float
    valid: bool


def pair_quantities(
    stats: ChannelStatistics,
    desc_i: MiDescriptor,
    desc_j: MiDescriptor,
    sol_i: DsSolution,
    sol_j: DsSolution,
) -> PairQuantities:
    """Evaluate the double-hop pair functionals at two converged solutions."""
    m = float(sol_i.m_dim)
    ell = float(sol_i.l_dim)
    nu_S = _real_trace(sol_i.S, sol_i.G_S, sol_j.S, sol_j.G_S) / m
    nu_T = _real_trace(sol_i.T_eff, sol_i.G_T, sol_j.T_eff, sol_j.G_T) / m
    Delta_S = 1.0 - nu_S * nu_T

    same_user = desc_i.user == desc_j.user
    nu_R = nu_SI_sym = Delta = None
    if same_user:
        nu_R = _real_trace(sol_i.R, sol_i.G_R, sol_j.R, sol_j.G_R) / ell
        minus_i = stats.ds_plus_half(desc_i.user).conj().T
        plus_j = stats.ds_plus_half(desc_j.user)
        nu_si_ij = np.trace(minus_i @ plus_j @ sol_j.G_S @ sol_i.G_S) / m
        nu_si_ji = np.trace(plus_j.conj().T @ minus_i.conj().T @ sol_i.G_S @ sol_j.G_S) / m
        nu_SI_sym = float((nu_si_ij * nu_si_ji).real)
        d_i, d_j = sol_i.delta, sol_j.delta
        Delta = (
            1.0
            - m * sol_i.omega_bar * sol_j.omega_bar * nu_R * nu_S / (ell * d_i * d_j)
            - m * nu_R * nu_SI_sym * nu_T / (ell * d_i**2 * d_j**2 * Delta_S)
        )

    valid = 0.0 < Delta_S <= 1.0 and (Delta is None or 0.0 < Delta <= 1.0)
    if not valid:
        warnings.warn(
            f"pair ({desc_i.label}, {desc_j.label}) outside the asymptotic validity "
            f"region (Delta_S={Delta_S:.3e}, Delta={Delta})",
            CovarianceValidityWarning,
            stacklevel=2,
        )
    return PairQuantities(
        nu_S=nu_S, nu_T=nu_T, Delta_S=Delta_S,
        nu_R=nu_R, nu_SI_sym=nu_SI_sym, Delta=Delta, valid=valid,
    )


def lbi_pair_quantities(sol_i: LbiSolution, sol_j: LbiSolution) -> LbiPairQuantities:
    """Evaluate the single-hop pair functionals; only meaningful for terms
    sharing the user-side factor (cross-user fluctuations are independent)."""
    m = float(sol_i.m_dim)
    gamma_R = _cross_trace(sol_i.H_R, sol_j.H_R) / m
    gamma_T = _cross_trace(sol_i.H_T, sol_j.H_T) / m
    Xi = 1.0 - gamma_R * gamma_T
    valid = 0.0 < Xi <= 1.0
    if not valid:
        warnings.warn(
            f"pair outside the asymptotic validity region (Xi={Xi:.3e})",
            CovarianceValidityWarning,
            stacklevel=2,
        )
    return LbiPairQuantities(gamma_R=gamma_R, gamma_T=gamma_T, Xi=Xi, valid=valid)


def cov_entry_ds(pair: PairQuantities) -> float:
    """Double-hop covariance entry -log Delta_S, minus log Delta for a
    same-user pair (the only pairs that carry Delta)."""
    if pair.Delta_S <= 0.0:
        raise InvalidCovarianceError(f"Delta_S = {pair.Delta_S:.3e} is not in (0, 1]")
    entry = -math.log(pair.Delta_S)
    if pair.Delta is not None:
        if pair.Delta <= 0.0:
            raise InvalidCovarianceError(f"Delta = {pair.Delta:.3e} is not in (0, 1]")
        entry -= math.log(pair.Delta)
    return entry


def cov_entry_lbi(pair: LbiPairQuantities) -> float:
    """Single-hop covariance entry -log Xi of a same-user pair; cross-user
    entries are exactly zero and never evaluated."""
    if pair.Xi <= 0.0:
        raise InvalidCovarianceError(f"Xi = {pair.Xi:.3e} is not in (0, 1]")
    return -math.log(pair.Xi)


def solve_all(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor],
              precoders: dict) -> list:
    """Fixed points for every descriptor, solved once per distinct descriptor
    under its precoder ``precoders[d.precoder]``."""
    cache: dict = {}
    for d in descriptors:
        if d not in cache:
            cache[d] = solve_user(stats, d.user, precoders[d.precoder])
    return [cache[d] for d in descriptors]


def joint_cov(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor],
              solutions: Sequence) -> np.ndarray:
    """The full K x K covariance of the descriptors' joint mutual-information
    vector, in descriptor order, from their solutions (``solve_all``).
    Same-user pairs get the shared-factor term; the matrix is exactly
    symmetric by construction."""
    descriptors, sols = list(descriptors), list(solutions)
    k = len(descriptors)
    if len(sols) != k:
        raise ModelError("solutions list must match the descriptor list")

    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            if stats.model_kind == "double":
                pair = pair_quantities(stats, descriptors[i], descriptors[j], sols[i], sols[j])
                mat[i, j] = cov_entry_ds(pair)
            elif descriptors[i].user == descriptors[j].user:
                mat[i, j] = cov_entry_lbi(lbi_pair_quantities(sols[i], sols[j]))
            mat[j, i] = mat[i, j]
    return mat
