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
    nu_SI = (1/M) Tr[S G_S,i G_S,j]               (same user only)
    nu_T  = (1/M) Tr[T_i G_T,i T_j G_T,j]
    Delta_S = 1 - nu_S nu_T
    Delta = 1 - M wb_i wb_j nu_R nu_S / (L d_i d_j)
              - M nu_R nu_SI^2 nu_T / (L d_i^2 d_j^2 Delta_S)
    gamma_R = (1/M) Tr[R_i L_R,i R_j L_R,j]
    gamma_T = (1/M) Tr[T_i L_T,i T_j L_T,j]
    Xi = 1 - gamma_R gamma_T

(T_i denotes the effective transmit correlation of term i, precoder folded.)
Each solution type computes its own pairs' factors (``pair_factors``), so
this module assembles the matrix and reads no model. Every trace
Tr[X_i Q_i X_j Q_j], Q the resolvent of X at a solution, is the cross trace
||H_i^H H_j||_F^2 of the two solutions' resolvent roots, H H^H = X Q
(``H_R``, ``H_S``, ``H_T``), so no resolvent matrix is formed.

Both terms of a same-user pair see one surface Gram S = ``stats.ds_gram``,
so the paper's ordered product nu_SI(i,j) nu_SI(j,i) of the traces
(1/M) Tr[S_i^{-/2} S_j^{+/2} G_S,j G_S,i] is the square of the real
eigen-sum nu_SI = (1/M) sum_a sigma_a g_i,a g_j,a, with sigma_a the
eigenvalues of S and g_a = 1 / (1/delta + omega_bar sigma_a).

A factor leaving (0, 1] means the asymptotic regime is violated: the pair
then emits a CovarianceValidityWarning that names it, and a factor <= 0
raises InvalidCovarianceError.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .errors import CovarianceValidityWarning, InvalidCovarianceError, ModelError
from .fixedpoint import MiDescriptor


def _entry(desc_i: MiDescriptor, desc_j: MiDescriptor, factors: dict) -> float:
    """-sum log f over a pair's factors {name: f}: warns when a factor is
    outside (0, 1], then raises for one <= 0."""
    if not all(0.0 < f <= 1.0 for f in factors.values()):
        shown = ", ".join(f"{name}={f:.3e}" for name, f in factors.items())
        warnings.warn(f"pair ({desc_i.label}, {desc_j.label}) outside the asymptotic "
                      f"validity region ({shown})", CovarianceValidityWarning, stacklevel=2)
    total = 0.0
    for name, f in factors.items():
        if f <= 0.0:
            raise InvalidCovarianceError(f"{name} = {f:.3e} is not in (0, 1]")
        total += math.log(f)
    return -total


def joint_cov(descriptors: Sequence[MiDescriptor], solutions: Sequence) -> np.ndarray:
    """The full K x K covariance of the descriptors' joint mutual-information
    vector, in descriptor order, from their solutions (``solve_all``).
    A pair without factors (single-hop, across users) is exactly zero; the
    matrix is exactly symmetric by construction."""
    descriptors, sols = list(descriptors), list(solutions)
    k = len(descriptors)
    if len(sols) != k:
        raise ModelError("solutions list must match the descriptor list")

    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            factors = sols[i].pair_factors(sols[j], descriptors[i].user == descriptors[j].user)
            if factors:
                mat[i, j] = mat[j, i] = _entry(descriptors[i], descriptors[j], factors)
    return mat
