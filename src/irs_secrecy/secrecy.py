"""Closed-form ergodic secrecy rates and secrecy outage probabilities.

All public entry points accept rate thresholds in bits and report rates in
both nats and bits; everything internal is in nats. The secrecy rate of a
wiretap pair is the positive part of the legitimate-link rate minus the
eavesdropper rate; with artificial noise the four-term combination

    [I_B(P_U) - I_B(P_V)] - [I_E(P_U) - I_E(P_V)],   P_U = P_W + P_V,

is used instead. Outage probabilities follow from the Gaussian fluctuation
approximation: P(secrecy rate < R) ~ Phi((R - mean) / sqrt(V)) with the
variance assembled from the joint fluctuation covariance of the per-term
mutual informations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .cltcov import joint_cov, solve_all
from .errors import InvalidCovarianceError, ModelError
from .fixedpoint import (MiDescriptor, an_descriptors, mean_rate,
                         precoder_map, wiretap_descriptors)
from .mcoracle import available_cores, pool_size, run_shares
from .scenario import ChannelStatistics, trial_streams

LN2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)

ArrayLike = Union[float, Sequence[float], np.ndarray]


def nats_to_bits(x: ArrayLike) -> ArrayLike:
    return np.asarray(x, dtype=float) / LN2 if np.ndim(x) else float(x) / LN2


def bits_to_nats(x: ArrayLike) -> ArrayLike:
    return np.asarray(x, dtype=float) * LN2 if np.ndim(x) else float(x) * LN2


def _phi(x: float) -> float:
    # erf near 0; in the tails erfc of |x|, so the lower tail keeps its
    # relative accuracy instead of cancelling in 0.5 + 0.5 * erf
    if abs(x) < 1.0:
        return 0.5 + 0.5 * math.erf(x * _SQRT_HALF)
    tail = 0.5 * math.erfc(abs(x) * _SQRT_HALF)
    return 1.0 - tail if x > 0.0 else tail


def norm_cdf(x: ArrayLike):
    """Standard normal CDF, elementwise: a float for a scalar or 0-d input,
    otherwise an array of the input's shape."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return _phi(float(arr))
    return np.array([_phi(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


@dataclass(frozen=True)
class SecrecyReport:
    """Ergodic secrecy rate plus the Gaussian outage description.

    ``mean_nats`` is the signed deterministic secrecy mean (before the
    positive part); ``esr_nats``/``esr_bits`` carry the positive part.
    """

    esr_nats: float
    esr_bits: float
    mean_nats: float
    variance: float
    model_kind: str
    an_enabled: bool

    def sop(self, r_bits: ArrayLike):
        """Outage probability at threshold(s) given in bits."""
        if self.variance <= 0.0:
            raise InvalidCovarianceError(
                f"secrecy-rate variance {self.variance:.3e} is not positive")
        r_nats = np.asarray(r_bits, dtype=float) * LN2
        return norm_cdf((r_nats - self.mean_nats) / math.sqrt(self.variance))


def secrecy_terms(stats: ChannelStatistics, P_W: np.ndarray,
                  P_V: Optional[np.ndarray] = None,
                  eves: Optional[Sequence[str]] = None
                  ) -> Tuple[list, Dict[str, np.ndarray], np.ndarray]:
    """Mutual-information terms of the secrecy rate against each eavesdropper.

    Returns (descriptors, precoders, selectors): selector row k contracts the
    per-term rates into the signed secrecy rate against ``eves[k]`` (default:
    every eavesdropper). With ``P_V`` None the plain wiretap difference
    I_B(P_W) - I_E(P_W) is used, otherwise the artificial-noise combination
    [I_B(P_U) - I_B(P_V)] - [I_E(P_U) - I_E(P_V)].
    """
    eves = list(stats.users()[1:] if eves is None else eves)
    if P_V is None:
        descriptors = wiretap_descriptors(stats, eves=eves)
        sign = {"W": 1.0}
    else:
        descriptors = an_descriptors(stats, eves=eves)
        sign = {"U": 1.0, "V": -1.0}
    selectors = np.zeros((len(eves), len(descriptors)))
    for i, d in enumerate(descriptors):
        if d.user == "B":
            selectors[:, i] = sign[d.precoder]
        else:
            selectors[eves.index(d.user), i] = -sign[d.precoder]
    return descriptors, precoder_map(P_W, P_V), selectors


def term_rates(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor],
               precoders: Dict[str, np.ndarray], solutions: Sequence) -> np.ndarray:
    """Mean rates (nats) of solved terms, each less its own noise floor: the
    floors cancel inside a same-user U/V pair but not across users."""
    return np.array([mean_rate(stats, d, precoders, solution=sol)
                     for d, sol in zip(descriptors, solutions)])


def _rates_and_cov(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor],
                   precoders: Dict[str, np.ndarray]):
    """Per-term mean rates and their joint fluctuation covariance."""
    sols = solve_all(stats, descriptors, precoders)
    return (term_rates(stats, descriptors, precoders, sols),
            joint_cov(stats, descriptors, precoders, solutions=sols))


def _report(stats: ChannelStatistics, P_W: np.ndarray, P_V: Optional[np.ndarray],
            eve: Optional[str]) -> SecrecyReport:
    descriptors, precoders, selectors = secrecy_terms(
        stats, P_W, P_V, eves=[stats.eve_tag(eve)])
    u = selectors[0]
    rates, cov = _rates_and_cov(stats, descriptors, precoders)
    mean_nats = float(u @ rates)
    variance = cov.quad_form(u)
    esr_nats = max(0.0, mean_nats)
    return SecrecyReport(
        esr_nats=esr_nats, esr_bits=esr_nats / LN2, mean_nats=mean_nats,
        variance=variance, model_kind=stats.model_kind, an_enabled=P_V is not None,
    )


def esr_wiretap(stats: ChannelStatistics, P_W: np.ndarray,
                eve: Optional[str] = None) -> SecrecyReport:
    """Ergodic secrecy rate of the plain wiretap system (one eavesdropper)."""
    return _report(stats, P_W, None, eve)


def esr_an(stats: ChannelStatistics, P_W: np.ndarray, P_V: Optional[np.ndarray],
           eve: Optional[str] = None) -> SecrecyReport:
    """Ergodic secrecy rate with artificial noise of covariance P_V; with
    P_V None this is ``esr_wiretap``."""
    return _report(stats, P_W, P_V, eve)


def sop_wiretap(stats: ChannelStatistics, P_W: np.ndarray, r_bits: ArrayLike,
                eve: Optional[str] = None):
    """Secrecy outage probability of the plain wiretap system at threshold(s)
    in bits; vectorized over r_bits."""
    return esr_wiretap(stats, P_W, eve=eve).sop(r_bits)


def sop_an(stats: ChannelStatistics, P_W: np.ndarray, P_V: np.ndarray,
           r_bits: ArrayLike, eve: Optional[str] = None):
    """Secrecy outage probability with artificial noise at threshold(s) in
    bits; vectorized over r_bits."""
    return esr_an(stats, P_W, P_V, eve=eve).sop(r_bits)


@dataclass(frozen=True)
class MultiEveModel:
    """Joint Gaussian description of the per-eavesdropper secrecy rates.

    ``mu`` holds the signed per-Eve secrecy means (nats) and ``Q`` their
    fluctuation covariance; ``selectors`` records the per-Eve contraction of
    the underlying per-term covariance (rows align with ``labels``).
    """

    mu: np.ndarray
    Q: np.ndarray
    labels: Tuple[str, ...]
    selectors: np.ndarray

    @property
    def n_eves(self) -> int:
        return self.mu.shape[0]


def build_multi_eve_model(stats: ChannelStatistics, P_W: np.ndarray,
                          P_V: Optional[np.ndarray] = None) -> MultiEveModel:
    """Assemble the joint normal model over all eavesdroppers' secrecy rates.

    With P_V given the artificial-noise combination is used per Eve;
    otherwise the plain wiretap difference.
    """
    descriptors, precoders, selectors = secrecy_terms(stats, P_W, P_V)
    rates, cov = _rates_and_cov(stats, descriptors, precoders)
    mu = selectors @ rates
    Q = selectors @ cov.matrix @ selectors.T
    Q = 0.5 * (Q + Q.T)
    return MultiEveModel(mu=mu, Q=Q, labels=tuple(stats.users()[1:]), selectors=selectors)


_MVN_JITTER = 1e-10
_MVN_CHUNK = 65_536


def sop_multi_eve(models: Sequence[MultiEveModel], r_bits,
                  n_samples: int = 10**6, seed: int = 0):
    """Probability that the worst per-Eve secrecy rate falls below the
    threshold, i.e. 1 - P(all rates > R) under N(mu, Q), for each model.

    Estimated by Cholesky-based Monte-Carlo with an exact integer reduction;
    returns (estimate, stderr), shaped (len(models),) + the shape of
    ``r_bits``. Chunk c of the samples draws its normals z from
    ``trial_rng(seed, c)``, and a sample's worst rate is the row minimum of
    mu + z @ chol(Q).T. All thresholds and all models (of one eavesdropper
    count) share these draws, so each row is a monotone curve and equals, bit
    for bit, a call with that model alone: a sweep's powers use common
    random numbers.

    The chunks run on ``mcoracle.pool_size(n_chunks, available_cores())``
    workers (``IRS_SECRECY_THREADS`` overrides the default); worker w takes
    chunks w, w + workers, ... and counts its own samples below each
    threshold. The counts are integers and their sum is exact, so the result
    is the same, bit for bit, for any worker count.
    """
    models = list(models)
    if not models or n_samples <= 0:
        raise ModelError("sop_multi_eve needs at least one model and a positive n_samples")
    k = models[0].n_eves
    if any(m.n_eves != k for m in models):
        raise ModelError("the models must share one eavesdropper count, got "
                         f"{[m.n_eves for m in models]}")
    try:
        chol_t = [np.linalg.cholesky(m.Q + _MVN_JITTER * np.eye(k)).T for m in models]
    except np.linalg.LinAlgError as exc:
        raise ModelError("per-Eve covariance is not positive semidefinite "
                         "within jitter") from exc
    r_nats = np.atleast_1d(np.asarray(r_bits, dtype=float)) * LN2
    n_chunks = -(-n_samples // _MVN_CHUNK)
    workers = pool_size(n_chunks, default=available_cores())
    rows = min(_MVN_CHUNK, n_samples)
    # per worker: one generator, one set of buffers for every chunk and model,
    # and its own counts. All are allocated here, on the calling thread:
    # allocated on the pool threads, the same buffers left about 1 MB more
    # resident at the curves benchmark's peak.
    shares = [(trial_streams(seed), np.empty((rows, k)), np.empty((rows, k)),
               np.empty(rows), np.zeros((len(models),) + r_nats.shape, dtype=np.int64))
              for _ in range(workers)]

    def share(w: int) -> None:
        stream, z_buf, rates_buf, worst_buf, below = shares[w]
        for chunk_id in range(w, n_chunks, workers):
            size = min(_MVN_CHUNK, n_samples - chunk_id * _MVN_CHUNK)
            z, rates, worst = z_buf[:size], rates_buf[:size], worst_buf[:size]
            stream(chunk_id).standard_normal(out=z)
            for m, c_t, count in zip(models, chol_t, below):
                np.matmul(z, c_t, out=rates)
                # worst eavesdropper per sample: column passes (rates[:, j] +
                # mu[j], as a broadcast add gives it) are far cheaper than
                # row-wise ones
                np.add(rates[:, 0], m.mu[0], out=worst)
                for j in range(1, k):
                    col = rates[:, j]
                    np.minimum(worst, np.add(col, m.mu[j], out=col), out=worst)
                worst.sort()
                count += np.searchsorted(worst, r_nats, side="left")

    run_shares(share, workers)
    below = sum(counts for *_, counts in shares)
    p = below / n_samples
    stderr = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / n_samples)
    shape = (len(models),) + np.shape(r_bits)
    return p.reshape(shape), stderr.reshape(shape)
