"""Closed-form ergodic secrecy rates and secrecy outage probabilities.

All public entry points accept rate thresholds in bits and report rates in
both nats and bits; everything internal is in nats. The secrecy rate of a
wiretap pair is the positive part of the legitimate-link rate minus the
eavesdropper rate; with artificial noise the four-term combination

    [I_B(P_U) - I_B(P_V)] - [I_E(P_U) - I_E(P_V)],   P_U = P_W + P_V,

is used instead. Outage probabilities follow from the Gaussian fluctuation
approximation: P(secrecy rate < R) ~ Phi((R - mean) / sqrt(V)). One
function, ``contract_terms``, turns a design's solved terms into the means
and the covariance of the secrecy rates against its eavesdroppers; every
report reads such a model, a single-eavesdropper ``SecrecyReport`` as one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .cltcov import joint_cov
from .errors import InvalidCovarianceError, ModelError
from .fixedpoint import MiDescriptor, solve_all
from .mcoracle import pool_size, run_shares
from .scenario import ChannelStatistics, trial_streams

LN2 = math.log(2.0)
_SQRT_HALF = math.sqrt(0.5)

ArrayLike = Union[float, Sequence[float], np.ndarray]


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

    def sop(self, r_bits: ArrayLike):
        """Outage probability at threshold(s) given in bits."""
        if self.variance <= 0.0:
            raise InvalidCovarianceError(
                f"variance {self.variance:.3e} is not positive")
        r_nats = np.asarray(r_bits, dtype=float) * LN2
        return norm_cdf((r_nats - self.mean_nats) / math.sqrt(self.variance))


def secrecy_terms(stats: ChannelStatistics, P_W: np.ndarray,
                  P_V: Optional[np.ndarray] = None,
                  eves: Optional[Sequence[str]] = None
                  ) -> Tuple[list, Dict[str, np.ndarray], np.ndarray]:
    """Mutual-information terms of the secrecy rate against each eavesdropper.

    Returns (descriptors, precoders, selectors). With ``P_V`` None the terms
    are (B,W), (E1,W), ... and the plain wiretap difference I_B(P_W) - I_E(P_W)
    is used. Otherwise they are (B,U), (B,V), (E1,U), (E1,V), ..., the two
    terms of one user sharing that user's X realization, and the
    artificial-noise combination [I_B(P_U) - I_B(P_V)] - [I_E(P_U) - I_E(P_V)]
    is used. ``precoders`` maps each tag to its covariance (W: P_W, V: P_V or
    zero, U: their sum), and selector row k contracts the per-term rates into
    the signed secrecy rate against ``eves[k]`` (default: every eavesdropper).
    An entry of ``eves`` that is 'B', no eavesdropper's tag or repeated is a
    ModelError.
    """
    eves = list(stats.users()[1:] if eves is None else eves)
    for eve in eves:
        if eve == "B" or eve not in stats.receivers:
            raise ModelError(f"unknown eavesdropper tag {eve!r}; expected "
                             f"'E1'..'E{stats.K_eves}'")
    if len(set(eves)) < len(eves):
        raise ModelError(f"eavesdropper tags must be distinct, got {eves}")
    if P_V is None:
        P_V = np.zeros_like(P_W)
        sign = {"W": 1.0}
    else:
        sign = {"U": 1.0, "V": -1.0}
    descriptors = [MiDescriptor(user=u, precoder=p) for u in ["B"] + eves for p in sign]
    selectors = np.zeros((len(eves), len(descriptors)))
    for i, d in enumerate(descriptors):
        if d.user == "B":
            selectors[:, i] = sign[d.precoder]
        else:
            selectors[eves.index(d.user), i] = -sign[d.precoder]
    return descriptors, {"W": P_W, "V": P_V, "U": P_W + P_V}, selectors


@dataclass(frozen=True)
class MultiEveModel:
    """Joint Gaussian description of the per-eavesdropper secrecy rates.

    ``mu`` holds the signed per-Eve secrecy means (nats) and ``Q`` their
    fluctuation covariance, in the eavesdroppers' order.
    """

    mu: np.ndarray
    Q: np.ndarray

    @property
    def n_eves(self) -> int:
        return self.mu.shape[0]

    def report(self, k: int) -> SecrecyReport:
        """Row ``k`` as a single-eavesdropper report."""
        mean_nats = float(self.mu[k])
        esr_nats = max(0.0, mean_nats)
        return SecrecyReport(esr_nats=esr_nats, esr_bits=esr_nats / LN2,
                             mean_nats=mean_nats, variance=float(self.Q[k, k]))


def contract_terms(descriptors: Sequence[MiDescriptor], solutions: Sequence,
                   selectors: np.ndarray) -> MultiEveModel:
    """The model of solved ``secrecy_terms``: selector row k contracts the
    terms' rates and their ``joint_cov`` into the mean and the covariance row
    of the secrecy rate against the k-th eavesdropper."""
    rates = np.array([s.rate for s in solutions])
    cov = joint_cov(descriptors, solutions)
    # each row sums over its own terms only, in one order whatever other rows
    # there are; a matrix product over all rows can round a row differently
    terms = [np.flatnonzero(u) for u in selectors]
    mu = np.array([u[i] @ rates[i] for u, i in zip(selectors, terms)])
    Q = np.array([[u[i] @ cov[np.ix_(i, j)] @ v[j] for v, j in zip(selectors, terms)]
                  for u, i in zip(selectors, terms)])
    Q = 0.5 * (Q + Q.T)
    return MultiEveModel(mu=mu, Q=Q)


def build_multi_eve_model(stats: ChannelStatistics, P_W: np.ndarray,
                          P_V: Optional[np.ndarray] = None,
                          eves: Optional[Sequence[str]] = None) -> MultiEveModel:
    """Joint normal model of the secrecy rates against ``eves`` (default:
    every eavesdropper), row k against ``eves[k]``: one ``solve_all`` of the
    ``secrecy_terms`` (with P_V the artificial-noise combination, otherwise
    the plain wiretap difference) and their ``contract_terms``. Row k is, bit
    for bit, row 0 of the model against ``eves[k]`` alone (for E1, the
    ``esr_an`` report).
    """
    descriptors, precoders, selectors = secrecy_terms(stats, P_W, P_V, eves=eves)
    return contract_terms(descriptors, solve_all(stats, descriptors, precoders), selectors)


def esr_wiretap(stats: ChannelStatistics, P_W: np.ndarray) -> SecrecyReport:
    """Ergodic secrecy rate of the plain wiretap system against the first
    eavesdropper, E1. The report against another is
    ``build_multi_eve_model(stats, P_W, eves=[tag]).report(0)``."""
    return build_multi_eve_model(stats, P_W, eves=["E1"]).report(0)


def esr_an(stats: ChannelStatistics, P_W: np.ndarray,
           P_V: Optional[np.ndarray]) -> SecrecyReport:
    """Ergodic secrecy rate with artificial noise of covariance P_V against
    the first eavesdropper, E1; with P_V None this is ``esr_wiretap``. The
    report against another is
    ``build_multi_eve_model(stats, P_W, P_V, eves=[tag]).report(0)``."""
    return build_multi_eve_model(stats, P_W, P_V, eves=["E1"]).report(0)


_MVN_JITTER = 1e-10
_MVN_CHUNK = 65_536


def sop_multi_eve(models: Sequence[MultiEveModel], r_bits, n_samples: int, seed: int):
    """Probability that the worst per-Eve secrecy rate falls below the
    threshold, i.e. 1 - P(all rates > R) under N(mu, Q), for each model.

    Estimated by Cholesky-based Monte-Carlo with an exact integer reduction;
    returns (estimate, stderr), shaped (len(models),) + the shape of
    ``r_bits``. Chunk c of the samples draws its normals z from its own
    stream, a ``np.random.Generator`` over a Philox bit generator with key
    [seed, c] and counter 0 (``scenario.trial_streams``), and a sample's
    worst rate is the row minimum of mu + z @ chol(Q).T. All thresholds and all models (of one eavesdropper
    count) share these draws, so each row is a monotone curve and equals, bit
    for bit, a call with that model alone: a sweep's powers use common
    random numbers.

    The chunks run on ``mcoracle.pool_size(n_chunks)`` workers (the
    available cores unless ``IRS_SECRECY_THREADS`` is set); worker w takes
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
    workers = pool_size(n_chunks)
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
