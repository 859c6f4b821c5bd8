"""Ground-truth Monte-Carlo engine.

Samples channel realizations with the exact shared-factor semantics of the
joint analyses (one middle matrix Y per trial for the double model, one
user-side factor X per user), computes exact per-trial mutual informations,
and aggregates streaming moments plus per-trial secrecy rates.

Trials run in chunks of ``CHUNK``. Within a chunk each trial makes one
standard-normal draw into one row of a buffer of ``SUB_BLOCK`` trials. The
row holds Y's normals (double model), then each user's X's in order of first
appearance: the draw order of ``scenario.sample_channel``. One draw of a + b
normals gives the normals of two draws of a and b, so this equals drawing
the factors one by one. Once per sub-block, ``scenario.complex_from_normals``
forms the complex factors from the buffer into one stack per factor; it is
elementwise, so batching does not change them. Each user's channel stack is
then assembled once per chunk by ``scenario.assemble_channel``, whose matrix
products broadcast over the stacks in the same left-to-right order, so every
sample equals ``mi_exact`` on that per-trial channel bit for bit.

Determinism contract: results are bit-for-bit reproducible for a fixed
(seed, scenario, descriptor list), independent of the thread count. Every
trial draws from its own counter-based stream keyed on (master seed, trial
index), so the per-trial samples do not depend on the chunk size either.
Chunk moments are merged in chunk order, so ``mi_mean`` and ``mi_cov`` are
bit-for-bit stable at a fixed ``CHUNK`` and agree across chunk sizes only to
rounding.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ModelError
from .fixedpoint import MiDescriptor
from .scenario import (ChannelStatistics, assemble_channel, complex_from_normals,
                       trial_streams)

CHUNK = 512
# trials per normal buffer inside a chunk: one row per trial, so the buffer
# stays small next to the chunk's complex stacks
SUB_BLOCK = 32


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity where the platform
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_budget(default: int = 1) -> int:
    """Requested worker count: ``IRS_SECRECY_THREADS`` if set, else ``default``.

    ``IRS_SECRECY_THREADS=n`` sets every pool to ``max(1, n)`` workers
    before the cap of ``pool_size``; a value that is not an integer is a
    ``ConfigError``. ``run_mc`` passes the default of 1 worker: each of its
    chunks holds large complex channel stacks, and on a 2-core host a
    2-worker pool gave the mc benchmark about 6% more jobs per second but a
    13% slower median job and 55% more peak memory. ``secrecy.sop_multi_eve``
    passes ``available_cores()``: its time goes to normal draws that release
    the interpreter lock, and its buffers are small. Samples do not depend
    on the worker count.
    """
    env = os.environ.get("IRS_SECRECY_THREADS")
    if env is None:
        return default
    try:
        requested = int(env)
    except ValueError:
        raise ConfigError(
            f"IRS_SECRECY_THREADS: must be an integer, got {env!r}") from None
    return max(1, requested)


def pool_size(n_items: int, default: int = 1) -> int:
    """Workers for ``n_items`` independent items: ``thread_budget(default)``
    capped at the item count and at the available cores, so no request
    starts more threads than there are items or cores."""
    return min(thread_budget(default), n_items, available_cores())


def run_shares(share: Callable[[int], None], workers: int) -> None:
    """Call ``share(w)`` for every ``w`` in ``range(workers)``: share 0 on
    the calling thread while a pool of ``workers - 1`` threads runs the
    others. An error in any share is raised here, after every share ends."""
    if workers == 1:
        share(0)
        return
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(share, w) for w in range(1, workers)]
        # the caller's share runs beside the pool's, not after them
        share(0)
        for future in futures:
            future.result()


def mi_exact(z: float, H: np.ndarray, P: np.ndarray) -> float:
    """Exact mutual-information term logdet(z I + H P H^H) in nats.

    Computed from the Hermitian eigenvalues of the Gram matrix; every
    eigenvalue of z I + H P H^H is >= z > 0 so the log is safe.
    """
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    gram = H @ P @ H.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    lam = np.linalg.eigvalsh(gram)
    if not np.all(np.isfinite(lam)):
        raise ModelError("non-finite channel entries in mutual-information evaluation")
    return float(np.sum(np.log(z + np.clip(lam, 0.0, None))))


def _mi_batch(z: float, H_stack: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Vectorized mi_exact over a stack of channels (n, N, M)."""
    gram = H_stack @ P @ H_stack.conj().transpose(0, 2, 1)
    gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(gram)
    return np.sum(np.log(z + np.clip(lam, 0.0, None)), axis=1).real


@dataclass(frozen=True)
class McRun:
    """Summary of one Monte-Carlo run.

    mi_mean / mi_cov are the empirical mean vector and covariance matrix of
    the per-trial mutual-information vector (nats), in descriptor order.
    mi_samples holds the per-trial mutual-information vectors (n_trials, K).
    secrecy holds the per-trial combined secrecy rate when a combiner was
    supplied (u-weighted rates, noise floors subtracted), else None.
    """

    n_trials: int
    mi_mean: np.ndarray
    mi_cov: np.ndarray
    secrecy: Optional[np.ndarray]
    mi_samples: np.ndarray

    def mean_stderr(self) -> np.ndarray:
        """Standard error of each mi_mean entry."""
        return np.sqrt(np.diag(self.mi_cov) / self.n_trials)

    def secrecy_cdf(self, grid_nats: np.ndarray) -> np.ndarray:
        """Empirical CDF of the per-trial secrecy rate on a threshold grid."""
        if self.secrecy is None:
            raise ModelError("this run was made without a secrecy combiner")
        sorted_vals = np.sort(self.secrecy)
        return np.searchsorted(sorted_vals, np.asarray(grid_nats), side="left") / len(sorted_vals)


def _chunk_mis(
    stats: ChannelStatistics,
    descriptors: Sequence[MiDescriptor],
    precoders: dict,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Per-trial MI matrix (count, K) for trials [start, start+count).

    Each trial makes one standard-normal draw into a row of a buffer of
    ``SUB_BLOCK`` trials. Once per sub-block, every factor's complex entries
    are formed from its slice of the rows and written into that factor's
    stack. Each user's channel stack is then assembled once by
    ``assemble_channel``, whose products broadcast over the stacks, and every
    descriptor of that user reads it.
    """
    users = list(dict.fromkeys(d.user for d in descriptors))
    # documented draw order: Y, then one X per user in order of first
    # appearance; (rows, cols, variance) per factor
    factors = [(stats.L, stats.M, 1.0 / stats.M)] if stats.model_kind == "double" else []
    factors += [(stats.user_n(u), stats.L, 1.0 / stats.L) for u in users]
    stacks = [np.empty((count, rows, cols), dtype=complex) for rows, cols, _ in factors]
    bounds = list(itertools.accumulate((2 * rows * cols for rows, cols, _ in factors),
                                       initial=0))
    buf = np.empty((min(SUB_BLOCK, count), bounds[-1]))
    # one generator and buffer per chunk (chunks may run on pool threads), so
    # threads share nothing
    stream = trial_streams(seed)
    for lo in range(0, count, SUB_BLOCK):
        n = min(SUB_BLOCK, count - lo)
        for i in range(n):
            # one call of size a + b gives the normals of calls of size a, b
            stream(start + lo + i).standard_normal(out=buf[i])
        for stack, (rows, cols, var), a, b in zip(stacks, factors, bounds, bounds[1:]):
            stack[lo:lo + n] = complex_from_normals(
                buf[:n, a:b].reshape(n, 2, rows, cols), var)

    y_stack = stacks.pop(0) if stats.model_kind == "double" else None
    h_stacks = {u: assemble_channel(stats, u, x, y_stack) for u, x in zip(users, stacks)}
    out = np.empty((count, len(descriptors)))
    for i, d in enumerate(descriptors):
        out[:, i] = _mi_batch(stats.user_sigma2(d.user), h_stacks[d.user],
                              precoders[d.precoder])
    return out


def run_mc(
    stats: ChannelStatistics,
    descriptors: Sequence[MiDescriptor],
    precoders: dict,
    n_trials: int,
    seed: int,
    combiner: Optional[np.ndarray] = None,
) -> McRun:
    """Monte-Carlo joint mutual-information statistics.

    combiner: optional weight vector u of length K; the per-trial secrecy
    rate is sum_i u_i (mi_i - N_i log z_i) in nats.
    """
    if n_trials < 1:
        raise ModelError("n_trials must be >= 1")
    descriptors = list(descriptors)
    k = len(descriptors)
    floors = np.array([stats.user_n(d.user) * math.log(stats.user_sigma2(d.user))
                       for d in descriptors])
    starts = list(range(0, n_trials, CHUNK))
    sizes = [min(CHUNK, n_trials - s) for s in starts]
    parts: list = [None] * len(starts)
    workers = pool_size(len(starts))

    def share(w: int) -> None:
        for i in range(w, len(starts), workers):
            parts[i] = _chunk_mis(stats, descriptors, precoders, seed, starts[i], sizes[i])

    run_shares(share, workers)

    # merge exactly in chunk order: deterministic float reduction
    n_acc = 0
    mean_acc = np.zeros(k)
    m2_acc = np.zeros((k, k))
    for mis in parts:
        n_c = mis.shape[0]
        mean_c = mis.mean(axis=0)
        centered = mis - mean_c
        m2_c = centered.T @ centered
        if n_acc == 0:
            n_acc, mean_acc, m2_acc = n_c, mean_c, m2_c
        else:
            delta = mean_c - mean_acc
            total = n_acc + n_c
            m2_acc = m2_acc + m2_c + np.outer(delta, delta) * (n_acc * n_c / total)
            mean_acc = mean_acc + delta * (n_c / total)
            n_acc = total

    cov = m2_acc / (n_acc - 1) if n_acc > 1 else np.zeros((k, k))
    cov = 0.5 * (cov + cov.T)
    samples = np.concatenate(parts, axis=0)
    secrecy = (samples - floors) @ np.asarray(combiner) if combiner is not None else None
    return McRun(n_trials=n_trials, mi_mean=mean_acc, mi_cov=cov, secrecy=secrecy,
                 mi_samples=samples)

