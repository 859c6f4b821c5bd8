"""Ground-truth Monte-Carlo engine.

Samples channel realizations with the exact shared-factor semantics of the
joint analyses (one middle matrix Y per trial for the double model, one
user-side factor X per user), computes exact per-trial mutual informations,
and takes their moments and the per-trial secrecy rates from the samples.

Trials run in blocks of as many trials as fit ``BLOCK_BYTES`` of complex
factor entries (at least one), the run's one unit of work: a worker holds
one block's arrays at a time, whatever the trial count. Trial t makes one
standard-normal draw into one row of the block's buffer from its own stream:
a ``np.random.Generator`` over a Philox bit generator with key [seed, t] and
counter 0 (``scenario.trial_streams``). The row holds, in this documented
draw order, Y's normals (L x M, entries CN(0, 1/M); double model only), then
one X's (N_u x L, entries CN(0, 1/L)) per user in order of first
appearance; each factor's normals are its real parts, then its imaginary
parts. One draw of a + b normals gives the normals of two draws of a and b,
so this equals drawing the factors one by one. ``scenario.complex_from_normals`` writes the complex
factors from the buffer into one block buffer per factor; it is elementwise,
so batching does not change them. Each user's channel stack is then
assembled by ``scenario.channel_assembler``, whose matrix products broadcast
over the stacks in the same left-to-right order, and every log-determinant
is taken by one kernel (``_mi_batch``), so every sample equals ``mi_exact``
on that per-trial channel bit for bit.

The blocks run on ``pool_size`` workers, at most one per block:
``IRS_SECRECY_THREADS`` if set, else one worker below ``POOL_TRIAL_BYTES``
of factors per trial and the available cores from there (see
``thread_budget``). Worker w takes blocks w, w + workers, ... and writes
their rows of one (n_trials, K) samples array; the mean and covariance are
then taken once, from that array.

Determinism contract: results are bit-for-bit reproducible for a fixed
(seed, scenario, descriptor list). Every trial draws from its own
counter-based stream keyed on (master seed, trial index), so the samples,
and the moments taken from them, are bit-for-bit independent of the block
size and of the worker count.
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
from .scenario import (ChannelStatistics, channel_assembler, complex_from_normals,
                       trial_streams)

# complex factor bytes per block of trials: a worker's memory stays at a
# block's factors and channels, whatever the trial count
BLOCK_BYTES = 1 << 20
# complex factor bytes per trial from which run_mc's default is a pool: on 2
# cores, 2 KiB trials (lbi M8 L16 N4) took 7-10% longer on 2 workers than on
# 1, and 4 KiB trials (double M8 L16 N4, lbi M16 L32 N4) 23-33% less time
POOL_TRIAL_BYTES = 4 << 10


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity where the platform
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_budget(default: Optional[int] = None) -> int:
    """Requested worker count: ``IRS_SECRECY_THREADS`` if set, else
    ``default``, else ``available_cores()``.

    ``IRS_SECRECY_THREADS=n`` sets every pool to ``max(1, n)`` workers
    before the cap of ``pool_size``; a value that is not an integer is a
    ``ConfigError``. Unset, ``secrecy.sop_multi_eve`` runs on the available
    cores: its chunks of 65,536 samples are whole-array draws, products and
    sorts, which release the interpreter lock. ``run_mc`` does so only from
    ``POOL_TRIAL_BYTES`` of complex factors per trial, and runs on one
    worker below that: there each trial's Python work (re-keying its stream,
    calling its small array operations) holds the lock for longer than its
    lock-free LAPACK/BLAS work takes, so a second worker mostly waits.
    Samples do not depend on the worker count.
    """
    env = os.environ.get("IRS_SECRECY_THREADS")
    if env is None:
        return available_cores() if default is None else default
    try:
        requested = int(env)
    except ValueError:
        raise ConfigError(
            f"IRS_SECRECY_THREADS: must be an integer, got {env!r}") from None
    return max(1, requested)


def pool_size(n_items: int, default: Optional[int] = None) -> int:
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
    """Exact mutual-information term logdet(z I + H P H^H) in nats: the
    one-trial case of the Monte-Carlo kernel (see ``_mi_batch``)."""
    if z <= 0:
        raise ModelError(f"noise power must be positive, got {z}")
    return float(_mi_batch(z, np.asarray(H)[None], P)[0])


def _mi_batch(z: float, H_stack: np.ndarray, P: np.ndarray) -> np.ndarray:
    """logdet(z I + H P H^H) in nats for a stack of channels (n, N, M), as
    2 sum log diag of the Cholesky factor of each Gram stack entry.

    Cholesky reads only the lower triangle, so the Gram needs no
    symmetrising. A factorization that fails (non-finite channel entries, or
    a singular H P H^H whose largest eigenvalue is about 1e16 times z or
    more, where rounding can leave a non-positive pivot) or a non-finite
    log-determinant is a ``ModelError``.
    """
    gram = H_stack @ P @ H_stack.conj().transpose(0, 2, 1)
    diag = np.arange(gram.shape[-1])
    gram[:, diag, diag] += z
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ModelError(
            "mutual-information Gram matrix z I + H P H^H is not positive definite "
            "in floating point: non-finite channel entries, or a noise power "
            "negligible next to a singular received covariance") from None
    out = 2.0 * np.sum(np.log(chol.diagonal(axis1=1, axis2=2).real), axis=1)
    if not np.all(np.isfinite(out)):
        raise ModelError("non-finite channel entries in mutual-information evaluation")
    return out


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
    rate is sum_i u_i (mi_i - N_i log z_i) in nats. A trial count whose
    (n_trials, K) samples cannot be held is a MemoryError.
    """
    if n_trials < 1:
        raise ModelError("n_trials must be >= 1")
    descriptors = list(descriptors)
    receivers = [stats.receiver(d.user) for d in descriptors]
    floors = np.array([rx.n * math.log(rx.sigma2) for rx in receivers])
    # (rows, cols, variance) of each complex factor, in the documented draw
    # order: Y (double model), then one X per user in order of first appearance
    users = list(dict.fromkeys(d.user for d in descriptors))
    factors = [(stats.L, stats.M, 1.0 / stats.M)] if stats.model_kind == "double" else []
    factors += [(stats.receiver(u).n, stats.L, 1.0 / stats.L) for u in users]
    bounds = list(itertools.accumulate((2 * rows * cols for rows, cols, _ in factors),
                                       initial=0))
    trial_bytes = bounds[-1] // 2 * np.dtype(complex).itemsize  # two normals per entry
    block = max(1, min(n_trials, BLOCK_BYTES // trial_bytes))
    n_blocks = -(-n_trials // block)
    # below POOL_TRIAL_BYTES a trial's Python work, which holds the
    # interpreter lock, outweighs its lock-free LAPACK/BLAS work
    workers = pool_size(n_blocks, None if trial_bytes >= POOL_TRIAL_BYTES else 1)
    per_user = [(channel_assembler(stats, u),
                 [(i, stats.receiver(u).sigma2, precoders[d.precoder])
                  for i, d in enumerate(descriptors) if d.user == u]) for u in users]
    try:
        samples = np.empty((n_trials, len(descriptors)))
    except ValueError:  # numpy's refusal of more bytes than an array can index
        raise MemoryError(f"a {n_trials} x {len(descriptors)} samples array exceeds "
                          "numpy's size limit") from None

    def share(w: int) -> None:
        # one generator and set of buffers per worker, so threads share nothing
        # they write but their own rows of ``samples``
        stream = trial_streams(seed)
        buf = np.empty((block, bounds[-1]))
        blocks = [np.empty((block, rows, cols), dtype=complex) for rows, cols, _ in factors]
        for lo in range(w * block, n_trials, workers * block):
            n = min(block, n_trials - lo)
            for i in range(n):
                # one call of size a + b gives the normals of calls of size a, b
                stream(lo + i).standard_normal(out=buf[i])
            for blk, (rows, cols, var), a, b in zip(blocks, factors, bounds, bounds[1:]):
                complex_from_normals(buf[:n, a:b].reshape(n, 2, rows, cols), var, out=blk[:n])
            y = blocks[0][:n] if stats.model_kind == "double" else None
            for x, (assemble, terms) in zip(blocks[len(blocks) - len(users):], per_user):
                h = assemble(x[:n], y)
                for i, z, P in terms:
                    samples[lo:lo + n, i] = _mi_batch(z, h, P)

    run_shares(share, workers)

    # moments of the deviations from trial 0: a column whose samples are all
    # equal gets its exact value and exactly zero (co)variance
    dev = samples - samples[0]
    offset = dev.mean(axis=0)
    dev -= offset
    cov = dev.T @ dev / (n_trials - 1) if n_trials > 1 else np.zeros((len(descriptors),) * 2)
    cov = 0.5 * (cov + cov.T)
    secrecy = (samples - floors) @ np.asarray(combiner) if combiner is not None else None
    return McRun(n_trials=n_trials, mi_mean=samples[0] + offset, mi_cov=cov, secrecy=secrecy,
                 mi_samples=samples)
