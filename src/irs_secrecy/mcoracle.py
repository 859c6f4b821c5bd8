"""Ground-truth Monte-Carlo engine.

Samples channel realizations with the exact shared-factor semantics of the
joint analyses (one middle matrix Y per trial for the double model, one
user-side factor X per user), computes exact per-trial mutual informations,
and aggregates streaming moments plus per-trial secrecy rates.

Trials run in chunks of ``CHUNK``, and a chunk runs in blocks of as many
trials as fit ``BLOCK_BYTES`` of complex factor entries (at least one), so a
chunk's memory is a block's, not the chunk's. Trial t makes one
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

The chunks run on ``pool_size`` workers: ``IRS_SECRECY_THREADS`` if set,
else one worker below ``POOL_TRIAL_BYTES`` of factors per trial and the
available cores from there (see ``thread_budget``).

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
from .scenario import (ChannelStatistics, channel_assembler, complex_from_normals,
                       trial_streams)

CHUNK = 512
# complex factor entries held per block of trials inside a chunk: the
# chunk's memory stays at a block's factors and channels, whatever CHUNK is
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


def _trial_bytes(factors: list) -> int:
    """Bytes of one trial's complex factors (see ``_factor_layout``)."""
    return sum(rows * cols for rows, cols, _ in factors) * np.dtype(complex).itemsize


def _factor_layout(stats: ChannelStatistics, descriptors: Sequence[MiDescriptor]) -> tuple:
    """``(users, factors)``: the users in order of first appearance, and
    (rows, cols, variance) of each complex factor a trial draws, in the
    documented draw order: Y (double model), then one X per user."""
    users = list(dict.fromkeys(d.user for d in descriptors))
    factors = [(stats.L, stats.M, 1.0 / stats.M)] if stats.model_kind == "double" else []
    factors += [(stats.receiver(u).n, stats.L, 1.0 / stats.L) for u in users]
    return users, factors


def _chunk_mis(
    stats: ChannelStatistics,
    descriptors: Sequence[MiDescriptor],
    precoders: dict,
    layout: tuple,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Per-trial MI matrix (count, K) for trials [start, start+count),
    computed block by block (see the module docstring): only one block's
    normals, complex factors and channels are held at a time. ``layout`` is
    ``_factor_layout(stats, descriptors)``."""
    users, factors = layout
    bounds = list(itertools.accumulate((2 * rows * cols for rows, cols, _ in factors),
                                       initial=0))
    block = max(1, min(count, BLOCK_BYTES // _trial_bytes(factors)))
    # one generator and set of buffers per chunk (chunks may run on pool
    # threads), so threads share nothing
    buf = np.empty((block, bounds[-1]))
    blocks = [np.empty((block, rows, cols), dtype=complex) for rows, cols, _ in factors]
    x_blocks = blocks[len(blocks) - len(users):]
    per_user = [(channel_assembler(stats, u),
                 [(i, stats.receiver(u).sigma2, precoders[d.precoder])
                  for i, d in enumerate(descriptors) if d.user == u]) for u in users]
    stream = trial_streams(seed)
    out = np.empty((count, len(descriptors)))
    for lo in range(0, count, block):
        n = min(block, count - lo)
        for i in range(n):
            # one call of size a + b gives the normals of calls of size a, b
            stream(start + lo + i).standard_normal(out=buf[i])
        for blk, (rows, cols, var), a, b in zip(blocks, factors, bounds, bounds[1:]):
            complex_from_normals(buf[:n, a:b].reshape(n, 2, rows, cols), var, out=blk[:n])
        y = blocks[0][:n] if stats.model_kind == "double" else None
        for x, (assemble, terms) in zip(x_blocks, per_user):
            h = assemble(x[:n], y)
            for i, z, P in terms:
                out[lo:lo + n, i] = _mi_batch(z, h, P)
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
    receivers = [stats.receiver(d.user) for d in descriptors]
    floors = np.array([rx.n * math.log(rx.sigma2) for rx in receivers])
    layout = _factor_layout(stats, descriptors)
    starts = list(range(0, n_trials, CHUNK))
    sizes = [min(CHUNK, n_trials - s) for s in starts]
    parts: list = [None] * len(starts)
    # below POOL_TRIAL_BYTES a trial's Python work, which holds the
    # interpreter lock, outweighs its lock-free LAPACK/BLAS work
    workers = pool_size(len(starts), None if _trial_bytes(layout[1]) >= POOL_TRIAL_BYTES else 1)

    def share(w: int) -> None:
        for i in range(w, len(starts), workers):
            parts[i] = _chunk_mis(stats, descriptors, precoders, layout, seed, starts[i],
                                  sizes[i])

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

