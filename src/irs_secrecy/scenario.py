"""Deterministic model objects and channel sampling.

Builds everything that defines one statistical channel state: antenna
correlation matrices from a truncated-Gaussian angular power spectrum, the
deterministic line-of-sight link between the transmitter and the reflecting
surface, distance-based path gains, the surface phase shifts, and the
random channel realizations used by the Monte-Carlo oracle.

Two channel factorizations are supported:

- ``lbi``: a deterministic (line-of-sight) transmitter-to-surface link, so the
  end-to-end channel is a single correlated Rayleigh hop
  ``H_k = R_k^{1/2} X_k T_{S,k}^{1/2} Theta H_0 T^{1/2}``.
- ``double``: two correlated Rayleigh hops sharing the middle matrix ``Y``,
  ``H_k = R_k^{1/2} X_k S_k^{+/2} Y T^{1/2}`` with
  ``S_k^{+/2} = T_{S,k}^{1/2} Theta R_S^{1/2}``.

Every receiver k, the legitimate one ('B') and each eavesdropper ('E1',
'E2', ...), has the same three things: a receive correlation R_k, a
surface-side correlation T_{S,k} and a noise power sigma_k^2. One record per
receiver carries them from the scenario file to the statistics:
``ScenarioConfig.receivers`` holds each receiver's correlation specs and path
gain, ``build_channel_statistics`` takes one ``(R, T_S, sigma2)`` per
receiver, and a ``Receiver`` holds the result, which
``ChannelStatistics.receiver(tag)`` looks up.

Entries of ``X_k`` are CN(0, 1/L) and entries of ``Y`` are CN(0, 1/M); these
sampling conventions are load-bearing for every closed form downstream.
All angles in configuration are degrees; all internal math is radians.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ModelError

HERMITIAN_TOL = 1e-12
PSD_CLIP_TOL = 1e-10


# ---------------------------------------------------------------------------
# correlation matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSpec:
    """Angular spectrum of a uniform linear array.

    d_r: antenna spacing in wavelengths (> 0).
    eta: mean angle of arrival/departure in degrees, in [-180, 180].
    delta: angular spread (standard deviation) in degrees, in (0, 360].
    n: number of array elements (>= 1).

    A violated rule is a ModelError whose message starts with the field name.
    """

    d_r: float
    eta: float
    delta: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ModelError(f"n: expected a correlation dimension >= 1, got {self.n!r}")
        for name in ("d_r", "eta", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(f"{name}: expected a finite number, "
                                 f"got {getattr(self, name)!r}")
        if self.d_r <= 0:
            raise ModelError(f"d_r: expected a positive antenna spacing, got {self.d_r!r}")
        if abs(self.eta) > 180.0:
            raise ModelError(f"eta: expected an angle between -180 and 180 degrees, "
                             f"got {self.eta!r}")
        if not 0.0 < self.delta <= 360.0:
            raise ModelError(f"delta: expected a spread above 0 and at most 360 degrees, "
                             f"got {self.delta!r}")


# Trapezoid steps in degrees, coarsest first; each divides 360.
QUADRATURE_STEPS = (0.25, 0.1, 0.05, 0.02, 0.01)
QUADRATURE_SAFETY = 1.25
_GAUSS_BANDWIDTH = math.sqrt(2.0 * math.log(1e17))
# Half-width of the quadrature window around eta, in units of delta: past it
# the density is below 1e-18 of its peak.
_WINDOW = math.sqrt(2.0 * math.log(1e18))
# Distance from eta to the nearest end of [-180, 180], in units of delta,
# below which the density there exceeds 1e-16 of its peak.
_KINK_DISTANCE = math.sqrt(2.0 * math.log(1e16))


def _quadrature_terms(spec: CorrelationSpec) -> tuple:
    """Bandwidth of the correlation integrand in cycles per period, as its
    two terms (array phase, Gaussian density).

    The phase exp(j 2 pi d_r k sin phi) has Fourier content up to
    2 pi d_r k cycles for offsets k <= n - 1; the density's coefficients
    fall below 1e-17 past sqrt(2 ln 1e17) / delta cycles (delta in radians).
    """
    return (2.0 * math.pi * spec.d_r * (spec.n - 1),
            _GAUSS_BANDWIDTH * 180.0 / (math.pi * spec.delta))


def _kinked(spec: CorrelationSpec) -> bool:
    """Whether the density at +-180 degrees exceeds 1e-16 of its peak."""
    return 180.0 - abs(spec.eta) < _KINK_DISTANCE * spec.delta


def quadrature_step(spec: CorrelationSpec) -> Optional[float]:
    """Trapezoid step in degrees that ``build_correlation_matrix`` uses for
    ``spec``, or None when even the finest step cannot resolve it."""
    needed = QUADRATURE_SAFETY * sum(_quadrature_terms(spec))
    fits = [h for h in QUADRATURE_STEPS if 360.0 / h >= needed]
    if not fits:
        return None
    if _kinked(spec):
        return QUADRATURE_STEPS[-1]
    return fits[0]


def build_correlation_matrix(spec: CorrelationSpec) -> np.ndarray:
    """Correlation matrix of a uniform linear array under a truncated-Gaussian
    angular density.

    Entry (m, n) is the trapezoid quadrature over phi in [-180, 180] degrees of

        (1 / sqrt(2 pi delta^2)) *
        exp(j 2 pi d_r (m - n) sin(pi phi / 180) - (phi - eta)^2 / (2 delta^2)).

    Step rule (``quadrature_step``): the trapezoid rule converges
    exponentially on a smooth periodic integrand once its 360 / h nodes
    exceed the integrand's bandwidth, 2 pi d_r (n - 1) + sqrt(2 ln 1e17) /
    delta cycles (delta in radians), so the step is the coarsest of
    ``QUADRATURE_STEPS`` with 360 / h >= QUADRATURE_SAFETY times that.
    The rule runs only on the grid's nodes within eta +- sqrt(2 ln 1e18)
    delta, clipped to [-180, 180]: past that window the integrand is below
    1e-18 of its peak, so the rule keeps its exponential accuracy
    (Trefethen & Weideman, SIAM Rev. 56, 2014) on a fraction of the circle.
    Fallback: where the density at +-180 degrees exceeds 1e-16 of its peak,
    the periodic extension has a kink and the rule converges only as O(h^2),
    so the finest step, 0.01 degrees, is used over the full circle. A spec
    that even 0.01 degrees cannot resolve is a ModelError.

    The matrix depends on (m - n) only, so a single pass over the 2n-1 offsets
    fills a Hermitian Toeplitz matrix. The result is symmetrized exactly.
    """
    step = quadrature_step(spec)
    if step is None:
        raise ModelError(f"{spec} needs a quadrature step finer than "
                         f"{QUADRATURE_STEPS[-1]:g} degrees")
    last = round(360.0 / step)
    lo, hi = 0, last
    if not _kinked(spec):
        half = _WINDOW * spec.delta
        lo = max(lo, math.ceil((spec.eta - half + 180.0) / step))
        hi = min(hi, math.floor((spec.eta + half + 180.0) / step))
    i = np.arange(lo, hi + 1)
    # node i of np.arange(-180, 180 + step / 2, step), built for i in the window only
    phi = -180.0 + i * ((-180.0 + step) + 180.0)
    # trapezoid weights: half at the ends of [-180, 180]
    w = np.where((i == 0) | (i == last), 0.5 * step, step)
    density = np.exp(-((phi - spec.eta) ** 2) / (2.0 * spec.delta**2))
    density /= math.sqrt(2.0 * math.pi * spec.delta**2)
    weighted = density * w

    offsets = np.arange(spec.n)
    # (n, n_phi) phase table for the non-negative offsets; negatives conjugate
    phase = np.exp(1j * 2.0 * math.pi * spec.d_r * np.outer(offsets, np.sin(np.pi * phi / 180.0)))
    col = phase @ weighted  # entry for offset m - n = +k

    idx = np.subtract.outer(offsets, offsets)  # m - n
    mat = np.where(idx >= 0, col[np.abs(idx)], np.conj(col[np.abs(idx)]))
    return 0.5 * (mat + mat.conj().T)


# ---------------------------------------------------------------------------
# deterministic link, path loss, phases
# ---------------------------------------------------------------------------

def build_los_channel(M: int, L: int) -> np.ndarray:
    """Deterministic unit-modulus L x M line-of-sight link matrix.

    Built from two fixed uniform angle grids, theta1(l) = pi (l-1) / L over
    [0, pi) and phi2(m) = 2 pi (m-1) / M over [0, 2 pi):

        [H0]_{l,m} = exp{ j 2 pi [ (l-1) sin(phi2(m)) + (m-1) sin(theta1(l)) ] }

    with antenna and element spacings of one wavelength. Coupling each row
    index with the column grid (and vice versa) makes the matrix numerically
    full rank; a plain outer sum of per-row and per-column phases would be
    rank one.
    """
    if M < 1 or L < 1:
        raise ModelError(f"dimensions must be >= 1, got M={M}, L={L}")
    ls = np.arange(L)
    ms = np.arange(M)
    theta1 = math.pi * ls / L
    phi2 = 2.0 * math.pi * ms / M
    phase = np.outer(ls, np.sin(phi2)) + np.outer(np.sin(theta1), ms)
    return np.exp(1j * 2.0 * math.pi * phase)


def path_loss(c_ref: float, d: float, alpha: float) -> float:
    """Distance-based power gain ``c_ref / d**alpha``.

    c_ref is the linear reference gain at 1 m and d is in meters (> 0).
    """
    if d <= 0:
        raise ModelError(f"distance must be positive, got {d}")
    return c_ref / d**alpha


def psd_eig(mat: np.ndarray, name: str = "matrix") -> tuple:
    """Eigenvalues (clipped at zero) and eigenvectors of the Hermitian part
    of a square PSD matrix.

    An eigenvalue below ``-PSD_CLIP_TOL * max(1, spectral norm)`` means the
    input is not PSD and raises instead of being silently repaired.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ModelError(f"{name} must be square, got shape {mat.shape}")
    lam, u = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    if lam.size and lam[0] < -PSD_CLIP_TOL * max(abs(lam[-1]), 1.0):
        raise ModelError(f"{name} is not PSD (min eigenvalue {lam[0]:.3e})")
    return np.clip(lam, 0.0, None), u


def psd_root(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Thin factor F of a PSD matrix, mat = F F^H, with one column per
    positive eigenvalue (see ``psd_eig``); n x 0 for a zero matrix."""
    mat = np.asarray(mat)
    if not mat.any():
        return np.zeros((mat.shape[0], 0), dtype=complex)
    lam, u = psd_eig(mat, name)
    keep = lam > 0.0
    return u[:, keep] * np.sqrt(lam[keep])


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition X = vecs diag(lam) vecs^H of an n x n PSD matrix:
    ``vecs`` has r <= n orthonormal columns, and X has the eigenvalues
    ``lam`` and n - r implicit zeros."""

    lam: np.ndarray
    vecs: np.ndarray

    @classmethod
    def of_factor(cls, factor: np.ndarray) -> "Spectrum":
        """Spectrum of factor factor^H, from one thin SVD of the n x k
        factor: lam are its squared singular values and vecs its min(n, k)
        left singular vectors. No Gram is formed, so the small eigenvalues
        keep the factor's relative accuracy, not its square's."""
        u, s, _ = np.linalg.svd(factor, full_matrices=False)
        return cls(s * s, u)

    def resolvent(self, a: float, b: float) -> np.ndarray:
        """(a I + b X)^{-1}, for a > 0 and b >= 0."""
        n, r = self.vecs.shape
        if r == n:
            return (self.vecs / (a + b * self.lam)) @ self.vecs.conj().T
        low_rank = (self.vecs * (b * self.lam / (a + b * self.lam))) @ self.vecs.conj().T
        return (np.eye(n) - low_rank) / a

    def resolvent_root(self, a: float, b: float) -> np.ndarray:
        """H with H H^H = X (a I + b X)^{-1}, one column per eigenvalue;
        the product is formed without the cancellation of X times the
        resolvent."""
        return self.vecs * np.sqrt(self.lam / (a + b * self.lam))

    def logdet(self, a: float, b: float) -> float:
        """log det(a I + b X), for a > 0 and b >= 0."""
        return float(np.log1p((b / a) * self.lam).sum()) + self.vecs.shape[0] * math.log(a)


# ---------------------------------------------------------------------------
# channel statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Receiver:
    """One receiver's side of its channel: the spectrum ``r`` of the receive
    correlation R_k, with the path gain folded in, the surface-side
    correlation ``ts`` = T_{S,k}, the Hermitian square roots ``r_sqrt`` of
    R_k and ``ts_sqrt`` of T_{S,k}, and the noise power ``sigma2``."""

    r: Spectrum
    r_sqrt: np.ndarray = field(repr=False)
    ts: np.ndarray = field(repr=False)
    ts_sqrt: np.ndarray = field(repr=False)
    sigma2: float

    @property
    def n(self) -> int:
        """Number of receive antennas."""
        return self.r.vecs.shape[0]


@dataclass(frozen=True)
class ChannelStatistics:
    """All deterministic matrices defining one statistical channel state.

    ``receivers`` holds one ``Receiver`` per tag in ``users()`` order: 'B',
    then 'E1', 'E2', ...; the legitimate receiver and the eavesdroppers are
    alike. The surface-scattering correlation R_S is kept only as its
    square root ``R_S_sqrt``, which is None for the ``lbi`` model (that link
    is deterministic). Square roots of the theta-independent matrices are
    precomputed; everything that depends on ``theta`` is assembled on
    demand.
    """

    model_kind: str  # "lbi" | "double"
    receivers: dict
    T: np.ndarray
    H_T0: np.ndarray
    theta: np.ndarray
    T_sqrt: np.ndarray = field(default=None, repr=False)
    R_S_sqrt: Optional[np.ndarray] = field(default=None, repr=False)

    # -- dimensions and receivers --------------------------------------------

    @property
    def M(self) -> int:
        return self.T.shape[0]

    @property
    def L(self) -> int:
        return self.H_T0.shape[0]

    @property
    def K_eves(self) -> int:
        return len(self.receivers) - 1

    def users(self) -> list:
        return list(self.receivers)

    def receiver(self, tag: str) -> Receiver:
        try:
            return self.receivers[tag]
        except KeyError:
            raise ModelError(f"unknown user tag {tag!r}; expected 'B' or "
                             f"'E1'..'E{self.K_eves}'") from None

    # -- theta-dependent assemblies ------------------------------------------

    def with_theta(self, theta: np.ndarray) -> "ChannelStatistics":
        return replace(self, theta=_checked_theta(theta, self.L))

    def lbi_aperture(self, user: str) -> np.ndarray:
        """Deterministic L x M factor ``T_{S,k}^{1/2} Theta H_0 T^{1/2}`` of
        the lbi channel. Only valid for model_kind == 'lbi'."""
        if self.model_kind != "lbi":
            raise ModelError("lbi_aperture is only defined for the lbi model")
        phases = np.exp(1j * self.theta)
        return self.receiver(user).ts_sqrt @ (phases[:, None] * self.H_T0) @ self.T_sqrt

    def ds_plus_half(self, user: str) -> np.ndarray:
        """Half factor ``S_k^{+/2} = T_{S,k}^{1/2} Theta R_S^{1/2}`` (L x L)
        of the surface Gram ``S_k = (S_k^{+/2})^H S_k^{+/2}``."""
        if self.model_kind != "double":
            raise ModelError("ds_plus_half is only defined for the double model")
        phases = np.exp(1j * self.theta)
        return self.receiver(user).ts_sqrt @ (phases[:, None] * self.R_S_sqrt)


def _checked_theta(theta, L: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (L,):
        raise ModelError(f"theta must have shape ({L},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ModelError("theta has a non-finite entry")
    return theta


def _checked_corr(name: str, mat, n: Optional[int] = None) -> tuple:
    """``(mat, root, (lam, vecs))`` of a correlation matrix that is finite,
    square and PSD (see ``psd_eig``), Hermitian to ``HERMITIAN_TOL`` and,
    when ``n`` is given, n x n; ``mat`` as complex, ``root`` its Hermitian
    square root. Anything else is a ModelError naming the matrix."""
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise ModelError(f"{name} has a non-finite entry")
    lam, u = psd_eig(mat, name)
    if np.max(np.abs(mat - mat.conj().T)) >= HERMITIAN_TOL:
        raise ModelError(f"{name} is not Hermitian to {HERMITIAN_TOL:g}")
    if n is not None and mat.shape != (n, n):
        raise ModelError(f"{name} must be {n}x{n}, got {mat.shape}")
    return np.asarray(mat, dtype=complex), (u * np.sqrt(lam)) @ u.conj().T, (lam, u)


def build_channel_statistics(
    model_kind: str,
    receivers: Sequence[tuple],
    T: np.ndarray,
    H_T0: np.ndarray,
    theta: np.ndarray,
    R_S: Optional[np.ndarray] = None,
) -> ChannelStatistics:
    """Validate inputs, precompute square roots and freeze the statistics.

    ``receivers`` gives one ``(R, T_S, sigma2)`` per receiver, the
    legitimate one 'B' first, then the eavesdroppers E1, E2, ...: its receive
    correlation (path gain folded in), its surface-side correlation and its
    noise power. Every correlation matrix must be finite, square, PSD (see
    ``psd_eig``), Hermitian to ``HERMITIAN_TOL`` and, except for a receive
    correlation, of its link's dimension; every noise power finite and
    positive. A violation is a ModelError naming the matrix (``R_E2``,
    ``T_S_B``, ...) or the receiver, and so is a ``model_kind`` other than
    'lbi' or 'double', a double model without ``R_S`` or a list of fewer
    than two receivers.
    """
    if model_kind not in ("lbi", "double"):
        raise ModelError(f"model_kind must be 'lbi' or 'double', got {model_kind!r}")
    if model_kind == "double" and R_S is None:
        raise ModelError("the double-scattering model requires R_S")
    if len(receivers) < 2:
        raise ModelError("at least one eavesdropper is required")

    L, M = H_T0.shape
    if not np.allclose(np.abs(H_T0), 1.0, atol=1e-9):
        raise ModelError("line-of-sight matrix entries must be unit modulus")
    theta = _checked_theta(theta, L)

    records = {}
    for i, (R, T_S, sigma2) in enumerate(receivers):
        tag = f"E{i}" if i else "B"
        _, r_sqrt, (lam, u) = _checked_corr(f"R_{tag}", R)
        T_S, ts_sqrt, _ = _checked_corr(f"T_S_{tag}", T_S, L)
        if not 0.0 < sigma2 < math.inf:
            raise ModelError(f"noise powers must be positive and finite, got "
                             f"{sigma2!r} for {tag}")
        records[tag] = Receiver(Spectrum(lam, u), r_sqrt, T_S, ts_sqrt, float(sigma2))
    T, T_sqrt, _ = _checked_corr("T", T, M)
    R_S_sqrt = _checked_corr("R_S", R_S, L)[1] if R_S is not None else None
    return ChannelStatistics(model_kind=model_kind, receivers=records, T=T,
                             H_T0=np.asarray(H_T0, dtype=complex), theta=theta,
                             T_sqrt=T_sqrt, R_S_sqrt=R_S_sqrt)


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def complex_from_normals(normals: np.ndarray, var: float,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries of variance ``var`` from
    a ``(..., 2, rows, cols)`` block of standard normals: the real parts at
    index 0 of the length-2 axis, the imaginary parts at index 1, each scaled
    to carry var/2. Elementwise, so any batch of blocks gives the same
    entries as one block at a time. The entries are written into ``out``
    (a complex ``(..., rows, cols)`` array) when one is given."""
    if out is None:
        out = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    scale = math.sqrt(var / 2.0)
    np.multiply(normals[..., 0, :, :], scale, out=out.real)
    np.multiply(normals[..., 1, :, :], scale, out=out.imag)
    return out


def channel_assembler(stats: ChannelStatistics, user: str) -> Callable:
    """``(X, Y) -> H``: ``user``'s end-to-end channel from the Gaussian
    factors, per the model kind, with the deterministic factors built once.

    X and Y may also be stacks (n, N, L) and (n, L, M): the products
    broadcast, in the same left-to-right order, to an (n, N, M) stack.
    """
    r_sqrt = stats.receiver(user).r_sqrt
    if stats.model_kind == "lbi":
        aperture = stats.lbi_aperture(user)
        return lambda X, Y: r_sqrt @ X @ aperture
    plus_half = stats.ds_plus_half(user)

    def assemble(X: np.ndarray, Y: Optional[np.ndarray]) -> np.ndarray:
        if Y is None:
            raise ModelError("the double-scattering model needs the shared Y factor")
        return r_sqrt @ X @ plus_half @ Y @ stats.T_sqrt

    return assemble


def trial_streams(seed: int):
    """``trial -> Generator``: the counter-based stream of one trial, a
    ``np.random.Generator`` over a Philox bit generator with key
    [seed, trial] (uint64), counter 0 and an empty buffer, the state of
    ``Generator(Philox(key=[seed, trial]))``. Each call re-keys one Philox
    and returns the same generator, ending the previous call's stream. This
    skips the OS-entropy read of a fresh ``Philox(key=...)``."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh Philox's: counter 0, empty buffer
    state["state"]["key"] = np.array([seed, 0], dtype=np.uint64)

    def at(trial: int) -> np.random.Generator:
        state["state"]["key"][1] = trial
        bitgen.state = state  # copies the values in
        return rng

    return at


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


DEFAULT_SWEEP_P_DBM = (30.0, 50.0)
DBM_LIMIT = 300.0


@dataclass(frozen=True)
class ReceiverConfig:
    """One receiver's part of a scenario file: ``n`` receive antennas, the
    specs of its receive and surface-side correlations ``R`` and ``T_S``
    (None: identity), and ``gain``, its end-to-end path gain, which
    multiplies R."""

    n: int
    R: Optional[CorrelationSpec]
    T_S: Optional[CorrelationSpec]
    gain: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario configuration (see README for the full
    key reference). ``receivers`` holds one ``ReceiverConfig`` per
    receiver, the legitimate one first, then the eavesdroppers in file
    order; ``T`` and ``R_S`` are the transmit-side and surface-scattering
    specs (None: identity; ``R_S`` is None on the lbi model, which has no
    such link). Model kind, noise and power are exactly the file contents;
    derived linear quantities are exposed as properties. ``an`` is the
    artificial-noise mode (``power.an``, default: on exactly when
    ``split_v > 0``) and ``sweep_P_dbm`` the transmit powers of a sweep
    (``sweep.P_dbm``)."""

    M: int
    L: int
    model_kind: str
    receivers: tuple
    T: Optional[CorrelationSpec]
    R_S: Optional[CorrelationSpec]
    sigma2_dbm: float
    P_dbm: float
    split_w: float
    split_v: float
    an: bool
    theta_init: str
    sweep_P_dbm: tuple
    theta_file: Optional[str] = None

    @property
    def sigma2_watts(self) -> float:
        return dbm_to_watts(self.sigma2_dbm)

    @property
    def p_watts(self) -> float:
        return dbm_to_watts(self.P_dbm)


# Field readers: each returns the typed value or raises a ConfigError that
# names the field, so no malformed input reaches the numerics.

def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required key")
    return section[key]


def _object(value, field: str, keys: tuple) -> dict:
    """An object whose every key is one of ``keys``: a misspelt key is an
    error, not a silently ignored one."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: expected an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{field}.{key}: unknown key")
    return value


def _list(value, field: str, length: Optional[int] = None) -> list:
    if not isinstance(value, list) or not value or (length is not None and len(value) != length):
        raise ConfigError(f"{field}: expected a non-empty list"
                          + ("" if length is None else " of length K_eves"))
    return value


def _real(value, field: str) -> float:
    """A finite JSON number; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return float(value)


def _positive(value, field: str) -> float:
    x = _real(value, field)
    if x <= 0:
        raise ConfigError(f"{field}: expected a positive number, got {value!r}")
    return x


def _dbm(value, field: str) -> float:
    """A power in dBm between -DBM_LIMIT and DBM_LIMIT (1e-33 W to 1e27 W).

    The range holds every physical transmit and noise power with room to
    spare; far beyond it the solver's products overflow.
    """
    x = _real(value, field)
    if not abs(x) <= DBM_LIMIT:
        raise ConfigError(f"{field}: expected a power between {-DBM_LIMIT:g} and "
                          f"{DBM_LIMIT:g} dBm, got {value!r}")
    return x


def _count(value, field: str) -> int:
    """A positive integer; integral floats such as 4.0 are accepted."""
    x = _real(value, field)
    if x < 1 or not x.is_integer():
        raise ConfigError(f"{field}: expected a positive integer, got {value!r}")
    return int(x)


def _corr_entry(entry, n: int, path: str) -> Optional[CorrelationSpec]:
    """Parse one correlation entry: the spec of a gaussian entry, or None
    for the identity (null or ``"kind": "identity"``)."""
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object or null")
    kind = entry.get("kind", "gaussian")
    if kind == "identity":
        _object(entry, path, ("kind",))
        return None
    if kind != "gaussian":
        raise ConfigError(f"{path}.kind: expected 'gaussian' or 'identity', got {kind!r}")
    _object(entry, path, ("kind", "d_r", "eta", "delta"))
    d_r, eta, delta = (_real(_require(entry, name, path), f"{path}.{name}")
                       for name in ("d_r", "eta", "delta"))
    try:
        spec = CorrelationSpec(d_r=d_r, eta=eta, delta=delta, n=n)
    except ModelError as exc:  # its message starts with the field name
        raise ConfigError(f"{path}.{exc}") from exc
    if quadrature_step(spec) is None:
        phase, density = _quadrature_terms(spec)
        field = "d_r" if phase >= density else "delta"
        raise ConfigError(f"{path}.{field}: the angular spectrum needs more than the "
                          f"{360.0 / QUADRATURE_STEPS[-1]:.0f} nodes of the finest "
                          f"({QUADRATURE_STEPS[-1]:g} degree) quadrature grid")
    return spec


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a JSON scenario configuration file. Every failure,
    an unreadable file included, is a ConfigError naming the path or field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(raw)


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate the contents of a scenario file (see ``load_config``)."""
    raw = _object(raw, "config", ("dimensions", "model", "correlations", "pathloss",
                                  "noise", "power", "theta", "sweep"))
    dims = _object(_require(raw, "dimensions", "config"), "dimensions",
                   ("M", "L", "N_B", "N_E", "K_eves"))
    model = _object(_require(raw, "model", "config"), "model", ("kind",))
    corr = _object(_require(raw, "correlations", "config"), "correlations",
                   ("R_B", "T_S_B", "T", "R_E", "T_S_E", "R_S"))
    ploss = _object(_require(raw, "pathloss", "config"), "pathloss",
                    ("C1", "C2", "alpha1", "alpha2", "d_bs_irs", "d_irs_b", "d_irs_e"))
    noise = _object(_require(raw, "noise", "config"), "noise", ("sigma2_dbm",))
    power = _object(_require(raw, "power", "config"), "power",
                    ("P_dbm", "split_w", "split_v", "an"))
    theta = _object(raw.get("theta", {}), "theta", ("init", "file"))
    sweep = _object(raw.get("sweep", {}), "sweep", ("P_dbm",))

    M = _count(_require(dims, "M", "dimensions"), "dimensions.M")
    L = _count(_require(dims, "L", "dimensions"), "dimensions.L")
    N_B = _count(_require(dims, "N_B", "dimensions"), "dimensions.N_B")
    N_E = _require(dims, "N_E", "dimensions")
    K = _count(dims.get("K_eves", len(N_E) if isinstance(N_E, list) else 1),
               "dimensions.K_eves")
    N_E = tuple(_count(n, f"dimensions.N_E[{i}]")
                for i, n in enumerate(_list(N_E, "dimensions.N_E", K)))

    kind = _require(model, "kind", "model")
    if kind not in ("lbi", "double"):
        raise ConfigError(f"model.kind: expected 'lbi' or 'double', got {kind!r}")

    # receive and surface-side specs, the legitimate receiver first
    R = [_corr_entry(corr.get("R_B"), N_B, "correlations.R_B")]
    T_S = [_corr_entry(corr.get("T_S_B"), L, "correlations.T_S_B")]
    T = _corr_entry(corr.get("T"), M, "correlations.T")
    r_e_raw = _list(corr.get("R_E"), "correlations.R_E", K)
    ts_e_raw = _list(corr.get("T_S_E"), "correlations.T_S_E", K)
    R += [_corr_entry(e, n, f"correlations.R_E[{i}]")
          for i, (e, n) in enumerate(zip(r_e_raw, N_E))]
    T_S += [_corr_entry(e, L, f"correlations.T_S_E[{i}]") for i, e in enumerate(ts_e_raw)]
    R_S = _corr_entry(corr.get("R_S"), L, "correlations.R_S")  # validated, and unused, on lbi

    d_irs_e = _list(_require(ploss, "d_irs_e", "pathloss"), "pathloss.d_irs_e", K)

    split_w = _real(power.get("split_w", 1.0), "power.split_w")
    split_v = _real(power.get("split_v", 0.0), "power.split_v")
    if split_w < 0 or split_v < 0 or split_w + split_v > 1.0 + 1e-12:
        raise ConfigError("power: split_w and split_v must be nonnegative with sum <= 1")
    an = power.get("an")
    if an is None:
        an = split_v > 0.0
    elif not isinstance(an, bool):
        raise ConfigError("power.an: expected true or false")

    init = theta.get("init", "zeros")
    if init not in ("zeros", "uniform", "file"):
        raise ConfigError(f"theta.init: expected 'zeros', 'uniform' or 'file', got {init!r}")
    theta_file = theta.get("file")
    if init != "file" and "file" in theta:
        raise ConfigError(f"theta.file: read only with theta.init 'file', got init {init!r}")
    if init == "file" and not (isinstance(theta_file, str) and theta_file):
        raise ConfigError("theta.file: a file path is required when theta.init is 'file'")

    C1, C2 = (_positive(_require(ploss, k, "pathloss"), f"pathloss.{k}") for k in ("C1", "C2"))
    alpha1, alpha2 = (_real(_require(ploss, k, "pathloss"), f"pathloss.{k}")
                      for k in ("alpha1", "alpha2"))
    d_bs_irs = _positive(_require(ploss, "d_bs_irs", "pathloss"), "pathloss.d_bs_irs")
    distances = [("d_irs_b", _require(ploss, "d_irs_b", "pathloss"))] + [
        (f"d_irs_e[{i}]", d) for i, d in enumerate(d_irs_e)]
    distances = [(field, _positive(d, f"pathloss.{field}")) for field, d in distances]
    sigma2_dbm = _dbm(_require(noise, "sigma2_dbm", "noise"), "noise.sigma2_dbm")
    P_dbm = _dbm(_require(power, "P_dbm", "power"), "power.P_dbm")
    sweep_P_dbm = tuple(_dbm(p, f"sweep.P_dbm[{i}]") for i, p in enumerate(
        _list(sweep.get("P_dbm", list(DEFAULT_SWEEP_P_DBM)), "sweep.P_dbm")))

    # end-to-end path gains: the BS-IRS hop gain times each receiver's IRS hop gain
    hop1 = ("C1", "alpha1", "d_bs_irs")
    g_bs_irs = _gain(lambda: path_loss(C1, d_bs_irs, alpha1), *hop1)
    receivers = []
    for n, r, ts, (field, d) in zip((N_B, *N_E), R, T_S, distances):
        g = _gain(lambda: path_loss(C2, d, alpha2), "C2", "alpha2", field)
        gain = _gain(lambda: g_bs_irs * g, *hop1, "C2", "alpha2", field)
        receivers.append(ReceiverConfig(n=n, R=r, T_S=ts, gain=gain))

    return ScenarioConfig(
        M=M, L=L, model_kind=kind, receivers=tuple(receivers), T=T,
        R_S=R_S if kind == "double" else None,
        sigma2_dbm=sigma2_dbm, P_dbm=P_dbm, split_w=split_w, split_v=split_v, an=an,
        theta_init=init, sweep_P_dbm=sweep_P_dbm, theta_file=theta_file)


def _gain(gain: Callable[[], float], *fields) -> float:
    """``gain()`` when it is a finite positive float; otherwise a
    ConfigError naming the pathloss fields it uses (three for a hop gain,
    six for an end-to-end one)."""
    try:
        g = gain()
    except (OverflowError, ZeroDivisionError):
        g = math.nan
    if not 0.0 < g < math.inf:
        kind = "hop" if len(fields) == 3 else "end-to-end"
        raise ConfigError(f"pathloss.{', pathloss.'.join(fields)}: {kind} path gain "
                          "is not a finite positive number")
    return g


@dataclass(frozen=True)
class Scenario:
    """A built experiment: channel statistics plus the power bookkeeping the
    optimizers and the CLI need."""

    stats: ChannelStatistics
    config: ScenarioConfig

    @property
    def p_budget(self) -> float:
        """Total transmit power budget M * P in watts."""
        return self.config.M * self.config.p_watts

    def precoders(self, P_dbm: Optional[float] = None) -> tuple:
        """Uniform covariances (P_W, P_V) = (split_w P I, split_v P I) at the
        configured power P, or at ``P_dbm`` when given; P_V is None when
        artificial noise is off."""
        c = self.config
        p_watts = c.p_watts if P_dbm is None else dbm_to_watts(P_dbm)
        eye = np.eye(c.M, dtype=complex)
        return c.split_w * p_watts * eye, (c.split_v * p_watts * eye if c.an else None)


def build_scenario(config: ScenarioConfig, seed: Optional[int] = None) -> Scenario:
    """Assemble channel statistics from a validated configuration.

    Each receiver's path gain multiplies its receive correlation, and every
    receiver has the configured noise power. ``seed`` feeds the 'uniform'
    theta init only. Each distinct correlation spec is built once; entries
    with equal specs share one array, which nothing downstream writes to.
    """
    built = {}

    def built_corr(spec: Optional[CorrelationSpec], n: int) -> np.ndarray:
        if spec is None:
            return np.eye(n, dtype=complex)
        if spec not in built:
            built[spec] = build_correlation_matrix(spec)
        return built[spec]

    if config.theta_init == "zeros":
        theta = np.zeros(config.L)
    elif config.theta_init == "uniform":
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * math.pi, config.L)
    else:
        try:
            with open(config.theta_file, "r", encoding="utf-8") as fh:
                theta = np.asarray(json.load(fh), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"theta.file: cannot read phases from "
                              f"{config.theta_file} ({exc})") from exc
        if theta.shape != (config.L,) or not np.all(np.isfinite(theta)):
            raise ConfigError(f"theta.file: expected {config.L} finite phases, "
                              f"got shape {theta.shape}")

    receivers = [(rx.gain * built_corr(rx.R, rx.n), built_corr(rx.T_S, config.L),
                  config.sigma2_watts) for rx in config.receivers]
    stats = build_channel_statistics(
        config.model_kind, receivers, built_corr(config.T, config.M),
        build_los_channel(config.M, config.L), theta,
        built_corr(config.R_S, config.L) if config.model_kind == "double" else None)
    return Scenario(stats=stats, config=config)
