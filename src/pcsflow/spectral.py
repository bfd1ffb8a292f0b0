"""Fourier representation of 2*pi/lam-periodic real curvature profiles.

Profiles are stored as a half spectrum: complex coefficients c[n] for
0 <= n <= n_max with c[-n] = conj(c[n]) implied and c[0] real, so that

    k(theta) = c[0] + 2 * sum_{n>=1} Re(c[n] * exp(i*lam*n*theta)).

The half spectrum maps directly onto numpy's rfft layout, which makes the
grid <-> spectrum round trip exact for band-limited fields and prevents the
realness constraint from drifting.  Every transform uses norm="forward" (the
synthesis is the plain sum of the modes) and every grid length comes from
``fft_size``, a power of two: on those lengths constant data is exact in both
directions, and the grids nest.  Grid samples are plain arrays, and each
profile quantity has one function on bare half spectra c[..., 0..n_max]
(one spectrum or a stack of rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.fft import irfft, rfft

from .errors import GridTooSmallError

# FlowParams' bounds, checked before any array is allocated: n_max (32 times
# the 2,048 of the largest measured run), the dealiasing grid (pad_size; that
# of p = 1 at MAX_N_MAX) and lam * n_max (lam^2 n^2 and every rate finite).
MAX_N_MAX, MAX_PAD, MAX_LAM_N = 65_536, 2**19, 1e150

__all__ = [
    "FlowParams",
    "SpectralState",
    "half_spectra",
    "lambda_threshold",
    "fft_size",
    "default_grid_size",
    "pad_size",
    "synthesize",
    "analyze_grid",
    "coeff_seminorm",
    "coeff_sup_deviation",
    "coeff_cl_bound",
    "grid_derivative_sup",
]


def lambda_threshold(p: int) -> float:
    """Smallest admissible frequency scale, sqrt((p+2)/p)."""
    return math.sqrt((p + 2) / p)


def parse_lambda(text: str) -> tuple[float, tuple[int, int]]:
    """Parse a rational frequency scale written as 'n/m' (coprime reduced)."""
    try:
        frac = Fraction(text.strip())
        lam = frac.numerator / frac.denominator
    except ZeroDivisionError:
        raise ValueError(f"frequency scale has a zero denominator: {text!r}") from None
    except OverflowError:
        raise ValueError(f"frequency scale is out of range: {text!r}") from None
    if lam <= 0:
        raise ValueError(f"frequency scale must be positive, got {text!r}")
    return lam, (frac.numerator, frac.denominator)


@dataclass(frozen=True)
class FlowParams:
    """Flow exponent p, frequency scale lam, and spectral truncation n_max.

    ``rational = (n, m)`` optionally tags lam as the reduced fraction n/m,
    which is required whenever a plane curve is attached to the profile
    (m is the winding number of the underlying curve).
    """

    p: int
    lam: float
    n_max: int
    rational: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("p", "n_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_max > MAX_N_MAX:
            raise ValueError(f"n_max must be at most {MAX_N_MAX}, got {self.n_max}")
        if (pad := pad_size(self)) > MAX_PAD:
            raise ValueError(f"dealiasing grid must be at most {MAX_PAD}, got {pad} at p={self.p}, n_max={self.n_max}")
        lam = self.lam
        if lam is None:
            raise ValueError("lam is required")
        if self.rational is not None:
            n, m = self.rational
            if not (isinstance(n, int) and isinstance(m, int) and n > 0 and m > 0):
                raise ValueError(f"rational tag must be positive integers, got {self.rational!r}")
            if math.gcd(n, m) != 1:
                raise ValueError(f"rational tag {n}/{m} is not reduced")
            if abs(lam - n / m) > 1e-12 * max(1.0, abs(lam)):
                raise ValueError(f"lam={lam} does not match rational tag {n}/{m}")
        if not (lam > lambda_threshold(self.p)):
            raise ValueError(
                f"lam={lam} must exceed sqrt((p+2)/p)={lambda_threshold(self.p):.6f} for p={self.p}"
            )
        if not lam * self.n_max <= MAX_LAM_N:  # inf too
            raise ValueError(f"lam*n_max must be at most {MAX_LAM_N:g}, got lam={lam}, n_max={self.n_max}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.lam

    @property
    def winding(self) -> int | None:
        """Winding number m when lam carries a rational tag."""
        return None if self.rational is None else self.rational[1]


@dataclass(frozen=True)
class SpectralState:
    """Half-spectrum snapshot of the profile at simulation time t.

    ``coeffs[n]`` is c[n] for 0 <= n <= n_max; negative modes are implied by
    conjugate symmetry and never stored.  c[0] is forced real on construction
    (``half_spectra``).
    """

    params: FlowParams
    t: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", half_spectra(self.coeffs, (self.params.n_max + 1,)))
        object.__setattr__(self, "t", float(self.t))

    @property
    def mean(self) -> float:
        """The profile average, c[0]."""
        return float(self.coeffs[0].real)

    def with_coeffs(self, coeffs: np.ndarray, t: float | None = None) -> "SpectralState":
        return SpectralState(self.params, self.t if t is None else t, coeffs)

    def scaled(self, factor: float) -> "SpectralState":
        return SpectralState(self.params, self.t, self.coeffs * factor)


def half_spectra(coeffs, shape: tuple) -> np.ndarray:
    """A read-only complex128 copy of one half spectrum or a stack of them,
    of the given shape, with each c[0] forced real: a c[0] whose imaginary
    part exceeds 1e-12 of its row's largest modulus raises ``ValueError``."""
    c = np.array(coeffs, dtype=np.complex128)
    if c.shape != shape:
        raise ValueError(f"coeffs must have shape {shape}, got {c.shape}")
    c0 = c[..., 0]
    if c0.imag.any():  # a zero imaginary part passes against any scale
        bad = np.abs(c0.imag) > 1e-12 * np.maximum(np.max(np.abs(c), axis=-1), 1e-300)
        if bad.any():
            raise ValueError(f"zero mode must be real, got imaginary part {c0.imag[bad].flat[0]!r}")
    c[..., 0] = c0.real
    c.setflags(write=False)
    return c


def fft_size(target: int) -> int:
    """Every grid length: the smallest power of two >= target."""
    return 1 << (int(target) - 1).bit_length()


def default_grid_size(params: FlowParams) -> int:
    """Analysis grid size: fft_size(4*n_max), at least 2*n_max + 1 points."""
    return fft_size(4 * params.n_max)


def pad_size(params) -> int:
    """Dealiasing grid size: fft_size((p+3)*n_max + 1), at least 16 points."""
    return fft_size(max(16, (params.p + 3) * params.n_max + 1))


def _require_grid(m: int, n_max: int, failure: str):
    if m < 2 * n_max + 1:
        raise GridTooSmallError(f"grid of {m} points {failure} modes up to {n_max}; need >= {2 * n_max + 1}")


def synthesize(state: SpectralState, grid_points: int | None = None) -> np.ndarray:
    """Samples of the profile on the uniform theta-grid of the stated size over
    one period [0, 2*pi/lam).

    Requires grid_points >= 2*n_max + 1 so no band content is lost.
    """
    m = default_grid_size(state.params) if grid_points is None else int(grid_points)
    _require_grid(m, state.params.n_max, "cannot resolve")
    return irfft(state.coeffs, n=m, norm="forward")


def analyze_grid(params: FlowParams, values: np.ndarray) -> SpectralState:
    """Coefficients at t = 0 of the trigonometric interpolant of real samples
    on the uniform theta-grid over one period, truncated to the band."""
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    _require_grid(m, params.n_max, "underdetermines")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid samples contain non-finite values")
    spec = rfft(values, norm="forward")
    return SpectralState(params, 0.0, spec[: params.n_max + 1])


def coeff_seminorm(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """max over nonzero band modes of n^beta * max(|Re c[n]|, |Im c[n]|) of bare
    half spectra c[..., 0..n_max], reduced over the last axis: a scalar for one
    spectrum, one value per row of a stack."""
    c = coeffs[..., 1:]
    n = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    weighted = n**beta * np.maximum(np.abs(c.real), np.abs(c.imag))
    return np.max(weighted, axis=-1, initial=0.0)


def coeff_sup_deviation(coeffs: np.ndarray, grid_points: int) -> np.ndarray:
    """Sup deviation from the mean, max |k - c[0]| on a grid of at least
    2*n_max + 1 points, of bare half spectra c[..., 0..n_max]."""
    _require_grid(grid_points, coeffs.shape[-1] - 1, "cannot resolve")
    return np.max(np.abs(irfft(coeffs, n=grid_points, norm="forward") - coeffs[..., :1].real), axis=-1)


def coeff_cl_bound(coeffs: np.ndarray, lam: float, l: int) -> np.ndarray:
    """Coefficient bound 2*sum (lam*n)^l |c[n]| on the C^l size of k - mean(k),
    of bare half spectra c[..., 0..n_max]."""
    if l < 0:
        raise ValueError("derivative order must be nonnegative")
    c = coeffs[..., 1:]
    n = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    return 2.0 * np.sum((lam * n) ** l * np.abs(c), axis=-1)


def grid_derivative_sup(state: SpectralState, l: int, grid_points: int | None = None) -> float:
    """Grid-sampled sup of the l-th derivative of k - mean(k) (cross-check value)."""
    if l < 0:
        raise ValueError("derivative order must be nonnegative")
    n = np.arange(state.params.n_max + 1, dtype=np.float64)
    dcoeffs = state.coeffs * (1j * state.params.lam * n) ** l
    dcoeffs[0] = 0.0
    m = grid_points if grid_points is not None else 2 * default_grid_size(state.params)
    return float(coeff_sup_deviation(dcoeffs, m))
