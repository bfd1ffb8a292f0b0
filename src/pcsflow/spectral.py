"""Fourier representation of 2*pi/lam-periodic real curvature profiles.

Profiles are stored as a half spectrum: complex coefficients c[n] for
0 <= n <= n_max with c[-n] = conj(c[n]) implied and c[0] real, so that

    k(theta) = c[0] + 2 * sum_{n>=1} Re(c[n] * exp(i*lam*n*theta)).

The half spectrum maps directly onto numpy's rfft layout, which makes the
grid <-> spectrum round trip exact for band-limited fields and prevents the
realness constraint from drifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.fft import irfft, rfft

from .errors import GridTooSmallError

__all__ = [
    "FlowParams",
    "SpectralState",
    "GridField",
    "lambda_threshold",
    "default_grid_size",
    "next_fast_len",
    "synthesize",
    "analyze_grid",
    "seminorm",
    "coeff_seminorm",
    "coeff_sup_deviation",
    "coeff_cl_bound",
    "cl_deviation_bound",
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
        if not isinstance(self.p, int) or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max!r}")
        lam = self.lam
        if self.rational is not None:
            n, m = self.rational
            if not (isinstance(n, int) and isinstance(m, int) and n > 0 and m > 0):
                raise ValueError(f"rational tag must be positive integers, got {self.rational!r}")
            if math.gcd(n, m) != 1:
                raise ValueError(f"rational tag {n}/{m} is not reduced")
            if lam is None:
                lam = n / m
                object.__setattr__(self, "lam", lam)
            elif abs(lam - n / m) > 1e-12 * max(1.0, abs(lam)):
                raise ValueError(f"lam={lam} does not match rational tag {n}/{m}")
        if lam is None:
            raise ValueError("lam is required when no rational tag is given")
        if not (lam > lambda_threshold(self.p)):
            raise ValueError(
                f"lam={lam} must exceed sqrt((p+2)/p)={lambda_threshold(self.p):.6f} for p={self.p}"
            )

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
    (rejecting anything with a relative imaginary part above 1e-12).
    """

    params: FlowParams
    t: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (self.params.n_max + 1,):
            raise ValueError(
                f"coeffs must have shape ({self.params.n_max + 1},), got {c.shape}"
            )
        c0 = c[0]
        scale = max(abs(c0), float(np.max(np.abs(c))), 1e-300)
        if abs(c0.imag) > 1e-12 * scale:
            raise ValueError(f"zero mode must be real, got imaginary part {c0.imag!r}")
        c[0] = c0.real
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "t", float(self.t))

    @property
    def mean(self) -> float:
        """The profile average, c[0]."""
        return float(self.coeffs[0].real)

    def with_coeffs(self, coeffs: np.ndarray, t: float | None = None) -> "SpectralState":
        return SpectralState(self.params, self.t if t is None else t, coeffs)

    def scaled(self, factor: float) -> "SpectralState":
        return SpectralState(self.params, self.t, self.coeffs * factor)


@dataclass(frozen=True)
class GridField:
    """Real samples on the uniform theta-grid over one period [0, 2*pi/lam)."""

    params: FlowParams
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def grid_points(self) -> int:
        return len(self.values)

    def thetas(self) -> np.ndarray:
        m = self.grid_points
        return np.arange(m) * (self.params.period / m)


def next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= target: a length pocketfft
    transforms fastest, as ``scipy.fft.next_fast_len(target, real=True)``."""
    if target < 1:
        raise ValueError(f"target length must be positive, got {target!r}")
    n = int(target)
    while True:
        rest = n
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def default_grid_size(params: FlowParams, factor: int = 4) -> int:
    """Default sampling size: factor*n_max rounded up to an FFT-friendly length."""
    return next_fast_len(max(factor * params.n_max, 2 * params.n_max + 1))


def _require_grid(m: int, n_max: int, failure: str):
    if m < 2 * n_max + 1:
        raise GridTooSmallError(f"grid of {m} points {failure} modes up to {n_max}; need >= {2 * n_max + 1}")


def synthesize(state: SpectralState, grid_points: int | None = None) -> GridField:
    """Evaluate the profile on a uniform grid of the stated size.

    Requires grid_points >= 2*n_max + 1 so no band content is lost.
    """
    m = default_grid_size(state.params) if grid_points is None else int(grid_points)
    _require_grid(m, state.params.n_max, "cannot resolve")
    return GridField(state.params, irfft(state.coeffs, n=m) * m, t=state.t)


def analyze_grid(field: GridField) -> SpectralState:
    """Coefficients of the trigonometric interpolant, truncated to the band."""
    n_max = field.params.n_max
    m = field.grid_points
    _require_grid(m, n_max, "underdetermines")
    values = np.asarray(field.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("grid samples contain non-finite values")
    spec = rfft(values) / m
    return SpectralState(field.params, field.t, spec[: n_max + 1])


def seminorm(state: SpectralState, beta: float) -> float:
    """max over nonzero band modes of n^beta * max(|Re c[n]|, |Im c[n]|)."""
    return float(coeff_seminorm(state.coeffs, beta))


def coeff_seminorm(coeffs: np.ndarray, beta: float) -> np.ndarray:
    """``seminorm`` of bare half spectra c[..., 0..n_max], reduced over the
    last axis: a scalar for one spectrum, one value per row of a stack."""
    c = coeffs[..., 1:]
    n = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    weighted = n**beta * np.maximum(np.abs(c.real), np.abs(c.imag))
    return np.max(weighted, axis=-1, initial=0.0)


def coeff_sup_deviation(coeffs: np.ndarray, grid_points: int) -> np.ndarray:
    """Sup deviation from the mean, max |k - c[0]| on a grid of at least
    2*n_max + 1 points, of bare half spectra c[..., 0..n_max]."""
    _require_grid(grid_points, coeffs.shape[-1] - 1, "cannot resolve")
    return np.max(np.abs(irfft(coeffs, n=grid_points) * grid_points - coeffs[..., :1].real), axis=-1)


def coeff_cl_bound(coeffs: np.ndarray, lam: float, l: int) -> np.ndarray:
    """``cl_deviation_bound`` of bare half spectra c[..., 0..n_max]."""
    if l < 0:
        raise ValueError("derivative order must be nonnegative")
    c = coeffs[..., 1:]
    n = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    return 2.0 * np.sum((lam * n) ** l * np.abs(c), axis=-1)


def cl_deviation_bound(state: SpectralState, l: int) -> float:
    """Coefficient bound 2*sum (lam*n)^l |c[n]| on the C^l size of k - mean(k)."""
    return float(coeff_cl_bound(state.coeffs, state.params.lam, l))


def grid_derivative_sup(state: SpectralState, l: int, grid_points: int | None = None) -> float:
    """Grid-sampled sup of the l-th derivative of k - mean(k) (cross-check value)."""
    if l < 0:
        raise ValueError("derivative order must be nonnegative")
    n = np.arange(state.params.n_max + 1, dtype=np.float64)
    dcoeffs = state.coeffs * (1j * state.params.lam * n) ** l
    dcoeffs[0] = 0.0
    m = grid_points if grid_points is not None else default_grid_size(state.params, factor=8)
    return float(coeff_sup_deviation(dcoeffs, m))
