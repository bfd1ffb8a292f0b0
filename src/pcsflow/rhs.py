"""Right-hand sides of the truncated curvature-mode system.

In mode space the flow couples the retained band through ordered
(p+2)-tuples q with sum(q) = n, each weighted by the kernel

    H(q1, q2) = 1/p - (p-1)*lam^2*q1*q2 - lam^2*q1^2,

the transform of (1/p) k^{p+2} + k^{p+1} k_thth + (p-1) k^p k_th^2.  Tuples
with a single nonzero entry collapse to the diagonal part

    d c[n]/dt = ((p+2)/p - lam^2 n^2) c[0]^{p+1} c[n]   (n != 0),
    d c[0]/dt = (1/p) c[0]^{p+2},

and everything else is the tuple sum over entries with at least two nonzero
components.  Three evaluators are provided:

* ``rhs_direct``      -- literal tuple enumeration (the oracle; cost
                         (2*n_max+1)^{p+2}, guarded to n_max <= 12, p <= 3);
* ``rhs_convolution`` -- term-by-term direct convolution, O(n_max^2) at p=1;
* ``rhs_fast``        -- pseudospectral product on a zero-padded grid (``RhsPlan``,
                         one batched ``irfft`` that pads and one ``rfft`` a call).

The padded grid has M = ``pad_size`` >= (p+3)*n_max + 1 points, so products
of band-limited factors cannot alias back into the band: all three
evaluators agree to round-off.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft

from .errors import OversizeError, PositivityError
from .spectral import SpectralState, pad_size

__all__ = [
    "h_kernel",
    "diagonal_rates",
    "RhsPlan",
    "rhs_direct",
    "rhs_convolution",
    "rhs_fast",
    "normalized_rhs",
]

DIRECT_N_MAX = 12
DIRECT_P_MAX = 3


def h_kernel(p: int, lam: float, q1, q2):
    """Tuple weight 1/p - (p-1)*lam^2*q1*q2 - lam^2*q1^2 (array friendly)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    out = 1.0 / p - (p - 1) * lam**2 * q1 * q2 - lam**2 * q1**2
    return out if out.ndim else float(out)


def diagonal_rates(p: int, lam: float, n):
    """Diagonal rate (p+2)/p - lam^2 n^2 of mode n (array friendly); the
    integrator's constant rates, with 1/p on the zero mode instead."""
    return (p + 2) / p - lam**2 * n**2


def full_spectrum(state: SpectralState) -> np.ndarray:
    """Two-sided coefficient array z[j] = c[j - n_max], j = 0..2*n_max."""
    c = state.coeffs
    return np.concatenate([np.conj(c[:0:-1]), c])


class RhsPlan:
    """The ``rhs_fast`` evaluator prepared for one FlowParams: the pad size and
    the multipliers (1, i*lam*n, -(lam*n)^2) giving the spectra of k, k', k'',
    so a call is one batched ``irfft`` (which zero-pads them to the grid) and
    one ``rfft``, for one half spectrum or for a stack of them."""

    def __init__(self, params):
        self.params = params
        self.m = pad_size(params)
        lam_n = params.lam * np.arange(params.n_max + 1, dtype=np.float64)
        self._mult = np.array([np.ones_like(lam_n), 1j * lam_n, -(lam_n**2)])

    def __call__(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mode derivative, padded-grid profile k) at the coefficients
        c[..., 0..n_max], one row of each per row of a stack.  The rfft of the
        real grid values leaves the mean's imaginary part exactly +0."""
        p, size = self.params.p, coeffs.shape[-1]
        grids = irfft(self._mult * coeffs[..., None, :], n=self.m, norm="forward")
        k, kd, kdd = grids[..., 0, :], grids[..., 1, :], grids[..., 2, :]
        vals = k**p * (k * kdd + (p - 1) * kd**2 + (k * k) / p)
        return rfft(vals, norm="forward")[..., :size], k

    def profile(self, coeffs: np.ndarray) -> np.ndarray:
        """The padded-grid profile k alone, one row per row of a stack: the
        first of the three grids a call synthesizes."""
        return irfft(coeffs, n=self.m, norm="forward")


def rhs_fast(state: SpectralState) -> np.ndarray:
    """Mode derivative via dealiased pseudospectral products.

    Equals ``rhs_direct`` to round-off for every admissible state; cost is a
    handful of FFTs of length O(p*n_max).
    """
    return RhsPlan(state.params)(state.coeffs)[0]


def rhs_direct(state: SpectralState) -> np.ndarray:
    """Mode derivative by brute-force enumeration of weighted tuples.

    Sums H(q1, q2) * c[q1] * ... * c[q_{p+2}] over all ordered tuples with
    every |q_i| <= n_max and sum(q) = n.  This is the reference the fast
    paths are tested against; the cost guard keeps it at desk scale.
    """
    p, lam, n_max = state.params.p, state.params.lam, state.params.n_max
    if n_max > DIRECT_N_MAX or p > DIRECT_P_MAX:
        raise OversizeError(
            f"rhs_direct guarded to n_max <= {DIRECT_N_MAX} and p <= {DIRECT_P_MAX}; "
            f"got n_max={n_max}, p={p} (use rhs_fast)"
        )
    z = full_spectrum(state)
    qs = np.arange(-n_max, n_max + 1)
    grids = np.meshgrid(*([qs] * (p + 1)), indexing="ij")
    weight = h_kernel(p, lam, grids[0], grids[1])
    partial = weight.astype(np.complex128)
    for g in grids:
        partial = partial * z[g + n_max]
    free_sum = np.zeros_like(grids[0])
    for g in grids:
        free_sum = free_sum + g
    deriv = np.zeros(n_max + 1, dtype=np.complex128)
    for n in range(n_max + 1):
        q_last = n - free_sum
        ok = np.abs(q_last) <= n_max
        idx = np.where(ok, q_last + n_max, 0)
        deriv[n] = np.sum(partial * z[idx] * ok)
    deriv[0] = deriv[0].real
    return deriv


def _conv_power(z: np.ndarray, k: int) -> np.ndarray:
    out = z
    for _ in range(k - 1):
        out = np.convolve(out, z)
    return out


def rhs_convolution(state: SpectralState) -> np.ndarray:
    """Mode derivative by direct (non-FFT) convolution of the three terms.

    Same tuple sum as ``rhs_direct`` but factored through nested
    ``np.convolve`` calls, so it stays feasible at large n_max; this is the
    O(n_max^2) "direct path" used for benchmarking against ``rhs_fast``.
    """
    p, lam, n_max = state.params.p, state.params.lam, state.params.n_max
    z = full_spectrum(state)
    q = np.arange(-n_max, n_max + 1, dtype=np.float64)
    z_dd = -((lam * q) ** 2) * z
    z_d = 1j * lam * q * z
    total = _conv_power(z, p + 2) / p
    total = total + np.convolve(z_dd, _conv_power(z, p + 1))
    if p > 1:
        total = total + (p - 1) * np.convolve(np.convolve(z_d, z_d), _conv_power(z, p))
    center = (p + 2) * n_max
    deriv = np.asarray(total[center : center + n_max + 1])
    deriv[0] = deriv[0].real
    return deriv


def normalized_rhs(state: SpectralState) -> np.ndarray:
    """Mode derivative of the normalized flow, p * rhs(u) - u.

    This is the polynomial form u_tau = p u^{p+1} u_thth
    + p(p-1) u^p u_th^2 + u^{p+2} - u, whose steady state is u == 1 with
    linearized rates -(p*lam^2*n^2 - p - 1) on nonzero modes and +(p+1) on
    the mean.  Requires the profile to stay strictly positive.
    """
    deriv, grid = RhsPlan(state.params)(state.coeffs)
    out = state.params.p * deriv - state.coeffs
    out[0] = out[0].real
    gmin = float(grid.min())
    if gmin <= 0.0:
        raise PositivityError(
            f"normalized profile reached min {gmin:.3e} at t={state.t:.6g}; must stay positive"
        )
    return out
