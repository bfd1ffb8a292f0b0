"""Cross-checks of the mode system, shared by ``pcsflow verify`` and the tests.

Each function measures one defect and returns it; the caller picks the
sizes, seeds and thresholds.  The evaluators are looked up on the ``rhs``
module at call time, so a patched kernel or rate is the one checked.
"""

from __future__ import annotations

import numpy as np

from . import rhs
from .blowup import circle_time, estimate_T, select_c
from .spectral import FlowParams, SpectralState, analyze_grid, synthesize

__all__ = [
    "random_trapped_state",
    "rel_diff",
    "round_trip_defect",
    "oracle_defects",
    "placement_defect",
    "split_defect",
    "blowup_time_defect",
]


def random_trapped_state(params: FlowParams, rng: np.random.Generator) -> SpectralState:
    """Random state inside the trapping cone with mean in [0.5, 2]."""
    c0 = rng.uniform(0.5, 2.0)
    coeffs = np.zeros(params.n_max + 1, dtype=np.complex128)
    coeffs[0] = c0
    cone = select_c(params)
    for n in range(1, params.n_max + 1):
        bound = c0 / (cone * n * n)
        coeffs[n] = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
    return SpectralState(params, 0.0, coeffs)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of |a - b| over the larger of the two sup norms."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def round_trip_defect(state: SpectralState, m: int) -> float:
    """Largest coefficient error of synthesizing on m grid points and analyzing back."""
    return float(np.max(np.abs(analyze_grid(state.params, synthesize(state, m)).coeffs - state.coeffs)))


def oracle_defects(state: SpectralState) -> tuple[float, float]:
    """Relative disagreement of ``rhs_fast`` and of ``rhs_convolution`` with the tuple oracle."""
    direct = rhs.rhs_direct(state)
    return rel_diff(direct, rhs.rhs_fast(state)), rel_diff(direct, rhs.rhs_convolution(state))


def placement_defect(p: int, lam: float, n: int) -> float:
    """Relative gap between the kernel summed over the p+2 placements of a
    single nonzero entry n and the diagonal rate ``rhs.diagonal_rates``."""
    placements = sum(rhs.h_kernel(p, lam, n if pos == 0 else 0, n if pos == 1 else 0) for pos in range(p + 2))
    analytic = rhs.diagonal_rates(p, lam, n)
    return abs(placements - analytic) / abs(analytic)


def split_defect(params: FlowParams) -> float:
    """Worst ``placement_defect`` over the band of the parameters."""
    return max(placement_defect(params.p, params.lam, n) for n in range(params.n_max + 1))


def blowup_time_defect(traj) -> float:
    """Relative error of ``estimate_T`` on a run from constant data: against its start's ``circle_time``."""
    exact = circle_time(traj.params.p, traj.snapshots[0].mean)
    T_est, _ = estimate_T(traj)
    return abs(T_est - exact) / exact
