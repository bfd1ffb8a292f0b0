"""Plane-curve side: perturbed m-fold circles and Gauss-map reconstruction.

A convex curve winding m times is parametrized by its outward normal angle
nu in [0, 2*pi*m]; curvature k(nu) then determines the curve through

    P(nu) = P(0) + integral_0^nu (-sin s, cos s) / k(s) ds.

Radial perturbations r(t) = 1 + delta*phi(t) of the m-fold unit circle are
converted to curvature-vs-normal-angle data by inverting the normal angle
nu(theta) = theta - arctan(r'/r) with Newton's method on a uniform nu-grid
and evaluating the polar curvature there.  For lam = n/m with n > 1
coprime to m the reconstruction closes automatically (1/k has no frequency
at the closure mode), so the closure residual measures quadrature error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .spectral import FlowParams, SpectralState, analyze_grid, fft_size

__all__ = [
    "PerturbationSpec",
    "CurvePolyline",
    "mfold_curvature",
    "radial_perturbation_curvature",
    "reconstruct_curve",
    "hausdorff_to_circle",
    "render_svg",
    "polyline_csv",
]


@dataclass(frozen=True)
class PerturbationSpec:
    """Radial perturbation of the m-fold circle by delta * phi(theta).

    phi(theta) = sum_j amp_j * cos(j * (n/m) * theta + phase_j); the pair
    (n, m) must be coprime so lam = n/m is in lowest terms.
    """

    m: int
    n: int
    delta: float
    harmonics: tuple = ((1, 1.0, 0.0),)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive integers")
        if math.gcd(self.m, self.n) != 1:
            raise ValueError(f"m={self.m} and n={self.n} must be coprime")
        if not self.harmonics:
            raise ValueError("at least one harmonic is required")

    @property
    def lam(self) -> float:
        return self.n / self.m

    def radius_derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, r', r'') at theta for r = 1 + delta * phi."""
        theta = np.asarray(theta, dtype=float)
        phi = np.zeros((3, *theta.shape))
        for j, amp, phase in self.harmonics:
            w = j * self.lam
            arg = w * theta + phase
            cos = np.cos(arg)
            phi[0] += amp * cos
            phi[1] += -amp * w * np.sin(arg)
            phi[2] += -amp * w**2 * cos
        return 1.0 + self.delta * phi[0], self.delta * phi[1], self.delta * phi[2]


@dataclass(frozen=True)
class CurvePolyline:
    """Sampled plane curve with its closure defect and winding number."""

    points: np.ndarray
    closure_residual: float
    winding: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 64:
            raise ValueError("polyline needs at least 64 (x, y) points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def diameter(self) -> float:
        pts = self.points
        return float(
            math.hypot(
                pts[:, 0].max() - pts[:, 0].min(),
                pts[:, 1].max() - pts[:, 1].min(),
            )
        )


def mfold_curvature(m: int, params: FlowParams) -> SpectralState:
    """Curvature of the m-fold unit circle: k == 1."""
    if m < 1:
        raise ValueError("winding number m must be >= 1")
    if params.winding not in (None, m):
        raise ValueError(f"params tag winding {params.winding} != m={m}")
    coeffs = np.zeros(params.n_max + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    return SpectralState(params, 0.0, coeffs)


# Newton steps allowed for inverting nu(theta): moderate deltas take 2-4,
# m=2, n=7 at delta 0.0754 (convexity ends at 1/13.25 = 0.07547) takes 84.
_NEWTON_STEPS = 100

# Points over one period at which the radius and the curvature must be positive.
_GUARD_SAMPLES = 8192


def _polar(r: np.ndarray, rp: np.ndarray, rpp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arctan(r'/r), nu'(theta), kappa(theta)) of the polar curve r(theta)
    from (r, r', r'') at theta."""
    q = r * r + rp * rp
    slope = (r * r + 2 * rp * rp - r * rpp) / q
    return np.arctan(rp / r), slope, slope / np.sqrt(q)


def radial_perturbation_curvature(spec: PerturbationSpec, params: FlowParams) -> SpectralState:
    """Curvature-vs-normal-angle coefficients of the perturbed circle.

    With q = r^2 + r'^2, the polar curvature is kappa = (r^2 + 2 r'^2 - r r'')
    / q^{3/2} and the normal angle nu = theta - arctan(r'/r) has nu' =
    (r^2 + 2 r'^2 - r r'') / q, positive by convexity.  Newton's method from
    theta = nu solves nu(theta) = nu_j on the uniform grid the band is read
    from, and kappa is evaluated there in closed form.  _GUARD_SAMPLES points
    over one period (r and kappa are periodic) back the radius and
    curvature guards.
    """
    if abs(params.lam - spec.lam) > 1e-12 * max(1.0, params.lam):
        raise ValueError(f"params.lam={params.lam} does not match spec n/m={spec.lam}")
    period = params.period
    th = np.arange(_GUARD_SAMPLES) * (period / _GUARD_SAMPLES)
    r, rp, rpp = spec.radius_derivatives(th)
    if np.min(r) <= 0:
        raise ValueError(f"delta={spec.delta} too large: radius reaches {np.min(r):.3e}")
    kappa = _polar(r, rp, rpp)[2]
    if np.min(kappa) <= 0:
        bad = th[int(np.argmin(kappa))]
        raise ValueError(
            f"delta={spec.delta} too large: curvature {np.min(kappa):.3e} <= 0 near theta={bad:.4f}"
        )
    m_grid = fft_size(max(8 * (2 * params.n_max + 1), 128))
    nu_grid = np.arange(m_grid) * (period / m_grid)
    theta, tol = nu_grid.copy(), 4 * np.finfo(float).eps * period
    for _ in range(_NEWTON_STEPS):
        offset, slope, _ = _polar(*spec.radius_derivatives(theta))
        step = (theta - offset - nu_grid) / slope
        theta -= step
        if np.max(np.abs(step)) <= tol:
            break
    else:
        raise ValueError(
            f"delta={spec.delta}: normal angle not inverted in {_NEWTON_STEPS} Newton steps "
            f"(last step {np.max(np.abs(step)):.3e})"
        )
    return analyze_grid(params, _polar(*spec.radius_derivatives(theta))[2])


@functools.lru_cache(maxsize=1)
def _frame_grid(lam: float, n_max: int, m: int, samples_per_turn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (nu, phase table exp(i lam n nu), tangent (-sin nu, cos nu))
    of one frame size: the same for every frame of a render."""
    nu = np.linspace(0.0, 2.0 * math.pi * m, samples_per_turn * m + 1)
    phases = np.exp(1j * lam * np.outer(nu, np.arange(1, n_max + 1)))
    tangent = np.stack([-np.sin(nu), np.cos(nu)], axis=1)
    for table in (nu, phases, tangent):
        table.setflags(write=False)
    return nu, phases, tangent


def reconstruct_curve(
    state: SpectralState, m: int | None = None, samples_per_turn: int = 1024
) -> CurvePolyline:
    """Integrate the Gauss-map tangent field to recover the plane curve.

    Produces samples_per_turn * m + 1 points over nu in [0, 2*pi*m]
    (cumulative trapezoid; spectrally accurate over full periods), centered
    so the curve centroid is the origin.  The final point is the closure
    repeat; its gap to the start is the closure residual.  The nu grid, the
    phase table and the tangent field are built once per (lam, n_max, m,
    samples_per_turn) and reused by the next call with the same sizes.
    """
    m = state.params.winding if m is None else m
    if m is None:
        raise ValueError("winding number required: pass m or use a rational lam tag")
    if samples_per_turn < 64:
        raise ValueError("need at least 64 samples per turn")
    nu, phases, tangent = _frame_grid(state.params.lam, state.params.n_max, m, samples_per_turn)
    # einsum's own loop, not BLAS: a zgemv spreads this small product over
    # every BLAS thread, about 40 times slower on two cores than one
    k = state.mean + 2.0 * np.real(np.einsum("ij,j->i", phases, state.coeffs[1:]))
    if np.min(k) <= 0:
        raise PositivityError(f"curvature must be positive to reconstruct; min {np.min(k):.3e}")
    ds = 1.0 / k
    integrand = tangent * ds[:, None]
    h = nu[1] - nu[0]
    increments = 0.5 * h * (integrand[1:] + integrand[:-1])
    pts = np.vstack([[0.0, 0.0], np.cumsum(increments, axis=0)])
    residual = float(np.hypot(*(pts[-1] - pts[0])))
    pts = pts - pts[:-1].mean(axis=0)
    return CurvePolyline(points=pts, closure_residual=residual, winding=m)


def hausdorff_to_circle(poly: CurvePolyline) -> float:
    """Relative max deviation from the best-fit circle (mean-radius fit)."""
    pts = poly.points[:-1] if len(poly.points) > 64 else poly.points
    center = pts.mean(axis=0)
    radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    r_star = float(radii.mean())
    if r_star <= 0:
        raise ValueError("degenerate polyline")
    return float(np.max(np.abs(radii - r_star)) / r_star)


# Width and height of a rendered SVG, in pixels.
_SVG_SIZE = 640


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_svg(frames: list[tuple[str, CurvePolyline]], max_path_points: int = 512) -> str:
    """Deterministic SVG document: one closed path per frame, opacity graded
    from oldest to newest, legend with the frame labels."""
    if not frames:
        raise ValueError("no frames to render")
    all_pts = np.vstack([poly.points for _, poly in frames])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    pad = 0.05 * span
    view = (lo[0] - pad, lo[1] - pad, span + 2 * pad, span + 2 * pad)
    stroke = 0.004 * span

    flip = _fmt(-(2 * view[1] + view[3]))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
        f'<g fill="none" stroke="#1f4e79" stroke-width="{_fmt(stroke)}" '
        f'transform="scale(1,-1) translate(0,{flip})">',
    ]
    n_frames = len(frames)
    for i, (_, poly) in enumerate(frames):
        pts = poly.points[:-1]
        stride = max(1, int(math.ceil(len(pts) / max_path_points)))
        pts = pts[::stride]
        opacity = 1.0 if n_frames == 1 else 0.25 + 0.75 * i / (n_frames - 1)
        d = " L ".join(["%.6f %.6f"] * len(pts)) % tuple(pts.ravel().tolist())
        lines.append(f'<path stroke-opacity="{opacity:.4f}" d="M {d} Z"/>')
    lines.append("</g>")
    font = 0.04 * span
    for i, (label, _) in enumerate(frames):
        x = view[0] + 0.02 * span
        y = view[1] + (0.05 + 0.05 * i) * span
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(font)}" '
            f'fill="#333333" font-family="monospace">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=1)
def _csv_rows(winding: int, total: int) -> str:
    """Row template of a point table: each row's nu written once, x and y
    left as %.12g fields."""
    nus = np.linspace(0.0, 2.0 * math.pi * winding, total + 1)
    return "%.12g,%%.12g,%%.12g\n" * (total + 1) % tuple(nus.tolist())


def polyline_csv(poly: CurvePolyline) -> str:
    """Point table with header nu,x,y; one row per sample incl. the closure
    repeat, every value written by %.12g.  The nu column depends only on the
    winding and the point count, so its text is formatted once per size and
    each table is one format over the flat (x, y) values."""
    rows = _csv_rows(poly.winding, len(poly.points) - 1)
    return "nu,x,y\n" + rows % tuple(poly.points.ravel().tolist())
