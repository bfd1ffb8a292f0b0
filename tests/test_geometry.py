import math

import numpy as np
import pytest

from pcsflow import geometry
from pcsflow.blowup import check_hypothesis, select_c
from pcsflow.geometry import (
    CurvePolyline,
    PerturbationSpec,
    hausdorff_to_circle,
    mfold_curvature,
    polyline_csv,
    radial_perturbation_curvature,
    reconstruct_curve,
    render_svg,
)
from pcsflow.spectral import FlowParams

from conftest import make_state

P72 = FlowParams(p=1, lam=3.5, n_max=8, rational=(7, 2))


class TestPerturbationSpec:
    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            PerturbationSpec(m=2, n=4, delta=0.01)

    def test_radius_and_derivatives(self):
        spec = PerturbationSpec(m=2, n=7, delta=0.1, harmonics=((1, 1.0, 0.0),))
        th = np.linspace(0, 4 * np.pi, 64)
        r, rp, rpp = spec.radius_derivatives(th)
        assert np.allclose(r, 1 + 0.1 * np.cos(3.5 * th))
        assert np.allclose(rp, -0.35 * np.sin(3.5 * th))
        assert np.allclose(rpp, -0.1 * 3.5**2 * np.cos(3.5 * th))


class TestMfoldCurvature:
    def test_unit_circle(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        s = mfold_curvature(1, params)
        assert s.mean == 1.0
        assert np.all(s.coeffs[1:] == 0.0)

    def test_m2_same_profile(self):
        s = mfold_curvature(2, P72)
        assert s.mean == 1.0 and np.all(s.coeffs[1:] == 0.0)

    def test_reconstructs_unit_circle(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(mfold_curvature(1, params), 1)
        assert poly.closure_residual <= 1e-12
        radii = np.hypot(*poly.points[:-1].T)
        assert abs(np.mean(radii) - 1.0) < 1e-5
        assert hausdorff_to_circle(poly) < 1e-12


def theta_quadrature_coefficients(spec, params, points=4096):
    """Band coefficients by the change of variables nu = nu(theta): c_n =
    (1/N) sum_k kappa nu' exp(-i lam n nu(theta_k)) on a uniform theta-grid,
    spectrally accurate since the integrand is periodic in theta."""
    th = np.arange(points) * (params.period / points)
    r, rp, rpp = spec.radius_derivatives(th)
    q = r * r + rp * rp
    nu_prime = (r * r + 2 * rp * rp - r * rpp) / q
    kappa = nu_prime / np.sqrt(q)
    nu = th - np.arctan(rp / r)
    modes = np.arange(params.n_max + 1)
    return (kappa * nu_prime) @ np.exp(-1j * params.lam * np.outer(nu, modes)) / points


class TestRadialPerturbationCurvature:
    @pytest.mark.parametrize("n,m", [(7, 2), (5, 2), (7, 3), (9, 4)])
    @pytest.mark.parametrize(
        "harmonics", [((1, 1.0, 0.0),), ((1, 0.8, 0.3), (2, 0.1, 1.1))], ids=["one", "two"]
    )
    @pytest.mark.parametrize("delta", [0.002, 0.03])
    def test_against_theta_quadrature_oracle(self, n, m, harmonics, delta):
        params = FlowParams(p=1, lam=n / m, n_max=8, rational=(n, m))
        spec = PerturbationSpec(m=m, n=n, delta=delta, harmonics=harmonics)
        s = radial_perturbation_curvature(spec, params)
        assert np.max(np.abs(s.coeffs - theta_quadrature_coefficients(spec, params))) <= 1e-13

    def test_builds_near_the_convexity_limit(self):
        # m=2, n=7: the curvature at the radius minimum vanishes at delta =
        # 1/(1 + 3.5^2) = 0.07547, where nu' does too
        s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.075), P72)
        assert np.all(np.isfinite(s.coeffs)) and s.mean > 1.0
        with pytest.raises(ValueError, match="too large"):
            radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.08), P72)

    def test_newton_step_bound(self, monkeypatch):
        monkeypatch.setattr(geometry, "_NEWTON_STEPS", 1)
        with pytest.raises(ValueError, match="not inverted in 1 Newton steps"):
            radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.03), P72)

    def test_delta_zero_is_exact_circle(self):
        spec = PerturbationSpec(m=2, n=7, delta=0.0)
        s = radial_perturbation_curvature(spec, P72)
        assert np.max(np.abs(s.coeffs - mfold_curvature(2, P72).coeffs)) == 0.0

    def test_delta_zero_is_exact_circle_at_every_n_max(self):
        # the read-back grid is a power of two, where a constant transforms exactly
        spec = PerturbationSpec(m=2, n=7, delta=0.0)
        inexact = []
        for n_max in range(1, 130):
            params = FlowParams(p=1, lam=3.5, n_max=n_max, rational=(7, 2))
            if not np.array_equal(radial_perturbation_curvature(spec, params).coeffs, mfold_curvature(2, params).coeffs):
                inexact.append(n_max)
        assert inexact == []

    def test_leading_order_coefficient(self):
        # kappa(nu) = 1 + delta (lam^2 - 1) cos(lam nu) + O(delta^2)
        for delta in (1e-3, 1e-4):
            s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=delta), P72)
            expected = delta * (3.5**2 - 1) / 2
            assert s.coeffs[1].real == pytest.approx(expected, abs=5 * delta**2)
            assert abs(s.coeffs[1].imag) < 1e-12

    def test_against_polygonal_curvature_oracle(self):
        # finite-difference curvature of the densely sampled polygon,
        # projected onto the band after resampling in the normal angle
        delta = 0.002
        s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=delta), P72)
        period = 2 * np.pi / 3.5
        th = np.linspace(-period, 2 * period, 100001)
        r = 1 + delta * np.cos(3.5 * th)
        x, y = r * np.cos(th), r * np.sin(th)
        dx, dy = np.gradient(x, th), np.gradient(y, th)
        ddx, ddy = np.gradient(dx, th), np.gradient(dy, th)
        kappa = (dx * ddy - dy * ddx) / (dx * dx + dy * dy) ** 1.5
        nu = th - np.arctan(-delta * 3.5 * np.sin(3.5 * th) / r)
        inner = slice(200, -200)  # drop gradient edge effects
        from scipy.interpolate import PchipInterpolator

        kofnu = PchipInterpolator(nu[inner], kappa[inner])
        grid = np.arange(64) * period / 64
        coeffs = np.fft.rfft(kofnu(grid)) / 64
        assert abs(coeffs[1] - s.coeffs[1]) < 1e-6
        assert abs(coeffs[0].real - s.mean) < 1e-6

    def test_hypothesis_passes_for_small_delta(self):
        # m=2, n=7, delta=0.002, p=1: c = 64*12.25/9.25 ~ 84.76
        s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.002), P72)
        c = select_c(P72)
        assert c == pytest.approx(64 * 12.25 / 9.25, rel=1e-12)
        report = check_hypothesis(s, c)
        assert report.holds
        assert report.margin == pytest.approx(0.047, abs=0.002)

    def test_convexity_guard(self):
        with pytest.raises(ValueError, match="too large"):
            radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.2), P72)

    def test_params_lambda_must_match(self):
        other = FlowParams(p=1, lam=2.0, n_max=8)
        with pytest.raises(ValueError):
            radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.001), other)


class TestReconstructCurve:
    def test_k2_gives_half_radius(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(make_state(params, {0: 2.0}), 1)
        radii = np.hypot(*poly.points[:-1].T)
        assert abs(np.mean(radii) - 0.5) < 1e-5

    def test_scaling_equivariance(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        s = make_state(params, {0: 1.0, 1: 0.01})
        base = reconstruct_curve(s, 1)
        scaled = reconstruct_curve(s.scaled(2.0), 1)
        assert np.max(np.abs(scaled.points - base.points / 2.0)) < 1e-12

    def test_perturbed_closure_is_automatic(self):
        # lam = 7/2: 1/k has no frequency at the closure mode, so the
        # residual is pure quadrature error
        s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.002), P72)
        poly = reconstruct_curve(s, 2)
        assert poly.winding == 2
        assert poly.closure_residual <= 1e-8 * poly.diameter

    @pytest.mark.parametrize("n,m", [(5, 2), (7, 3), (9, 4)])
    def test_closure_across_rational_frequencies(self, n, m):
        params = FlowParams(p=1, lam=n / m, n_max=8, rational=(n, m))
        s = radial_perturbation_curvature(PerturbationSpec(m=m, n=n, delta=0.002), params)
        assert check_hypothesis(s, select_c(params)).holds
        poly = reconstruct_curve(s, m)
        assert poly.closure_residual <= 1e-8 * poly.diameter

    def test_m_from_rational_tag(self):
        s = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.001), P72)
        assert reconstruct_curve(s).winding == 2

    def test_rejects_nonpositive_curvature(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        with pytest.raises(ValueError):
            reconstruct_curve(make_state(params, {0: 1.0, 1: 0.6}), 1)

    def test_point_count(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(make_state(params, {0: 1.0}), 2, samples_per_turn=256)
        assert len(poly.points) == 2 * 256 + 1


class TestHausdorff:
    def test_exact_circle_is_zero(self):
        u = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        pts = np.stack([np.cos(u), np.sin(u)], axis=1)
        poly = CurvePolyline(points=np.vstack([pts, pts[:1]]), closure_residual=0.0, winding=1)
        assert hausdorff_to_circle(poly) < 1e-12

    def test_ellipse_value(self):
        # direct oracle: R* = mean radius, metric = max | |P| - R* | / R*
        u = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        pts = np.stack([np.cos(u), 1.1 * np.sin(u)], axis=1)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        expected = np.max(np.abs(radii - radii.mean())) / radii.mean()
        poly = CurvePolyline(points=np.vstack([pts, pts[:1]]), closure_residual=0.0, winding=1)
        assert hausdorff_to_circle(poly) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(0.048, abs=2e-3)


class TestRender:
    def test_svg_single_closed_path_512_points(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(mfold_curvature(1, params), 1)
        svg = render_svg([("t=0", poly)])
        assert svg.count("<path") == 1
        assert svg.count(" Z\"") == 1
        body = svg.split('d="M ')[1].split(" Z")[0]
        assert body.count(" L ") + 1 == 512

    def test_frame_series_opacity_graded(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        polys = [
            (f"tau={i}", reconstruct_curve(make_state(params, {0: 1.0 + 0.5 * i}), 1))
            for i in range(3)
        ]
        svg = render_svg(polys)
        assert svg.count("<path") == 3
        assert 'stroke-opacity="0.2500"' in svg
        assert 'stroke-opacity="1.0000"' in svg
        assert svg.count("<text") == 3

    def test_csv_contract(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(mfold_curvature(1, params), 1, samples_per_turn=128)
        csv = polyline_csv(poly)
        lines = csv.strip().split("\n")
        assert lines[0] == "nu,x,y"
        assert len(lines) - 1 == 128 + 1  # samples + closure repeat

    def test_byte_determinism(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        poly = reconstruct_curve(mfold_curvature(1, params), 1)
        assert render_svg([("a", poly)]) == render_svg([("a", poly)])
        assert polyline_csv(poly) == polyline_csv(poly)


def reference_render_svg(frames, size=640, max_path_points=512):
    """The per-point f-string writer that ``render_svg`` replaced: the byte reference."""

    def fmt(x):
        return f"{x:.6f}"

    all_pts = np.vstack([poly.points for _, poly in frames])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    pad = 0.05 * span
    view = (lo[0] - pad, lo[1] - pad, span + 2 * pad, span + 2 * pad)
    stroke = 0.004 * span
    flip = fmt(-(2 * view[1] + view[3]))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{fmt(view[0])} {fmt(view[1])} {fmt(view[2])} {fmt(view[3])}">',
        f'<g fill="none" stroke="#1f4e79" stroke-width="{fmt(stroke)}" '
        f'transform="scale(1,-1) translate(0,{flip})">',
    ]
    n_frames = len(frames)
    for i, (_, poly) in enumerate(frames):
        pts = poly.points[:-1]
        stride = max(1, int(math.ceil(len(pts) / max_path_points)))
        pts = pts[::stride]
        opacity = 1.0 if n_frames == 1 else 0.25 + 0.75 * i / (n_frames - 1)
        d = "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in pts) + " Z"
        lines.append(f'<path stroke-opacity="{opacity:.4f}" d="{d}"/>')
    lines.append("</g>")
    font = 0.04 * span
    for i, (label, _) in enumerate(frames):
        x = view[0] + 0.02 * span
        y = view[1] + (0.05 + 0.05 * i) * span
        lines.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="{fmt(font)}" '
            f'fill="#333333" font-family="monospace">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_polyline_csv(poly):
    """The per-row f-string writer that ``polyline_csv`` replaced: the byte reference."""
    total = len(poly.points) - 1
    nus = np.linspace(0.0, 2.0 * math.pi * poly.winding, total + 1)
    rows = ["nu,x,y"]
    rows.extend(f"{nu:.12g},{x:.12g},{y:.12g}" for nu, (x, y) in zip(nus, poly.points))
    return "\n".join(rows) + "\n"


class TestWriterBytes:
    """The table-at-once writers produce the per-row writers' bytes."""

    def test_reconstructed_curves(self):
        spec = PerturbationSpec(m=2, n=7, delta=0.01, harmonics=((1, 1.0, 0.3), (2, 0.2, 1.1)))
        state = radial_perturbation_curvature(spec, P72)
        frames = [
            (f"t={i}", reconstruct_curve(state.scaled(1.0 + i), samples_per_turn=per_turn))
            for i, per_turn in enumerate((1024, 100, 64))
        ]
        for _, poly in frames:
            assert polyline_csv(poly) == reference_polyline_csv(poly)
        assert render_svg(frames) == reference_render_svg(frames)
        assert render_svg(frames[:1], max_path_points=37) == reference_render_svg(
            frames[:1], max_path_points=37
        )

    def test_edge_values(self):
        # -0.0, 1e-300 and values that round to -0.000000 under %.6f, next
        # to 1e17 (more digits than %.12g keeps) and ordinary values
        rng = np.random.default_rng(5)
        specials = [-0.0, 0.0, 1e-300, -1e-300, 1e17, -1e17, -1e-7, -4.9e-7, 5e-7, -5e-7, 2.5e-6]
        pts = rng.normal(size=(80, 2))
        pts.ravel()[: len(specials)] = specials
        pts[-1] = pts[0]
        poly = CurvePolyline(points=pts, closure_residual=0.0, winding=3)
        assert "-0.000000" in reference_render_svg([("edge", poly)])
        assert polyline_csv(poly) == reference_polyline_csv(poly)
        assert render_svg([("edge", poly)]) == reference_render_svg([("edge", poly)])
        small = CurvePolyline(points=pts * 1e-6, closure_residual=0.0, winding=1)
        frames = [("a", small), ("b", poly)]
        assert render_svg(frames) == reference_render_svg(frames)


def reference_reconstruct_curve(state, m, samples_per_turn=1024):
    """The per-call computation that ``reconstruct_curve`` replaced, which
    rebuilt the nu grid, phase table and tangent field on every call: the
    bit reference.  Returns (points, closure residual)."""
    total = samples_per_turn * m
    nu = np.linspace(0.0, 2.0 * math.pi * m, total + 1)
    n = np.arange(1, state.params.n_max + 1)
    phases = np.exp(1j * state.params.lam * np.outer(nu, n))
    k = state.mean + 2.0 * np.real(np.einsum("ij,j->i", phases, state.coeffs[1:]))
    ds = 1.0 / k
    tangent = np.stack([-np.sin(nu), np.cos(nu)], axis=1)
    integrand = tangent * ds[:, None]
    h = nu[1] - nu[0]
    increments = 0.5 * h * (integrand[1:] + integrand[:-1])
    pts = np.vstack([[0.0, 0.0], np.cumsum(increments, axis=0)])
    residual = float(np.hypot(*(pts[-1] - pts[0])))
    return pts - pts[:-1].mean(axis=0), residual


@pytest.fixture(scope="module")
def curves_by_winding():
    """A perturbed m-fold circle for m = 1, 2, 3 (lam = 3, 5/2, 7/3)."""
    harmonics = ((1, 1.0, 0.3), (2, 0.2, 1.1))
    states = {}
    for n, m in ((3, 1), (5, 2), (7, 3)):
        params = FlowParams(p=1, lam=n / m, n_max=8, rational=(n, m))
        states[m] = radial_perturbation_curvature(PerturbationSpec(m=m, n=n, delta=0.01, harmonics=harmonics), params)
    return states


class TestFrameTables:
    """The nu grid, phase table, tangent field and CSV nu column are built
    once per size; every frame keeps the per-call computation's bits."""

    SIZES = [(m, per_turn) for per_turn in (64, 100, 1024) for m in (1, 2, 3)]

    def test_bit_identical_across_evictions(self, curves_by_winding):
        # each size differs from the one before, so the one-entry caches evict
        # on every call; the second pass hits a cached size with a scaled state
        for m, per_turn in self.SIZES + self.SIZES[::-1]:
            for state in (curves_by_winding[m], curves_by_winding[m].scaled(1.5)):
                poly = reconstruct_curve(state, m, samples_per_turn=per_turn)
                points, residual = reference_reconstruct_curve(state, m, per_turn)
                assert (poly.points == points).all()
                assert poly.closure_residual == residual
        assert geometry._frame_grid.cache_info().currsize == 1

    def test_cached_tables_are_read_only(self, curves_by_winding):
        state = curves_by_winding[2]
        reconstruct_curve(state, 2, samples_per_turn=64)
        for table in geometry._frame_grid(state.params.lam, state.params.n_max, 2, 64):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_csv_after_winding_or_length_change(self, curves_by_winding):
        polys = [
            reconstruct_curve(curves_by_winding[m], m, samples_per_turn=per_turn)
            for m, per_turn in ((2, 64), (2, 100), (3, 100), (1, 1024), (2, 64))
        ]
        # the same point count at another winding: another nu column
        polys.append(CurvePolyline(points=polys[2].points, closure_residual=0.0, winding=1))
        for poly in polys:
            assert polyline_csv(poly) == reference_polyline_csv(poly)
