import math

import numpy as np
import pytest

from pcsflow.checks import round_trip_defect
from pcsflow.errors import GridTooSmallError
from pcsflow.spectral import (
    FlowParams,
    SpectralState,
    analyze_grid,
    coeff_cl_bound,
    coeff_seminorm,
    coeff_sup_deviation,
    default_grid_size,
    grid_derivative_sup,
    half_spectra,
    lambda_threshold,
    parse_lambda,
    synthesize,
)

from conftest import make_state, random_trapped_state


P14 = FlowParams(p=1, lam=2.0, n_max=4)


class TestFlowParams:
    def test_threshold_is_strict(self):
        with pytest.raises(ValueError):
            FlowParams(p=1, lam=math.sqrt(3.0), n_max=4)
        FlowParams(p=1, lam=math.sqrt(3.0) + 1e-9, n_max=4)

    def test_threshold_depends_on_p(self):
        # lam = 1.5 is below sqrt(3) but above sqrt(4/2)=1.414... for p=2
        with pytest.raises(ValueError):
            FlowParams(p=1, lam=1.5, n_max=4)
        FlowParams(p=2, lam=1.5, n_max=4)

    def test_rational_tag(self):
        params = FlowParams(p=1, lam=3.5, n_max=4, rational=(7, 2))
        assert params.winding == 2
        with pytest.raises(ValueError):
            FlowParams(p=1, lam=3.5, n_max=4, rational=(14, 4))  # not reduced
        with pytest.raises(ValueError):
            FlowParams(p=1, lam=3.0, n_max=4, rational=(7, 2))  # inconsistent

    def test_parse_lambda(self):
        lam, (n, m) = parse_lambda("7/2")
        assert (lam, n, m) == (3.5, 7, 2)

    def test_basic_invariants(self):
        with pytest.raises(ValueError):
            FlowParams(p=0, lam=2.0, n_max=4)
        with pytest.raises(ValueError):
            FlowParams(p=1, lam=2.0, n_max=0)


class TestSpectralState:
    def test_zero_mode_must_be_real(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[0] = 1.0 + 0.1j
        with pytest.raises(ValueError):
            SpectralState(P14, 0.0, coeffs)
        # in a stack the tolerance is each row's own: a larger row does not excuse it
        with pytest.raises(ValueError, match="zero mode must be real"):
            half_spectra([np.full(5, 1e20), coeffs], (2, 5))

    def test_tiny_imaginary_part_is_scrubbed(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[0] = 1.0 + 1e-14j
        s = SpectralState(P14, 0.0, coeffs)
        assert s.coeffs[0].imag == 0.0
        stack = half_spectra([coeffs, 2 * coeffs], (2, 5))
        assert stack[:, 0].tolist() == [1.0, 2.0]

    def test_coeffs_are_immutable(self):
        s = make_state(P14, {0: 1.0})
        with pytest.raises(ValueError):
            s.coeffs[1] = 1.0


class TestSynthesize:
    def test_constant(self):
        values = synthesize(make_state(P14, {0: 1.0}), 16)
        assert np.allclose(values, 1.0, rtol=0, atol=1e-15)

    def test_cosine(self):
        # c[1] = 1/2 represents cos(lam*theta)
        values = synthesize(make_state(P14, {1: 0.5}), 32)
        expected = np.cos(P14.lam * np.arange(32) * (P14.period / 32))
        assert np.max(np.abs(values - expected)) < 1e-14

    def test_grid_too_small(self):
        s = make_state(P14, {0: 1.0})
        for call in (
            lambda: synthesize(s, 8),
            lambda: coeff_sup_deviation(np.stack([s.coeffs, s.coeffs]), 8),
            lambda: grid_derivative_sup(s, 1, 8),
        ):
            with pytest.raises(GridTooSmallError, match="grid of 8 points cannot resolve modes up to 4"):
                call()

    def test_round_trip_random(self, rng):
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=8)
            s = random_trapped_state(params, rng)
            for m in (2 * 8 + 1, 4 * 8, 64):
                assert round_trip_defect(s, m) <= 1e-12 * (1.0 + np.max(np.abs(s.coeffs)))


def test_constant_sup_deviation_is_exact_on_the_default_grid():
    # a power-of-two synthesis of c[0] alone is c[0] at every point
    inexact = []
    for n_max in range(1, 301):
        coeffs = np.zeros((3, n_max + 1), dtype=np.complex128)
        coeffs[:, 0] = (1.0, 4 / 3, math.pi)
        if np.any(coeff_sup_deviation(coeffs, default_grid_size(FlowParams(p=1, lam=2.0, n_max=n_max)))):
            inexact.append(n_max)
    assert inexact == []


class TestAnalyzeGrid:
    def test_constant_field(self):
        s = analyze_grid(P14, np.full(16, 2.5))
        assert s.t == 0.0
        assert s.coeffs[0] == 2.5
        assert np.all(s.coeffs[1:] == 0.0)

    def test_cos_2lam_theta(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        thetas = np.arange(16) * params.period / 16
        s = analyze_grid(params, np.cos(2 * params.lam * thetas))
        assert abs(s.coeffs[2] - 0.5) < 1e-15
        others = np.abs(s.coeffs[[0, 1, 3, 4]])
        assert np.max(others) < 1e-15

    def test_rejects_non_finite(self):
        values = np.full(16, 1.0)
        values[3] = np.nan
        with pytest.raises(ValueError):
            analyze_grid(P14, values)


class TestSeminorm:
    def test_constant_is_zero(self):
        assert coeff_seminorm(make_state(P14, {0: 3.0}).coeffs, 2.0) == 0.0

    def test_cos_beta2(self):
        assert coeff_seminorm(make_state(P14, {1: 0.5}).coeffs, 2.0) == 0.5

    def test_sin_2lam_beta2(self):
        # sin(2 lam theta) has c[2] = -i/2
        assert coeff_seminorm(make_state(P14, {2: -0.5j}).coeffs, 2.0) == 2.0

    def test_absolute_homogeneity(self, rng):
        s = random_trapped_state(FlowParams(p=1, lam=2.0, n_max=8), rng)
        for a in (-2.0, 0.5, 3.0):
            scaled = s.scaled(abs(a)) if a > 0 else s.with_coeffs(s.coeffs * a)
            for beta in (0.5, 2.0, 3.0):
                assert coeff_seminorm(scaled.coeffs, beta) == pytest.approx(
                    abs(a) * coeff_seminorm(s.coeffs, beta), rel=1e-14
                )

    def test_stack_matches_row_by_row(self, rng):
        params = FlowParams(p=1, lam=2.0, n_max=8)
        stack = np.array([random_trapped_state(params, rng).coeffs for _ in range(7)])
        for beta in (0.5, 2.0, 3.0):
            rows = coeff_seminorm(stack, beta)
            assert rows.shape == (7,)
            assert rows.tolist() == [coeff_seminorm(c, beta) for c in stack]


class TestClBound:
    def test_constant_zero(self):
        for l in (0, 1, 3):
            assert coeff_cl_bound(make_state(P14, {0: 1.0}).coeffs, P14.lam, l) == 0.0

    def test_cos_l0(self):
        s = make_state(P14, {1: 0.5})
        assert coeff_cl_bound(s.coeffs, P14.lam, 0) == 1.0
        assert grid_derivative_sup(s, 0) == pytest.approx(1.0, abs=1e-12)

    def test_cos_l1_lam2(self):
        # d/dtheta cos(2 theta) peaks at 2
        s = make_state(P14, {1: 0.5})
        assert coeff_cl_bound(s.coeffs, P14.lam, 1) == 2.0
        assert grid_derivative_sup(s, 1) == pytest.approx(2.0, abs=1e-12)

    def test_bound_dominates_grid_sup(self, rng):
        for _ in range(20):
            params = FlowParams(p=1, lam=2.0, n_max=8)
            s = random_trapped_state(params, rng)
            for l in (0, 1, 2, 3):
                assert grid_derivative_sup(s, l) <= coeff_cl_bound(s.coeffs, params.lam, l) + 1e-10


def test_lambda_threshold_values():
    assert lambda_threshold(1) == pytest.approx(math.sqrt(3))
    assert lambda_threshold(2) == pytest.approx(math.sqrt(2))
