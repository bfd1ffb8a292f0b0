import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsflow.checks import oracle_defects, placement_defect, split_defect
from pcsflow.errors import OversizeError, PositivityError
from pcsflow.rhs import RhsPlan, h_kernel, normalized_rhs, rhs_direct, rhs_fast
from pcsflow.spectral import FlowParams, SpectralState, lambda_threshold, pad_size, synthesize

from conftest import make_state, random_trapped_state, rel_diff


class TestHKernel:
    def test_q1_zero_kills_lambda_terms(self):
        for p in (1, 2, 3):
            for q2 in (-3, 0, 7):
                assert h_kernel(p, 2.0, 0, q2) == pytest.approx(1.0 / p)

    def test_p1_example(self):
        # 1 - lam^2 q1^2 with lam=2, q1=2: 1 - 16 = -15 (q1*q2 term drops at p=1)
        assert h_kernel(1, 2.0, 2, 5) == -15.0

    def test_p2_example(self):
        # 1/2 - 4 - 4 = -7.5
        assert h_kernel(2, 2.0, 1, 1) == -7.5

    def test_array_broadcast(self):
        q = np.array([0, 1, 2])
        out = h_kernel(1, 2.0, q, q)
        assert np.allclose(out, 1.0 - 4.0 * q**2)


class TestRhsDirect:
    def test_constant_state(self):
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=4)
            a = 1.7
            d = rhs_direct(make_state(params, {0: a}))
            assert d[0].real == pytest.approx(a ** (p + 2) / p, rel=1e-14)
            assert np.max(np.abs(d[1:])) < 1e-14

    def test_zero_state(self):
        params = FlowParams(p=2, lam=2.0, n_max=4)
        assert np.all(rhs_direct(make_state(params, {})) == 0.0)

    def test_small_mode_linearization(self):
        # p=1, lam=2: d c[1]/dt = ((p+2)/p - lam^2) c0^2 c1 + O(c1^3) = -c1 + ...
        params = FlowParams(p=1, lam=2.0, n_max=4)
        eps = 1e-3
        d = rhs_direct(make_state(params, {0: 1.0, 1: eps}))
        assert d[1].real == pytest.approx(-eps, abs=5e-8)

    def test_guard(self):
        params = FlowParams(p=1, lam=2.0, n_max=16)
        with pytest.raises(OversizeError):
            rhs_direct(random_trapped_state(params, np.random.default_rng(0)))


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [2, 4, 8])
    def test_fast_and_convolution_match_direct(self, p, n_max, rng):
        params = FlowParams(p=p, lam=2.0, n_max=n_max)
        for _ in range(25):
            fast, convolution = oracle_defects(random_trapped_state(params, rng))
            assert fast < 1e-10
            assert convolution < 1e-12

    def test_rational_lambda_case(self, rng):
        params = FlowParams(p=1, lam=3.5, n_max=6, rational=(7, 2))
        for _ in range(10):
            assert oracle_defects(random_trapped_state(params, rng))[0] < 1e-10

    @settings(deadline=None, max_examples=12)
    @given(
        p=st.sampled_from((1, 2, 3)),
        n_max=st.integers(9, 12),
        margin=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wide_band_property(self, p, n_max, margin, seed):
        params = FlowParams(p=p, lam=lambda_threshold(p) + margin, n_max=n_max)
        fast, convolution = oracle_defects(random_trapped_state(params, np.random.default_rng(seed)))
        assert fast < 1e-10
        assert convolution < 1e-12

    def test_mode2_quadratic_coupling_hand_enumeration(self):
        # state c0=1, c1=eps: the mode-2 derivative is the sum over ordered
        # triples summing to 2 with at least two nonzero entries; enumerate
        # them independently with itertools as the oracle.
        params = FlowParams(p=1, lam=2.0, n_max=4)
        eps = 1e-3
        table = {0: 1.0, 1: eps, -1: eps}
        total = 0.0
        for q1, q2 in itertools.product(range(-4, 5), repeat=2):
            q3 = 2 - q1 - q2
            if abs(q3) > 4:
                continue
            prod = table.get(q1, 0.0) * table.get(q2, 0.0) * table.get(q3, 0.0)
            total += h_kernel(1, 2.0, q1, q2) * prod
        assert total == pytest.approx(-5 * eps**2, rel=1e-12)
        d = rhs_fast(make_state(params, {0: 1.0, 1: eps}))
        assert d[2].real == pytest.approx(total, rel=1e-10)
        assert abs(d[2].imag) < 1e-18


class TestStructuralProperties:
    def test_hermitian_preservation(self, rng):
        # output of a Hermitian state is Hermitian by construction of the
        # half-spectrum path; the zero mode must come out exactly real
        for p in (1, 2):
            s = random_trapped_state(FlowParams(p=p, lam=2.0, n_max=8), rng)
            assert rhs_fast(s)[0].imag == 0.0
            assert rhs_direct(s)[0].imag == 0.0
            assert normalized_rhs(s)[0].imag == 0.0

    def test_translation_equivariance(self, rng):
        # shifting theta by s multiplies mode n by exp(i lam n s) on both
        # the input and the derivative
        params = FlowParams(p=2, lam=2.0, n_max=6)
        s = random_trapped_state(params, rng)
        shift = 0.37
        phase = np.exp(1j * params.lam * np.arange(7) * shift)
        shifted = s.with_coeffs(s.coeffs * phase)
        lhs = rhs_fast(shifted)
        rhs_ = rhs_fast(s) * phase
        assert rel_diff(lhs, rhs_) < 1e-12

    def test_scaling_law(self, rng):
        # rhs(a*state) = a^{p+2} rhs(state)
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=6)
            s = random_trapped_state(params, rng)
            for a in (0.5, 2.0):
                assert rel_diff(rhs_fast(s.scaled(a)), a ** (p + 2) * rhs_fast(s)) < 1e-12

    def test_pad_size_rule(self):
        # the smallest power of two >= (p+3)*n_max + 1, at least 16; the
        # 3-smooth length would be 18, 36, 27, 108, 288 and 648 instead
        expected = {(1, 4): 32, (1, 8): 64, (2, 5): 32, (3, 17): 128, (1, 64): 512, (3, 100): 1024}
        assert {case: pad_size(FlowParams(p=case[0], lam=2.0, n_max=case[1])) for case in expected} == expected
        assert pad_size(FlowParams(p=1, lam=2.0, n_max=1)) == 16


class TestRhsSplit:
    def test_single_tuple_identity(self):
        # sum of H over the p+2 single-nonzero placements collapses to the
        # diagonal coefficient (p+2)/p - lam^2 n^2
        for p in (1, 2, 3):
            for n in range(0, 7):
                assert placement_defect(p, 2.0, n) <= 1e-12

    def test_constant_state_has_zero_nonlinear(self):
        # constant data has no tuple part: the derivative is the zero mode's
        # diagonal term (1/p) c0^{p+2} alone
        params = FlowParams(p=2, lam=2.0, n_max=4)
        expected = np.zeros(5, dtype=np.complex128)
        expected[0] = 1.3**4 / 2
        assert np.max(np.abs(rhs_fast(make_state(params, {0: 1.3})) - expected)) < 1e-13

    def test_reassembly(self):
        # the placement identity over a whole band, as verify's diagonal_split check runs it
        for p in (1, 2, 3):
            assert split_defect(FlowParams(p=p, lam=2.0, n_max=8)) < 1e-12


class TestNormalizedRhs:
    def test_steady_state(self):
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=6)
            assert np.max(np.abs(normalized_rhs(make_state(params, {0: 1.0})))) == 0.0

    def test_p1_reduction(self, rng):
        # at p=1 the operator must equal u^2 u_thth + u^3 - u evaluated
        # pseudospectrally on an independent large grid
        params = FlowParams(p=1, lam=2.0, n_max=6)
        s = random_trapped_state(params, rng)
        m = 128
        n = np.arange(7, dtype=float)
        half = np.zeros(m // 2 + 1, complex)
        half[:7] = s.coeffs
        u = np.fft.irfft(half, m) * m
        half_dd = np.zeros(m // 2 + 1, complex)
        half_dd[:7] = s.coeffs * -((params.lam * n) ** 2)
        u_dd = np.fft.irfft(half_dd, m) * m
        vals = u * u * u_dd + u**3 - u
        expected = np.fft.rfft(vals)[:7] / m
        assert rel_diff(normalized_rhs(s), expected) < 1e-12

    def test_linearization_eigenvalues(self):
        # central finite differences around u == 1: eigenvalue of mode n is
        # -(p lam^2 n^2 - p - 1) for n != 0 and +(p+1) for the mean
        eps = 1e-6
        for p, lam in ((1, 2.0), (2, 2.0), (1, 2.5)):
            params = FlowParams(p=p, lam=lam, n_max=4)
            for n in range(0, 5):
                bump = np.zeros(5, complex)
                bump[n] = 1.0
                base = np.zeros(5, complex)
                base[0] = 1.0
                plus = normalized_rhs(SpectralState(params, 0.0, base + eps * bump))
                minus = normalized_rhs(SpectralState(params, 0.0, base - eps * bump))
                derivative = (plus - minus) / (2 * eps)
                expected = (p + 1) if n == 0 else -(p * lam**2 * n**2 - p - 1)
                assert derivative[n].real == pytest.approx(expected, abs=1e-6)

    def test_positivity_guard(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        s = make_state(params, {0: 1.0, 1: 0.8})  # dips negative
        with pytest.raises(PositivityError):
            normalized_rhs(s)


class TestRhsPlan:
    def test_plan_matches_oracle(self, rng):
        # the evaluator the integrator calls, on bare arrays, within the
        # criterion-2 bound of the tuple oracle; re-evaluating the first state
        # after the others shows the reused buffer carries nothing over
        for p in (1, 2, 3):
            for n_max in (1, 5, 12):
                params = FlowParams(p=p, lam=2.0, n_max=n_max)
                plan = RhsPlan(params)
                states = [random_trapped_state(params, rng) for _ in range(3)]
                first, _ = plan(np.array(states[0].coeffs))
                for s in states:
                    deriv, grid = plan(np.array(s.coeffs))
                    assert rel_diff(deriv, rhs_direct(s)) < 1e-10
                    profile = synthesize(s, pad_size(params))
                    assert np.max(np.abs(grid - profile)) < 1e-12 * np.max(np.abs(profile))
                assert np.array_equal(plan(np.array(states[0].coeffs))[0], first)

    def test_stacks_match_the_scaled_default_norm_row_by_row(self, rng):
        # reference: the evaluator before it took stacks, which scaled the
        # default norm by m and 1/m and set the mean's imaginary part to 0; a
        # stack gives each row the bits of that row alone
        def reference(plan, coeffs):
            p, m = plan.params.p, plan.m
            k, kd, kdd = np.fft.irfft(plan._mult * coeffs, n=m) * m
            deriv = np.fft.rfft(k**p * (k * kdd + (p - 1) * kd**2 + (k * k) / p))[: len(coeffs)] / m
            deriv[0] = deriv[0].real
            return deriv, k

        for p in (1, 2, 3):
            for n_max in (1, 5, 12, 33):
                plan = RhsPlan(FlowParams(p=p, lam=2.0, n_max=n_max))
                stack = np.array([random_trapped_state(plan.params, rng).coeffs for _ in range(4)])
                derivs, grids = plan(stack)
                for row, deriv, grid in zip(stack, derivs, grids):
                    want = reference(plan, row)
                    assert np.array_equal(deriv, want[0]) and np.array_equal(grid, want[1])
                    assert all(np.array_equal(a, b) for a, b in zip(plan(row), want))

    def test_normalized_plan_matches(self, rng):
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=8)
            plan = RhsPlan(params)
            for _ in range(3):
                s = random_trapped_state(params, rng)
                deriv = p * plan(np.array(s.coeffs))[0] - s.coeffs
                assert rel_diff(deriv, normalized_rhs(s)) < 1e-10
                assert rel_diff(deriv, p * rhs_direct(s) - s.coeffs) < 1e-10

    @settings(deadline=None, max_examples=25)
    @given(
        p=st.sampled_from((1, 2, 3)),
        n_max=st.integers(1, 16),
        margin=st.floats(0.01, 3.0),
        scale=st.floats(0.25, 4.0),
        shift=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling_and_translation_laws(self, p, n_max, margin, scale, shift, seed):
        # rhs(a c) = a^{p+2} rhs(c); shifting theta by alpha multiplies mode n
        # by exp(i lam n alpha) on the input and on the derivative; reflecting
        # theta conjugates both (the Hermitian law)
        params = FlowParams(p=p, lam=lambda_threshold(p) + margin, n_max=n_max)
        plan = RhsPlan(params)
        coeffs = np.array(random_trapped_state(params, np.random.default_rng(seed)).coeffs)
        base = plan(coeffs)[0].copy()
        assert rel_diff(plan(scale * coeffs)[0], scale ** (p + 2) * base) < 1e-12
        phase = np.exp(1j * params.lam * np.arange(n_max + 1) * shift)
        assert rel_diff(plan(coeffs * phase)[0], base * phase) < 1e-12
        assert rel_diff(plan(coeffs.conj())[0], base.conj()) < 1e-12
