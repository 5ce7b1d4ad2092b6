import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxrecon.errors import ConfigurationError
from fluxrecon.numerics import (_exp_step_weights, exp_convolve, gauss_legendre,
                                isotonic_nondecreasing, sliding_derivative, smoothstep,
                                trapezoid_weights)


class TestTrapezoidWeights:
    def test_sum_equals_length(self):
        w = trapezoid_weights(7, 2.5)
        assert len(w) == 8
        assert np.isclose(np.sum(w), 2.5, rtol=0, atol=1e-14)

    def test_exact_on_linear(self):
        n, L = 16, 3.0
        x = np.linspace(0.0, L, n + 1)
        w = trapezoid_weights(n, L)
        assert np.isclose(w @ (2.0 * x + 1.0), L * L + L, rtol=0, atol=1e-12)


class TestGaussLegendre:
    def test_exact_on_high_degree(self):
        # order-4 rule integrates polynomials up to degree 7 exactly
        x, w = gauss_legendre(4)
        assert np.isclose(w @ x**6, 2.0 / 7.0, rtol=0, atol=1e-14)
        assert np.isclose(w @ x**7, 0.0, rtol=0, atol=1e-14)

    def test_cached(self):
        assert gauss_legendre(4) is gauss_legendre(4)


class TestSmoothstep:
    def test_values(self):
        assert smoothstep(np.array([-1.0]))[0] == 0.0
        assert smoothstep(np.array([2.0]))[0] == 1.0
        assert np.isclose(smoothstep(np.array([0.5]))[0], 0.5)

    def test_monotone(self):
        u = np.linspace(-0.5, 1.5, 201)
        assert np.min(np.diff(smoothstep(u))) >= 0.0


class TestExpConvolve:
    def test_constant_coefficient_closed_form(self):
        # c(s) = 1 gives p(t) = (1 - exp(-lam t)) / lam exactly
        lam = np.array([7.3])
        times = np.linspace(0.0, 1.0, 65)
        p = exp_convolve(lam, times, np.ones((65, 1)))
        exact = (1.0 - np.exp(-lam[0] * times)) / lam[0]
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-14

    def test_linear_coefficient_closed_form(self):
        # c(s) = s gives p(t) = t/lam - (1 - exp(-lam t)) / lam^2 exactly
        lam = np.array([4.0])
        times = np.linspace(0.0, 2.0, 33)
        p = exp_convolve(lam, times, times[:, None])
        exact = times / lam[0] + np.expm1(-lam[0] * times) / lam[0] ** 2
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-14

    def test_zero_rate_is_trapezoid(self):
        # at lam = 0 the rule is the plain trapezoid, exact for linear data
        times = np.linspace(0.0, 1.0, 17)
        p = exp_convolve(np.array([0.0]), times, times[:, None])
        assert np.max(np.abs(p[:, 0] - times**2 / 2.0)) < 1e-15

    def test_tiny_rates_take_the_series_without_warnings(self):
        # a subnormal or zero rate must not reach the closed form, whose
        # division by it overflows even where np.where discards the result
        lam = np.array([5e-324, 0.0, 1e-300, 1.0, 1e4])
        dt = 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E, A, B = _exp_step_weights(lam, dt)
        assert np.array_equal(A[:3], np.full(3, dt))
        assert np.array_equal(B[:3], np.full(3, dt * dt / 2.0))
        assert np.all(np.isfinite(E)) and np.all(np.isfinite(A)) and np.all(np.isfinite(B))
        assert A[3] == -np.expm1(-dt)
        assert B[3] == dt + np.expm1(-dt)

    def test_series_branch_matches_exponential_branch(self):
        # lam*dt below the series switch must agree with the closed form
        lam = np.array([1e-5])
        times = np.linspace(0.0, 1.0, 9)
        p = exp_convolve(lam, times, np.ones((9, 1)))
        exact = -np.expm1(-lam[0] * times) / lam[0]
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-12

    def test_empty_series(self):
        p = exp_convolve(np.array([1.0]), np.array([0.0]), np.zeros((1, 1)))
        assert p.shape == (1, 1) and p[0, 0] == 0.0

    @given(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=12),
           st.floats(0.0, 50.0))
    def test_nonnegative_data_gives_nonnegative_response(self, coeffs, lam):
        times = np.linspace(0.0, 1.0, len(coeffs))
        p = exp_convolve(np.array([lam]), times, np.array(coeffs)[:, None])
        assert np.min(p) >= -1e-15

    @given(st.floats(0.1, 20.0), st.integers(2, 6))
    def test_linearity(self, lam, nt):
        times = np.linspace(0.0, 1.0, nt + 1)
        rng = np.random.default_rng(0)
        c1 = rng.normal(size=(nt + 1, 1))
        c2 = rng.normal(size=(nt + 1, 1))
        lams = np.array([lam])
        combo = exp_convolve(lams, times, c1 + 2.0 * c2)
        split = exp_convolve(lams, times, c1) + 2.0 * exp_convolve(lams, times, c2)
        assert np.max(np.abs(combo - split)) < 1e-12


class TestSlidingDerivative:
    def test_exact_on_quadratics(self):
        times = np.linspace(0.0, 2.0, 41)
        vals = 3.0 * times**2 - 2.0 * times + 1.0
        d = sliding_derivative(times, vals, halfwidth=2)
        assert np.max(np.abs(d - (6.0 * times - 2.0))) < 1e-11

    def test_end_windows_one_sided(self):
        # the first samples still get the exact quadratic derivative
        times = np.linspace(0.0, 1.0, 21)
        d = sliding_derivative(times, times**2, halfwidth=3)
        assert abs(d[0]) < 1e-12 and abs(d[-1] - 2.0) < 1e-12

    def test_multicolumn(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = np.column_stack([times, times**2])
        d = sliding_derivative(times, vals, halfwidth=1)
        assert np.max(np.abs(d[:, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(d[:, 1] - 2.0 * times)) < 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_quadratic_exactness_property(self, a, b, c):
        times = np.linspace(0.0, 1.0, 15)
        d = sliding_derivative(times, a * times**2 + b * times + c, halfwidth=2)
        assert np.max(np.abs(d - (2.0 * a * times + b))) < 1e-9

    def test_rejects_bad_halfwidth(self):
        with pytest.raises(ConfigurationError):
            sliding_derivative(np.linspace(0, 1, 9), np.zeros(9), halfwidth=0)

    def test_rejects_window_larger_than_data(self):
        with pytest.raises(ConfigurationError):
            sliding_derivative(np.linspace(0, 1, 4), np.zeros(4), halfwidth=2)

    def test_rejects_nonuniform_grid(self):
        times = np.array([0.0, 0.1, 0.3, 0.4, 0.5])
        with pytest.raises(ConfigurationError):
            sliding_derivative(times, np.zeros(5), halfwidth=1)


class TestIsotonic:
    def test_pools_violations(self):
        out = isotonic_nondecreasing(np.array([3.0, 1.0, 2.0]))
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_weights_shift_pooled_mean(self):
        out = isotonic_nondecreasing(np.array([3.0, 1.0]), np.array([3.0, 1.0]))
        assert np.allclose(out, [2.5, 2.5])

    def test_sorted_input_unchanged(self):
        y = np.array([0.0, 1.0, 1.0, 4.0])
        assert np.allclose(isotonic_nondecreasing(y), y)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            isotonic_nondecreasing(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30))
    def test_output_nondecreasing(self, ys):
        out = isotonic_nondecreasing(np.array(ys))
        assert np.all(np.diff(out) >= -1e-12)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30))
    def test_preserves_mean(self, ys):
        y = np.array(ys)
        assert np.isclose(np.mean(isotonic_nondecreasing(y)), np.mean(y),
                          rtol=1e-9, atol=1e-9)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30))
    def test_idempotent(self, ys):
        once = isotonic_nondecreasing(np.array(ys))
        assert np.allclose(isotonic_nondecreasing(once), once, atol=1e-12)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30))
    def test_stays_in_hull(self, ys):
        y = np.array(ys)
        out = isotonic_nondecreasing(y)
        assert np.min(out) >= np.min(y) - 1e-12
        assert np.max(out) <= np.max(y) + 1e-12
