import subprocess
import sys
import warnings
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import savgol_filter

from fluxrecon.errors import ConfigurationError
from fluxrecon.heatkernel import _GL_NODES, _GL_WEIGHTS
from fluxrecon.numerics import (_exp_step_weights, exp_convolve, isotonic_nondecreasing,
                                quantiles, sliding_derivative, trapezoid_weights)


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
        # the kernel's order-4 rule integrates polynomials up to degree 7 exactly
        x, w = _GL_NODES, _GL_WEIGHTS
        assert len(x) == 4
        assert np.isclose(w @ x**6, 2.0 / 7.0, rtol=0, atol=1e-14)
        assert np.isclose(w @ x**7, 0.0, rtol=0, atol=1e-14)

    def test_literal_rule_is_numpys_bit_for_bit(self):
        x, w = np.polynomial.legendre.leggauss(4)
        assert _GL_NODES.tobytes() == x.tobytes()
        assert _GL_WEIGHTS.tobytes() == w.tobytes()


def _sorted_quantiles(values, qs):
    # the rule of `quantiles` read off a full sort instead of numpy's partition
    x = np.sort(values)
    v = (len(x) - 1) * np.asarray(qs)
    lo = np.floor(v).astype(np.intp)
    a, b, t = x[lo], x[np.minimum(lo + 1, len(x) - 1)], v - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


class TestQuantiles:
    # repeated values and zeros of both signs, where the order a partition
    # leaves among equal values decides the sign of a zero quantile
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-5.0, 5.0),
                    min_size=1, max_size=400))
    def test_equals_numpy_bit_for_bit(self, values):
        x = np.array(values)
        kept = x.tobytes()
        assert (quantiles(x, [0.25, 0.5, 0.75]).tobytes()
                == np.percentile(x, [25.0, 50.0, 75.0]).tobytes())
        assert quantiles(x, [0.1, 0.9]).tobytes() == np.quantile(x, [0.1, 0.9]).tobytes()
        assert x.tobytes() == kept

    def test_partition_not_sort_places_the_signed_zeros(self):
        # on this sample a sort and numpy's partition leave zeros of other
        # signs at indices 2 and 3, so a sort-based rule writes 0 where
        # numpy writes -0 for the 0.9 quantile
        x = np.array([-0.0, 0.0, -0.0, -1.0])
        got = quantiles(x, [0.1, 0.9])
        assert got.tobytes() == np.quantile(x, [0.1, 0.9]).tobytes()
        assert np.signbit(got[1])
        assert not np.signbit(_sorted_quantiles(x, [0.1, 0.9])[1])

    def test_top_index_weighs_v_plus_one(self):
        # numpy reads a top index as -1, so its weight is v + 1, not 0: on one
        # -0.0 the lerp keeps the sign only with that weight
        x = np.array([-0.0])
        got = quantiles(x, [0.1, 0.5, 0.9])
        assert got.tobytes() == np.quantile(x, [0.1, 0.5, 0.9]).tobytes()
        assert np.signbit(got).all()
        # a weight of 0 takes the a + (b - a) t side, which gives +0.0
        assert not np.signbit(x[0] + (x[0] - x[0]) * 0.0)


def _exp_convolve_rows(lam, dt, coeffs):
    """exp_convolve as the sequential recurrence p[j+1] = E p[j] + c[j] A
    + slope[j] B, one row at a time."""
    nt = len(coeffs) - 1
    p = np.zeros_like(coeffs)
    E, A, B = _exp_step_weights(lam, dt)
    head = coeffs[:-1] * A
    slope = (coeffs[1:] - coeffs[:-1]) / dt * B
    for j in range(nt):
        row = np.multiply(E, p[j], out=p[j + 1])
        row += head[j]
        row += slope[j]
    return p


class TestExpConvolve:
    def test_constant_coefficient_closed_form(self):
        # c(s) = 1 gives p(t) = (1 - exp(-lam t)) / lam exactly
        lam = np.array([7.3])
        times = np.linspace(0.0, 1.0, 65)
        p = exp_convolve(lam, times[1], np.ones((65, 1)))
        exact = (1.0 - np.exp(-lam[0] * times)) / lam[0]
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-14

    def test_linear_coefficient_closed_form(self):
        # c(s) = s gives p(t) = t/lam - (1 - exp(-lam t)) / lam^2 exactly
        lam = np.array([4.0])
        times = np.linspace(0.0, 2.0, 33)
        p = exp_convolve(lam, times[1], times[:, None])
        exact = times / lam[0] + np.expm1(-lam[0] * times) / lam[0] ** 2
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-14

    def test_zero_rate_is_trapezoid(self):
        # at lam = 0 the rule is the plain trapezoid, exact for linear data
        times = np.linspace(0.0, 1.0, 17)
        p = exp_convolve(np.array([0.0]), times[1], times[:, None])
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
        p = exp_convolve(lam, times[1], np.ones((9, 1)))
        exact = -np.expm1(-lam[0] * times) / lam[0]
        assert np.max(np.abs(p[:, 0] - exact)) < 1e-12

    # random data against the row loop, with rates 0, log-spaced up to
    # lam dt = 1e3, and lam dt = 60 and 1e3, where the powers E^s of the
    # scan underflow. The bound is nt eps of max|p| (8 eps at least).
    # Measured over 50 seeds per nt, the largest gap was 0.58 nt eps
    # (nt = 2), 7.5e-15 at nt = 256 and 1.5e-13 (0.07 nt eps) at nt = 8192.
    @pytest.mark.parametrize("nt", [1, 2, 3, 7, 8, 9, 256, 8192])
    def test_scan_matches_the_row_loop(self, nt):
        rng = np.random.default_rng(nt)
        dt = 1.0 / nt
        k = 8 if nt > 256 else 1264
        lam = np.concatenate([[0.0], 10.0 ** rng.uniform(-6.0, np.log10(1e3 / dt), k - 3),
                              [60.0 / dt, 1e3 / dt]])
        coeffs = rng.normal(size=(nt + 1, k))
        ref = _exp_convolve_rows(lam, dt, coeffs)
        got = exp_convolve(lam, dt, coeffs)
        assert got.shape == ref.shape
        bound = max(nt, 8) * np.finfo(float).eps * np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= bound

    def test_empty_series(self):
        p = exp_convolve(np.array([1.0]), 1.0, np.zeros((1, 1)))
        assert p.shape == (1, 1) and p[0, 0] == 0.0

    @given(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=12),
           st.floats(0.0, 50.0))
    def test_nonnegative_data_gives_nonnegative_response(self, coeffs, lam):
        p = exp_convolve(np.array([lam]), 1.0 / (len(coeffs) - 1), np.array(coeffs)[:, None])
        assert np.min(p) >= -1e-15

    @given(st.floats(0.1, 20.0), st.integers(2, 6))
    def test_linearity(self, lam, nt):
        dt = 1.0 / nt
        rng = np.random.default_rng(0)
        c1 = rng.normal(size=(nt + 1, 1))
        c2 = rng.normal(size=(nt + 1, 1))
        lams = np.array([lam])
        combo = exp_convolve(lams, dt, c1 + 2.0 * c2)
        split = exp_convolve(lams, dt, c1) + 2.0 * exp_convolve(lams, dt, c2)
        assert np.max(np.abs(combo - split)) < 1e-12


def _exact_slope_taps(h):
    """Integer taps num and denominator den: row p of num / den gives the
    slope at offset p - h of the least-squares quadratic on a window at
    offsets -h..h, solved exactly from the normal equations."""
    rows = [(Fraction(1), Fraction(t), Fraction(t * t)) for t in range(-h, h + 1)]
    # Gauss-Jordan on [V^T V | I] leaves (V^T V)^-1 on the right
    a = [[sum(r[i] * r[j] for r in rows) for j in range(3)]
         + [Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for i in range(3):
        a[i] = [v / a[i][i] for v in a[i]]
        for k in range(3):
            if k != i:
                a[k] = [v - a[k][i] * u for v, u in zip(a[k], a[i])]
    inv = [row[3:] for row in a]
    taps = [[sum(d[i] * inv[i][j] * r[j] for i in range(3) for j in range(3)) for r in rows]
            for d in ((0, 1, 2 * t) for t in range(-h, h + 1))]
    den = lcm(*(v.denominator for row in taps for v in row))
    return np.array([[int(v * den) for v in row] for row in taps]), den


def _exact_sliding_derivative(dt, values, h):
    """The slope of each sample's window fit (the first and last window at
    the ends), summed in long double so that it holds to well below the
    rounding of a float64 sum."""
    num, den = _exact_slope_taps(h)
    n, w = len(values), 2 * h + 1
    x = values.reshape(n, -1).astype(np.longdouble)
    starts = np.clip(np.arange(n) - h, 0, n - w)
    windows = np.lib.stride_tricks.sliding_window_view(x, w, axis=0)[starts]
    slopes = np.einsum("icw,iw->ic", windows, num[np.arange(n) - starts].astype(np.longdouble))
    return (slopes / den / np.longdouble(dt)).astype(float).reshape(values.shape)


class TestSlidingDerivative:
    def test_exact_on_quadratics(self):
        times = np.linspace(0.0, 2.0, 41)
        vals = 3.0 * times**2 - 2.0 * times + 1.0
        d = sliding_derivative(times[1], vals, halfwidth=2)
        assert np.max(np.abs(d - (6.0 * times - 2.0))) < 1e-11

    def test_end_windows_one_sided(self):
        # the first samples still get the exact quadratic derivative
        times = np.linspace(0.0, 1.0, 21)
        d = sliding_derivative(times[1], times**2, halfwidth=3)
        assert abs(d[0]) < 1e-12 and abs(d[-1] - 2.0) < 1e-12

    def test_multicolumn(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = np.column_stack([times, times**2])
        d = sliding_derivative(times[1], vals, halfwidth=1)
        assert np.max(np.abs(d[:, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(d[:, 1] - 2.0 * times)) < 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_quadratic_exactness_property(self, a, b, c):
        times = np.linspace(0.0, 1.0, 15)
        d = sliding_derivative(times[1], a * times**2 + b * times + c, halfwidth=2)
        assert np.max(np.abs(d - (2.0 * a * times + b))) < 1e-9

    @given(st.integers(1, 4), st.data())
    def test_agrees_with_savgol_interp(self, h, data):
        # n == 2h + 1 leaves one interior sample between the end windows
        n = data.draw(st.integers(2 * h + 1, 400), label="n")
        trailing = data.draw(st.sampled_from([(), (3,), (2, 3)]), label="trailing")
        dt = data.draw(st.sampled_from([1.0, 0.0123, 1.0 / 257.0]), label="dt")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, *trailing)) * 10.0 ** rng.uniform(-3.0, 3.0)
        d = sliding_derivative(dt, values, halfwidth=h)
        ref = savgol_filter(values, 2 * h + 1, polyorder=2, deriv=1, delta=dt,
                            axis=0, mode="interp")
        assert d.shape == ref.shape
        # SciPy fits the end windows with polyfit, which rounds at the scale
        # of the samples: on a flat window its slope is off by more than
        # 1e-13 of itself, so the tight bound is held against the exact fit
        assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(values)) / dt
        exact = _exact_sliding_derivative(dt, values, h)
        assert np.max(np.abs(d - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_flat_end_windows_hold_to_the_exact_fit(self):
        # slopes some 80 times below the samples, where SciPy's
        # savgol_filter(mode="interp") is off by 1e-13 of the slope
        values = np.array([2.44956397, -4.23127656, 2.3830395, 0.93183579,
                           -1.69000157, 4.17067874, -1.28426036])
        d = sliding_derivative(1.0, values, halfwidth=3)
        exact = _exact_sliding_derivative(1.0, values, 3)
        assert np.max(np.abs(values)) > 70.0 * np.max(np.abs(exact))
        assert np.max(np.abs(d - exact)) <= 1e-14 * np.max(np.abs(exact))

    @pytest.mark.parametrize("dt", [1e16, 1e20])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_exact_at_huge_steps(self, h, dt):
        # taps of order 1/dt are below machine epsilon and still give the
        # slope of a line and of a quadratic, end windows included
        times = np.arange(2 * h + 5) * dt
        line = sliding_derivative(dt, 3.0 * times, halfwidth=h)
        assert np.max(np.abs(line - 3.0)) <= 1e-13
        quad = sliding_derivative(dt, times**2 - 2.0 * dt * times, halfwidth=h)
        slope = 2.0 * times - 2.0 * dt
        assert np.max(np.abs(quad - slope)) <= 1e-13 * np.max(np.abs(slope))

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_spike_has_zero_slope_at_its_sample(self, h):
        # the centre tap of the symmetric window is exactly zero
        values = np.zeros(4 * h + 3)
        values[2 * h + 1] = 1.0
        d = sliding_derivative(1.0 / (len(values) - 1), values, halfwidth=h)
        assert d[2 * h + 1] == 0.0

    def test_rejects_bad_halfwidth(self):
        with pytest.raises(ConfigurationError):
            sliding_derivative(1.0 / 8, np.zeros(9), halfwidth=0)

    def test_rejects_window_larger_than_data(self):
        with pytest.raises(ConfigurationError):
            sliding_derivative(1.0 / 3, np.zeros(4), halfwidth=2)


def test_import_graph_leaves_out_heavy_scipy(tmp_path, src_env):
    # the package needs numpy and SciPy's compiled LAPACK only; any of the
    # heavy modules would add hundreds of modules to the start-up of every
    # command. scipy.linalg's package init alone loads numpy.f2py and
    # numpy.testing; np.quantile and np.percentile load numpy.ma, and
    # leggauss numpy.polynomial. None of them is loaded by the imports, nor
    # by synthesize and reconstruct on the interval and on the rectangle and
    # every verify suite, which "all" runs in this process
    heavy = ["scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize",
             "scipy.ndimage", "scipy.sparse", "scipy.linalg", "numpy.f2py",
             "numpy.testing", "numpy.ma", "numpy.polynomial"]
    configs = Path(__file__).resolve().parents[1] / "configs"
    scenarios = [str(configs / f"{name}.json")
                 for name in ("linear_interval", "saturating_rectangle")]
    code = ("import sys\n"
            "from pathlib import Path\n"
            "import fluxrecon.cli, fluxrecon.suites, fluxrecon.recon\n"
            f"print(sorted(set({heavy!r}) & set(sys.modules)))\n"
            "from fluxrecon import experiments as ex\n"
            f"for i, scenario in enumerate({scenarios!r}):\n"
            f"    out = Path({str(tmp_path)!r}) / str(i)\n"
            "    paths = ex.run_synthesize(ex.load_scenario(scenario), out)\n"
            "    ex.run_reconstruct(paths['observation'], out)\n"
            "assert ex.run_verify('all')['passed']\n"
            f"print(sorted(set({heavy!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.mark.parametrize("first", ["fluxrecon.forward", "scipy.linalg"])
def test_lapack_routines_are_scipys(first, src_env):
    # the package's dpttrs is the routine scipy.linalg hands out, whichever
    # of the two is imported first, and the two imports share one module
    second = "scipy.linalg" if first == "fluxrecon.forward" else "fluxrecon.forward"
    code = (f"import {first}\n"
            f"import {second}\n"
            "import numpy as np\n"
            "from fluxrecon import _lapack\n"
            "pttrs, = scipy.linalg.get_lapack_funcs(('pttrs',), (np.zeros(2),))\n"
            "assert _lapack.dpttrs is pttrs\n"
            "assert _lapack._flapack is scipy.linalg.lapack._flapack\n")
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr


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
