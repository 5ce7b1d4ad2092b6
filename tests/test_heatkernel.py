import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from fluxrecon.errors import InputError
from fluxrecon.fields import BoundaryTrace
from fluxrecon.geometry import boundary_nodes, build_grid, interval, rectangle
from fluxrecon.heatkernel import KernelEvaluator, _sigma_panels


@pytest.fixture(scope="module")
def ev():
    return KernelEvaluator(interval())


class TestConfig:
    def test_default_crossover_value(self):
        # 2 ln(1/tail_tol) / lambda_200 of each axis
        ev = KernelEvaluator(rectangle(1.0, 2.0))
        for crossover, L in zip(ev.crossovers, (1.0, 2.0)):
            lam_top = (199 * np.pi / L) ** 2
            assert np.isclose(crossover, 2.0 * np.log(1e12) / lam_top, rtol=1e-12)


class TestPointValues:
    def test_rejects_nonpositive_tau(self, ev):
        with pytest.raises(InputError):
            ev.values(0.5, 0.5, np.array([0.0]))
        with pytest.raises(InputError):
            ev.profile(0.5, np.array([[0.5]]), -1.0)

    def test_free_space_limit(self, ev):
        # far from the boundary at tiny tau the images sum is one Gaussian
        tau = 1e-5
        val = ev.value(0.5, 0.5, tau)
        assert np.isclose(val, 1.0 / np.sqrt(4.0 * np.pi * tau), rtol=1e-12)

    def test_branch_agreement_in_overlap(self, ev):
        rect = KernelEvaluator(rectangle())
        for kernel, pairs in [
                (ev, [(0.5, 0.5), (0.0, 0.0), (0.3, 0.7), (1.0, 0.98)]),
                (rect, [((0.5, 0.5), (0.5, 0.5)), ((0.0, 0.0), (0.0, 0.0)),
                        ((0.3, 0.1), (0.7, 0.2)), ((1.0, 0.5), (0.98, 0.5))])]:
            taus = np.linspace(kernel.crossovers[0] / 2, 2 * kernel.crossovers[0], 9)
            for x, y in pairs:
                dev = np.max(np.abs(kernel.spectral_values(x, y, taus)
                                    - kernel.images_values(x, y, taus)))
                assert dev < 1e-8

    def test_symmetry(self, ev):
        taus = np.logspace(-5, 1, 13)
        assert np.max(np.abs(ev.values(0.2, 0.9, taus) - ev.values(0.9, 0.2, taus))) < 1e-10

    def test_longtime_limit(self, ev):
        # only the constant mode survives: U -> omega_1(x) omega_1(y) = 1/|domain|
        assert abs(ev.value(0.3, 0.9, 50.0) - 1.0) < 1e-10
        rect = KernelEvaluator(rectangle(1.0, 2.0))
        assert abs(rect.value((0.3, 1.7), (0.9, 0.2), 50.0) - 0.5) < 1e-10

    def test_strict_positivity_at_moderate_tau(self, ev):
        for tau in np.logspace(-2, 1, 7):
            assert ev.value(0.0, 1.0, tau) > 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-4, 2.0))
    def test_nonnegative_everywhere(self, x, y, tau):
        ev = KernelEvaluator(interval())
        assert ev.value(x, y, tau) >= 0.0

    @given(st.floats(0.05, 100.0), st.floats(0.05, 100.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(1e-4, 10.0))
    def test_rectangle_is_product_of_intervals(self, lx, ly, ux, uy, vx, vy, tau):
        rect = KernelEvaluator(rectangle(lx, ly)).value((ux * lx, uy * ly),
                                                        (vx * lx, vy * ly), tau)
        ax = KernelEvaluator(interval(lx)).value(ux * lx, vx * lx, tau)
        ay = KernelEvaluator(interval(ly)).value(uy * ly, vy * ly, tau)
        # values clips a sum below its rounding error to 0, and two such
        # negative factors multiply to a positive 1e-32 on the rectangle
        if ax > 0 or ay > 0:
            assert abs(rect - ax * ay) <= 1e-12 * abs(ax * ay)

    def test_profile_matches_values(self, ev):
        ys = np.linspace(0.0, 1.0, 7)
        for tau in (ev.crossovers[0] / 2, 0.3):
            prof = ev.profile(0.4, ys[:, None], tau)
            ref = np.array([ev.value(0.4, y, tau) for y in ys])
            assert np.max(np.abs(prof - ref)) < 1e-13


class TestMass:
    def test_spectral_branch(self, ev):
        assert abs(ev.mass(0.31, 0.5) - 1.0) < 1e-8

    def test_images_branch(self, ev):
        for x in (0.0, 0.5, 1.0):
            assert abs(ev.mass(x, 1e-3) - 1.0) < 1e-6

    def test_rectangle(self):
        ev2 = KernelEvaluator(rectangle())
        for tau in (1e-3, 0.5):
            assert abs(ev2.mass(np.array([0.25, 0.8]), tau) - 1.0) < 1e-6

    def test_long_thin_rectangle(self):
        # each axis takes its own branch: with one crossover from the long
        # axis, the short one summed 5 images at tau >> 0.1^2 (mass -0.27
        # at tau = 0.5)
        ev2 = KernelEvaluator(rectangle(100.0, 0.1))
        for tau in (0.01, 0.1, 0.5, 1.0):
            assert abs(ev2.mass(np.array([50.0, 0.03]), tau) - 1.0) <= 1e-10

    def test_long_interval(self):
        # 1024 cells over all of (0, 100) would be 0.1 wide, against
        # Gaussians 1.4e-3 to 4.5e-2 wide at these gaps
        ev100 = KernelEvaluator(interval(100.0))
        for tau in (1e-6, 1e-4, 1e-3):
            for x in (0.0, 0.03, 50.0, 100.0):
                assert abs(ev100.mass(x, tau) - 1.0) <= 1e-10

    def test_semigroup_identity(self, ev):
        grid = build_grid(interval(), 512)
        zs = grid.points
        comp = float(np.sum(grid.weights * ev.profile(0.2, zs, 0.004)
                            * ev.profile(0.8, zs, 0.006)))
        assert abs(comp - ev.value(0.2, 0.8, 0.01)) < 1e-5


class TestBoundaryPropagate:
    def _trace(self, fn, nt=64):
        nodes = boundary_nodes(build_grid(interval(), 8))
        times = np.linspace(0.0, 1.0, nt + 1)
        values = np.stack([fn(times), fn(times)], axis=1)
        return BoundaryTrace(nodes=nodes, final_time=1.0, values=values)

    def _oracle(self, ev, g, x, t):
        # independent adaptive quadrature in sigma = sqrt(t - s)
        def integrand(sigma):
            tau = sigma * sigma
            u = sum(ev.value(x, float(g.nodes.nodes[b, 0]), tau)
                    * np.interp(t - tau, g.times, g.values[:, b])
                    * g.nodes.weights[b] for b in range(g.nodes.count))
            return 2.0 * sigma * u
        val, _ = quad(integrand, 1e-12, np.sqrt(t), limit=200)
        return val

    def test_constant_data_vs_quadrature(self, ev):
        g = self._trace(lambda ts: np.ones_like(ts))
        for t in (0.25, 1.0):
            got = ev.boundary_propagate(g, 0.0, t)
            assert abs(got - self._oracle(ev, g, 0.0, t)) < 1e-8

    def test_linear_data_vs_quadrature(self, ev):
        g = self._trace(lambda ts: ts)
        got = ev.boundary_propagate(g, 1.0, 0.7)
        assert abs(got - self._oracle(ev, g, 1.0, 0.7)) < 1e-8

    def test_zero_time(self, ev):
        g = self._trace(lambda ts: ts)
        assert ev.boundary_propagate(g, 0.5, 0.0) == 0.0

    def test_rejects_time_outside_data(self, ev):
        g = self._trace(lambda ts: ts)
        with pytest.raises(InputError):
            ev.boundary_propagate(g, 0.5, 1.5)

    def test_trace_grid(self, ev):
        g = self._trace(lambda ts: ts, nt=8)
        out = ev.boundary_propagate_trace(g)
        assert out.shape == (9, 2)
        assert np.allclose(out[0], 0.0)
        # symmetric data gives symmetric functional
        assert np.max(np.abs(out[:, 0] - out[:, 1])) < 1e-12

    @staticmethod
    def _noisy_trace(domain, m, nt):
        # noisy data exercises every lag weight
        nodes = boundary_nodes(build_grid(domain, max(2 * m, 8)))
        times = np.linspace(0.0, 1.0, nt + 1)
        rng = np.random.default_rng(7)
        values = times[:, None] * (1.0 + 0.1 * rng.standard_normal((nt + 1, nodes.count)))
        return BoundaryTrace(nodes=nodes, final_time=1.0, values=values)

    @pytest.mark.parametrize("domain, m, nt", [
        pytest.param(interval(), 0, 128, id="interval"),
        pytest.param(rectangle(), 8, 64, id="rectangle"),
        # nt <= 8 has no far part, 8 is exactly the near lags, 9 the first far lag
        *[pytest.param(domain, m, nt, id=f"{name}-{nt}")
          for name, domain, m in [("interval", interval(), 0), ("rectangle", rectangle(0.9, 1.3), 4)]
          for nt in (1, 7, 8, 9)],
        # 640 far modes past 8 lags, so the near lags double to 32 (166 left)
        pytest.param(rectangle(4.0, 4.0), 4, 64, id="long-rectangle")])
    def test_lag_operator_matches_scalar_loop(self, domain, m, nt):
        ev = KernelEvaluator(domain)
        g = self._noisy_trace(domain, m, nt)
        got = ev.boundary_propagate_trace(g)
        ref = np.array([[ev.boundary_propagate(g, p, float(t)) for p in g.nodes.nodes]
                        for t in g.times])
        assert got.shape == ref.shape == (nt + 1, g.nodes.count)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _one_table_trace(ev, g):
        """The lag operator with the kernel of every lag from one _block call."""
        nt, dt, pts = len(g.values) - 1, g.dt, g.nodes.nodes
        sigma, quad = _sigma_panels(np.sqrt(np.arange(nt + 1) * dt))
        theta_lo = sigma**2 / dt - np.arange(nt)[:, None]
        kv = ev._block(pts, pts, (sigma**2).ravel())
        kv = kv.reshape(nt, 4, len(pts), -1) * g.nodes.weights
        w_up = np.einsum("lq,lqib->lib", quad * (1.0 - theta_lo), kv)
        w_lo = np.einsum("lq,lqib->lib", quad * theta_lo, kv)
        out = np.zeros((nt + 1, len(pts)))
        for lag in range(nt):
            out[lag + 1:] += (g.values[1:nt + 1 - lag] @ w_up[lag].T
                              + g.values[:nt - lag] @ w_lo[lag].T)
        return out

    @pytest.mark.parametrize("domain, m, nt", [
        pytest.param(interval(), 0, 256, id="256"),
        pytest.param(interval(), 0, 2048, id="2048"),
        pytest.param(rectangle(), 8, 256, id="rectangle-256")])
    def test_lag_blocks_match_one_table(self, domain, m, nt):
        # the far lags integrate the modal series exactly in time, not by
        # the sigma-panel rule of the one table, which moves rounding only
        ev = KernelEvaluator(domain)
        g = self._noisy_trace(domain, m, nt)
        got = ev.boundary_propagate_trace(g)
        ref = self._one_table_trace(ev, g)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("domain, m, nt, limit", [
        (interval(), 0, 2048, 5e6), (rectangle(), 8, 256, 5e6),
        (rectangle(5.0, 5.0), 4, 128, 5e6), (rectangle(16.0, 16.0), 8, 1024, 20e6)],
        ids=["interval", "rectangle", "long-rectangle", "long-square"])
    def test_trace_peak_memory(self, domain, m, nt, limit):
        # one table of all 8192 gaps against 200 modes would take 13 MB on
        # the interval; weights for every lag took 38 MB on the 32-node
        # rectangle; the long one keeps 1961 far modes past 8 lags, 10 MB of
        # (nt+1, K) arrays, and 255 past 64. The 16 x 16 square doubles L0
        # up to nt = 1024 near lags: their table in one piece took 121 MB,
        # in chunks of 8 lags 13 MB
        ev = KernelEvaluator(domain)
        g = self._noisy_trace(domain, m, nt)
        tracemalloc.start()
        try:
            ev.boundary_propagate_trace(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("nt", [64, 2048])
    def test_kernel_table_holds_only_the_near_lags(self, ev, nt, monkeypatch):
        # on the unit interval 8 lags of 4 Gauss points each, whatever nt is
        gaps = []
        block = KernelEvaluator._block

        def spy(self, xs, ys, taus, spectral=None):
            gaps.append(len(taus))
            return block(self, xs, ys, taus, spectral)

        monkeypatch.setattr(KernelEvaluator, "_block", spy)
        g = self._trace(lambda ts: ts, nt)
        ev.boundary_propagate_trace(g)
        assert sum(gaps) == 4 * 8

    def test_trace_single_sample(self, ev):
        nodes = boundary_nodes(build_grid(interval(), 8))
        g = BoundaryTrace(nodes=nodes, final_time=1.0, values=np.ones((1, 2)))
        out = ev.boundary_propagate_trace(g)
        assert out.shape == (1, 2)
        assert np.all(out == 0.0)

