import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from fluxrecon.errors import InputError
from fluxrecon.fields import BoundaryTrace
from fluxrecon.geometry import boundary_nodes, build_grid, interval, rectangle
from fluxrecon.heatkernel import _GL_NODES, _GL_WEIGHTS, KernelEvaluator


@pytest.fixture(scope="module")
def ev():
    return KernelEvaluator(interval())


class TestConfig:
    def test_default_crossover_value(self, ev):
        # 2 ln(1/tail_tol) / lambda_200 on the unit interval
        lam_top = (199 * np.pi) ** 2
        assert np.isclose(ev.crossover, 2.0 * np.log(1e12) / lam_top, rtol=1e-12)


class TestPointValues:
    def test_rejects_nonpositive_tau(self, ev):
        with pytest.raises(InputError):
            ev.values(0.5, 0.5, np.array([0.0]))
        with pytest.raises(InputError):
            ev.profile(0.5, np.array([0.5]), -1.0)

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
            taus = np.linspace(kernel.crossover / 2, 2 * kernel.crossover, 9)
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

    def test_profile_matches_values(self, ev):
        ys = np.linspace(0.0, 1.0, 7)
        for tau in (ev.crossover / 2, 0.3):
            prof = ev.profile(0.4, ys, tau)
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

    def test_semigroup_identity(self, ev):
        grid = build_grid(interval(), 512)
        zs = grid.axes[0]
        comp = float(np.sum(grid.weights * ev.profile(0.2, zs, 0.004)
                            * ev.profile(0.8, zs, 0.006)))
        assert abs(comp - ev.value(0.2, 0.8, 0.01)) < 1e-5


class TestBoundaryPropagate:
    def _trace(self, fn, nt=64):
        nodes = boundary_nodes(interval())
        times = np.linspace(0.0, 1.0, nt + 1)
        values = np.stack([fn(times), fn(times)], axis=1)
        return BoundaryTrace(nodes=nodes, times=times, values=values)

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
        out = ev.boundary_propagate_trace(g, g.nodes.nodes)
        assert out.shape == (9, 2)
        assert np.allclose(out[0], 0.0)
        # symmetric data gives symmetric functional
        assert np.max(np.abs(out[:, 0] - out[:, 1])) < 1e-12

    @pytest.mark.parametrize("domain, m, nt", [(interval(), 0, 128), (rectangle(), 8, 64)],
                             ids=["interval", "rectangle"])
    def test_lag_operator_matches_scalar_loop(self, domain, m, nt):
        # noisy data exercises every lag weight; the rectangle has 32 nodes
        ev = KernelEvaluator(domain)
        nodes = boundary_nodes(domain, m)
        times = np.linspace(0.0, 1.0, nt + 1)
        rng = np.random.default_rng(7)
        values = times[:, None] * (1.0 + 0.1 * rng.standard_normal((nt + 1, nodes.count)))
        g = BoundaryTrace(nodes=nodes, times=times, values=values)
        got = ev.boundary_propagate_trace(g, nodes.nodes)
        ref = np.array([[ev.boundary_propagate(g, p, float(t)) for p in nodes.nodes]
                        for t in times])
        assert got.shape == ref.shape == (nt + 1, nodes.count)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _one_table_trace(ev, g, pts):
        """The lag operator with the kernel of every lag from one _block call."""
        nt = len(g.times) - 1
        dt = float(g.times[-1]) / nt
        sig_edges = np.sqrt(np.arange(nt + 1) * dt)
        xi, wq = _GL_NODES, _GL_WEIGHTS
        half = 0.5 * np.diff(sig_edges)[:, None]
        mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])[:, None]
        sigma = mid + half * xi[None, :]
        theta_lo = sigma**2 / dt - np.arange(nt)[:, None]
        quad = 2.0 * sigma * half * wq[None, :]
        kv = ev._block(pts, g.nodes.nodes, (sigma**2).ravel())
        kv = kv.reshape(nt, 4, len(pts), -1) * g.nodes.weights
        w_up = np.einsum("lq,lqib->lib", quad * (1.0 - theta_lo), kv)
        w_lo = np.einsum("lq,lqib->lib", quad * theta_lo, kv)
        out = np.zeros((nt + 1, len(pts)))
        for lag in range(nt):
            out[lag + 1:] += (g.values[1:nt + 1 - lag] @ w_up[lag].T
                              + g.values[:nt - lag] @ w_lo[lag].T)
        return out

    @pytest.mark.parametrize("nt", [256, 2048])
    def test_lag_blocks_match_one_table(self, ev, nt):
        # 256 lags are one block of the table, the same bits as one call;
        # at 2048 the later blocks keep fewer modes, which moves rounding
        rng = np.random.default_rng(3)
        g = self._trace(lambda ts: ts * (1.0 + 0.1 * rng.standard_normal(ts.shape)), nt)
        pts = np.array([[0.0], [0.3], [1.0]])
        got = ev.boundary_propagate_trace(g, pts)
        ref = self._one_table_trace(ev, g, pts)
        if nt == 256:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_trace_table_is_blocked(self, ev):
        # one table of all 8192 gaps against 200 modes would take 13 MB
        g = self._trace(lambda ts: ts, nt=2048)
        tracemalloc.start()
        try:
            ev.boundary_propagate_trace(g, g.nodes.nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_trace_rejects_nonuniform_grid(self, ev):
        g = self._trace(lambda ts: ts, nt=8)
        times = g.times.copy()
        times[3] += 0.01
        bent = BoundaryTrace(nodes=g.nodes, times=times, values=g.values)
        with pytest.raises(InputError, match="uniform"):
            ev.boundary_propagate_trace(bent, g.nodes.nodes)

    def test_trace_rejects_grid_not_starting_at_zero(self, ev):
        g = self._trace(lambda ts: ts, nt=8)
        shifted = BoundaryTrace(nodes=g.nodes, times=g.times + 0.5, values=g.values)
        with pytest.raises(InputError, match="starting at 0"):
            ev.boundary_propagate_trace(shifted, g.nodes.nodes)

    def test_trace_single_sample(self, ev):
        nodes = boundary_nodes(interval())
        g = BoundaryTrace(nodes=nodes, times=np.array([0.0]), values=np.ones((1, 2)))
        out = ev.boundary_propagate_trace(g, np.array([[0.0], [0.5], [1.0]]))
        assert out.shape == (1, 3)
        assert np.all(out == 0.0)

