import tracemalloc
import warnings

import numpy as np
import pytest

from fluxrecon.eigenbasis import make_basis
from fluxrecon.errors import ConfigurationError, InputError, NumericalError
from fluxrecon.families import make_boundary_data, make_reaction
from fluxrecon.fields import BoundaryTrace
from fluxrecon.forward import (ObservedData, march, neumann_trace, solve_linear_heat,
                               solve_semilinear, synthesize_observation)
from fluxrecon.geometry import DomainKind, boundary_nodes, build_grid, interval, rectangle
from fluxrecon.heatkernel import KernelEvaluator
from fluxrecon.recon import (CurveEstimate, ReconstructionConfig, _boundary_ring,
                             _side_values_on_axis, assemble_series, build_curve,
                             compute_data_functional, evaluate_curve,
                             extend_boundary_data, flux_difference,
                             project_coefficients, reaction_free_response,
                             reconstruct, volterra_blocks, volterra_oracle)
from fluxrecon.numerics import exp_convolve
from fluxrecon.suites import volterra_suite


def _interval_trace(left, right, nt=4):
    nodes = boundary_nodes(build_grid(interval(), 8))
    values = np.column_stack([np.full(nt + 1, left), np.full(nt + 1, right)])
    return BoundaryTrace(nodes=nodes, final_time=1.0, values=values)


class TestIntervalExtensions:
    def test_harmonic_is_linear_interpolation(self):
        grid = build_grid(interval(), 10)
        ext = extend_boundary_data(_interval_trace(1.0, 3.0), grid, "harmonic")
        assert np.allclose(ext, 1.0 + 2.0 * grid.axes[0][None, :])

    def test_normal_constant_plateaus(self):
        # the inverse-distance^4 blend of the two ends: it gives 1.0078 at
        # x = 0.2 L on end values 1 and 3
        grid = build_grid(interval(), 20)
        ext = extend_boundary_data(_interval_trace(1.0, 3.0), grid, "normal_constant")
        x, L = grid.axes[0], grid.domain.lengths[0]
        assert np.all(ext[:, 0] == 1.0) and np.all(ext[:, -1] == 3.0)
        assert np.max(np.abs(ext[:, x <= 0.2 * L] - 1.0)) <= 0.01
        assert np.all(np.diff(ext, axis=1) > 0.0)
        assert np.allclose(ext + ext[:, ::-1], 4.0, rtol=0.0, atol=1e-12)

    def test_constant_data_both_methods(self):
        grid = build_grid(interval(), 8)
        for method in ("harmonic", "normal_constant"):
            ext = extend_boundary_data(_interval_trace(2.0, 2.0), grid, method)
            assert np.allclose(ext, 2.0)

    def test_linearity(self, rng):
        grid = build_grid(interval(), 8)
        a = _interval_trace(*rng.normal(size=2))
        b = _interval_trace(*rng.normal(size=2))
        combo = BoundaryTrace(nodes=a.nodes, final_time=a.final_time,
                              values=a.values + 2.0 * b.values)
        for method in ("harmonic", "normal_constant"):
            lhs = extend_boundary_data(combo, grid, method)
            rhs = (extend_boundary_data(a, grid, method)
                   + 2.0 * extend_boundary_data(b, grid, method))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unknown_method_rejected(self):
        grid = build_grid(interval(), 8)
        with pytest.raises(ConfigurationError):
            extend_boundary_data(_interval_trace(0.0, 1.0), grid, "polynomial")


class TestBoundaryRing:
    @pytest.mark.parametrize("method", ["harmonic", "normal_constant"])
    @pytest.mark.parametrize("domain", [interval(0.7), rectangle(0.9, 1.3)],
                             ids=["interval", "rectangle"])
    def test_extensions_keep_the_ring_on_every_boundary_node(self, domain, method, rng):
        # a random trace is not linear along a side, so a corner that holds
        # one side's extrapolation instead of the ring's average shows
        grid = build_grid(domain, 16)
        nodes = boundary_nodes(grid)
        trace = BoundaryTrace(nodes=nodes, final_time=1.0,
                              values=rng.standard_normal((3, nodes.count)))
        ext = extend_boundary_data(trace, grid, method)
        ring = _boundary_ring(trace, grid)
        for s in range(2 * domain.dim):
            assert np.array_equal(ext[grid.face(s)], ring[grid.face(s)])

    @staticmethod
    def _interp_loop(a, side, coords):
        """The side rule as np.interp row by row, then linear
        extrapolation past the first and last node."""
        sel = a.nodes.side == side
        tc = a.nodes.nodes[sel][:, 1 - side // 2]
        order = np.argsort(tc)
        tc = tc[order]
        vals = a.values[:, sel][:, order]
        out = np.empty((vals.shape[0], len(coords)))
        for j in range(vals.shape[0]):
            out[j] = np.interp(coords, tc, vals[j])
        lo = coords < tc[0]
        hi = coords > tc[-1]
        slope = (vals[:, 1] - vals[:, 0]) / (tc[1] - tc[0])
        out[:, lo] = vals[:, [0]] + slope[:, None] * (coords[lo] - tc[0])[None, :]
        slope = (vals[:, -1] - vals[:, -2]) / (tc[-1] - tc[-2])
        out[:, hi] = vals[:, [-1]] + slope[:, None] * (coords[hi] - tc[-1])[None, :]
        return out

    @pytest.mark.parametrize("lengths", [(1.0, 1.0), (0.9, 1.3), (100.0, 0.1), (1e-3, 7.0)],
                             ids=["1x1", "0.9x1.3", "100x0.1", "1e-3x7"])
    def test_side_values_equal_the_interp_loop(self, lengths, rng):
        # grid lines (the ends lie outside the node span), the nodes
        # themselves and random coordinates inside and outside the span
        dom = rectangle(*lengths)
        for m in (4, 5, 13, 32):
            grid = build_grid(dom, 2 * m)
            nodes = boundary_nodes(grid)
            trace = BoundaryTrace(nodes=nodes, final_time=1.0,
                                  values=rng.standard_normal((7, nodes.count)))
            for s in range(4):
                L = lengths[1 - s // 2]
                coords = np.concatenate([grid.axes[1 - s // 2],
                                         nodes.nodes[nodes.side == s][:, 1 - s // 2],
                                         rng.uniform(-0.5 * L, 1.5 * L, 40)])
                assert np.array_equal(_side_values_on_axis(trace, s, coords),
                                      self._interp_loop(trace, s, coords))


class TestRectangleExtensions:
    def _trace_from(self, fn):
        nodes = boundary_nodes(build_grid(rectangle(), 16))
        values = np.tile(fn(nodes.nodes), (3, 1))
        return BoundaryTrace(nodes=nodes, final_time=1.0, values=values)

    def test_harmonic_recovers_linear_field(self):
        # x is discretely harmonic, so the 5-point solve must return it
        grid = build_grid(rectangle(), 16)
        trace = self._trace_from(lambda pts: pts[:, 0])
        ext = extend_boundary_data(trace, grid, "harmonic")
        X = np.meshgrid(*grid.axes, indexing="ij")[0]
        assert np.max(np.abs(ext - X[None])) < 1e-10

    def test_normal_constant_keeps_constants(self):
        grid = build_grid(rectangle(), 16)
        trace = self._trace_from(lambda pts: np.full(len(pts), 1.5))
        ext = extend_boundary_data(trace, grid, "normal_constant")
        assert np.max(np.abs(ext - 1.5)) < 1e-12

    def test_boundary_nodes_reproduced_exactly(self):
        grid = build_grid(rectangle(), 16)
        trace = self._trace_from(lambda pts: pts[:, 0] + 2.0 * pts[:, 1])
        for method in ("harmonic", "normal_constant"):
            ext = extend_boundary_data(trace, grid, method)
            # node (0, y_mid) lies on the x=0 grid line at odd y indices
            sel = trace.nodes.side == 0
            ys = trace.nodes.nodes[sel][:, 1]
            cols = np.rint(ys / grid.h[1]).astype(int)
            got = ext[0, 0, cols]
            assert np.max(np.abs(got - trace.values[0, sel])) < 1e-10


class TestLongRectangleExtensions:
    """On a 0.9 x 1.3 rectangle the two axes differ, so an extension that
    mixes up a side's tangent or normal axis shows."""

    def _linear(self):
        dom = rectangle(0.9, 1.3)
        grid = build_grid(dom, 16)
        nodes = boundary_nodes(grid)
        exact = 1.0 + 2.0 * grid.points[..., 0] + 3.0 * grid.points[..., 1]
        values = 1.0 + 2.0 * nodes.nodes[:, 0] + 3.0 * nodes.nodes[:, 1]
        trace = BoundaryTrace(nodes=nodes, final_time=1.0,
                              values=np.tile(values, (3, 1)))
        return grid, trace, exact

    def test_harmonic_recovers_linear_field(self):
        grid, trace, exact = self._linear()
        ext = extend_boundary_data(trace, grid, "harmonic")
        assert np.max(np.abs(ext - exact[None])) < 1e-12

    def test_normal_constant_holds_each_side_along_its_normal(self):
        grid, trace, exact = self._linear()
        ext = extend_boundary_data(trace, grid, "normal_constant")
        mid = slice(4, 13)
        for s in range(4):
            face = ext[grid.face(s)]
            assert np.max(np.abs(face - exact[None][grid.face(s)])) < 1e-12
            # one node in from the face, away from the corners, the blend is
            # within ~1% of the side's value at the same tangential node
            inner = np.moveaxis(ext, 1 + s // 2, 1)[:, 1 if s % 2 == 0 else -2]
            assert np.max(np.abs(inner[:, mid] - face[:, mid])) < 0.05


def _linear_curve(slope):
    """The curve u -> slope * u on [0, 1]."""
    return CurveEstimate(knots=np.array([0.0, 1.0]), values=np.array([0.0, slope]),
                         counts=np.ones(2), spreads=np.zeros(2), trusted_hi=1.0)


def _reaction_free_state(domain, n, nt=16):
    phi = make_boundary_data({"family": "ramp", "profile": "const"}, domain, 1.0)
    return solve_linear_heat(build_grid(domain, n), phi, nt)


class TestShapedExtension:
    """The extension shaped by the reaction-free response to a curve f0."""

    def _cases(self):
        v_int = _reaction_free_state(interval(), 32)
        v_rect = _reaction_free_state(rectangle(), 16)
        rng = np.random.default_rng(5)
        for v in (v_int, v_rect):
            nodes = boundary_nodes(v.grid)
            values = rng.uniform(0.0, 1.0, size=(len(v.values), nodes.count))
            yield v, BoundaryTrace(nodes=nodes, final_time=v.final_time, values=values)

    def test_zero_curve_gives_the_plain_extension(self):
        for v, a in self._cases():
            basis = make_basis(v.grid.domain, 8)
            shape = reaction_free_response(v, _linear_curve(0.0), basis)
            assert not np.any(shape)
            for method in ("harmonic", "normal_constant"):
                assert np.array_equal(extend_boundary_data(a, v.grid, method, shape),
                                      extend_boundary_data(a, v.grid, method))

    def test_boundary_nodes_reproduced_exactly(self):
        for v, a in self._cases():
            grid = v.grid
            shape = reaction_free_response(v, _linear_curve(1.0), make_basis(grid.domain, 8))
            assert np.max(np.abs(shape)) > 0.1
            idx = tuple(np.rint(a.nodes.nodes[:, d] / grid.h[d]).astype(int)
                        for d in range(grid.domain.dim))
            for method in ("harmonic", "normal_constant"):
                ext = extend_boundary_data(a, grid, method, shape)
                got = ext[(slice(None),) + idx]
                assert np.max(np.abs(got - a.values)) < 1e-10

    def test_symmetric_interval_data_gets_an_interior_dip(self):
        # symmetric boundary data makes both plain extensions constant in
        # x; the reaction-free state dips inside, and so must the shape
        v = _reaction_free_state(interval(), 32)
        a = _interval_trace(1.0, 1.0, nt=16)
        shape = reaction_free_response(v, _linear_curve(1.0), make_basis(interval(), 16))
        mid = v.grid.shape[0] // 2
        for method in ("harmonic", "normal_constant"):
            plain = extend_boundary_data(a, v.grid, method)
            assert np.max(np.ptp(plain, axis=1)) < 1e-12
            ext = extend_boundary_data(a, v.grid, method, shape)
            assert np.all(ext[1:, mid] < ext[1:, 0])
            assert np.ptp(ext[-1]) > 1e-3

    def test_reconstruct_never_solves_the_semilinear_equation(self, small_obs, small_rect_obs,
                                                               monkeypatch):
        # every solve on either domain goes through _march; only the linear
        # one passes no reaction
        import fluxrecon.forward as forward
        solve = forward._march
        calls = []

        def spy(grid, reaction, *args):
            calls.append((grid.domain.kind, reaction))
            return solve(grid, reaction, *args)
        monkeypatch.setattr(forward, "_march", spy)
        for obs, n in ((small_obs, 16), (small_rect_obs, 8)):
            reconstruct(obs, ReconstructionConfig(grid_n=n, compare_extensions=True))
        assert {kind for kind, _ in calls} == {DomainKind.INTERVAL, DomainKind.RECTANGLE}
        assert all(reaction is None for _, reaction in calls)


class TestFluxDifference:
    def test_zero_reaction_gap_vanishes_past_layer(self):
        # u_f = v_phi when f = 0, so the gap is pure discretization error;
        # the C^(1/2) start-up layer is excluded (flux ~ sqrt(s) at s=0)
        dom = interval()
        cfg_phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
        obs = synthesize_observation(dom, make_reaction({"family": "zero"}), cfg_phi,
                                     fine_n=512, fine_nt=4096, sub_nt=1024,
                                     nodes=boundary_nodes(build_grid(dom, 128)))
        grid = build_grid(dom, 128)
        gap = flux_difference(obs, grid, solve_linear_heat(grid, cfg_phi, 1024))
        scale = float(np.max(np.abs(obs.flux.values)))
        late = gap.times >= 0.05
        assert np.max(np.abs(gap.values[late])) / scale < 1e-3
        assert np.max(np.abs(gap.values[0])) < 1e-12

    def test_extrapolated_rectangle_flux_beats_the_coarse_grid(self):
        # with zero observed flux the gap is minus the reaction-free flux
        dom = rectangle()
        phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
        nodes = boundary_nodes(build_grid(dom, 16))
        nt = 64
        times = np.linspace(0.0, 1.0, nt + 1)
        obs = ObservedData(domain=dom, phi=phi, noise_level=0.0, seed=0,
                           flux=BoundaryTrace(nodes=nodes, final_time=1.0,
                                              values=np.zeros((nt + 1, nodes.count))))
        grid = build_grid(dom, 16)
        v_phi = solve_linear_heat(grid, phi, nt)
        extrapolated = -flux_difference(obs, grid, v_phi).values
        coarse = neumann_trace(v_phi, nodes).values
        ref = neumann_trace(solve_linear_heat(build_grid(dom, 128), phi, nt), nodes).values
        late = times >= 0.05
        err_extrapolated = np.max(np.abs(extrapolated - ref)[late])
        err_coarse = np.max(np.abs(coarse - ref)[late])
        assert err_extrapolated < 0.5 * err_coarse


class TestDataFunctional:
    def test_starts_at_zero_and_keeps_symmetry(self):
        ev = KernelEvaluator(interval())
        g = _interval_trace(1.0, 1.0, nt=8)
        a = compute_data_functional(g, ev)
        assert np.allclose(a.values[0], 0.0)
        assert np.max(np.abs(a.values[:, 0] - a.values[:, 1])) < 1e-12

    def test_nonnegative_for_nonnegative_gap(self):
        ev = KernelEvaluator(interval())
        g = _interval_trace(0.5, 2.0, nt=8)
        a = compute_data_functional(g, ev)
        assert np.min(a.values) > -1e-12


class TestModalStages:
    def test_project_then_assemble_round_trip(self):
        # a field that is itself a finite mode sum returns its own series
        grid = build_grid(interval(), 64)
        basis = make_basis(interval(), 4)
        times = np.linspace(0.0, 1.0, 9)
        rate = np.array([1.0, 0.5, 0.0, -0.25])
        coeffs = np.outer(times, rate)
        field = np.einsum("tk,kx->tx", coeffs, basis.values_at(grid.points))
        got = project_coefficients(field, grid, basis)
        assert np.max(np.abs(got - coeffs)) < 1e-10
        # a_k = t c_k resums to sum_k (c_k + lambda_k t c_k) omega_k
        x = np.array([[0.0], [0.3], [1.0]])
        series = assemble_series(got, np.tile(rate, (len(times), 1)), basis, x)
        ref = (rate + np.outer(times, rate * basis.lambdas)) @ basis.values_at(x)
        assert np.max(np.abs(series - ref)) < 1e-9

    def test_overflowing_series_is_a_numerical_error(self):
        # lambda_k ~ 1e281 k^2 on a domain of length 1e-140, and lambda_k a_k overflows
        basis = make_basis(interval(1e-140), 4)
        coeffs = np.full((3, 4), 1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the modal series F\\(x, s\\) overflows"):
                assemble_series(coeffs, np.zeros_like(coeffs), basis,
                                np.array([[0.0], [1e-140]]))

    def test_volterra_oracle_closed_form(self):
        # u(x, t) = t with f = id: c_1(s) = s, p_1(t) = t^2/2, others vanish
        grid = build_grid(interval(), 32)
        times = np.linspace(0.0, 1.0, 17)
        from fluxrecon.fields import SolutionField
        u = SolutionField(grid=grid, final_time=1.0,
                          values=np.tile(times[:, None], (1, grid.shape[0])))
        c, p = volterra_oracle(u, make_reaction({"family": "linear"}),
                               make_basis(interval(), 4))
        assert np.max(np.abs(c[:, 0] - times)) < 1e-12
        assert np.max(np.abs(c[:, 1:])) < 1e-12
        assert np.max(np.abs(p[:, 0] - times**2 / 2.0)) < 1e-12


class TestVolterraBlocks:
    @staticmethod
    def _instance(domain, n):
        grid = build_grid(domain, n)
        phi = make_boundary_data({"family": "saturating_ramp", "profile": "affine",
                                  "slope": 0.5}, domain, 1.0)
        return grid, phi, make_reaction({"family": "saturating", "coeff": 2.0})

    @pytest.mark.parametrize("domain,n", [(interval(), 24), (rectangle(), 8)],
                             ids=["interval", "rectangle"])
    def test_stored_field_is_one_projection(self, domain, n):
        grid, phi, reaction = self._instance(domain, n)
        u = solve_semilinear(grid, reaction, phi, 130)
        basis = make_basis(domain, 6)
        c, p = volterra_oracle(u, reaction, basis)
        source = basis.project(grid, reaction.fn(u.values))
        assert np.array_equal(c, source)
        assert np.array_equal(p, exp_convolve(basis.lambdas, u.dt, source))

    # 130 steps end on a partial block, 128 on a full one
    @pytest.mark.parametrize("domain,n,nt", [(interval(), 24, 130), (interval(), 24, 128),
                                             (rectangle(), 8, 130)],
                             ids=["interval-130", "interval-128", "rectangle-130"])
    def test_march_blocks_match_the_stored_field(self, domain, n, nt):
        # the blocks project fewer rows per product, which may round apart
        grid, phi, reaction = self._instance(domain, n)
        basis = make_basis(domain, 6)
        c, p = volterra_blocks(grid, 1.0 / nt, march(grid, reaction, phi, nt), reaction, basis)
        c0, p0 = volterra_oracle(solve_semilinear(grid, reaction, phi, nt), reaction, basis)
        assert c.shape == c0.shape == (nt + 1, 6)
        for got, ref in ((c, c0), (p, p0)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_suite_keeps_no_field(self):
        # the suite's march is projected a block of rows at a time: the peak
        # of traced allocations stays far below one stored 8193 x 257 field
        tracemalloc.start()
        try:
            assert volterra_suite()["passed"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8193 * 257 * 8 / 4


class TestBuildCurve:
    def test_recovers_linear_law(self, rng):
        phi = rng.uniform(0.0, 1.0, size=4000)
        series = 2.0 * phi + rng.normal(0.0, 0.01, size=4000)
        curve = build_curve(phi, series)
        mid = (curve.knots > 0.2) & (curve.knots < 0.8)
        assert np.max(np.abs(curve.values[mid] - 2.0 * curve.knots[mid])) < 0.02

    def test_anchor_and_monotonicity(self, rng):
        phi = rng.uniform(0.0, 1.0, size=1000)
        series = np.sin(phi) - 0.3  # negative near zero
        curve = build_curve(phi, series)
        assert curve.knots[0] == 0.0 and curve.values[0] == 0.0
        assert np.min(np.diff(curve.values)) >= 0.0

    def test_trusted_band_is_quantile_range(self, rng):
        phi = rng.uniform(0.0, 1.0, size=5000)
        curve = build_curve(phi, phi)
        assert abs(curve.trusted_lo - np.quantile(phi, 0.1)) < 1e-12
        assert abs(curve.trusted_hi - np.quantile(phi, 0.9)) < 1e-12

    def test_rejects_few_samples(self):
        with pytest.raises(NumericalError):
            build_curve(np.linspace(0, 1, 10), np.zeros(10))

    def test_rejects_degenerate_range(self):
        with pytest.raises(NumericalError):
            build_curve(np.zeros(100), np.zeros(100))

    def test_degenerate_message_counts_the_dropped_samples(self):
        series = np.full(100, np.inf)
        series[:2] = 0.0
        with pytest.raises(NumericalError, match=r"\(2 samples, 98 dropped as non-finite, "
                                                 r"max phi 0\.010101\)"):
            build_curve(np.linspace(0.0, 1.0, 100), series)

    def test_nonfinite_samples_dropped(self, rng):
        phi = rng.uniform(0.0, 1.0, size=1000)
        series = phi.copy()
        series[::7] = np.nan
        curve = build_curve(phi, series)
        assert np.all(np.isfinite(curve.values))


class TestEvaluateCurve:
    def _curve(self):
        phi = np.linspace(0.0, 1.0, 1000)
        return build_curve(phi, phi)

    def test_clamps_and_flags(self):
        curve = self._curve()
        vals = evaluate_curve(curve, np.array([-1.0, 0.5, 2.0]))
        assert vals[0] == curve.values[0]
        assert vals[2] == curve.values[-1]

    def test_identity_between_knots(self):
        curve = self._curve()
        us = np.linspace(curve.trusted_lo, curve.trusted_hi, 17)
        vals = evaluate_curve(curve, us)
        assert np.max(np.abs(vals - us)) < 0.01


class TestReconstructionConfig:
    def test_validation(self):
        for bad in ({"grid_n": 16.5}, {"grid_n": True}, {"grid_n": "16"},
                    {"compare_extensions": "no"}, {"compare_extensions": 1}):
            with pytest.raises(ConfigurationError, match=repr(next(iter(bad)))):
                ReconstructionConfig(**bad)
        assert ReconstructionConfig(grid_n=16, compare_extensions=True).grid_n == 16


@pytest.fixture(scope="module")
def small_obs():
    dom = interval()
    phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
    return synthesize_observation(dom, make_reaction({"family": "linear"}), phi,
                                  fine_n=64, fine_nt=512, sub_nt=64,
                                  nodes=boundary_nodes(build_grid(dom, 16)))


@pytest.fixture(scope="module")
def small_rect_obs():
    dom = rectangle()
    phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
    return synthesize_observation(dom, make_reaction({"family": "saturating"}), phi,
                                  fine_n=16, fine_nt=64, sub_nt=16,
                                  nodes=boundary_nodes(build_grid(dom, 8)))


class TestReconstructPipeline:
    def test_smoke_and_diagnostics(self, small_obs):
        config = ReconstructionConfig(grid_n=16)
        result = reconstruct(small_obs, config)
        assert result.curve.values[0] == 0.0
        assert np.min(np.diff(result.curve.values)) >= 0.0
        for key in ("functional_min", "functional_initial_max", "mode_energy",
                    "tail_energy_ratio", "extension_method"):
            assert key in result.diagnostics
        assert result.diagnostics["functional_initial_max"] == 0.0
        assert result.diagnostics["extension_method"] == "harmonic"
        assert "extension_discrepancy" not in result.diagnostics

    def test_compare_extensions(self, small_obs):
        config = ReconstructionConfig(grid_n=16, compare_extensions=True)
        result = reconstruct(small_obs, config)
        assert result.diagnostics["alt_extension_method"] == "normal_constant"
        assert np.isfinite(result.diagnostics["extension_discrepancy"])
