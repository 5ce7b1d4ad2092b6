import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from fluxrecon.errors import ConfigurationError, InputError, NumericalError
from fluxrecon.families import make_boundary_data, make_reaction
from fluxrecon.fields import SolutionField
from fluxrecon.forward import (DirichletData, Nonlinearity, default_trace_nodes,
                               difference_residual, neumann_trace,
                               solve_linear_heat, solve_semilinear,
                               synthesize_observation)
from fluxrecon.geometry import boundary_nodes, build_grid, interval, rectangle
from fluxrecon.suites import _mms_instance, mms_spatial_errors, mms_temporal_errors


def _ramp(domain, T=1.0):
    return make_boundary_data({"family": "ramp", "profile": "const"}, domain, T)


class TestSolvers:
    def test_steady_linear_profile_is_exact(self):
        # u = x is a steady state of the heat equation; the scheme must
        # hold it to machine precision
        grid = build_grid(interval(), 16)
        data = DirichletData(fn=lambda pts, t: pts[:, 0], final_time=1.0)
        u0 = grid.axes[0].copy()
        u = solve_linear_heat(grid, data, 8, u0=u0)
        assert np.max(np.abs(u.values - u0)) < 1e-13

    def test_steady_profile_2d(self):
        grid = build_grid(rectangle(), 8)
        data = DirichletData(fn=lambda pts, t: pts[:, 0] + pts[:, 1], final_time=1.0)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u = solve_linear_heat(grid, data, 8, u0=X + Y)
        assert np.max(np.abs(u.values - (X + Y))) < 1e-12

    def test_reaction_pulls_solution_down(self):
        # f >= 0 acts as a sink: u_f <= v_phi pointwise
        dom = interval()
        grid = build_grid(dom, 64)
        phi = _ramp(dom)
        reaction = make_reaction({"family": "linear", "coeff": 1.0})
        u = solve_semilinear(grid, reaction, phi, 128)
        v = solve_linear_heat(grid, phi, 128)
        assert np.max(u.values - v.values) < 1e-12

    def test_bounded_by_boundary_maximum(self):
        dom = interval()
        grid = build_grid(dom, 64)
        u = solve_semilinear(grid, make_reaction({"family": "linear"}), _ramp(dom), 128)
        for j, t in enumerate(u.times):
            assert np.max(u.values[j]) <= t + 1e-10

    def test_mms_rates(self):
        es = mms_spatial_errors(cells=(16, 32), nt=1024)
        assert np.log2(es[0] / es[1]) > 1.9
        et = mms_temporal_errors(steps=(16, 32), n=64, ref_steps=4096)
        assert np.log2(et[0] / et[1]) > 1.9

    def test_divergence_raises(self):
        grid = build_grid(interval(), 8)
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        u0 = np.sin(np.pi * grid.axes[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                solve_semilinear(grid, blowup, data, 64, u0=u0)

    def test_divergence_raises_on_rectangle(self):
        grid = build_grid(rectangle(), (9, 10))
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u0 = np.sin(np.pi * X) * np.sin(np.pi * Y)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="at step"):
                solve_semilinear(grid, blowup, data, 64, u0=u0)

    def test_needs_two_steps(self):
        grid = build_grid(interval(), 8)
        with pytest.raises(ConfigurationError):
            solve_linear_heat(grid, _ramp(interval()), 1)


def _reference_1d(grid, reaction, data, nt, source=None, u0=None):
    """The 1-D march written as plain array expressions, one tridiagonal
    factor-and-solve (gtsv) and two divergence checks per step."""
    n, h, T = grid.n[0], grid.h[0], data.final_time
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    xs = grid.axes[0]
    bpts = np.array([[xs[0]], [xs[-1]]])
    r = dt / (2.0 * h * h)
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    gtsv, = get_lapack_funcs(("gtsv",), (ab,))
    u = np.zeros((nt + 1, n + 1))
    if u0 is not None:
        u[0] = u0
    u[0, 0], u[0, -1] = data(bpts, 0.0)
    f_prev = None
    for m in range(nt):
        um = u[m]
        fm = reaction(um) if reaction is not None else np.zeros_like(um)
        f_ex = fm if f_prev is None else 1.5 * fm - 0.5 * f_prev
        lap_m = (um[:-2] - 2.0 * um[1:-1] + um[2:]) / (h * h)
        rhs = um[1:-1] + 0.5 * dt * lap_m - dt * f_ex[1:-1]
        if source is not None:
            rhs = rhs + dt * source(grid, times[m] + 0.5 * dt)[1:-1]
        bc_new = data(bpts, times[m + 1])
        rhs[0] += r * bc_new[0]
        rhs[-1] += r * bc_new[1]
        if not np.all(np.isfinite(rhs)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        u_new = gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)[3]
        if not np.all(np.isfinite(u_new)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        u[m + 1, 1:-1] = u_new
        u[m + 1, 0], u[m + 1, -1] = bc_new
        f_prev = fm
    return u


LAWS = {"none": None, "linear": {"family": "linear", "coeff": 1.0},
        "saturating": {"family": "saturating", "coeff": 1.0}}


class TestMarchMatchesReference:
    """The 1-D march assembles each step in place; its output must equal
    the plain-expression loop above bit for bit."""

    # 12 cells and 48 steps make h and dt non-dyadic, so a reordered
    # product or quotient would round differently
    @pytest.mark.parametrize("n", [12, 512])
    @pytest.mark.parametrize("nt", [2, 48])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_interval(self, n, nt, law):
        dom = interval()
        grid = build_grid(dom, n)
        phi = _ramp(dom)
        if LAWS[law] is None:
            u = solve_linear_heat(grid, phi, nt)
            ref = _reference_1d(grid, None, phi, nt)
        else:
            reaction = make_reaction(LAWS[law])
            u = solve_semilinear(grid, reaction, phi, nt)
            ref = _reference_1d(grid, reaction.fn, phi, nt)
        assert np.array_equal(u.values, ref)

    @pytest.mark.parametrize("n", [12, 512])
    @pytest.mark.parametrize("nt", [2, 48])
    def test_interval_mms_source_and_initial_state(self, n, nt):
        reaction, exact, source, data = _mms_instance()
        grid = build_grid(interval(), n)
        u0 = exact(grid.axes[0], 0.0)
        u = solve_semilinear(grid, reaction, data, nt, source=source, u0=u0)
        ref = _reference_1d(grid, reaction.fn, data, nt, source=source, u0=u0)
        assert np.array_equal(u.values, ref)

    def test_divergence_reported_at_the_same_step(self):
        grid = build_grid(interval(), 8)
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        u0 = np.sin(np.pi * grid.axes[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as expected:
                _reference_1d(grid, blowup.fn, data, 64, u0=u0)
            with pytest.raises(NumericalError) as got:
                solve_semilinear(grid, blowup, data, 64, u0=u0)
        assert "at step" in str(expected.value)
        assert str(got.value) == str(expected.value)


class TestNeumannTrace:
    def test_exact_on_quadratics_1d(self):
        grid = build_grid(interval(), 16)
        x = grid.axes[0]
        times = np.linspace(0.0, 1.0, 3)
        field = SolutionField(grid=grid, times=times,
                              values=np.tile(x**2, (3, 1)))
        trace = neumann_trace(field)
        # outward derivative of x^2: 0 at x=0 (normal -1), 2 at x=1
        assert np.max(np.abs(trace.values[:, 0] - 0.0)) < 1e-12
        assert np.max(np.abs(trace.values[:, 1] - 2.0)) < 1e-12

    def test_exact_on_quadratics_2d(self):
        grid = build_grid(rectangle(), 8)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        times = np.linspace(0.0, 1.0, 2)
        field = SolutionField(grid=grid, times=times,
                              values=np.tile(X**2 + Y**2, (2, 1, 1)))
        trace = neumann_trace(field)
        nodes = trace.nodes
        # d_nu (x^2 + y^2) = 2 x nu_x + 2 y nu_y at each node
        exact = 2.0 * np.sum(nodes.nodes * nodes.normals, axis=1)
        assert np.max(np.abs(trace.values - exact)) < 1e-11

    def test_rejects_misaligned_nodes(self):
        grid = build_grid(rectangle(), 8)
        times = np.linspace(0.0, 1.0, 2)
        field = SolutionField(grid=grid, times=times,
                              values=np.zeros((2,) + grid.shape))
        # m=6 midpoints fall between the n=8 grid lines
        with pytest.raises(InputError):
            neumann_trace(field, boundary_nodes(rectangle(), m=6))

    def test_default_nodes_require_even_equal_cells(self):
        with pytest.raises(ConfigurationError):
            default_trace_nodes(build_grid(rectangle(), 9))


class TestDifferenceResidual:
    def test_zero_for_identical_fields(self):
        dom = interval()
        grid = build_grid(dom, 16)
        v = solve_linear_heat(grid, _ramp(dom), 16)
        rep = difference_residual(v, v, make_reaction({"family": "zero"}))
        assert rep.interior_max == 0.0
        assert rep.boundary_max == 0.0
        assert rep.initial_max == 0.0

    def test_linear_instance_residual_small(self):
        dom = interval()
        grid = build_grid(dom, 128)
        phi = _ramp(dom)
        reaction = make_reaction({"family": "linear", "coeff": 1.0})
        u = solve_semilinear(grid, reaction, phi, 512)
        v = solve_linear_heat(grid, phi, 512)
        rep = difference_residual(u, v, reaction)
        assert rep.interior_max < 1e-2
        assert rep.boundary_max < 1e-12
        assert rep.initial_max < 1e-12

    def test_rectangle_shares_zero_boundary(self):
        dom = rectangle()
        grid = build_grid(dom, 16)
        phi = _ramp(dom)
        reaction = make_reaction({"family": "linear", "coeff": 1.0})
        u = solve_semilinear(grid, reaction, phi, 64)
        v = solve_linear_heat(grid, phi, 64)
        rep = difference_residual(u, v, reaction)
        assert rep.boundary_max < 1e-12
        assert rep.initial_max < 1e-12
        assert np.isfinite(rep.interior_max)

    def test_rejects_mismatched_fields(self):
        dom = interval()
        grid = build_grid(dom, 16)
        u = solve_linear_heat(grid, _ramp(dom), 16)
        v = solve_linear_heat(grid, _ramp(dom), 32)
        with pytest.raises(InputError):
            difference_residual(u, v, make_reaction({"family": "zero"}))


class TestAdmissibility:
    def test_reaction_must_vanish_at_zero(self):
        bad = Nonlinearity(fn=lambda u: u + 1.0)
        with pytest.raises(InputError):
            bad.check_admissible(1.0)

    def test_reaction_must_be_nonnegative(self):
        bad = Nonlinearity(fn=lambda u: -u)
        with pytest.raises(InputError):
            bad.check_admissible(1.0)

    def test_reaction_must_be_nondecreasing(self):
        bad = Nonlinearity(fn=lambda u: np.sin(6.0 * u))
        with pytest.raises(InputError):
            bad.check_admissible(2.0)

    def test_named_families_admissible(self):
        for spec in ({"family": "zero"}, {"family": "linear", "coeff": 2.0},
                     {"family": "power", "exponent": 2.0},
                     {"family": "saturating", "coeff": 0.5}):
            make_reaction(spec).check_admissible(3.0)

    def test_boundary_data_must_start_at_zero(self):
        nodes = boundary_nodes(interval())
        bad = DirichletData(fn=lambda pts, t: np.ones(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)

    def test_boundary_data_must_be_nonnegative(self):
        nodes = boundary_nodes(interval())
        bad = DirichletData(fn=lambda pts, t: -t * np.ones(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)

    def test_boundary_data_must_not_vanish(self):
        nodes = boundary_nodes(interval())
        bad = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)


class TestSynthesize:
    def test_subsampling_and_metadata(self):
        dom = interval()
        obs = synthesize_observation(dom, make_reaction({"family": "linear"}),
                                     _ramp(dom), fine_n=32, fine_nt=128, sub_nt=32)
        assert len(obs.flux.times) == 33
        assert obs.flux.times[-1] == 1.0
        assert obs.f_label == "linear"
        assert obs.meta["fine_nt"] == 128

    def test_rejects_non_divisible_subsampling(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=100, sub_nt=32)

    def test_rejects_unit_ratio(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=32, sub_nt=32)

    def test_noise_reproducible_and_seeded(self):
        dom = interval()
        kw = dict(fine_n=32, fine_nt=128, sub_nt=32, noise_level=0.01)
        r = make_reaction({"family": "linear"})
        a = synthesize_observation(dom, r, _ramp(dom), seed=3, **kw)
        b = synthesize_observation(dom, r, _ramp(dom), seed=3, **kw)
        c = synthesize_observation(dom, r, _ramp(dom), seed=4, **kw)
        assert np.array_equal(a.flux.values, b.flux.values)
        assert not np.array_equal(a.flux.values, c.flux.values)

    def test_zero_noise_matches_clean_solve(self):
        dom = interval()
        r = make_reaction({"family": "linear"})
        obs = synthesize_observation(dom, r, _ramp(dom), fine_n=32, fine_nt=128,
                                     sub_nt=32, noise_level=0.0)
        grid = build_grid(dom, 32)
        u = solve_semilinear(grid, r, _ramp(dom), 128)
        flux = neumann_trace(u)
        assert np.array_equal(obs.flux.values, flux.values[::4])

    def test_rejects_negative_noise(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=128, sub_nt=32,
                                   noise_level=-0.1)
