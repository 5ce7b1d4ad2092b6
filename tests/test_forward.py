import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from fluxrecon.errors import ConfigurationError, InputError, NumericalError
from fluxrecon.families import make_boundary_data, make_reaction
from fluxrecon.fields import BoundaryTrace, SolutionField
from fluxrecon.forward import (DirichletData, Nonlinearity, dirichlet_solver,
                               interior_laplacian, march, march_flux, neumann_trace,
                               sine_tables, solve_linear_heat, solve_semilinear,
                               synthesize_observation)
from fluxrecon.geometry import boundary_nodes, build_grid, interval, rectangle
from fluxrecon.suites import (SPATIAL_CELLS, TEMPORAL_STEPS, _final_row, _halving_rates,
                              _mms_instance, _rate, difference_residual,
                              difference_residual_study, forward_suite, mms_semidiscrete_final,
                              mms_spatial_errors, mms_temporal_errors)


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
        es = mms_spatial_errors(cells=(16, 32))
        assert np.log2(es[0] / es[1]) > 1.9
        et = mms_temporal_errors(steps=(16, 32), n=64)
        assert np.log2(et[0] / et[1]) > 1.9

    def test_divergence_raises(self):
        grid = build_grid(interval(), 8)
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        u0 = np.sin(np.pi * grid.axes[0])
        with pytest.raises(NumericalError):
            solve_semilinear(grid, blowup, data, 64, u0=u0)

    def test_divergence_raises_on_rectangle(self):
        grid = build_grid(rectangle(), (9, 10))
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u0 = np.sin(np.pi * X) * np.sin(np.pi * Y)
        with pytest.raises(NumericalError, match="at step"):
            solve_semilinear(grid, blowup, data, 64, u0=u0)

    def test_caller_error_state_holds_between_blocks(self):
        # the march ignores overflow only inside a block of steps
        grid = build_grid(interval(), 8)
        reaction = make_reaction({"family": "linear", "coeff": 1.0})
        with np.errstate(over="raise", invalid="warn"):
            for _ in march(grid, reaction, _ramp(interval()), 300):
                assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "warn"

    def test_needs_two_steps(self):
        grid = build_grid(interval(), 8)
        with pytest.raises(ConfigurationError):
            solve_linear_heat(grid, _ramp(interval()), 1)


def _reference_1d(grid, reaction, data, nt, source=None, u0=None):
    """The 1-D march written as plain array expressions: with A = I - dt/2
    lap, u_new = A^-1 (2 um + k - c_m f_m + dt/2 f_{m-1}) - um, c_0 = dt and
    c_m = 3 dt/2 after, k being dt q and then r (phi_m + phi_{m+1}) added
    next to each end, with one symmetric positive definite
    factor-and-solve (ptsv) and two divergence checks per step."""
    n, h, T = grid.n[0], grid.h[0], data.final_time
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    xs = grid.axes[0]
    bpts = np.array([[xs[0]], [xs[-1]]])
    r = dt / (2.0 * h * h)
    diag, off = np.full(n - 1, 1.0 + 2.0 * r), np.full(n - 2, -r)
    ptsv, = get_lapack_funcs(("ptsv",), (diag,))
    u = np.zeros((nt + 1, n + 1))
    if u0 is not None:
        u[0] = u0
    u[0, 0], u[0, -1] = data.fn(bpts, 0.0)
    f_prev = None
    for m in range(nt):
        um = u[m]
        fm = reaction(um) if reaction is not None else np.zeros_like(um)
        k = np.zeros(n - 1)
        if source is not None:
            k = dt * source(grid, times[m] + 0.5 * dt)[1:-1]
        bc_old, bc_new = data.fn(bpts, times[m]), data.fn(bpts, times[m + 1])
        k[0] += r * (bc_old[0] + bc_new[0])
        k[-1] += r * (bc_old[1] + bc_new[1])
        rhs = 2.0 * um[1:-1] + k - (dt if f_prev is None else 1.5 * dt) * fm[1:-1]
        if f_prev is not None:
            rhs = rhs + 0.5 * dt * f_prev[1:-1]
        if not np.all(np.isfinite(rhs)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        u_new = ptsv(diag, off, rhs)[2] - um[1:-1]
        if not np.all(np.isfinite(u_new)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        u[m + 1, 1:-1] = u_new
        u[m + 1, 0], u[m + 1, -1] = bc_new
        f_prev = fm
    return u


def _textbook_1d(grid, reaction, data, nt, source=None, u0=None):
    """The textbook 1-D Crank-Nicolson step as plain array expressions,
    the explicit half (I + dt/2 lap) um applied with the stencil, one
    tridiagonal factor-and-solve (gtsv) and two divergence checks per
    step. The march computes the same step in another operation order."""
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
    u[0, 0], u[0, -1] = data.fn(bpts, 0.0)
    f_prev = None
    for m in range(nt):
        um = u[m]
        fm = reaction(um) if reaction is not None else np.zeros_like(um)
        f_ex = fm if f_prev is None else 1.5 * fm - 0.5 * f_prev
        lap_m = (um[:-2] - 2.0 * um[1:-1] + um[2:]) / (h * h)
        rhs = um[1:-1] + 0.5 * dt * lap_m - dt * f_ex[1:-1]
        if source is not None:
            rhs = rhs + dt * source(grid, times[m] + 0.5 * dt)[1:-1]
        bc_new = data.fn(bpts, times[m + 1])
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

    @pytest.mark.parametrize("nt", [64, 65, 130])
    def test_interval_mms_source_across_blocks(self, nt):
        reaction, exact, source, data = _mms_instance()
        grid = build_grid(interval(), 12)
        u0 = exact(grid.axes[0], 0.0)
        u = solve_semilinear(grid, reaction, data, nt, source=source, u0=u0)
        ref = _reference_1d(grid, reaction.fn, data, nt, source=source, u0=u0)
        assert np.array_equal(u.values, ref)

    # f(u) = u returns its input, so f(u_{m-1}) is a row of the march's
    # buffer; 130 steps cross two block edges and end on a short block
    @pytest.mark.parametrize("n", [12, 512])
    def test_reaction_returning_its_input(self, n):
        dom = interval()
        grid = build_grid(dom, n)
        reaction = Nonlinearity(fn=lambda u: u)
        u = solve_semilinear(grid, reaction, _ramp(dom), 130)
        assert np.array_equal(u.values, _reference_1d(grid, reaction.fn, _ramp(dom), 130))

    def test_divergence_after_the_first_block(self):
        grid = build_grid(interval(), 8)
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -3e5 * u)
        u0 = np.sin(np.pi * grid.axes[0])
        with np.errstate(over="ignore", invalid="ignore"):  # the textbook step warns
            with pytest.raises(NumericalError) as expected:
                _reference_1d(grid, blowup.fn, data, 256, u0=u0)
        with pytest.raises(NumericalError) as got:
            solve_semilinear(grid, blowup, data, 256, u0=u0)
        assert int(str(expected.value).split("step ")[1].split()[0]) > 64
        assert str(got.value) == str(expected.value)

    def test_divergence_reported_at_the_same_step(self):
        grid = build_grid(interval(), 8)
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -1e8 * u)
        u0 = np.sin(np.pi * grid.axes[0])
        with np.errstate(over="ignore", invalid="ignore"):  # the textbook step warns
            with pytest.raises(NumericalError) as expected:
                _reference_1d(grid, blowup.fn, data, 64, u0=u0)
        with pytest.raises(NumericalError) as got:
            solve_semilinear(grid, blowup, data, 64, u0=u0)
        assert "at step" in str(expected.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("nt", [64, 256])
    def test_divergence_of_a_law_finite_on_non_finite_input(self, nt):
        grid = build_grid(interval(8.0), 8)
        u0 = np.sin(np.pi * grid.axes[0] / 8.0)
        law = Nonlinearity(fn=_guarded_cubic)
        with np.errstate(over="ignore", invalid="ignore"):  # the textbook step warns
            with pytest.raises(NumericalError) as expected:
                _reference_1d(grid, law.fn, _ZERO_DATA, nt, u0=u0)
        with pytest.raises(NumericalError) as got:
            solve_semilinear(grid, law, _ZERO_DATA, nt, u0=u0)
        step = _diverged_step(expected)
        assert step % 64 and (step > 64) == (nt > 64)  # mid-block, in a later block at 256
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("nt", [64, 256])
    def test_divergence_past_the_doubling_overflow(self, nt):
        # f = nan_to_num(-u^3) saturates at -max, and u then climbs toward
        # overflow by about dt max a step. The whole step of the reference
        # doubles u_m, which overflows once u_m nears 2^1023; the halved step
        # of the march does not double it and takes at least one more finite
        # step. This is the one place the halving changes what the march
        # computes: every row before is the same.
        grid = build_grid(interval(8.0), 8)
        u0 = 3.0 * np.sin(np.pi * grid.axes[0] / 8.0)
        law = Nonlinearity(fn=_saturated_cubic)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as expected:
                _reference_1d(grid, law.fn, _ZERO_DATA, nt, u0=u0)
            step = _diverged_step(expected)
            assert step % 64 and (step > 64) == (nt > 64)
            # the same dt over the first step - 1 steps, and over step steps
            ref = _reference_1d(grid, law.fn, replace(_ZERO_DATA, final_time=(step - 1) / nt),
                                step - 1, u0=u0)
        got = solve_semilinear(grid, law, replace(_ZERO_DATA, final_time=step / nt), step,
                               u0=u0).values
        assert np.array_equal(got[:step], ref)
        assert 2.0 ** 1022 < np.max(np.abs(ref[-1])) < 2.0 ** 1023
        assert np.isfinite(got[step]).all() and np.max(np.abs(got[step])) >= 2.0 ** 1023
        with pytest.raises(NumericalError) as diverged:
            solve_semilinear(grid, law, _ZERO_DATA, nt, u0=u0)
        assert _diverged_step(diverged) > step


_ZERO_DATA = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)


def _guarded_cubic(u):
    """A cubic blow-up that overflows in f and maps a non-finite u to 0, so
    a diverged row reaches the next one only through u_m itself."""
    return np.where(np.isfinite(u), -u ** 3, 0.0)


def _saturated_cubic(u):
    """A cubic blow-up whose f never overflows: nan_to_num maps -inf to
    -max and NaN to 0."""
    return np.nan_to_num(-u ** 3)


def _diverged_step(excinfo) -> int:
    return int(str(excinfo.value).split("step ")[1].split()[0])


def _rect_ring(grid, data, t):
    """phi on the boundary ring of a rectangle grid at time t, one phi call
    per side, zero inside."""
    nx, ny = grid.n
    vals = np.zeros((nx + 1, ny + 1))
    xg, yg = grid.axes
    for idx, pts in [
        ((0, slice(None)), np.column_stack([np.zeros(ny + 1), yg])),
        ((-1, slice(None)), np.column_stack([np.full(ny + 1, xg[-1]), yg])),
        ((slice(None), 0), np.column_stack([xg, np.zeros(nx + 1)])),
        ((slice(None), -1), np.column_stack([xg, np.full(nx + 1, yg[-1])])),
    ]:
        vals[idx] = data.fn(pts, t)
    return vals


def _reference_2d(grid, reaction, data, nt, source=None, u0=None):
    """The rectangle march as a fresh boundary ring per step and two
    divergence checks per step: with A = I - dt/2 lap, u_new =
    A^-1 (2 um + k - c_m f_m + dt/2 f_{m-1}) - um, c_0 = dt and
    c_m = 3 dt/2 after, where k is dt q and then r_d (phi_m + phi_{m+1})
    added on the interior nodes next to each face, and A^-1 is
    dirichlet_solver."""
    hx, hy = grid.h
    T = data.final_time
    dt = T / nt
    rx, ry = dt / (2.0 * hx * hx), dt / (2.0 * hy * hy)
    times = np.linspace(0.0, T, nt + 1)
    solve = dirichlet_solver(grid, 1.0, dt / 2.0)
    u = np.zeros((nt + 1,) + grid.shape)
    if u0 is not None:
        u[0] = u0
    ring_old = _rect_ring(grid, data, 0.0)
    u[0][0, :], u[0][-1, :] = ring_old[0, :], ring_old[-1, :]
    u[0][:, 0], u[0][:, -1] = ring_old[:, 0], ring_old[:, -1]
    f_prev = None
    for m in range(nt):
        um = u[m]
        fm = reaction(um) if reaction is not None else np.zeros_like(um)
        ring_new = _rect_ring(grid, data, times[m + 1])
        k = np.zeros_like(um[1:-1, 1:-1])
        if source is not None:
            k = dt * source(grid, times[m] + 0.5 * dt)[1:-1, 1:-1]
        k[0, :] += rx * (ring_old[0, 1:-1] + ring_new[0, 1:-1])
        k[-1, :] += rx * (ring_old[-1, 1:-1] + ring_new[-1, 1:-1])
        k[:, 0] += ry * (ring_old[1:-1, 0] + ring_new[1:-1, 0])
        k[:, -1] += ry * (ring_old[1:-1, -1] + ring_new[1:-1, -1])
        rhs = (2.0 * um[1:-1, 1:-1] + k
               - (dt if f_prev is None else 1.5 * dt) * fm[1:-1, 1:-1])
        if f_prev is not None:
            rhs = rhs + 0.5 * dt * f_prev[1:-1, 1:-1]
        if not np.all(np.isfinite(rhs)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        solve(rhs)
        u_new = rhs - um[1:-1, 1:-1]
        if not np.all(np.isfinite(u_new)):
            raise NumericalError(f"solver diverged at step {m + 1} (t = {times[m + 1]:g})")
        full = ring_new.copy()
        full[1:-1, 1:-1] = u_new
        u[m + 1] = full
        f_prev = fm
        ring_old = ring_new
    return u


def _textbook_2d(grid, reaction, data, nt, source=None, u0=None):
    """The textbook rectangle Crank-Nicolson step: the explicit half
    (I + dt/2 lap) um applied with the stencil, r_d phi_{m+1} on the
    interior nodes next to each face after the source, and one
    dirichlet_solver solve per step. The march computes the same step in
    another operation order."""
    hx, hy = grid.h
    T = data.final_time
    dt = T / nt
    rx, ry = dt / (2.0 * hx * hx), dt / (2.0 * hy * hy)
    times = np.linspace(0.0, T, nt + 1)
    solve = dirichlet_solver(grid, 1.0, dt / 2.0)

    def lap_full(w):
        out = np.zeros_like(w)
        out[1:-1, 1:-1] = ((w[:-2, 1:-1] - 2 * w[1:-1, 1:-1] + w[2:, 1:-1]) / (hx * hx)
                           + (w[1:-1, :-2] - 2 * w[1:-1, 1:-1] + w[1:-1, 2:]) / (hy * hy))
        return out

    u = np.zeros((nt + 1,) + grid.shape)
    if u0 is not None:
        u[0] = u0
    ring0 = _rect_ring(grid, data, 0.0)
    u[0][0, :], u[0][-1, :] = ring0[0, :], ring0[-1, :]
    u[0][:, 0], u[0][:, -1] = ring0[:, 0], ring0[:, -1]
    f_prev = None
    for m in range(nt):
        um = u[m]
        fm = reaction(um) if reaction is not None else np.zeros_like(um)
        f_ex = fm if f_prev is None else 1.5 * fm - 0.5 * f_prev
        ring_new = _rect_ring(grid, data, times[m + 1])
        rhs = um[1:-1, 1:-1] + 0.5 * dt * lap_full(um)[1:-1, 1:-1] - dt * f_ex[1:-1, 1:-1]
        if source is not None:
            rhs = rhs + dt * source(grid, times[m] + 0.5 * dt)[1:-1, 1:-1]
        rhs[0, :] += rx * ring_new[0, 1:-1]
        rhs[-1, :] += rx * ring_new[-1, 1:-1]
        rhs[:, 0] += ry * ring_new[1:-1, 0]
        rhs[:, -1] += ry * ring_new[1:-1, -1]
        solve(rhs)
        full = ring_new.copy()
        full[1:-1, 1:-1] = rhs
        u[m + 1] = full
        f_prev = fm
    return u


def _rect_mms_source(grid, t):
    """A smooth source in x, y and t; t is a scalar or a (rows, 1, 1) column."""
    X, Y = np.meshgrid(*grid.axes, indexing="ij")
    return np.exp(-t) * np.sin(np.pi * X + 0.3) * np.cos(0.7 * Y) + t * X


class TestRectangleMarchMatchesReference:
    """The rectangle march fills its boundary faces from one table over all
    sides and writes each interior in place; its output must equal the
    per-step loop above bit for bit."""

    # 9 x 10 cells on a 0.9 x 1.3 box and 48 or 130 steps make h and dt
    # non-dyadic; 130 steps cross two blocks of time rows
    @pytest.mark.parametrize("nt", [2, 48, 130])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_rectangle(self, nt, law):
        dom = rectangle(0.9, 1.3)
        grid = build_grid(dom, (9, 10))
        phi = make_boundary_data({"family": "saturating_ramp", "profile": "affine",
                                  "slope": 0.7, "scale": 0.37}, dom, 1.0)
        if LAWS[law] is None:
            u = solve_linear_heat(grid, phi, nt)
            ref = _reference_2d(grid, None, phi, nt)
        else:
            reaction = make_reaction(LAWS[law])
            u = solve_semilinear(grid, reaction, phi, nt)
            ref = _reference_2d(grid, reaction.fn, phi, nt)
        assert np.array_equal(u.values, ref)

    @pytest.mark.parametrize("nt", [2, 48, 130])
    def test_rectangle_source_and_initial_state(self, nt):
        grid = build_grid(rectangle(0.9, 1.3), (12, 12))
        phi = DirichletData(fn=lambda pts, t: np.exp(-t) * (1.0 + pts[:, 0] * pts[:, 1]),
                            final_time=1.0)
        reaction = make_reaction({"family": "saturating", "coeff": 0.8})
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u0 = 1.0 + X * Y
        u = solve_semilinear(grid, reaction, phi, nt, source=_rect_mms_source, u0=u0)
        ref = _reference_2d(grid, reaction.fn, phi, nt, source=_rect_mms_source, u0=u0)
        assert np.array_equal(u.values, ref)

    def test_reaction_returning_its_input(self):
        dom = rectangle(0.9, 1.3)
        grid = build_grid(dom, (9, 10))
        phi = make_boundary_data({"family": "saturating_ramp", "profile": "affine",
                                  "slope": 0.7, "scale": 0.37}, dom, 1.0)
        reaction = Nonlinearity(fn=lambda u: u)
        u = solve_semilinear(grid, reaction, phi, 130)
        assert np.array_equal(u.values, _reference_2d(grid, reaction.fn, phi, 130))

    def test_divergence_after_the_first_block(self):
        grid = build_grid(rectangle(), (9, 10))
        data = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        blowup = Nonlinearity(fn=lambda u: -3e4 * u)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u0 = np.sin(np.pi * X) * np.sin(np.pi * Y)
        with np.errstate(over="ignore", invalid="ignore"):  # the textbook step warns
            with pytest.raises(NumericalError) as expected:
                _reference_2d(grid, blowup.fn, data, 256, u0=u0)
        with pytest.raises(NumericalError) as got:
            solve_semilinear(grid, blowup, data, 256, u0=u0)
        assert int(str(expected.value).split("step ")[1].split()[0]) > 64
        assert str(got.value) == str(expected.value)

    # on a box long enough for both laws to blow up; 64 steps diverge inside
    # the first block, 256 in a later one
    @pytest.mark.parametrize("nt", [64, 256])
    @pytest.mark.parametrize("law", [_guarded_cubic, _saturated_cubic],
                             ids=["guarded", "saturated"])
    def test_divergence_of_a_law_finite_on_non_finite_input(self, law, nt):
        grid = build_grid(rectangle(8.0, 8.0), (9, 10))
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        u0 = np.sin(np.pi * X / 8.0) * np.sin(np.pi * Y / 8.0)
        with np.errstate(over="ignore", invalid="ignore"):  # the textbook step warns
            with pytest.raises(NumericalError) as expected:
                _reference_2d(grid, law, _ZERO_DATA, nt, u0=u0)
        with pytest.raises(NumericalError) as got:
            solve_semilinear(grid, Nonlinearity(fn=law), _ZERO_DATA, nt, u0=u0)
        step = _diverged_step(expected)
        assert step % 64 and (step > 64) == (nt > 64)
        assert str(got.value) == str(expected.value)


def _rel_gap(u, ref):
    return np.max(np.abs(u - ref)) / np.max(np.abs(ref))


class TestMarchMatchesTextbookStep:
    """The march computes (I - dt/2 lap)^-1 ((I + dt/2 lap) um + ...) as
    A^-1 (2 um + ...) - um; the two orders agree to rounding, relative to
    the largest |u|, and a lost boundary term shows at order one."""

    @pytest.mark.parametrize("n,nt", [(12, 48), (512, 48), (12, 2048), (512, 2048)])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_interval(self, n, nt, law):
        dom = interval()
        grid = build_grid(dom, n)
        phi = _ramp(dom)
        reaction = None if LAWS[law] is None else make_reaction(LAWS[law])
        u = (solve_linear_heat(grid, phi, nt) if reaction is None
             else solve_semilinear(grid, reaction, phi, nt))
        ref = _textbook_1d(grid, None if reaction is None else reaction.fn, phi, nt)
        assert _rel_gap(u.values, ref) <= 1e-11

    @pytest.mark.parametrize("n,nt", [(12, 48), (512, 2048)])
    def test_interval_mms_source_and_initial_state(self, n, nt):
        reaction, exact, source, data = _mms_instance()
        grid = build_grid(interval(), n)
        u0 = exact(grid.axes[0], 0.0)
        u = solve_semilinear(grid, reaction, data, nt, source=source, u0=u0)
        ref = _textbook_1d(grid, reaction.fn, data, nt, source=source, u0=u0)
        assert _rel_gap(u.values, ref) <= 1e-11

    def test_rectangle(self):
        dom = rectangle()
        grid = build_grid(dom, 16)
        reaction = make_reaction(LAWS["saturating"])
        u = solve_semilinear(grid, reaction, _ramp(dom), 64)
        ref = _textbook_2d(grid, reaction.fn, _ramp(dom), 64)
        assert _rel_gap(u.values, ref) <= 1e-11


def _counting(fn):
    def counted(*args):
        counted.calls += 1
        return fn(*args)
    counted.calls = 0
    return counted


class TestTabulatedInputs:
    """The boundary data are tabulated once per solve and the source once
    per block of time rows; inputs that do not broadcast over a column of
    times end as a typed error that names the contract."""

    def test_boundary_data_called_once_per_solve(self):
        fn = _counting(lambda pts, t: t * (1.0 + pts[:, 0]))
        data = DirichletData(fn=fn, final_time=1.0)
        solve_linear_heat(build_grid(interval(), 16), data, 300)
        assert fn.calls == 1
        fn.calls = 0
        solve_semilinear(build_grid(rectangle(), 8), make_reaction({"family": "linear"}),
                         data, 300)
        assert fn.calls == 1  # one table over all four sides

    def test_source_called_once_per_block(self):
        reaction, exact, source, data = _mms_instance()
        counted = _counting(source)
        grid = build_grid(interval(), 16)
        solve_semilinear(grid, reaction, data, 130, source=counted,
                         u0=exact(grid.axes[0], 0.0))
        assert counted.calls == 3  # rows 0-63, 64-127, 128-129
        counted = _counting(_rect_mms_source)
        grid = build_grid(rectangle(0.9, 1.3), (9, 10))
        solve_semilinear(grid, reaction, _ramp(grid.domain), 130, source=counted)
        assert counted.calls == 3

    @pytest.mark.parametrize("domain", [interval(), rectangle()], ids=["interval", "rectangle"])
    def test_scalar_only_boundary_data_is_an_input_error(self, domain):
        data = DirichletData(fn=lambda pts, t: np.full(len(pts), t), final_time=1.0)
        with pytest.raises(InputError, match="must broadcast over a column of times"):
            solve_linear_heat(build_grid(domain, 8), data, 16)
        with pytest.raises(InputError, match="must broadcast over a column of times"):
            data.check_admissible(boundary_nodes(build_grid(domain, 8)))

    def test_scalar_only_source_is_an_input_error(self):
        grid = build_grid(interval(), 8)
        with pytest.raises(InputError, match="must broadcast over a column of times"):
            solve_linear_heat(grid, _ramp(interval()), 16,
                              source=lambda g, t: np.full(g.shape, t))


def _second_difference(n, h):
    """The 3-point Dirichlet second difference on the n - 1 interior nodes
    of n cells of width h, as a dense matrix."""
    return (np.eye(n - 1, k=-1) - 2.0 * np.eye(n - 1) + np.eye(n - 1, k=1)) / (h * h)


def _dense_laplacian(grid):
    """The 3-point (interval) or 5-point (rectangle) Dirichlet Laplacian on
    the interior nodes of a grid, in the C order of the (nx-1, ny-1)
    interior."""
    if grid.domain.dim == 1:
        return _second_difference(grid.n[0], grid.h[0])
    (nx, ny), (hx, hy) = grid.n, grid.h
    return (np.kron(_second_difference(nx, hx), np.eye(ny - 1))
            + np.kron(np.eye(nx - 1), _second_difference(ny, hy)))


class TestDirichletSolver:
    """dirichlet_solver inverts shift I - scale lap, in sine space on the
    rectangle and by pttrf/pttrs on the interval: as the Crank-Nicolson
    step (1, dt/2) and as a Laplace solve (0, 1) like the harmonic
    extension's. solve(b) leaves its result in b."""

    @pytest.mark.parametrize("domain,n", [(interval(), 12), (rectangle(0.9, 1.3), (9, 10))],
                             ids=["interval", "rectangle"])
    def test_solves_in_b_whatever_its_layout(self, domain, n, rng):
        # also where LAPACK cannot solve in place
        grid = build_grid(domain, n)
        solve = dirichlet_solver(grid, 1.0, 0.01 / 2.0)
        rhs = rng.standard_normal(tuple(k - 1 for k in grid.n))
        contiguous, strided = rhs.copy(), np.repeat(rhs, 2, axis=-1)[..., ::2]
        solve(contiguous)
        solve(strided)
        assert np.array_equal(strided, contiguous)
        assert not np.array_equal(contiguous, rhs)

    # the unit interval's steps: 12 cells and dt 0.01 are non-dyadic; 512
    # cells and 1/2048 are the fine interval march of synthesis
    @pytest.mark.parametrize("domain,n,shift,scale", [
        *[pytest.param(domain, n, shift, scale, id=f"{name}-{kind}")
          for name, domain, n in [("box", rectangle(0.9, 1.3), (9, 10)),
                                  ("square32", rectangle(), 32), ("interval", interval(0.7), 12)]
          for kind, shift, scale in [("step", 1.0, 0.5 / 64), ("laplace", 0.0, 1.0)]],
        *[pytest.param(interval(), n, 1.0, dt / 2.0, id=f"interval-{n}-{dt}")
          for n in (12, 512) for dt in (0.01, 1.0 / 2048)]])
    def test_matches_dense_solve(self, domain, n, shift, scale, rng):
        grid = build_grid(domain, n)
        b = rng.standard_normal(tuple(k - 1 for k in grid.n))
        matrix = shift * np.eye(b.size) - scale * _dense_laplacian(grid)
        ref = np.linalg.solve(matrix, b.ravel()).reshape(b.shape)
        dirichlet_solver(grid, shift, scale)(b)
        assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_leading_axis_solves_each_row(self, rng):
        grid = build_grid(rectangle(0.9, 1.3), (9, 10))
        solve = dirichlet_solver(grid, 0.0, 1.0)
        stack = rng.standard_normal((3, 8, 9))
        rows = stack.copy()
        for row in rows:
            solve(row)
        solve(stack)
        assert np.array_equal(stack, rows)

    @pytest.mark.parametrize("domain,n", [(interval(0.7), 13), (rectangle(0.9, 1.3), (9, 10))],
                             ids=["interval", "rectangle"])
    def test_sine_tables_diagonalise_each_axis(self, domain, n):
        grid = build_grid(domain, n)
        for (s, mu), cells, h in zip(sine_tables(grid), grid.n, grid.h):
            assert np.max(np.abs(s @ s - np.eye(cells - 1))) < 1e-14
            assert np.max(np.abs((s * mu) @ s + _second_difference(cells, h))) \
                <= 1e-13 * np.max(mu)


class TestMmsTemporalReference:
    """mms_temporal_errors measures each level against the exact solution of
    the manufactured instance's semi-discrete system, U_h(T)."""

    @pytest.mark.parametrize("n", [8, 13, 16])
    def test_matches_the_dense_matrix_exponential(self, n):
        # U' = A U + e^{-t} F with A = lap_h - c I, solved in A's eigenbasis:
        # U(T) = e^{AT} g + sum_k v_k v_k^T F (e^{lam_k T} - e^{-T}) / (lam_k + 1)
        reaction, exact, source, data = _mms_instance()
        grid = build_grid(interval(), n)
        T = data.final_time
        g = exact(grid.axes[0], 0.0)
        ring = np.zeros_like(g)
        ring[[0, -1]] = g[[0, -1]]
        forcing = source(grid, 0.0)[1:-1] + interior_laplacian(ring, grid)
        c = float(reaction.fn(1.0))
        lam, v = np.linalg.eigh(_dense_laplacian(grid) - c * np.eye(n - 1))
        coef = (np.exp(lam * T) * (v.T @ g[1:-1])
                + (np.exp(lam * T) - np.exp(-T)) / (lam + 1.0) * (v.T @ forcing))
        assert np.max(np.abs(mms_semidiscrete_final(grid) - v @ coef)) < 1e-13

    def test_the_march_converges_to_it_at_order_two(self):
        rates = _halving_rates(mms_temporal_errors(steps=[128 * 2 ** i for i in range(7)]))
        assert len(rates) == 6 and all(1.99 <= r <= 2.02 for r in rates), rates

    def test_sees_a_march_that_converges_to_the_wrong_system(self, monkeypatch):
        # 1e-6 added to every final row, whatever dt: a finer march as the
        # reference carries the same offset and still reads order 2
        def offset(grid, reaction, data, nt, *args):
            for m0, rows in march(grid, reaction, data, nt, *args):
                if m0 + len(rows) - 1 == nt:
                    rows[-1, 1:-1] += 1e-6
                yield m0, rows
        monkeypatch.setattr("fluxrecon.suites.march", offset)
        assert _rate(mms_temporal_errors()) < 1.9
        reaction, exact, source, data = _mms_instance()
        grid = build_grid(interval(), 128)
        u0 = exact(grid.axes[0], 0.0)
        ref = _final_row(grid, reaction, data, 2048, source, u0)
        rows = [_final_row(grid, reaction, data, nt, source, u0) for nt in TEMPORAL_STEPS]
        assert _rate([float(np.max(np.abs(row - ref))) for row in rows]) > 1.9

    def test_marches_only_its_levels(self, monkeypatch):
        seen = []

        def spy(grid, reaction, data, nt, *args):
            seen.append(nt)
            return march(grid, reaction, data, nt, *args)
        monkeypatch.setattr("fluxrecon.suites.march", spy)
        mms_temporal_errors()
        assert seen == list(TEMPORAL_STEPS)


class TestMmsSpatialStudy:
    """mms_spatial_errors measures the exact semi-discrete solution U_h(T)
    against the exact solution, so it takes no time step."""

    def test_makes_no_march(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(args)
            return march(*args, **kwargs)
        monkeypatch.setattr("fluxrecon.suites.march", spy)
        mms_spatial_errors()
        assert seen == []

    def test_agrees_with_the_marched_final_rows(self):
        # the route before: march 4096 steps so the O(dt^2) part falls
        # far below h^2 (measured <= 5.3e-10 of the difference)
        reaction, exact, source, data = _mms_instance()
        marched = []
        for n in SPATIAL_CELLS:
            grid = build_grid(interval(), n)
            row = _final_row(grid, reaction, data, 4096, source, exact(grid.axes[0], 0.0))
            marched.append(float(np.max(np.abs(row - exact(grid.axes[0], data.final_time)))))
        assert mms_spatial_errors() == pytest.approx(marched, rel=0.0, abs=1e-8)

    def test_the_suite_still_sees_a_spatial_fault_in_the_march(self, monkeypatch):
        # the march's step solve with its lap scaled by 1 + 1e-4: the
        # spatial study no longer marches, so the temporal and difference
        # residual studies must catch it. suites binds its own
        # dirichlet_solver, so the exact reference stays untouched.
        monkeypatch.setattr(
            "fluxrecon.forward.dirichlet_solver",
            lambda grid, shift, scale: dirichlet_solver(grid, shift, scale * (1 + 1e-4)))
        report = forward_suite()
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert not report["passed"]
        assert checks["mms_spatial_rate"]
        assert not checks["mms_temporal_rate"] and not checks["difference_residual_rate"]


class TestInteriorLaplacian:
    @pytest.mark.parametrize("domain,n,lead", [
        (interval(), 12, ()), (interval(0.7), 12, (5,)),
        (rectangle(0.9, 1.3), (9, 10), (4,)), (rectangle(0.9, 1.3), (9, 10), (2, 3))],
        ids=["interval", "interval-times", "rectangle-times", "rectangle-two-axes"])
    def test_out_is_bit_equal_to_the_allocating_call(self, domain, n, lead, rng):
        grid = build_grid(domain, n)
        w = rng.standard_normal(lead + grid.shape)
        # the stencil's operation order: (before - 2 inner + after) / h^2
        # per axis, summed in axis order
        c = (Ellipsis,) + (slice(1, -1),) * grid.domain.dim
        if grid.domain.dim == 1:
            h = grid.h[0]
            ref = (w[..., :-2] - 2.0 * w[c] + w[..., 2:]) / (h * h)
        else:
            hx, hy = grid.h
            ref = ((w[..., :-2, 1:-1] - 2.0 * w[c] + w[..., 2:, 1:-1]) / (hx * hx)
                   + (w[..., 1:-1, :-2] - 2.0 * w[c] + w[..., 1:-1, 2:]) / (hy * hy))
        assert np.array_equal(interior_laplacian(w, grid), ref)
        out = np.full(ref.shape, np.nan)
        assert interior_laplacian(w, grid, out=out) is out
        assert np.array_equal(out, ref)


class TestNeumannTrace:
    def test_exact_on_quadratics_1d(self):
        grid = build_grid(interval(), 16)
        x = grid.axes[0]
        field = SolutionField(grid=grid, final_time=1.0, values=np.tile(x**2, (3, 1)))
        trace = neumann_trace(field, boundary_nodes(grid))
        # outward derivative of x^2: 0 at x=0 (normal -1), 2 at x=1
        assert np.max(np.abs(trace.values[:, 0] - 0.0)) < 1e-12
        assert np.max(np.abs(trace.values[:, 1] - 2.0)) < 1e-12

    def test_exact_on_quadratics_2d(self):
        grid = build_grid(rectangle(), 8)
        X, Y = np.meshgrid(*grid.axes, indexing="ij")
        field = SolutionField(grid=grid, final_time=1.0,
                              values=np.tile(X**2 + Y**2, (2, 1, 1)))
        trace = neumann_trace(field, boundary_nodes(grid))
        nodes = trace.nodes
        # d_nu (x^2 + y^2) = 2 x nu_x + 2 y nu_y at each node
        exact = 2.0 * np.sum(nodes.nodes * _outward_normals(nodes), axis=1)
        assert np.max(np.abs(trace.values - exact)) < 1e-11

    def test_rejects_misaligned_nodes(self):
        grid = build_grid(rectangle(), 8)
        field = SolutionField(grid=grid, final_time=1.0, values=np.zeros((2,) + grid.shape))
        # m=6 midpoints fall between the n=8 grid lines
        with pytest.raises(InputError):
            neumann_trace(field, boundary_nodes(build_grid(rectangle(), 12)))

    def test_default_nodes_require_even_equal_cells(self):
        # odd or unequal counts put midpoints off the grid lines; fewer
        # than 4 nodes per side need a grid below build_grid's MIN_CELLS
        for n in (9, (8, 10), (10, 8)):
            with pytest.raises(ConfigurationError, match="even, equal cell count"):
                boundary_nodes(build_grid(rectangle(), n))
        with pytest.raises(ConfigurationError, match="grid too coarse"):
            boundary_nodes(build_grid(rectangle(), 6))

    @pytest.mark.parametrize("domain,n,m", [
        (interval(), 16, 0), (interval(0.9), 9, 0),
        (rectangle(), 8, 4), (rectangle(0.9, 1.3), (8, 16), 4),
        (rectangle(0.9, 1.3), 16, 8)])
    def test_equals_the_per_node_loop(self, domain, n, m, rng):
        grid = build_grid(domain, n)
        field = SolutionField(grid=grid, final_time=1.0,
                              values=rng.standard_normal((5,) + grid.shape))
        nodes = boundary_nodes(build_grid(domain, max(2 * m, 8)))
        got = neumann_trace(field, nodes).values
        assert np.array_equal(got, _reference_neumann_trace(field, nodes))


class TestMarchFlux:
    """march_flux keeps one block of time rows; its flux and largest u
    must equal neumann_trace and the max of the stored field."""

    @pytest.mark.parametrize("domain,n,m", [
        (interval(), 16, 0), (interval(0.9), 9, 0),
        (rectangle(0.9, 1.3), (8, 16), 4), (rectangle(0.9, 1.3), 16, 8)])
    @pytest.mark.parametrize("law", ["none", "saturating"])
    def test_equals_the_trace_of_the_field(self, domain, n, m, law):
        grid = build_grid(domain, n)
        nodes = boundary_nodes(build_grid(domain, max(2 * m, 8)))
        phi = make_boundary_data({"family": "saturating_ramp", "profile": "affine",
                                  "slope": 0.5}, domain, 1.0)
        reaction = make_reaction(LAWS[law]) if LAWS[law] else None
        if reaction is None:
            u = solve_linear_heat(grid, phi, 130)
        else:
            u = solve_semilinear(grid, reaction, phi, 130)
        trace, u_max = march_flux(grid, reaction, phi, 130, nodes)
        assert trace.final_time == u.final_time and len(trace.values) == len(u.values)
        assert np.array_equal(trace.values, neumann_trace(u, nodes).values)
        assert u_max == np.max(u.values)


def _outward_normals(nodes):
    """The unit outward normal of each node from its side: along axis
    side // 2, down for an even side and up for an odd one."""
    normals = np.zeros_like(nodes.nodes)
    normals[np.arange(nodes.count), nodes.side // 2] = 2 * (nodes.side % 2) - 1
    return normals


def _reference_neumann_trace(field, nodes):
    """neumann_trace node by node: the normal axis from the normal, the
    tangential node from its coordinate."""
    grid = field.grid
    out = np.empty((len(field.values), nodes.count))
    for b, (pt, nrm) in enumerate(zip(nodes.nodes, _outward_normals(nodes))):
        d = int(np.argmax(np.abs(nrm)))
        h = grid.h[d]
        if grid.domain.dim == 1:
            series = field.values
        else:
            other = 1 - d
            j = int(round(pt[other] / grid.h[other]))
            assert abs(grid.axes[other][j] - pt[other]) < 1e-12
            series = field.values[:, :, j] if d == 0 else field.values[:, j, :]
        if nrm[d] < 0:
            out[:, b] = (3.0 * series[:, 0] - 4.0 * series[:, 1] + series[:, 2]) / (2.0 * h)
        else:
            out[:, b] = (3.0 * series[:, -1] - 4.0 * series[:, -2] + series[:, -3]) / (2.0 * h)
    return out


def _reference_residual(u, v, reaction):
    """difference_residual over the whole field at once."""
    grid = u.grid
    w = u.values - v.values
    dt = u.dt
    wt = (w[2:] - w[:-2]) / (2.0 * dt)
    if grid.domain.dim == 1:
        h = grid.h[0]
        lap = (w[:, :-2] - 2.0 * w[:, 1:-1] + w[:, 2:]) / (h * h)
        res = wt[:, 1:-1] - lap[1:-1] + reaction.fn(u.values[1:-1, 1:-1])
        boundary = np.max(np.abs(w[:, [0, -1]]))
    else:
        hx, hy = grid.h
        lap = ((w[:, :-2, 1:-1] - 2.0 * w[:, 1:-1, 1:-1] + w[:, 2:, 1:-1]) / (hx * hx)
               + (w[:, 1:-1, :-2] - 2.0 * w[:, 1:-1, 1:-1] + w[:, 1:-1, 2:]) / (hy * hy))
        res = wt[:, 1:-1, 1:-1] - lap[1:-1] + reaction.fn(u.values[1:-1, 1:-1, 1:-1])
        edge = np.concatenate([w[:, 0, :].ravel(), w[:, -1, :].ravel(),
                               w[:, :, 0].ravel(), w[:, :, -1].ravel()])
        boundary = np.max(np.abs(edge))
    return (float(np.max(np.abs(res))), float(boundary), float(np.max(np.abs(w[0]))))


def _peaks(row):
    return row["interior_max"], row["boundary_max"], row["initial_max"]


def _stored_residual(grid, reaction, phi, nt):
    """_reference_residual of the stored u and v fields."""
    return _reference_residual(solve_semilinear(grid, reaction, phi, nt),
                               solve_linear_heat(grid, phi, nt), reaction)


class TestDifferenceResidual:
    # 600 and 300 steps cross blocks of time rows, including a last,
    # partial one; 130 steps cross two block edges, 65 end on a block of
    # one step and 512 steps end on a full block, as the study's levels do
    @pytest.mark.parametrize("domain,n,nt", [(interval(), 24, 600), (rectangle(), 8, 300),
                                             (interval(), 12, 130), (interval(), 12, 65),
                                             (interval(), 128, 512)],
                             ids=["interval", "rectangle", "interval-130", "interval-65",
                                  "interval-512"])
    def test_blocks_match_whole_field(self, domain, n, nt):
        grid = build_grid(domain, n)
        phi = make_boundary_data({"family": "saturating_ramp", "profile": "affine",
                                  "slope": 0.5}, domain, 1.0)
        reaction = make_reaction({"family": "saturating", "coeff": 2.0})
        row = difference_residual(grid, reaction, phi, nt)
        assert row["n"] == n and row["nt"] == nt
        assert _peaks(row) == _stored_residual(grid, reaction, phi, nt)

    # a spike of the data at one time makes the residual peak at that
    # row; the peak must be seen at each block edge and at the first and
    # last interior time
    @pytest.mark.parametrize("row", [1, 255, 256, 257, 258, 599])
    def test_every_row_is_covered(self, row):
        grid = build_grid(interval(), 16)
        t_row = row / 600

        def fn(pts, t):
            return t + np.where(np.abs(t - t_row) < 1e-6, 1e3, 0.0)
        phi = DirichletData(fn=fn, final_time=1.0)
        reaction = make_reaction({"family": "saturating", "coeff": 2.0})
        peaks = _peaks(difference_residual(grid, reaction, phi, 600))
        assert peaks == _stored_residual(grid, reaction, phi, 600)

    def test_streamed_study_equals_stored_fields(self):
        levels = ((12, 130), (128, 512))
        dom = interval()
        phi = _ramp(dom)
        reaction = make_reaction({"family": "linear", "coeff": 1.0})
        for row, (n, nt) in zip(difference_residual_study(levels), levels):
            assert row["n"] == n and row["nt"] == nt
            assert _peaks(row) == _stored_residual(build_grid(dom, n), reaction, phi, nt)

    def test_zero_for_identical_fields(self):
        # with the zero law u and v are the same field
        dom = interval()
        row = difference_residual(build_grid(dom, 16), make_reaction({"family": "zero"}),
                                  _ramp(dom), 16)
        assert _peaks(row) == (0.0, 0.0, 0.0)

    def test_linear_instance_residual_small(self):
        dom = interval()
        row = difference_residual(build_grid(dom, 128),
                                  make_reaction({"family": "linear", "coeff": 1.0}),
                                  _ramp(dom), 512)
        assert row["interior_max"] < 1e-2
        assert row["boundary_max"] < 1e-12
        assert row["initial_max"] < 1e-12

    def test_rectangle_shares_zero_boundary(self):
        dom = rectangle()
        row = difference_residual(build_grid(dom, 16),
                                  make_reaction({"family": "linear", "coeff": 1.0}),
                                  _ramp(dom), 64)
        assert row["boundary_max"] < 1e-12
        assert row["initial_max"] < 1e-12
        assert np.isfinite(row["interior_max"])


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
        nodes = boundary_nodes(build_grid(interval(), 8))
        bad = DirichletData(fn=lambda pts, t: np.ones(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)

    def test_boundary_data_must_be_nonnegative(self):
        nodes = boundary_nodes(build_grid(interval(), 8))
        bad = DirichletData(fn=lambda pts, t: -t * np.ones(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)

    def test_boundary_data_must_not_vanish(self):
        nodes = boundary_nodes(build_grid(interval(), 8))
        bad = DirichletData(fn=lambda pts, t: np.zeros(len(pts)), final_time=1.0)
        with pytest.raises(InputError):
            bad.check_admissible(nodes)


class TestSynthesize:
    def test_subsampling_and_metadata(self):
        dom = interval()
        obs = synthesize_observation(dom, make_reaction({"family": "linear"}),
                                     _ramp(dom), fine_n=32, fine_nt=128, sub_nt=32,
                                     nodes=boundary_nodes(build_grid(dom, 32)))
        assert len(obs.flux.times) == 33
        assert obs.flux.times[-1] == 1.0
        assert obs.f_label == "linear"

    def test_flux_and_boundary_data_share_the_final_time(self):
        dom = interval()
        obs = synthesize_observation(dom, make_reaction({"family": "linear"}),
                                     _ramp(dom), fine_n=32, fine_nt=128, sub_nt=32,
                                     nodes=boundary_nodes(build_grid(dom, 32)))
        late = BoundaryTrace(nodes=obs.flux.nodes, final_time=2.0, values=obs.flux.values)
        with pytest.raises(InputError, match="flux final time 2 differs from the "
                                             "boundary data's 1"):
            replace(obs, flux=late)

    def test_rejects_non_divisible_subsampling(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=100, sub_nt=32,
                                   nodes=boundary_nodes(build_grid(dom, 32)))

    def test_rejects_unit_ratio(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=32, sub_nt=32,
                                   nodes=boundary_nodes(build_grid(dom, 32)))

    def test_noise_reproducible_and_seeded(self):
        dom = interval()
        kw = dict(fine_n=32, fine_nt=128, sub_nt=32, noise_level=0.01,
                  nodes=boundary_nodes(build_grid(dom, 32)))
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
                                     sub_nt=32, noise_level=0.0,
                                     nodes=boundary_nodes(build_grid(dom, 32)))
        grid = build_grid(dom, 32)
        u = solve_semilinear(grid, r, _ramp(dom), 128)
        flux = neumann_trace(u, boundary_nodes(grid))
        assert np.array_equal(obs.flux.values, flux.values[::4])

    def test_keeps_no_field(self):
        # the fine march is read a block of rows at a time: the peak of
        # traced allocations stays far below one stored 2049 x 513 field
        dom = interval()
        tracemalloc.start()
        try:
            synthesize_observation(dom, make_reaction({"family": "linear"}), _ramp(dom),
                                   fine_n=512, fine_nt=2048, sub_nt=256, noise_level=0.01,
                                   nodes=boundary_nodes(build_grid(dom, 32)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2049 * 513 * 8 / 4

    def test_rejects_negative_noise(self):
        dom = interval()
        with pytest.raises(ConfigurationError):
            synthesize_observation(dom, make_reaction({"family": "zero"}),
                                   _ramp(dom), fine_n=32, fine_nt=128, sub_nt=32,
                                   noise_level=-0.1, nodes=boundary_nodes(build_grid(dom, 32)))
