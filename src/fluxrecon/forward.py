"""Forward solvers for the semilinear heat problem and its linear part.

The evolution u_t - lap(u) + f(u) = q with Dirichlet data phi is
discretized by Crank-Nicolson in the diffusion term and a two-step
Adams-Bashforth extrapolation of the reaction term (first step
bootstrapped with f(u^0)), which keeps the scheme second order in both
h and dt without nonlinear solves. Boundary values are imposed
strongly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import identity, kron, diags
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, InputError, NumericalError
from .fields import BoundaryTrace, SolutionField
from .geometry import (BoundaryNodeSet, DomainKind, DomainSpec, SpatialGrid,
                       boundary_nodes, build_grid)

SourceFn = Callable[[SpatialGrid, np.ndarray], np.ndarray]
"""A source q(x, t) of the forward march. It gets the grid and the times
as an array of shape (rows, 1, ...) with one axis per grid axis, and must
return values that broadcast to (rows, *grid.shape): row i is q at t[i].
A source written with elementwise numpy operations on t meets this."""

# time rows per source evaluation and per divergence check of the marches
_BLOCK = 64
# time rows per block of the difference residual
_RESIDUAL_ROWS = 256


@dataclass(frozen=True)
class Nonlinearity:
    """A reaction law u -> f(u)."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def check_admissible(self, u_max: float, samples: int = 257, tol: float = 1e-10) -> None:
        """Sampled admissibility: f(0) = 0, f >= 0 and nondecreasing on [0, u_max]."""
        us = np.linspace(0.0, max(u_max, 1e-12), samples)
        vals = np.asarray(self.fn(us), dtype=float)
        if abs(float(vals[0])) > tol:
            raise InputError(f"reaction law must vanish at 0, got f(0) = {vals[0]:g}")
        if np.min(vals) < -tol:
            raise InputError("reaction law must be nonnegative on the data range")
        if np.min(np.diff(vals)) < -tol:
            raise InputError("reaction law must be nondecreasing on the data range")


@dataclass(frozen=True)
class DirichletData:
    """Time-dependent Dirichlet boundary data phi(x, t).

    fn maps (points (N, dim), t) to values; final_time is the horizon T
    of the experiment. fn must broadcast over t: given a float it
    returns (N,) values, and given a column of times (T, 1) it returns
    values that broadcast to (T, N), row i being phi at t[i]. A fn
    written with elementwise numpy operations on t meets this, and the
    solvers tabulate the data once per solve through `table`.
    """

    fn: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    final_time: float
    label: str = "custom"

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float), float(t)), dtype=float)

    def table(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        """phi at every (time, point) pair, shape (len(times), N), from one
        call of fn with the times as a column."""
        points = np.asarray(points, dtype=float)
        times = np.asarray(times, dtype=float)
        shape = (len(times), len(points))
        try:
            vals = np.asarray(self.fn(points, times[:, None]), dtype=float)
            return np.array(np.broadcast_to(vals, shape))
        except (ValueError, TypeError) as exc:
            raise InputError(
                f"boundary data {self.label!r} must broadcast over a column of times: "
                f"fn(points (N, dim), t (T, 1)) must give values that broadcast to "
                f"(T, N) = {shape} ({exc})") from exc

    def check_admissible(self, nodes: BoundaryNodeSet, time_samples: int = 65,
                         tol: float = 1e-10) -> None:
        """Sampled admissibility: phi(., 0) = 0, phi >= 0, phi not identically 0."""
        ts = np.linspace(0.0, self.final_time, time_samples)
        vals = self.table(nodes.nodes, ts)
        if np.max(np.abs(vals[0])) > tol:
            raise InputError("boundary data must vanish at t = 0")
        if np.min(vals) < -tol:
            raise InputError("boundary data must be nonnegative")
        if np.max(np.abs(vals)) <= tol:
            raise InputError("boundary data must not vanish identically")


def _interval_step_matrix(n: int, h: float, dt: float) -> np.ndarray:
    """Banded (I - dt/2 lap) on the n-1 interior nodes: rows are the
    upper, main and lower diagonals (LAPACK's du, d, dl live in
    ab[0, 1:], ab[1] and ab[2, :-1])."""
    r = dt / (2.0 * h * h)
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    return ab


def _source_rows(source: SourceFn, grid: SpatialGrid, ts: np.ndarray) -> np.ndarray:
    """q at the times ts on the whole grid, shape (len(ts), *grid.shape),
    from one call of the source."""
    shape = (len(ts),) + grid.shape
    try:
        vals = np.asarray(source(grid, ts.reshape((-1,) + (1,) * grid.domain.dim)),
                          dtype=float)
        return np.broadcast_to(vals, shape)
    except (ValueError, TypeError) as exc:
        raise InputError(
            f"the source must broadcast over a column of times: source(grid, t "
            f"(rows, 1, ...)) must give values that broadcast to {shape} ({exc})") from exc


def _check_rows(rows: np.ndarray, times: np.ndarray, m0: int) -> None:
    """Raise for the first non-finite row of rows = u[m0 + 1 : ...]; the
    error names that row's step as the march reaches it."""
    if np.isfinite(rows).all():
        return
    finite = np.isfinite(rows.reshape(len(rows), -1)).all(axis=1)
    step = m0 + 1 + int(np.argmin(finite))
    raise NumericalError(f"solver diverged at step {step} (t = {times[step]:g})")


def _solve_1d(grid: SpatialGrid, reaction, data: DirichletData, nt: int,
              source: SourceFn | None, u0: np.ndarray | None) -> SolutionField:
    n = grid.n[0]
    h = grid.h[0]
    T = data.final_time
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    xs = grid.axes[0]
    bpts = np.array([[xs[0]], [xs[-1]]])
    ab = _interval_step_matrix(n, h, dt)
    # the step matrix is constant: LAPACK factors it once (gttrf) and each
    # step only back-substitutes (gttrs), in place in the new time row
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (ab,))
    dl, d, du, du2, ipiv, _ = gttrf(ab[2, :-1], ab[1], ab[0, 1:])
    r = dt / (2.0 * h * h)
    h2 = h * h
    half_dt = 0.5 * dt
    # work buffers over the interior nodes; each right-hand side is built
    # in place in the operation order of the expression
    #   um + (dt/2) lap(um) - dt f_ex + dt q,  f_ex = 1.5 f(um) - 0.5 f(u_{m-1})
    # so it rounds exactly as that expression does
    lap = np.empty(n - 1)
    work = np.empty(n - 1)

    u = np.zeros((nt + 1, n + 1))
    if u0 is not None:
        u[0] = u0
    # the boundary columns are known up front; r * phi enters the end rows
    bc = data.table(bpts, times)
    u[:, 0], u[:, -1] = bc[:, 0], bc[:, 1]
    r_bc = r * bc[1:]
    f_prev = None
    for m0 in range(0, nt, _BLOCK):
        m1 = min(m0 + _BLOCK, nt)
        if source is not None:
            q_dt = dt * _source_rows(source, grid, times[m0:m1] + half_dt)[:, 1:-1]
        for m in range(m0, m1):
            um = u[m]
            inner = um[1:-1]
            rhs = u[m + 1, 1:-1]
            np.multiply(2.0, inner, out=lap)
            np.subtract(um[:-2], lap, out=lap)
            np.add(lap, um[2:], out=lap)
            np.divide(lap, h2, out=lap)
            np.multiply(half_dt, lap, out=lap)
            np.add(inner, lap, out=rhs)
            if reaction is not None:
                fm = reaction(um)[1:-1]
                if f_prev is None:
                    np.multiply(dt, fm, out=work)
                else:
                    np.multiply(1.5, fm, out=work)
                    np.multiply(0.5, f_prev, out=lap)
                    np.subtract(work, lap, out=work)
                    np.multiply(dt, work, out=work)
                np.subtract(rhs, work, out=rhs)
                f_prev = fm
            if source is not None:
                np.add(rhs, q_dt[m - m0], out=rhs)
            rhs[0] += r_bc[m, 0]
            rhs[-1] += r_bc[m, 1]
            # gttrs overwrites rhs when it can; storing its result covers a copy
            rhs[...] = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)[0]
        # a non-finite right-hand side always gives a non-finite solve, so
        # the first non-finite row is the step that diverged
        _check_rows(u[m0 + 1:m1 + 1, 1:-1], times, m0)
    return SolutionField(grid=grid, times=times, values=u)


def interior_laplacian(w: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """The 3-point (interval) or 5-point (rectangle) Laplacian of w at the
    interior nodes. The grid axes are the trailing axes of w and leading
    axes (time) are carried along, so the result is w with every grid
    axis shortened by one node at each end."""
    dim = grid.domain.dim
    lead = (slice(None),) * (w.ndim - dim)
    inner = (slice(1, -1),) * dim
    lap = None
    for d, h in enumerate(grid.h):
        lo = lead + inner[:d] + (slice(None, -2),) + inner[d + 1:]
        hi = lead + inner[:d] + (slice(2, None),) + inner[d + 1:]
        term = (w[lo] - 2.0 * w[lead + inner] + w[hi]) / (h * h)
        lap = term if lap is None else lap + term
    return lap


def rect_laplacian_matrix(grid: SpatialGrid):
    """Sparse 5-point Laplacian on the interior nodes of a rectangle grid,
    in the C order of the (nx-1, ny-1) interior. The boundary values enter
    as interior_laplacian of a field that holds them and is zero inside."""
    nx, ny = grid.n
    hx, hy = grid.h

    def lap1(n, h):
        return diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n - 1, n - 1)) / (h * h)

    ix = identity(nx - 1, format="csr")
    iy = identity(ny - 1, format="csr")
    return kron(lap1(nx, hx), iy) + kron(ix, lap1(ny, hy))


def _solve_2d(grid: SpatialGrid, reaction, data: DirichletData, nt: int,
              source: SourceFn | None, u0: np.ndarray | None) -> SolutionField:
    nx, ny = grid.n
    T = data.final_time
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    A = rect_laplacian_matrix(grid).tocsc()
    ni = (nx - 1) * (ny - 1)
    lhs = splu(identity(ni, format="csc") - (dt / 2.0) * A)

    u = np.zeros((nt + 1,) + grid.shape)
    if u0 is not None:
        u[0] = u0
    # the boundary faces at every time; the y = 0 and y = L faces are
    # written last, so theirs are the corner values. Row m + 1 holds only
    # its faces until it is solved, so its interior Laplacian is the
    # boundary coupling of the step.
    points = grid.points
    for s in range(4):
        face = grid.face(s)
        u[face] = data.table(points[face[1:]], times)
    f_prev = None
    for m0 in range(0, nt, _BLOCK):
        m1 = min(m0 + _BLOCK, nt)
        if source is not None:
            q_dt = dt * _source_rows(source, grid, times[m0:m1] + 0.5 * dt)[:, 1:-1, 1:-1]
        for m in range(m0, m1):
            um = u[m]
            fm = reaction(um) if reaction is not None else np.zeros_like(um)
            f_ex = fm if f_prev is None else 1.5 * fm - 0.5 * f_prev
            rhs = (um[1:-1, 1:-1] + 0.5 * dt * interior_laplacian(um, grid)
                   - dt * f_ex[1:-1, 1:-1] + 0.5 * dt * interior_laplacian(u[m + 1], grid))
            if source is not None:
                rhs = rhs + q_dt[m - m0]
            u[m + 1, 1:-1, 1:-1] = lhs.solve(rhs.ravel()).reshape(nx - 1, ny - 1)
            f_prev = fm
        _check_rows(u[m0 + 1:m1 + 1, 1:-1, 1:-1], times, m0)
    return SolutionField(grid=grid, times=times, values=u)


def _march(grid: SpatialGrid, reaction, data: DirichletData, nt: int,
           source: SourceFn | None, u0: np.ndarray | None) -> SolutionField:
    if nt < 2:
        raise ConfigurationError(f"need at least 2 time steps, got {nt}")
    solve = _solve_1d if grid.domain.kind is DomainKind.INTERVAL else _solve_2d
    return solve(grid, reaction, data, nt, source, u0)


def solve_semilinear(grid: SpatialGrid, reaction: Nonlinearity, data: DirichletData,
                     nt: int, source: SourceFn | None = None,
                     u0: np.ndarray | None = None) -> SolutionField:
    """March u_t - lap(u) + f(u) = source with Dirichlet data to t = T."""
    fn = reaction.fn if reaction is not None else None
    return _march(grid, fn, data, nt, source, u0)


def solve_linear_heat(grid: SpatialGrid, data: DirichletData, nt: int,
                      source: SourceFn | None = None,
                      u0: np.ndarray | None = None) -> SolutionField:
    """March the linear heat equation with the same discretization."""
    return _march(grid, None, data, nt, source, u0)


def default_trace_nodes(grid: SpatialGrid) -> BoundaryNodeSet:
    """Grid-aligned boundary quadrature nodes (rectangle: n/2 per side)."""
    if grid.domain.kind is DomainKind.INTERVAL:
        return boundary_nodes(grid.domain)
    if grid.n[0] % 2 or grid.n[1] % 2 or grid.n[0] != grid.n[1]:
        raise ConfigurationError(
            f"rectangle traces need an even, equal cell count per axis, got {grid.n}")
    return boundary_nodes(grid.domain, m=grid.n[0] // 2)


def neumann_trace(field: SolutionField, nodes: BoundaryNodeSet | None = None) -> BoundaryTrace:
    """Outward normal derivative at boundary nodes, one-sided second order.

    At x = 0 the stencil is dn(u) = (3 u_0 - 4 u_1 + u_2) / (2h); nodes
    must lie on grid lines (the default set does). A node on side s steps
    inward along axis s // 2, forward from the first node for even s and
    back from the last for odd s.
    """
    grid = field.grid
    if nodes is None:
        nodes = default_trace_nodes(grid)
    idx = np.array(grid.indices(nodes.nodes))            # (dim, nb)
    axis = nodes.side // 2
    inward = np.zeros_like(idx)
    inward[axis, np.arange(nodes.count)] = 1 - 2 * (nodes.side % 2)
    a, b, c = (field.values[(slice(None), *(idx + k * inward))] for k in range(3))
    h = np.asarray(grid.h)[axis]
    return BoundaryTrace(nodes=nodes, times=field.times,
                         values=(3.0 * a - 4.0 * b + c) / (2.0 * h))


@dataclass(frozen=True)
class DifferenceResidualReport:
    """Discrete residual of the difference field w = u - v, which should
    satisfy w_t - lap(w) + f(u) = 0 with zero boundary and initial data."""

    interior_max: float
    boundary_max: float
    initial_max: float


def difference_residual(u: SolutionField, v: SolutionField,
                        reaction: Nonlinearity) -> DifferenceResidualReport:
    """Check w = u - v against its evolution law with discrete operators
    (centered time derivative, 3/5-point Laplacian) on interior nodes and
    interior times. The residual is formed a block of time rows at a time
    (with one row of halo each side for the time difference), so the
    memory it needs does not grow with the number of steps."""
    if u.values.shape != v.values.shape or not np.allclose(u.times, v.times):
        raise InputError("fields must share grid and time sampling")
    grid = u.grid
    dt = float(u.times[1] - u.times[0])
    nt1 = len(u.times)
    inner = (slice(None),) + (slice(1, -1),) * grid.domain.dim
    peaks = []
    for j0 in range(1, nt1 - 1, _RESIDUAL_ROWS):
        j1 = min(j0 + _RESIDUAL_ROWS, nt1 - 1)
        w = u.values[j0 - 1:j1 + 1] - v.values[j0 - 1:j1 + 1]
        wt = (w[2:] - w[:-2]) / (2.0 * dt)
        res = (wt[inner] - interior_laplacian(w, grid)[1:-1]
               + reaction.fn(u.values[j0:j1][inner]))
        peaks.append(np.max(np.abs(res)))
    edges = [np.max(np.abs(u.values[grid.face(s)] - v.values[grid.face(s)]))
             for s in range(2 * grid.domain.dim)]
    return DifferenceResidualReport(interior_max=float(np.max(peaks)),
                                    boundary_max=float(np.max(edges)),
                                    initial_max=float(np.max(np.abs(u.values[0] - v.values[0]))))


@dataclass(frozen=True, eq=False)
class ObservedData:
    """A synthetic measurement: known boundary data plus observed flux.

    f_label tags the generating reaction law for scoring; the
    reconstruction path never reads it.
    """

    domain: DomainSpec
    phi: DirichletData
    flux: BoundaryTrace
    noise_level: float
    seed: int
    f_label: str | None = None


def synthesize_observation(domain: DomainSpec, reaction: Nonlinearity,
                           phi: DirichletData, fine_n: int, fine_nt: int,
                           sub_nt: int, noise_level: float = 0.0, seed: int = 0,
                           nodes: BoundaryNodeSet | None = None) -> ObservedData:
    """Solve on a fine grid, extract the flux, perturb, subsample.

    The time subsampling ratio must be an integer >= 2 so observations
    never live on the grid the reconstruction will use (inverse-crime
    guard); spatial fineness is the caller's responsibility via fine_n.
    nodes is the boundary node set of the flux (default: the default
    trace nodes of the fine grid); it must align with both the fine and
    the reconstruction grid.
    """
    if fine_nt % sub_nt != 0 or fine_nt // sub_nt < 2:
        raise ConfigurationError(
            f"fine steps {fine_nt} must be an integer multiple (>= 2) of {sub_nt}")
    if noise_level < 0:
        raise ConfigurationError(f"noise level must be >= 0, got {noise_level}")
    grid = build_grid(domain, fine_n)
    if nodes is None:
        nodes = default_trace_nodes(grid)
    phi.check_admissible(nodes)
    u = solve_semilinear(grid, reaction, phi, fine_nt)
    reaction.check_admissible(float(np.max(u.values)))
    flux = neumann_trace(u, nodes)
    values = flux.values
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        scale = noise_level * float(np.max(np.abs(values)))
        values = values + rng.normal(0.0, scale, size=values.shape)
    noisy = BoundaryTrace(nodes=flux.nodes, times=flux.times, values=values)
    sub = noisy.subsample_time(fine_nt // sub_nt)
    return ObservedData(domain=domain, phi=phi, flux=sub,
                        noise_level=noise_level, seed=seed,
                        f_label=reaction.label)
