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

# time rows per block of the marches: per source evaluation, per
# divergence check and per block a caller reads
_BLOCK = 64


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


def _times(data: DirichletData, nt: int) -> np.ndarray:
    return np.linspace(0.0, data.final_time, nt + 1)


def _index(*axes):
    """axes as an index: numpy takes a bare slice faster than a 1-tuple."""
    return axes[0] if len(axes) == 1 else axes


def _stencil_views(w: np.ndarray, hs: tuple[float, ...]):
    """The views of w the Laplacian reads, the grid axes of spacings hs
    being its last len(hs) axes: the interior, and per grid axis the
    nodes one before and one after it, with h^2."""
    lead, inner = (slice(None),) * (w.ndim - len(hs)), (slice(1, -1),) * len(hs)
    return w[lead + inner], [(w[lead + inner[:d] + (slice(None, -2),) + inner[d + 1:]],
                              w[lead + inner[:d] + (slice(2, None),) + inner[d + 1:]], h * h)
                             for d, h in enumerate(hs)]


def _laplacian(out: np.ndarray, inner: np.ndarray, taps) -> np.ndarray:
    """The stencil into out from _stencil_views: sum over the grid axes
    of (before - 2 inner + after) / h^2, in that operation order."""
    for d, (lo, hi, h2) in enumerate(taps):
        term = np.empty_like(out) if d else out
        np.multiply(2.0, inner, out=term)
        np.subtract(lo, term, out=term)
        np.add(term, hi, out=term)
        np.divide(term, h2, out=term)
        if d:
            np.add(out, term, out=out)
    return out


def interior_laplacian(w: np.ndarray, grid: SpatialGrid,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The 3-point (interval) or 5-point (rectangle) Laplacian of w at the
    interior nodes. The grid axes are the trailing axes of w and leading
    axes (time) are carried along, so the result is w with every grid
    axis shortened by one node at each end. With out, any array or view
    of that shape, the same values are written there and returned."""
    inner, taps = _stencil_views(w, grid.h)
    return _laplacian(np.empty(inner.shape) if out is None else out, inner, taps)


def rect_laplacian_matrix(grid: SpatialGrid):
    """Sparse 5-point Laplacian on the interior nodes of a rectangle grid,
    in the C order of the (nx-1, ny-1) interior. It holds no boundary
    values: the march adds r_d phi, r_d = dt / (2 h_d^2), to the interior
    nodes next to each face, and the harmonic extension takes the
    interior_laplacian of a field that holds them and is zero inside."""
    nx, ny = grid.n
    hx, hy = grid.h

    def lap1(n, h):
        return diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n - 1, n - 1)) / (h * h)

    ix = identity(nx - 1, format="csr")
    iy = identity(ny - 1, format="csr")
    return kron(lap1(nx, hx), iy) + kron(ix, lap1(ny, hy))


def _step_solver(grid: SpatialGrid, dt: float):
    """solve(b) overwrites b, the interior of a time row, with
    (I - dt/2 lap)^-1 b, from one factorization: LAPACK's gttrf with a
    gttrs per step on the interval, a sparse LU on the rectangle."""
    if grid.domain.dim == 1:
        n, h = grid.n[0], grid.h[0]
        r = dt / (2.0 * h * h)
        off = np.full(n - 2, -r)
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (off,))
        dl, d, du, du2, ipiv, _ = gttrf(off, np.full(n - 1, 1.0 + 2.0 * r), off)

        def solve(b: np.ndarray) -> None:
            # gttrs solves in b when it can, and else returns a copy
            x = gttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)[0]
            if x is not b:
                b[...] = x
        return solve
    A = rect_laplacian_matrix(grid).tocsc()
    lu = splu(identity(A.shape[0], format="csc") - (dt / 2.0) * A)

    def solve(b: np.ndarray) -> None:
        b[...] = lu.solve(b.ravel()).reshape(b.shape)
    return solve


def _march(grid: SpatialGrid, reaction, data: DirichletData, nt: int,
           source: SourceFn | None, u0: np.ndarray | None):
    """The march of `march` on either domain, reaction being f or None.

    Each right-hand side is built in place in its new row, in the
    operation order of the expression
        um + (dt/2) lap(um) - dt f_ex + dt q,  f_ex = 1.5 f(um) - 0.5 f(u_{m-1}),
    so it rounds exactly as that expression does; then each face s, on
    axis d = s // 2, adds r_d phi, r_d = dt / (2 h_d^2), to the interior
    nodes next to it (face[1:] of the interior).
    """
    dim = grid.domain.dim
    dt = data.final_time / nt
    half_dt = 0.5 * dt
    times = _times(data, nt)
    solve = _step_solver(grid, dt)
    inner = (slice(1, -1),) * dim
    interior = _index(*inner)
    faces = [grid.face(s) for s in range(2 * dim)]
    ring = np.ones(grid.shape, dtype=bool)
    ring[interior] = False
    # phi at every boundary node and time, from one call of data.fn
    bc = data.table(grid.points[ring], times)
    r = [dt / (2.0 * h * h) for h in grid.h]
    lap = np.empty(tuple(k - 1 for k in grid.n))
    work = np.empty_like(lap)

    u = np.zeros((_BLOCK + 1,) + grid.shape)
    if u0 is not None:
        u[0] = u0
    # each buffer row with its stencil views, taken once per solve
    inner_rows, taps_rows = _stencil_views(u, grid.h)
    views = [(u[k], inner_rows[k], [(lo[k], hi[k], h2) for lo, hi, h2 in taps_rows])
             for k in range(len(u))]
    f_prev = None
    for m0 in range(0, nt, _BLOCK):
        m1 = min(m0 + _BLOCK, nt)
        rows = u[:m1 - m0 + 1]
        if m0:
            u[0] = u[_BLOCK]
        # only the boundary is set here: a step writes every interior value
        # of its new row, and f_prev may alias an interior
        rows[:, ring] = bc[m0:m1 + 1]
        couplings = [(_index(*face[1:]), r[s // 2] * rows[face][(slice(1, None),) + inner[1:]])
                     for s, face in enumerate(faces)]
        if source is not None:
            q_dt = dt * _source_rows(source, grid, times[m0:m1] + half_dt)[(slice(None),) + inner]
        for k in range(m1 - m0):
            um, um_inner, um_taps = views[k]
            rhs = views[k + 1][1]
            _laplacian(lap, um_inner, um_taps)
            np.multiply(half_dt, lap, out=lap)
            np.add(um_inner, lap, out=rhs)
            if reaction is not None:
                fm = reaction(um)[interior]
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
                np.add(rhs, q_dt[k], out=rhs)
            for near, coupling in couplings:
                rhs[near] += coupling[k]
            solve(rhs)
        # a non-finite right-hand side always gives a non-finite solve, so
        # the first non-finite row is the step that diverged
        _check_rows(rows[(slice(1, None),) + inner], times, m0)
        yield m0, rows


def march(grid: SpatialGrid, reaction: Nonlinearity | None, data: DirichletData,
          nt: int, source: SourceFn | None = None, u0: np.ndarray | None = None):
    """March u_t - lap(u) + f(u) = source (no f when reaction is None) with
    Dirichlet data to t = T, yielding blocks of time rows (m0, rows):
    rows = u[m0 : m1 + 1] with m1 = min(m0 + _BLOCK, nt), and row 0 of a
    block is the last row of the block before it. Each rows is a view into
    one reused buffer, valid until the next block is asked for: a caller
    keeps what it reads and copies what it must hold."""
    if nt < 2:
        raise ConfigurationError(f"need at least 2 time steps, got {nt}")
    fn = reaction.fn if reaction is not None else None
    return _march(grid, fn, data, nt, source, u0)


def _field(grid: SpatialGrid, data: DirichletData, nt: int, blocks) -> SolutionField:
    u = np.empty((nt + 1,) + grid.shape)
    for m0, rows in blocks:
        u[m0:m0 + len(rows)] = rows
    return SolutionField(grid=grid, times=_times(data, nt), values=u)


def solve_semilinear(grid: SpatialGrid, reaction: Nonlinearity, data: DirichletData,
                     nt: int, source: SourceFn | None = None,
                     u0: np.ndarray | None = None) -> SolutionField:
    """March u_t - lap(u) + f(u) = source with Dirichlet data to t = T."""
    return _field(grid, data, nt, march(grid, reaction, data, nt, source, u0))


def solve_linear_heat(grid: SpatialGrid, data: DirichletData, nt: int,
                      source: SourceFn | None = None,
                      u0: np.ndarray | None = None) -> SolutionField:
    """March the linear heat equation with the same discretization."""
    return _field(grid, data, nt, march(grid, None, data, nt, source, u0))


def default_trace_nodes(grid: SpatialGrid) -> BoundaryNodeSet:
    """Grid-aligned boundary quadrature nodes (rectangle: n/2 per side)."""
    if grid.domain.kind is DomainKind.INTERVAL:
        return boundary_nodes(grid.domain)
    if grid.n[0] % 2 or grid.n[1] % 2 or grid.n[0] != grid.n[1]:
        raise ConfigurationError(
            f"rectangle traces need an even, equal cell count per axis, got {grid.n}")
    return boundary_nodes(grid.domain, m=grid.n[0] // 2)


def _flux_stencil(grid: SpatialGrid, nodes: BoundaryNodeSet):
    """The outward normal derivative at the nodes as a function of a
    (rows, *grid.shape) array; see neumann_trace."""
    idx = np.array(grid.indices(nodes.nodes))            # (dim, nb)
    axis = nodes.side // 2
    inward = np.zeros_like(idx)
    inward[axis, np.arange(nodes.count)] = 1 - 2 * (nodes.side % 2)
    taps = [(slice(None), *(idx + k * inward)) for k in range(3)]
    h = np.asarray(grid.h)[axis]

    def flux(rows: np.ndarray) -> np.ndarray:
        a, b, c = (rows[tap] for tap in taps)
        return (3.0 * a - 4.0 * b + c) / (2.0 * h)
    return flux


def neumann_trace(field: SolutionField, nodes: BoundaryNodeSet | None = None) -> BoundaryTrace:
    """Outward normal derivative at boundary nodes, one-sided second order.

    At x = 0 the stencil is dn(u) = (3 u_0 - 4 u_1 + u_2) / (2h); nodes
    must lie on grid lines (the default set does). A node on side s steps
    inward along axis s // 2, forward from the first node for even s and
    back from the last for odd s.
    """
    if nodes is None:
        nodes = default_trace_nodes(field.grid)
    return BoundaryTrace(nodes=nodes, times=field.times,
                         values=_flux_stencil(field.grid, nodes)(field.values))


def march_flux(grid: SpatialGrid, reaction: Nonlinearity | None, data: DirichletData,
               nt: int, nodes: BoundaryNodeSet) -> tuple[BoundaryTrace, float]:
    """neumann_trace of the march at the nodes, and the largest u of the
    march, keeping only a block of time rows at a time."""
    flux = _flux_stencil(grid, nodes)
    values = np.empty((nt + 1, nodes.count))
    u_max = -np.inf
    for m0, rows in march(grid, reaction, data, nt):
        values[m0:m0 + len(rows)] = flux(rows)
        u_max = max(u_max, float(np.max(rows)))
    return BoundaryTrace(nodes=nodes, times=_times(data, nt), values=values), u_max


@dataclass(frozen=True)
class DifferenceResidualReport:
    """Discrete residual of the difference field w = u - v, which should
    satisfy w_t - lap(w) + f(u) = 0 with zero boundary and initial data."""

    interior_max: float
    boundary_max: float
    initial_max: float


def _residual_report(blocks, grid: SpatialGrid, dt: float,
                     reaction: Nonlinearity) -> DifferenceResidualReport:
    """The residual of w = u - v over row blocks (u_rows, v_rows) that carry
    one halo row each side: the first block starts at t = 0, the last ends
    at t = T, and the interior rows of the blocks are every interior time
    once. The peaks are maxima, so the block size does not change them."""
    inner = (slice(None),) + (slice(1, -1),) * grid.domain.dim
    faces = [grid.face(s) for s in range(2 * grid.domain.dim)]
    interior, boundary, initial = [], [], None
    for ub, vb in blocks:
        w = ub - vb
        if initial is None:
            initial = float(np.max(np.abs(w[0])))
        wt = (w[2:] - w[:-2]) / (2.0 * dt)
        res = wt[inner] - interior_laplacian(w, grid)[1:-1] + reaction.fn(ub[1:-1][inner])
        interior.append(np.max(np.abs(res)))
        boundary.extend(np.max(np.abs(w[face])) for face in faces)
    return DifferenceResidualReport(interior_max=float(np.max(interior)),
                                    boundary_max=float(np.max(boundary)),
                                    initial_max=initial)


def difference_residual(u: SolutionField, v: SolutionField,
                        reaction: Nonlinearity) -> DifferenceResidualReport:
    """Check w = u - v against its evolution law with discrete operators
    (centered time derivative, 3/5-point Laplacian) on interior nodes and
    interior times, a block of time rows at a time."""
    if u.values.shape != v.values.shape or not np.allclose(u.times, v.times):
        raise InputError("fields must share grid and time sampling")
    dt = float(u.times[1] - u.times[0])
    last = len(u.times) - 1
    spans = [(j0 - 1, min(j0 + _BLOCK, last) + 1) for j0 in range(1, last, _BLOCK)]
    blocks = ((u.values[a:b], v.values[a:b]) for a, b in spans)
    return _residual_report(blocks, u.grid, dt, reaction)


def march_difference_residual(grid: SpatialGrid, reaction: Nonlinearity,
                              data: DirichletData, nt: int) -> DifferenceResidualReport:
    """difference_residual of u = solve_semilinear and v = solve_linear_heat
    on (grid, data, nt), from two lockstep marches: no field is stored."""
    times = _times(data, nt)

    def blocks():
        halo = None
        for (_, ru), (_, rv) in zip(march(grid, reaction, data, nt),
                                     march(grid, None, data, nt)):
            yield (ru, rv) if halo is None else (np.concatenate([halo[0], ru]),
                                                 np.concatenate([halo[1], rv]))
            halo = ru[-2:-1].copy(), rv[-2:-1].copy()
    return _residual_report(blocks(), grid, float(times[1] - times[0]), reaction)


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
    flux, u_max = march_flux(grid, reaction, phi, fine_nt, nodes)
    reaction.check_admissible(u_max)
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
