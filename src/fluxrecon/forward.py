"""Forward solvers for the semilinear heat problem and its linear part.

The evolution u_t - lap(u) + f(u) = q with Dirichlet data phi is
discretized by Crank-Nicolson in the diffusion term and a two-step
Adams-Bashforth extrapolation of the reaction term (first step
bootstrapped with f(u^0)), which keeps the scheme second order in both
h and dt without nonlinear solves. Boundary values are imposed
strongly. With A = I - (dt/2) lap, the explicit half I + (dt/2) lap is
2I - A, so a step is one solve with A and no stencil:
u_{m+1} = A^-1 (2 u_m + k_m - reaction terms) - u_m, where the known
terms k_m (source and boundary coupling) are built for a block of steps
at once. The march solves the halved system, with A/2 and
u_m + k_m/2 - (reaction terms)/2, which saves doubling u_m. Scaling by 2
is exact in binary floating point, so the halved step gives the same bits
as the whole one unless a value is subnormal or within a factor of 2 of
overflow.

The flux is read at the nodes the caller passes, which
geometry.boundary_nodes picks; nothing here picks nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import ConfigurationError, InputError, NumericalError
from .fields import BoundaryTrace, SolutionField
from .geometry import BoundaryNodeSet, DomainSpec, SpatialGrid, build_grid

SourceFn = Callable[[SpatialGrid, np.ndarray], np.ndarray]
"""A source q(x, t) of the forward march. It gets the grid and the times
as an array of shape (rows, 1, ...) with one axis per grid axis, and must
return values that broadcast to (rows, *grid.shape): row i is q at t[i].
A source written with elementwise numpy operations on t meets this."""

# time rows per block of the marches: per source evaluation, per
# divergence check and per block a caller reads
_BLOCK = 64
# rounding slack of the sampled admissibility checks of f and phi
_ADMISSIBLE_TOL = 1e-10


@dataclass(frozen=True)
class Nonlinearity:
    """A reaction law u -> f(u)."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def check_admissible(self, u_max: float) -> None:
        """Admissibility at 257 points of [0, u_max]: f(0) = 0, f >= 0 and
        nondecreasing."""
        us = np.linspace(0.0, max(u_max, 1e-12), 257)
        vals = np.asarray(self.fn(us), dtype=float)
        if abs(float(vals[0])) > _ADMISSIBLE_TOL:
            raise InputError(f"reaction law must vanish at 0, got f(0) = {vals[0]:g}")
        if np.min(vals) < -_ADMISSIBLE_TOL:
            raise InputError("reaction law must be nonnegative on the data range")
        if np.min(np.diff(vals)) < -_ADMISSIBLE_TOL:
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

    def check_admissible(self, nodes: BoundaryNodeSet) -> None:
        """Admissibility at the nodes and 65 times of [0, T]: phi(., 0) = 0,
        phi >= 0, phi not identically 0."""
        ts = np.linspace(0.0, self.final_time, 65)
        vals = self.table(nodes.nodes, ts)
        if np.max(np.abs(vals[0])) > _ADMISSIBLE_TOL:
            raise InputError("boundary data must vanish at t = 0")
        if np.min(vals) < -_ADMISSIBLE_TOL:
            raise InputError("boundary data must be nonnegative")
        if np.max(np.abs(vals)) <= _ADMISSIBLE_TOL:
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
    error names that row's step as the march reaches it.

    A step is u_{m+1} = solve(...) - u_m, and x - v is not finite for any
    x when v is not, so every non-finite entry of a row stays non-finite in
    the rows after it. A block with a non-finite row therefore has a
    non-finite last row, and only then are the other rows looked at."""
    if np.isfinite(rows[-1]).all():
        return
    finite = np.isfinite(rows.reshape(len(rows), -1)).all(axis=1)
    step = m0 + 1 + int(np.argmin(finite))
    raise NumericalError(f"solver diverged at step {step} (t = {times[step]:g})")


def interior_laplacian(w: np.ndarray, grid: SpatialGrid,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The 3-point (interval) or 5-point (rectangle) Laplacian of w at the
    interior nodes: the sum over the grid axes of (before - 2 inner +
    after) / h^2. The grid axes are the trailing axes of w and leading
    axes (time) are carried along, so the result is w with every grid
    axis shortened by one node at each end. It is written to out when
    given (the first axis's term is built there, in the same operation
    order), and returned."""
    lead = (slice(None),) * (w.ndim - grid.domain.dim)
    inner = (slice(1, -1),) * grid.domain.dim
    center = w[lead + inner]
    for d, h in enumerate(grid.h):
        lo = w[lead + inner[:d] + (slice(None, -2),) + inner[d + 1:]]
        hi = w[lead + inner[:d] + (slice(2, None),) + inner[d + 1:]]
        term = np.multiply(2.0, center, out=out if d == 0 else None)
        np.subtract(lo, term, out=term)
        np.add(term, hi, out=term)
        np.divide(term, h * h, out=term)
        if d == 0:
            out = term
        else:
            np.add(out, term, out=out)
    return out


def sine_tables(grid: SpatialGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """(S_d, mu_d) per grid axis, n_d cells of width h_d: the sine table
    S_d = sqrt(2/n_d) sin(pi j k / n_d), j, k = 1..n_d - 1 (S_d S_d = I),
    and mu_k = (4/h_d^2) sin^2(pi k / 2n_d), so that the Dirichlet
    3-point Laplacian of the axis is -S_d diag(mu_d) S_d."""
    tables = []
    for n, h in zip(grid.n, grid.h):
        k = np.arange(1, n)
        # j k reduced mod 2n keeps each sine argument below 2 pi, so that
        # S_d S_d = I holds to rounding
        tables.append((np.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n))),
                       4.0 / (h * h) * np.sin(np.pi / (2 * n) * k) ** 2))
    return tables


def dirichlet_solver(grid: SpatialGrid, shift: float, scale: float):
    """solve(b) overwrites b, the interior values of the grid (on the
    rectangle after any leading axes), with (shift I - scale lap)^-1 b,
    lap the Dirichlet Laplacian of interior_laplacian. The march calls it
    with (1/2, dt/4), the halved Crank-Nicolson matrix A/2.

    On the interval the matrix is tridiagonal with diagonal shift + 2r and
    off-diagonal -r, r = scale / h^2; LAPACK's pttrf factors it once (it
    must be positive definite) and each call is one pttrs on a 1-d row.
    On the rectangle the sine tables of sine_tables diagonalise lap with
    eigenvalues -(mu_x + mu_y), so a solve is four small matrix products
    that broadcast over the leading axes:
        b <- S_x ((S_x b S_y) / (shift + scale (mu_x + mu_y))) S_y."""
    if grid.domain.dim == 1:
        n, h = grid.n[0], grid.h[0]
        r = scale / (h * h)
        d, e, _ = dpttrf(np.full(n - 1, shift + 2.0 * r), np.full(n - 2, -r))

        def solve(b: np.ndarray) -> None:
            # pttrs solves in b when it can, and else returns a copy;
            # overwrite_b = 1 goes by position, which f2py parses faster
            x = dpttrs(d, e, b, 1)[0]
            if x is not b:
                b[...] = x
        return solve
    (sx, mux), (sy, muy) = sine_tables(grid)
    inv = 1.0 / (shift + scale * (mux[:, None] + muy))

    def solve(b: np.ndarray) -> None:
        b[...] = sx @ ((sx @ b @ sy) * inv) @ sy
    return solve


def _march(grid: SpatialGrid, reaction, data: DirichletData, nt: int,
           source: SourceFn | None, u0: np.ndarray | None):
    """The march of `march` on either domain, reaction being f or None.

    With A = I - (dt/2) lap, the explicit half I + (dt/2) lap of
    Crank-Nicolson is 2I - A, so a step is
        u_{m+1} = A^-1 (2 um + k_m - c_m f(um) + (dt/2) f(u_{m-1})) - um,
    c_0 = dt (the first step has no f(u_{-1}) term) and c_m = 3 dt / 2
    after it, and applies no stencil. The march takes the same step with
    every term halved, which spares the doubling of um:
        u_{m+1} = (A/2)^-1 (um + k_m/2 - (c_m/2) f(um) + (dt/4) f(u_{m-1})) - um,
    A/2 = I/2 - (dt/4) lap being dirichlet_solver(grid, 1/2, dt/4). Each
    halved term is the whole one over 2 exactly, and on the interval
    pttrf factors A/2 into the same multipliers over half the pivots, so
    the solve returns the same bits (see the module docstring for when it
    does not). The known terms k_m/2 are built for a block of steps at
    once, apart from the rows: (dt/2) q at the half step (0 without a
    source), then, for each face s on axis d = s // 2,
    r_d (phi_m + phi_{m+1}), r_d = dt / (4 h_d^2), added to the interior
    nodes next to it (face[1:] of the interior), face by face. Each
    right-hand side is built in place in its new row in that operation
    order.
    """
    dim = grid.domain.dim
    dt = data.final_time / nt
    times = np.linspace(0.0, data.final_time, nt + 1)
    solve = dirichlet_solver(grid, 0.5, dt / 4.0)
    inner = (slice(1, -1),) * dim
    faces = [grid.face(s) for s in range(2 * dim)]
    ring = np.ones(grid.shape, dtype=bool)
    ring[inner] = False
    # phi at every boundary node and time, from one call of data.fn
    bc = data.table(grid.points[ring], times)
    r = [dt / (4.0 * h * h) for h in grid.h]
    work = np.empty(tuple(k - 1 for k in grid.n))
    # k is kept apart from the rows: f_prev may alias a row's interior.
    # Without a source only its face entries change, so it starts at 0
    known = np.zeros((_BLOCK,) + work.shape)

    u = np.zeros((_BLOCK + 1,) + grid.shape)
    if u0 is not None:
        u[0] = u0
    # the interior of each buffer row and each row of k, taken once per
    # march
    inners = [row[inner] for row in u]
    k_rows = list(known)
    # the step's halved scalars as 0-d arrays, which a ufunc takes faster
    # than floats; c is c_m / 2
    c, c_later, quarter_dt = np.array(0.5 * dt), np.array(0.75 * dt), np.array(0.25 * dt)
    f_prev = None
    for m0 in range(0, nt, _BLOCK):
        m1 = min(m0 + _BLOCK, nt)
        rows = u[:m1 - m0 + 1]
        k = known[:m1 - m0]
        if m0:
            u[0] = u[_BLOCK]
        # only the boundary is set here: a step writes every interior value
        # of its new row, and f_prev may alias an interior
        rows[:, ring] = bc[m0:m1 + 1]
        # a diverging step overflows in f, in the known terms or in the
        # right-hand side, and _check_rows reports it; the caller's error
        # state holds between blocks
        with np.errstate(over="ignore", invalid="ignore"):
            if source is None:
                for face in faces:
                    k[face] = 0.0
            else:
                np.multiply(0.5 * dt, _source_rows(source, grid, times[m0:m1] + 0.5 * dt)
                            [(slice(None),) + inner], out=k)
            for s, face in enumerate(faces):
                phi = rows[face][(slice(None),) + inner[1:]]
                k[face] += r[s // 2] * (phi[:-1] + phi[1:])
            for um, rhs, km in zip(inners[:m1 - m0], inners[1:], k_rows):
                np.add(um, km, out=rhs)
                if reaction is not None:
                    # f is pointwise, so it is taken at the interior only
                    fm = reaction(um)
                    np.multiply(c, fm, out=work)
                    np.subtract(rhs, work, out=rhs)
                    if f_prev is not None:
                        np.multiply(quarter_dt, f_prev, out=work)
                        np.add(rhs, work, out=rhs)
                    f_prev, c = fm, c_later
                solve(rhs)
                np.subtract(rhs, um, out=rhs)
        # a non-finite right-hand side always gives a non-finite solve, and
        # um is finite, so the first non-finite row is the step that diverged
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
    return SolutionField(grid=grid, final_time=data.final_time, values=u)


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


def neumann_trace(field: SolutionField, nodes: BoundaryNodeSet) -> BoundaryTrace:
    """Outward normal derivative at boundary nodes, one-sided second order.

    At x = 0 the stencil is dn(u) = (3 u_0 - 4 u_1 + u_2) / (2h); nodes
    must lie on grid lines (boundary_nodes(field.grid) do). A node on
    side s steps inward along axis s // 2, forward from the first node
    for even s and back from the last for odd s.
    """
    return BoundaryTrace(nodes=nodes, final_time=field.final_time,
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
    return BoundaryTrace(nodes=nodes, final_time=data.final_time, values=values), u_max


@dataclass(frozen=True, eq=False)
class ObservedData:
    """A synthetic measurement: known boundary data plus observed flux.

    f_label tags the generating reaction law for scoring; the
    reconstruction path never reads it. The flux ends at phi's final time.
    """

    domain: DomainSpec
    phi: DirichletData
    flux: BoundaryTrace
    noise_level: float
    seed: int
    f_label: str | None = None

    def __post_init__(self):
        if self.flux.final_time != self.phi.final_time:
            raise InputError(f"flux final time {self.flux.final_time:g} differs from "
                             f"the boundary data's {self.phi.final_time:g}")


def synthesize_observation(domain: DomainSpec, reaction: Nonlinearity,
                           phi: DirichletData, fine_n: int, fine_nt: int,
                           sub_nt: int, noise_level: float = 0.0, seed: int = 0, *,
                           nodes: BoundaryNodeSet) -> ObservedData:
    """Solve on a fine grid, extract the flux, perturb, subsample.

    The time subsampling ratio must be an integer >= 2 so observations
    never live on the grid the reconstruction will use (inverse-crime
    guard); spatial fineness is the caller's responsibility via fine_n.
    nodes is the boundary node set of the flux; it must align with both
    the fine and the reconstruction grid.
    """
    if fine_nt % sub_nt != 0 or fine_nt // sub_nt < 2:
        raise ConfigurationError(
            f"fine steps {fine_nt} must be an integer multiple (>= 2) of {sub_nt}")
    if noise_level < 0:
        raise ConfigurationError(f"noise level must be >= 0, got {noise_level}")
    grid = build_grid(domain, fine_n)
    phi.check_admissible(nodes)
    flux, u_max = march_flux(grid, reaction, phi, fine_nt, nodes)
    reaction.check_admissible(u_max)
    values = flux.values
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        scale = noise_level * float(np.max(np.abs(values)))
        values = values + rng.normal(0.0, scale, size=values.shape)
    stride = fine_nt // sub_nt
    sub = BoundaryTrace(nodes=flux.nodes, final_time=flux.final_time,
                        values=values[::stride])
    return ObservedData(domain=domain, phi=phi, flux=sub,
                        noise_level=noise_level, seed=seed,
                        f_label=reaction.label)
