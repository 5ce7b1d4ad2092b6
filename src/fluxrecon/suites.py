"""Invariant suites behind the `verify` subcommand.

Each suite returns {"suite", "checks": [...], "passed"} where every
check carries its measured value and tolerance, so failures are
self-describing; the forward suite adds the `table` of its refinement
studies. The acceptance tests call these directly, and
`run_suite("all")` runs the five in turn.
"""

from __future__ import annotations

import numpy as np

from .eigenbasis import make_basis, verify_orthonormality
from .errors import ConfigurationError
from .families import make_boundary_data, make_reaction
from .forward import (DirichletData, Nonlinearity, dirichlet_solver, interior_laplacian, march,
                      march_flux, sine_tables)
from .geometry import SpatialGrid, boundary_nodes, build_grid, interval, rectangle
from .heatkernel import KernelEvaluator
from .recon import compute_data_functional, differentiate_coefficients, volterra_blocks

SUITES = ("eigenbasis", "kernel", "representation", "forward", "volterra")


def _check(name: str, value: float, tol: float, larger_ok: bool = False) -> dict:
    passed = bool(value >= tol) if larger_ok else bool(value <= tol)
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "direction": ">=" if larger_ok else "<=", "passed": passed}


def _wrap(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "checks": checks,
            "passed": bool(all(c["passed"] for c in checks))}


def _halving_rates(errors: list[float]) -> list[float]:
    """log2(e_i / e_{i+1}) between successive levels of a refinement sequence."""
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def _rate(errors: list[float]) -> float:
    """Least favorable halving rate along a refinement sequence."""
    return float(np.min(_halving_rates(errors)))


# -- eigenbasis --------------------------------------------------------


def eigenbasis_suite() -> dict:
    """16 modes, on 512 cells of the interval and 128 per axis of the rectangle."""
    checks = []
    dom = interval()
    basis = make_basis(dom, 16)
    dev = verify_orthonormality(basis, build_grid(dom, 512))
    checks.append(_check("interval_orthonormality_max_dev", dev, 1e-6))

    rect = rectangle()
    rect_basis = make_basis(rect, 16)
    dev2 = verify_orthonormality(rect_basis, build_grid(rect, 128))
    checks.append(_check("rectangle_orthonormality_max_dev", dev2, 1e-6))

    # 3-point Laplacian applied to a sampled mode reproduces -lambda_k omega_k at O(h^2)
    lam = float(basis.lambdas[4])
    errs = []
    for cells in (64, 128, 256):
        g = build_grid(dom, cells)
        w = basis.values_at(g.points)[4]
        lap = interior_laplacian(w, g)
        errs.append(float(np.max(np.abs(lap + lam * w[1:-1]))))
    checks.append(_check("interval_eigen_residual_rate", _rate(errs), 1.9, larger_ok=True))
    lams = rect_basis.lambdas
    checks.append(_check("rectangle_multiplicity_gap", abs(float(lams[1]) - float(lams[2])), 1e-12))
    return _wrap("eigenbasis", checks)


# -- kernel ------------------------------------------------------------


def kernel_suite() -> dict:
    checks = []
    dom = interval()
    ev = KernelEvaluator(dom)
    xs = [0.0, 0.31, 0.5, 1.0]

    # np.max and np.min, unlike max and min, keep a NaN measurement
    worst_mass = np.max([abs(ev.mass(x, tau) - 1.0)
                         for tau in (1e-3, 1e-2, 0.1, 1.0, 10.0) for x in xs])
    checks.append(_check("interval_mass_dev", worst_mass, 1e-6))

    rect = rectangle()
    ev2 = KernelEvaluator(rect)
    worst2 = np.max([abs(ev2.mass(np.array([x, y]), tau) - 1.0)
                     for tau in (1e-3, 0.05, 1.0)
                     for x, y in [(0.5, 0.5), (0.0, 0.3), (1.0, 1.0)]])
    checks.append(_check("rectangle_mass_dev", worst2, 1e-6))

    taus = np.linspace(ev.crossovers[0] / 2, 2 * ev.crossovers[0], 9)
    pairs = [(0.5, 0.5), (0.3, 0.7), (0.0, 0.0), (1.0, 0.98), (0.25, 0.26)]
    worst_branch = np.max([np.abs(ev.spectral_values(x, y, taus) - ev.images_values(x, y, taus))
                           for x, y in pairs])
    checks.append(_check("interval_branch_agreement", worst_branch, 1e-8))

    g = build_grid(dom, 512)
    zs = g.points
    semi = []
    for x, y in [(0.5, 0.5), (0.2, 0.8), (0.0, 0.6)]:
        for t1, t2 in [(0.004, 0.006), (0.05, 0.05), (0.002, 0.018)]:
            comp = float(np.sum(g.weights * ev.profile(x, zs, t1) * ev.profile(y, zs, t2)))
            semi.append(abs(comp - ev.value(x, y, t1 + t2)))
    worst_semi = np.max(semi)
    checks.append(_check("interval_semigroup_dev", worst_semi, 1e-5))

    sample_taus = np.logspace(-5, 1, 13)
    min_val = np.min([ev.values(x, y, sample_taus) for x, y in pairs])
    checks.append(_check("interval_nonnegativity_min", min_val, 0.0, larger_ok=True))
    # strict positivity where values are representable (tiny tau at distance
    # underflows to zero, which the check above still admits)
    pos_taus = np.logspace(-2, 1, 7)
    min_pos = np.min([ev.values(x, y, pos_taus) for x, y in pairs])
    checks.append(_check("interval_positivity_min", min_pos, 1e-12, larger_ok=True))

    worst_sym = np.max([np.abs(ev.values(x, y, sample_taus) - ev.values(y, x, sample_taus))
                        for x, y in pairs])
    checks.append(_check("interval_symmetry_dev", worst_sym, 1e-10))

    checks.append(_check("interval_longtime_limit",
                         abs(ev.value(0.3, 0.9, 50.0) - 1.0), 1e-10))
    return _wrap("kernel", checks)


# -- representation round-trip ----------------------------------------


def representation_suite() -> dict:
    """The pipeline's functional stage, run on the flux of the linear
    evolution, must reproduce the boundary data; 512 cells, 2048 steps,
    the data compared at every 64th step."""
    checks = []
    dom = interval()
    nt = 2048
    grid = build_grid(dom, 512)
    nodes = boundary_nodes(grid)
    ev = KernelEvaluator(dom)
    for spec in ({"family": "ramp", "profile": "const"},
                 {"family": "saturating_ramp", "profile": "affine", "slope": 0.5}):
        phi = make_boundary_data(spec, dom, final_time=1.0)
        flux, _ = march_flux(grid, None, phi, nt, nodes)
        ts = flux.times[::64]
        got = compute_data_functional(flux, ev).values[::64]
        target = phi.table(nodes.nodes, ts)
        worst = np.max(np.abs(got - target)[ts > 0.0])
        checks.append(_check(f"roundtrip_rel_sup[{phi.label}]",
                             worst / np.max(np.abs(target)), 0.02))
    return _wrap("representation", checks)


# -- forward solver ----------------------------------------------------

# the manufactured-solution levels: cells in space, measured on the exact
# semi-discrete solution (no time step), and steps in time at TEMPORAL_N cells
SPATIAL_CELLS = (16, 32, 64)
TEMPORAL_STEPS, TEMPORAL_N = (16, 32, 64), 128


def _mms_instance():
    """Smooth manufactured solution with a linear reaction term."""
    reaction = make_reaction({"family": "linear", "coeff": 1.0})

    def exact(x, t):
        return np.exp(-t) * (2.0 + np.sin(np.pi * x + 0.3))

    def source(grid, t):
        x = grid.axes[0]
        u = exact(x, t)
        uxx = -np.pi ** 2 * np.exp(-t) * np.sin(np.pi * x + 0.3)
        return -u - uxx + reaction.fn(u)

    data = DirichletData(fn=lambda pts, t: exact(pts[:, 0], t), final_time=1.0,
                         label="mms")
    return reaction, exact, source, data


def mms_semidiscrete_final(grid: SpatialGrid) -> np.ndarray:
    """The interior of U_h(T), the exact solution of the manufactured
    instance's semi-discrete system on an interval grid. Its law is
    f(u) = c u and all its forcing decays as e^{-t}, so the system is
    U' = lap_h U - c U + e^{-t} F, F being the source at t = 0 plus the
    boundary coupling g(0)/h^2 and g(L)/h^2 of g = exact(., 0). With
    P = ((c - 1) I - lap_h)^-1 F and lap_h = -S diag(mu) S (sine_tables),
        U_h(T) = e^{-T} P + S diag(e^{-(mu + c) T}) S (g - P)."""
    reaction, exact, source, data = _mms_instance()
    c, h2, T = float(reaction.fn(1.0)), grid.h[0] ** 2, data.final_time
    g = exact(grid.axes[0], 0.0)
    p = source(grid, 0.0)[1:-1]
    p[0] += g[0] / h2
    p[-1] += g[-1] / h2
    dirichlet_solver(grid, c - 1.0, 1.0)(p)
    [(s, mu)] = sine_tables(grid)
    return np.exp(-T) * p + s @ (np.exp(-(mu + c) * T) * (s @ (g[1:-1] - p)))


def mms_spatial_errors(cells=SPATIAL_CELLS) -> list[float]:
    """Interior error at t = T of the exact semi-discrete solution
    (mms_semidiscrete_final) against u: the spatial error, with no march."""
    _, exact, _, data = _mms_instance()
    grids = [build_grid(interval(), n) for n in cells]
    return [float(np.max(np.abs(mms_semidiscrete_final(g)
                                - exact(g.axes[0][1:-1], data.final_time))))
            for g in grids]


def _step_defect(u, lap_s, f, f_before, dt: float, out) -> float:
    """The largest defect of a march block's steps in the identity each
    step m must satisfy at the interior nodes,
        (u_{m+1} - u_m) - (dt/2) lap(u_{m+1} + u_m)
            + dt (3/2 f(u_m) - 1/2 f(u_{m-1})) = 0,
    lap taken over whole rows, boundary values included, so the check
    solves nothing. u holds the block's rows, lap_s the Laplacian of its
    step sums (overwritten), f the law at every row but the last, and
    f_before the law at the step before the block; f_before = f(u_0) at
    m = 0 leaves the first step's law term dt f(u_0). Built in out."""
    inner = (slice(None),) + (slice(1, -1),) * (u.ndim - 1)
    d = np.subtract(u[1:][inner], u[:-1][inner], out=out)
    np.subtract(d, np.multiply(0.5 * dt, lap_s, out=lap_s), out=d)
    np.add(d, np.multiply(1.5 * dt, f, out=lap_s), out=d)
    np.multiply(0.5 * dt, f_before, out=lap_s[0])
    np.multiply(0.5 * dt, f[:-1], out=lap_s[1:])
    np.subtract(d, lap_s, out=d)
    return np.max(np.abs(d, out=d))


def mms_temporal_study(steps=TEMPORAL_STEPS, n: int = TEMPORAL_N) -> tuple[list[float], float]:
    """Each level of steps marched once, on n cells. It returns each
    level's interior error at t = T against the exact semi-discrete
    solution on the same grid (mms_semidiscrete_final), which removes the
    h^2 floor and isolates the order in dt, and the largest `step_max`
    (see difference_residual) of the levels. The difference study starts
    from 0, where f(u_0) = 0, so only a march from the manufactured u_0
    shows the first step's law term. The source q at the half step enters
    the identity as dt q = (dt/2) 2q, beside lap_s."""
    reaction, exact, source, data = _mms_instance()
    grid = build_grid(interval(), n)
    u0 = exact(grid.axes[0], 0.0)
    ref = mms_semidiscrete_final(grid)
    errors, step = [], []
    for nt in steps:
        dt = data.final_time / nt
        half = np.linspace(0.0, data.final_time, nt + 1)[:-1] + 0.5 * dt
        worst, u_max = [], []
        for m0, u in march(grid, reaction, data, nt, source, u0):
            lap_s = interior_laplacian(u[:-1] + u[1:], grid)
            lap_s += 2.0 * source(grid, half[m0:m0 + len(u) - 1, None])[:, 1:-1]
            f = reaction.fn(u[:-1, 1:-1])
            worst.append(_step_defect(u, lap_s, f, f_last if m0 else f[0], dt, np.empty_like(f)))
            u_max.append(np.max(np.abs(u)))
            f_last = f[-1].copy()
        errors.append(float(np.max(np.abs(u[-1, 1:-1] - ref))))
        step.append(np.max(worst) / (dt * np.max(u_max)))
    return errors, float(np.max(step))


def difference_residual(grid: SpatialGrid, reaction: Nonlinearity, phi: DirichletData,
                        nt: int) -> dict:
    """The study row of w = u - v, u marched with f and v without, which
    should satisfy w_t - lap(w) + f(u) = 0 with zero boundary and initial
    data: the largest |residual| over interior nodes and times (centered
    time difference, 3/5-point Laplacian), and the largest |w| on the
    boundary and at t = 0; and `step_max`, the largest defect of u's
    steps (_step_defect) over dt max|u|. u and v are marched in lockstep
    and no field is stored: w of a block of R rows is written to rows
    1..R of one buffer whose row 0 holds w two rows before the end of the
    block before, so one pass over the buffer gives the residual at rows
    0..R-2 of the block (1..R-2 of the first, from buffer row 1), and row
    R-1 is the next block's row 0. Beside it, rows 1..R-1 of a second
    buffer hold the block's step sums u_j + u_{j+1}, so one Laplacian per
    block serves both checks, and so does f of the block's rows; f of a
    block's last step carries over to the next. The buffers and the terms
    are sized by the first block, the largest, and reused by every block."""
    dt = phi.final_time / nt
    inner = (slice(None),) + (slice(1, -1),) * grid.domain.dim
    faces = [grid.face(s) for s in range(2 * grid.domain.dim)]
    interior, boundary, step, u_max = [], [], [], []
    for (m0, u), (_, v) in zip(march(grid, reaction, phi, nt), march(grid, None, phi, nt)):
        n = len(u)
        if m0 == 0:
            buf = np.empty((2, n + 1) + grid.shape)
            wt_buf, lap_buf = np.empty_like(u[1:][inner]), np.empty((2,) + u[1:][inner].shape)
            initial = float(np.max(np.abs(u[0] - v[0])))
        rows = np.subtract(u, v, out=buf[0, 1:n + 1])
        np.add(u[:-1], u[1:], out=buf[1, 1:n])
        lap_w, lap_s = interior_laplacian(buf[:, 1:n], grid, out=lap_buf[:, :n - 1])
        f = reaction.fn(u[:-1][inner])
        # t = 0 has no centered difference, so the first block's residual
        # starts at buffer row 1
        lo = int(m0 == 0)
        w = buf[0, lo:n + 1]
        wt = wt_buf[:n - 1 - lo]
        np.subtract(w[2:][inner], w[:-2][inner], out=wt)
        np.divide(wt, 2.0 * dt, out=wt)
        np.subtract(wt, lap_w[lo:], out=wt)
        np.add(wt, f[lo:], out=wt)
        interior.append(np.max(np.abs(wt, out=wt)))
        boundary.extend(np.max(np.abs(rows[face])) for face in faces)
        step.append(_step_defect(u, lap_s, f, f_last if m0 else f[0], dt, wt_buf[:n - 1]))
        u_max.append(np.max(np.abs(u)))
        # f may be a view of u's buffer, which the next block overwrites
        f_last = f[-1].copy()
        buf[0, 0] = rows[-2]
    return {"n": grid.n[0], "nt": nt, "interior_max": float(np.max(interior)),
            "boundary_max": float(np.max(boundary)), "initial_max": initial,
            "step_max": float(np.max(step) / (dt * np.max(u_max)))}


def difference_residual_study(levels=((64, 128), (128, 512), (256, 2048))) -> list[dict]:
    """The difference residual on the standard linear instance under
    parabolic refinement (dt ~ h^2, so the t = 0 corner layer cannot
    degrade the halving rate)."""
    dom = interval()
    phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
    reaction = make_reaction({"family": "linear", "coeff": 1.0})
    return [difference_residual(build_grid(dom, n), reaction, phi, nt) for n, nt in levels]


def forward_suite() -> dict:
    """The three refinement studies, run once: the forward gates on their
    rates and residuals, the march's step identity (the largest
    `step_max` of the temporal and difference studies' marches, all nine
    of them), and a `table` of the study rows {"study", "n", "nt",
    "error", "rate"}, each rate taken from the level before (null on a
    study's first level, as nt is on every spatial row)."""
    es = mms_spatial_errors()
    et, mms_step = mms_temporal_study()
    rows = difference_residual_study()
    report = _wrap("forward", [
        _check("mms_spatial_rate", _rate(es), 1.9, larger_ok=True),
        _check("mms_temporal_rate", _rate(et), 1.9, larger_ok=True),
        _check("difference_residual_base", rows[0]["interior_max"], 1e-2),
        _check("difference_residual_rate",
               _rate([r["interior_max"] for r in rows]), 1.9, larger_ok=True),
        _check("difference_boundary_max", np.max([r["boundary_max"] for r in rows]), 1e-12),
        _check("difference_initial_max", np.max([r["initial_max"] for r in rows]), 1e-12),
        _check("march_step_identity_max",
               np.max([mms_step] + [r["step_max"] for r in rows]), 1e-9),
    ])
    studies = (("mms_spatial", [(n, None) for n in SPATIAL_CELLS], es),
               ("mms_temporal", [(TEMPORAL_N, nt) for nt in TEMPORAL_STEPS], et),
               ("difference_residual", [(r["n"], r["nt"]) for r in rows],
                [r["interior_max"] for r in rows]))
    report["table"] = [{"study": study, "n": n, "nt": nt, "error": err, "rate": rate}
                       for study, levels, errs in studies
                       for (n, nt), err, rate in zip(levels, errs, [None] + _halving_rates(errs))]
    return report


# -- modal Volterra identity -------------------------------------------


def volterra_suite() -> dict:
    """On a known smooth instance the response coefficients must satisfy
    p_k' + lambda_k p_k = c_k; checked with the sliding-window
    derivative, normalized per mode by max |c_k|, for 8 modes on 256
    cells and 8192 steps. The coefficients come from the pipeline's own
    volterra_blocks, fed by the march block by block so no field is
    stored, and differentiate_coefficients."""
    dom = interval()
    phi = make_boundary_data({"family": "ramp", "profile": "affine", "slope": 1.0},
                             dom, 1.0)
    reaction = make_reaction({"family": "linear", "coeff": 1.0})
    grid = build_grid(dom, 256)
    nt = 8192
    dt = phi.final_time / nt
    basis = make_basis(dom, 8)
    c, p = volterra_blocks(grid, dt, march(grid, reaction, phi, nt), reaction, basis)
    resid = differentiate_coefficients(dt, p, halfwidth=3) + p * basis.lambdas[None, :] - c
    worst = np.max(np.max(np.abs(resid), axis=0) / np.max(np.abs(c), axis=0))
    return _wrap("volterra", [_check("volterra_identity_rel_max", worst, 1e-2)])


def run_suite(name: str) -> dict:
    """The suite `name` of SUITES, or all of them run in turn in SUITES
    order ("all"). Each is found by its name, `<name>_suite`, when it is
    run, so a wrapper set on the module (as the benchmark's spans are) is
    the one called."""
    if name == "all":
        results = [run_suite(s) for s in SUITES]
        return {"suite": "all", "suites": results,
                "passed": bool(all(r["passed"] for r in results))}
    if name not in SUITES:
        raise ConfigurationError(f"unknown suite {name!r}, expected {SUITES + ('all',)}")
    return globals()[f"{name}_suite"]()
