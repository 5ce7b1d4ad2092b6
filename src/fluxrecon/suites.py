"""Invariant suites behind the `verify` and `convergence` subcommands.

Each suite returns {"suite", "checks": [...], "passed"} where every
check carries its measured value and tolerance, so failures are
self-describing. The acceptance tests call these directly.
"""

from __future__ import annotations

import numpy as np

from .eigenbasis import make_basis, verify_orthonormality
from .errors import ConfigurationError
from .families import make_boundary_data, make_reaction
from .forward import (DirichletData, difference_residual, interior_laplacian,
                      neumann_trace, solve_linear_heat, solve_semilinear)
from .geometry import boundary_nodes, build_grid, interval, rectangle
from .heatkernel import KernelEvaluator
from .numerics import exp_convolve, sliding_derivative

SUITES = ("eigenbasis", "kernel", "representation", "forward", "volterra")


def _check(name: str, value: float, tol: float, larger_ok: bool = False) -> dict:
    passed = bool(value >= tol) if larger_ok else bool(value <= tol)
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "direction": ">=" if larger_ok else "<=", "passed": passed}


def _wrap(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "checks": checks,
            "passed": bool(all(c["passed"] for c in checks))}


def _rate(errors: list[float]) -> float:
    """Least favorable halving rate along a refinement sequence."""
    rs = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return float(min(rs))


# -- eigenbasis --------------------------------------------------------


def eigenbasis_suite(k: int = 16, n: int = 512) -> dict:
    checks = []
    dom = interval()
    basis = make_basis(dom, k)
    rep = verify_orthonormality(basis, build_grid(dom, n))
    checks.append(_check("interval_orthonormality_max_dev", rep.max_deviation, 1e-6))

    rect = rectangle()
    rep2 = verify_orthonormality(make_basis(rect, k), build_grid(rect, 128))
    checks.append(_check("rectangle_orthonormality_max_dev", rep2.max_deviation, 1e-6))

    # 3-point Laplacian applied to a sampled mode reproduces -lambda_k omega_k at O(h^2)
    lam = float(basis.lambdas[4])
    errs = []
    for cells in (64, 128, 256):
        g = build_grid(dom, cells)
        w = basis.sample_on_grid(g)[4]
        lap = interior_laplacian(w, g)
        errs.append(float(np.max(np.abs(lap + lam * w[1:-1]))))
    checks.append(_check("interval_eigen_residual_rate", _rate(errs), 1.9, larger_ok=True))
    checks.append(_check("rectangle_multiplicity_gap",
                         abs(float(make_basis(rect, 3).lambdas[1])
                             - float(make_basis(rect, 3).lambdas[2])), 1e-12))
    return _wrap("eigenbasis", checks)


# -- kernel ------------------------------------------------------------


def kernel_suite() -> dict:
    checks = []
    dom = interval()
    ev = KernelEvaluator(dom)
    xs = [0.0, 0.31, 0.5, 1.0]

    worst_mass = 0.0
    for tau in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        for x in xs:
            worst_mass = max(worst_mass, abs(ev.mass(x, tau) - 1.0))
    checks.append(_check("interval_mass_dev", worst_mass, 1e-6))

    rect = rectangle()
    ev2 = KernelEvaluator(rect)
    worst2 = max(abs(ev2.mass(np.array([x, y]), tau) - 1.0)
                 for tau in (1e-3, 0.05, 1.0)
                 for x, y in [(0.5, 0.5), (0.0, 0.3), (1.0, 1.0)])
    checks.append(_check("rectangle_mass_dev", worst2, 1e-6))

    taus = np.linspace(ev.crossover / 2, 2 * ev.crossover, 9)
    pairs = [(0.5, 0.5), (0.3, 0.7), (0.0, 0.0), (1.0, 0.98), (0.25, 0.26)]
    worst_branch = max(float(np.max(np.abs(ev.spectral_values(x, y, taus)
                                           - ev.images_values(x, y, taus))))
                       for x, y in pairs)
    checks.append(_check("interval_branch_agreement", worst_branch, 1e-8))

    g = build_grid(dom, 512)
    zs = g.axes[0]
    worst_semi = 0.0
    for x, y in [(0.5, 0.5), (0.2, 0.8), (0.0, 0.6)]:
        for t1, t2 in [(0.004, 0.006), (0.05, 0.05), (0.002, 0.018)]:
            u1 = ev.profile(x, zs, t1)
            u2 = ev.profile(y, zs, t2)
            comp = float(np.sum(g.weights * u1 * u2))
            worst_semi = max(worst_semi, abs(comp - ev.value(x, y, t1 + t2)))
    checks.append(_check("interval_semigroup_dev", worst_semi, 1e-5))

    sample_taus = np.logspace(-5, 1, 13)
    min_val = min(float(np.min(ev.values(x, y, sample_taus)))
                  for x, y in pairs)
    checks.append(_check("interval_nonnegativity_min", min_val, 0.0, larger_ok=True))
    # strict positivity where values are representable (tiny tau at distance
    # underflows to zero, which the check above still admits)
    pos_taus = np.logspace(-2, 1, 7)
    min_pos = min(float(np.min(ev.values(x, y, pos_taus))) for x, y in pairs)
    checks.append(_check("interval_positivity_min", min_pos, 1e-12, larger_ok=True))

    worst_sym = max(float(np.max(np.abs(ev.values(x, y, sample_taus)
                                        - ev.values(y, x, sample_taus))))
                    for x, y in pairs)
    checks.append(_check("interval_symmetry_dev", worst_sym, 1e-10))

    checks.append(_check("interval_longtime_limit",
                         abs(ev.value(0.3, 0.9, 50.0) - 1.0), 1e-10))
    return _wrap("kernel", checks)


# -- representation round-trip ----------------------------------------


def representation_suite(n: int = 512, nt: int = 2048, time_samples: int = 33) -> dict:
    """Propagating the flux of the linear evolution back through the
    kernel must reproduce the boundary data."""
    checks = []
    dom = interval()
    grid = build_grid(dom, n)
    nodes = boundary_nodes(dom)
    ev = KernelEvaluator(dom)
    for spec in ({"family": "ramp", "profile": "const"},
                 {"family": "saturating_ramp", "profile": "affine", "slope": 0.5}):
        phi = make_boundary_data(spec, dom, final_time=1.0)
        v = solve_linear_heat(grid, phi, nt)
        flux = neumann_trace(v, nodes)
        stride = nt // (time_samples - 1)
        ts = v.times[::stride]
        got = ev.boundary_propagate_trace(flux, nodes.nodes)[::stride]
        worst = 0.0
        scale = 0.0
        for t, row, target in zip(ts, got, phi.table(nodes.nodes, ts)):
            scale = max(scale, float(np.max(np.abs(target))))
            if t == 0.0:
                continue
            worst = max(worst, float(np.max(np.abs(row - target))))
        checks.append(_check(f"roundtrip_rel_sup[{phi.label}]", worst / scale, 0.02))
    return _wrap("representation", checks)


# -- forward solver ----------------------------------------------------


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


def mms_spatial_errors(cells=(16, 32, 64), nt: int = 4096) -> list[float]:
    reaction, exact, source, data = _mms_instance()
    dom = interval()
    errs = []
    for n in cells:
        grid = build_grid(dom, n)
        u0 = exact(grid.axes[0], 0.0)
        u = solve_semilinear(grid, reaction, data, nt, source=source, u0=u0)
        errs.append(float(np.max(np.abs(u.values[-1] - exact(grid.axes[0], 1.0)))))
    return errs


def mms_temporal_errors(steps=(16, 32, 64), n: int = 128, ref_steps: int = 8192
                        ) -> list[float]:
    """Error against a time-converged solve on the same grid, which removes
    the h^2 floor and isolates the order in dt."""
    reaction, exact, source, data = _mms_instance()
    dom = interval()
    grid = build_grid(dom, n)
    u0 = exact(grid.axes[0], 0.0)
    ref = solve_semilinear(grid, reaction, data, ref_steps, source=source, u0=u0)
    errs = []
    for nt in steps:
        u = solve_semilinear(grid, reaction, data, nt, source=source, u0=u0)
        errs.append(float(np.max(np.abs(u.values[-1] - ref.values[-1]))))
    return errs


def difference_residual_study(levels=((128, 512), (256, 2048), (512, 8192))) -> list[dict]:
    """Residual of w = u_f - v_phi on the standard linear instance under
    parabolic refinement (dt ~ h^2, so the t = 0 corner layer cannot
    degrade the halving rate)."""
    dom = interval()
    phi = make_boundary_data({"family": "ramp", "profile": "const"}, dom, 1.0)
    reaction = make_reaction({"family": "linear", "coeff": 1.0})
    rows = []
    for n, nt in levels:
        grid = build_grid(dom, n)
        u = solve_semilinear(grid, reaction, phi, nt)
        v = solve_linear_heat(grid, phi, nt)
        rep = difference_residual(u, v, reaction)
        rows.append({"n": n, "nt": nt, "interior_max": rep.interior_max,
                     "boundary_max": rep.boundary_max, "initial_max": rep.initial_max})
    return rows


def forward_checks(es: list[float], et: list[float], rows: list[dict]) -> list[dict]:
    """The forward gates on the three refinement studies; the forward
    suite and the convergence study both pass or fail by these."""
    return [
        _check("mms_spatial_rate", _rate(es), 1.9, larger_ok=True),
        _check("mms_temporal_rate", _rate(et), 1.9, larger_ok=True),
        _check("difference_residual_base", rows[0]["interior_max"], 1e-2),
        _check("difference_residual_rate",
               _rate([r["interior_max"] for r in rows]), 1.9, larger_ok=True),
        _check("difference_boundary_max", max(r["boundary_max"] for r in rows), 1e-12),
        _check("difference_initial_max", max(r["initial_max"] for r in rows), 1e-12),
    ]


def forward_suite() -> dict:
    return _wrap("forward", forward_checks(mms_spatial_errors(), mms_temporal_errors(),
                                           difference_residual_study()))


# -- modal Volterra identity -------------------------------------------


def volterra_suite(k: int = 8, n: int = 256, nt: int = 8192) -> dict:
    """On a known smooth instance the response coefficients must satisfy
    p_k' + lambda_k p_k = c_k; checked with the sliding-window
    derivative, normalized per mode by max |c_k|."""
    dom = interval()
    phi = make_boundary_data({"family": "ramp", "profile": "affine", "slope": 1.0},
                             dom, 1.0)
    reaction = make_reaction({"family": "linear", "coeff": 1.0})
    grid = build_grid(dom, n)
    u = solve_semilinear(grid, reaction, phi, nt)
    basis = make_basis(dom, k)
    c = basis.project(grid, reaction.fn(u.values))
    p = exp_convolve(basis.lambdas, u.times, c)
    dp = sliding_derivative(u.times, p, halfwidth=3)
    resid = dp + p * basis.lambdas[None, :] - c
    checks = []
    worst = 0.0
    for j in range(k):
        scale = float(np.max(np.abs(c[:, j])))
        rel = float(np.max(np.abs(resid[:, j]))) / scale
        worst = max(worst, rel)
    checks.append(_check("volterra_identity_rel_max", worst, 1e-2))
    return _wrap("volterra", checks)


def run_suite(name: str) -> dict:
    table = {
        "eigenbasis": eigenbasis_suite,
        "kernel": kernel_suite,
        "representation": representation_suite,
        "forward": forward_suite,
        "volterra": volterra_suite,
    }
    if name == "all":
        results = [fn() for fn in table.values()]
        return {"suite": "all", "suites": results,
                "passed": bool(all(r["passed"] for r in results))}
    if name not in table:
        raise ConfigurationError(f"unknown suite {name!r}, expected {SUITES + ('all',)}")
    return table[name]()
