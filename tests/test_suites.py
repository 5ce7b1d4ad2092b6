"""The verify suites' reductions and registry: a NaN measurement must fail
its gate wherever it falls, run_suite must call the suite functions the
module holds when it runs, and run_suite("all") runs the five in turn in
this process."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from fluxrecon import suites
from fluxrecon.heatkernel import KernelEvaluator


def _check(report, name):
    [check] = [c for c in report["checks"] if c["name"] == name]
    return check


def test_a_nan_level_gives_a_nan_rate():
    # min skips a NaN that does not come first and read 2.0 here
    assert np.isnan(suites._rate([1.0, 0.25, np.nan]))


def test_a_nan_functional_fails_the_round_trip(monkeypatch):
    def nan_functional(flux, ev):
        return replace(flux, values=np.full_like(flux.values, np.nan))
    monkeypatch.setattr("fluxrecon.suites.compute_data_functional", nan_functional)
    report = suites.representation_suite()
    assert len(report["checks"]) == 2 and not report["passed"]
    for check in report["checks"]:
        assert np.isnan(check["value"]) and not check["passed"]


def test_a_nan_mass_fails_the_mass_gate(monkeypatch):
    mass = KernelEvaluator.mass

    def nan_at_one_point(self, x, tau):
        if np.ndim(x) == 0 and x == 0.31 and tau == 0.1:
            return np.nan
        return mass(self, x, tau)
    monkeypatch.setattr(KernelEvaluator, "mass", nan_at_one_point)
    check = _check(suites.kernel_suite(), "interval_mass_dev")
    assert np.isnan(check["value"]) and not check["passed"]


def test_a_nan_study_row_fails_the_difference_gates(monkeypatch):
    # the NaN sits on the second level, where max skipped it
    rows = [{"n": n, "nt": n * n // 32, "interior_max": 1e-3 / 4 ** i,
             "boundary_max": 0.0, "initial_max": 0.0, "step_max": 0.0}
            for i, n in enumerate((64, 128, 256))]
    rows[1]["boundary_max"] = rows[1]["initial_max"] = rows[1]["step_max"] = np.nan
    monkeypatch.setattr("fluxrecon.suites.difference_residual_study", lambda: rows)
    report = suites.forward_suite()
    for name in ("difference_boundary_max", "difference_initial_max",
                 "march_step_identity_max"):
        check = _check(report, name)
        assert np.isnan(check["value"]) and not check["passed"]
    assert _check(report, "difference_residual_rate")["passed"]


def test_run_suite_calls_the_module_functions_by_name(monkeypatch):
    for name in suites.SUITES:
        monkeypatch.setattr(suites, f"{name}_suite",
                            lambda name=name: {"suite": name, "checks": [], "passed": True})
    report = suites.run_suite("all")
    assert [r["suite"] for r in report["suites"]] == list(suites.SUITES)
    assert report["passed"]
    assert suites.run_suite("kernel")["suite"] == "kernel"


# -- all five suites -------------------------------------------------------


@pytest.fixture(scope="module")
def one_by_one():
    """The five suites run one by one in this process, as run_suite("all")
    lists them."""
    return json.dumps([suites.run_suite(s) for s in suites.SUITES], sort_keys=True)


def test_all_equals_the_suites_run_one_by_one(one_by_one):
    report = suites.run_suite("all")
    assert json.dumps(report["suites"], sort_keys=True) == one_by_one
    assert report["passed"]


def test_all_starts_no_process(monkeypatch, one_by_one):
    def no_fork():
        raise OSError("run_suite must not fork")
    monkeypatch.setattr(os, "fork", no_fork)
    report = suites.run_suite("all")
    assert json.dumps(report["suites"], sort_keys=True) == one_by_one
    assert report["passed"]
