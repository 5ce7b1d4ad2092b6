"""The traced benchmark run wraps package functions and methods by name;
a rename or deletion there must fail here and not first in a bench run."""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    targets = _load_workloads().trace_targets()
    assert targets
    for owner, attr, span, _attrs, _under in targets:
        assert callable(getattr(owner, attr)), (owner, attr, span)
