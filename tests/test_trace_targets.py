"""The traced benchmark run wraps package functions and methods by name,
and its count rules read their arguments by name; a rename or deletion
there must fail here and not first in a bench run."""

import importlib.util
import json
import sys
from pathlib import Path

from fluxrecon import experiments, forward
from fluxrecon.families import make_boundary_data, make_reaction
from fluxrecon.geometry import build_grid, interval

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses of harness look their module up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    targets = _load("workloads").trace_targets()
    assert targets
    for owner, attr, span, _attrs, _under in targets:
        assert callable(getattr(owner, attr)), (owner, attr, span)


def test_every_count_rule_reads_a_real_call(tmp_path):
    # each count rule runs on the bound arguments of a real call of its
    # target: a synthesize and a reconstruct, which load the observation,
    # solve the linear heat equation, compute the data functional and
    # evaluate modes, and one semilinear solve, which they do not make
    seen = set()

    def recording(name, attrs):
        def record(*args, **kwargs):
            counts = attrs(*args, **kwargs)
            seen.add(name)
            return counts
        return record

    targets, ruled = [], set()
    for owner, attr, span, attrs, under in _load("workloads").trace_targets():
        if attrs is not None:
            name = vars(owner)[attr].__qualname__
            ruled.add(name)
            attrs = recording(name, attrs)
        targets.append((owner, attr, span, attrs, under))
    scenario = {"domain_kind": "interval", "lengths": [1.0], "final_time": 1.0,
                "fine_n": 64, "fine_nt": 128, "recon_n": 16, "recon_nt": 64}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    tracer = _load("harness").Tracer()
    with tracer.patched(targets):
        experiments.run_synthesize(experiments.load_scenario(config), tmp_path)
        experiments.run_reconstruct(tmp_path / "observation.csv", tmp_path)
        phi = make_boundary_data({"family": "ramp"}, interval(), 1.0)
        forward.solve_semilinear(build_grid(interval(), 8), make_reaction({"family": "linear"}),
                                 phi, 4)
    assert seen == ruled == {"load_observation", "solve_semilinear", "solve_linear_heat",
                             "compute_data_functional", "EigenBasis.values_at"}
    counts = [v for span in tracer.spans for v in span.attrs.values()]
    assert counts and all(v > 0 for v in counts)
