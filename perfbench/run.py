"""Run one fluxrecon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rect_reconstruct --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, and scratch files go to ./.perfbench_run. One process, one serial
caller, BLAS capped at BLAS_THREADS threads. Set-up (import, seeded
inputs, one untimed warm-up operation) is followed by a closed loop of
operations that lasts at least --seconds and at least MIN_OPS operations.

The lines printed first give every metric with its unit, including the
per-phase ones of a workload (reconstruct_p50_s, synthesize_tail_s, ...).
The last line is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, or
with --trace 1 the per-layer metrics. A traced run alternates untraced
and traced operations; only the traced ones record spans, and the ratio
of the two rates is trace.overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports after the start time on purpose)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="fluxrecon benchmark: one workload, one run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _phase_lines(phases: dict[str, list[float]]) -> list[str]:
    import harness

    lines = []
    for phase, xs in phases.items():
        lines.append(f"{phase}_p50_s  {_fmt(statistics.median(xs))} s  ({len(xs)} samples)")
        tail = harness.tail_percentile(xs)
        if tail is None:
            lines.append(f"{phase}_tail_s  n/a  ({len(xs)} samples, too few to have "
                         f"{harness.TAIL_BEYOND} beyond p{harness.TAIL_LADDER[-1]:g})")
        else:
            lines.append(f"{phase}_tail_s  {_fmt(tail[1])} s  "
                         f"(p{tail[0]:g} of {len(xs)} samples)")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    # imported only now, so that numpy starts under the BLAS cap main() sets
    import harness
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of "
                         f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](workdir, seed)
    log = harness.OpLog()
    tracer = harness.Tracer()
    targets = workloads.trace_targets() if trace else []

    workload.setup()
    warmup = log.run(lambda: workload.op(0))
    setup_s = time.perf_counter() - T_START

    runs = []  # (traced, result or None, seconds)
    t_loop = time.perf_counter()
    while True:
        i = len(runs)
        traced = trace and i % 2 == 1
        with tracer.patched(targets) if traced else nullcontext():
            with tracer.span("op") if traced else nullcontext():
                t0 = time.perf_counter()
                result = log.run(lambda: workload.op(i))
                runs.append((traced, result, time.perf_counter() - t0))
        if time.perf_counter() - t_loop >= seconds and len(runs) >= MIN_OPS:
            break
    loop_s = time.perf_counter() - t_loop

    done = [r for _, r, _ in runs if r is not None]
    if not done:
        raise SystemExit(f"no operation succeeded: {log.errors}")
    phases: dict[str, list[float]] = {}
    for r in done:
        for phase, s in r["phases"].items():
            phases.setdefault(phase, []).append(s)
    sups = [r["sup_error"] for r in [warmup, *done] if r and "sup_error" in r]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": harness.environment(BLAS_THREADS),
        "inputs_run": [r["input"] for r in done],
        "op_seconds": [{"traced": t, "ok": r is not None, "seconds": s} for t, r, s in runs],
        "attempted": log.attempted, "failed": log.failed, "errors": log.errors,
        "lines": [f"setup_s  {_fmt(setup_s)} s",
                  *_phase_lines(phases),
                  f"failed_ratio  {_fmt(log.failed / log.attempted)}  "
                  f"({log.failed} of {log.attempted}, warm-up included)"],
    }
    if sups:
        report["lines"].append(f"sup_error_max  {_fmt(max(sups))}  "
                               f"(over {len(sups)} reconstructs)")

    if not trace:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(done) / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, workloads.END_TO_END[k]) for k, v in values.items()}
        op_p50_s = statistics.median(sum(r["phases"].values()) for r in done)
        report["lines"] += [f"op_p50_s  {_fmt(op_p50_s)} s"] + [
            f"{k}  {_fmt(v)} {u}" for k, (v, u) in metrics.items() if k != "setup_s"]
    else:
        traced_ok = [r is not None for t, r, _ in runs if t]
        ops = [t for t, ok in zip(harness.per_root(tracer.spans).values(), traced_ok) if ok]
        if not ops:
            raise SystemExit(f"no traced operation succeeded: {log.errors}")
        values = workloads.layer_metrics(ops)
        rate = {flag: sum(1 for t, r, _ in runs if t == flag and r is not None)
                / sum(s for t, _, s in runs if t == flag) for flag in (False, True)}
        values["trace.overhead"] = rate[False] / rate[True]
        units = {m[0]: m[1] for m in workloads.LAYER_METRICS}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        op_s = statistics.median(s.end - s.start for s in tracer.spans if s.parent is None)
        for k, (v, unit) in metrics.items():
            share = f"  ({100 * v / op_s:.1f}% of a traced op)" if unit == "s" else ""
            report["lines"].append(f"{k}  {_fmt(v)} {unit}{share}")
        report["traced_ops"] = len(ops)
        report["spans"] = tracer.to_json()

    report["result"] = {
        "correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "fluxrecon" / "__init__.py").is_file():
        print(f"run.py: the fluxrecon sources are missing under {src}", file=sys.stderr)
        return 2
    # numpy reads the BLAS thread cap when it is first imported
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(src))

    run_dir = ROOT / ".perfbench_run"
    workdir = run_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_dir.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"report {out.relative_to(ROOT)}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {env['numpy_blas']['version']}  nproc {env['nproc']}  "
          f"blas_threads {env['blas_threads']}")
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
