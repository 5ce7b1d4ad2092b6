"""Run the benchmark in alternating pairs on two source trees and judge
each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify_suites \
        --pairs 10 --seconds 40 --seed 401

PARENT and CHANGE are the roots of two checkouts. Pair i runs
`perfbench/run.py --workload W --seed S0+i --seconds S --trace 0` once in
each tree, the parent first when i is even and the change first when it is
odd, and reads the JSON object on the last line of each run. For every
end-to-end metric of this repository's BENCHMARK.json it prints the
parent's median [quartiles], the change's median, the pairs the change won
and every run in pair order, then two verdicts:

  claim  holds when the change won at least 9 in 10 pairs (ties count for
         neither) and its median is better than the parent's by more than
         the parent's interquartile range;
  bound  says worse when the change's median is worse than the parent's by
         more than the metric's bound, a fraction of the parent's median.

Quartiles are those of statistics.quantiles (the exclusive method). The
failed and attempted operations of each tree are printed too. Each run
leaves its report in its tree's .perfbench_run/, as run.py does.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdicts on one metric from its values in pair order."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (change_median - median)
    return {"parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": change_median, "won": won, "pairs": len(parent),
            "claim": 10 * won >= 9 * len(parent) and gain > q3 - q1,
            "worse_than_bound": -gain > bound * abs(median)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 to give quartiles")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(trees[side], args.workload, args.seed + i,
                                          args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"workload {args.workload}  pairs {args.pairs}  seconds {args.seconds:g}  "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    for side, runs in results.items():
        print(f"{side}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        s = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        change_pct = 100.0 * (s["change_median"] / s["parent_median"] - 1.0)
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"{_fmt(s['parent_median'])} [{_fmt(s['parent_q1'])}, {_fmt(s['parent_q3'])}]"
              f" -> {_fmt(s['change_median'])} ({change_pct:+.1f}%), "
              f"{s['won']} of {s['pairs']} pairs won; "
              f"claim {'holds' if s['claim'] else 'fails'}; "
              f"{'WORSE than' if s['worse_than_bound'] else 'within'} "
              f"the bound {metric['bound']:g}")
        for side, xs in values.items():
            print(f"  {side} " + " ".join(_fmt(x) for x in xs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
