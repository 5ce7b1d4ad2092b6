"""Print a SHA-256 digest of every deterministic output of the package.

For each scenario config it runs synthesize and reconstruct and digests
the observation, its metadata, the curve, the diagnostics and the
metrics (without the wall-clock `timings` key). It then digests the
report of each suite of `verify --suite all`, one line per suite
(`verify/eigenbasis` ... `verify/volterra`), so a change that moves one
suite names it; the forward suite's report holds its table of refinement
studies. Two trees that compute the same numbers print the same lines, so
a refactor that must keep its outputs byte-identical is checked with one
command:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 scripts/output_digest.py --against before.txt

With `--against FILE` the lines of this run are compared with FILE; the
lines that differ go to stderr as a unified diff and the exit status is 1.
"""

import argparse
import difflib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fluxrecon.experiments import load_scenario, run_reconstruct, run_synthesize, run_verify

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
OUTPUTS = ("observation", "metadata", "curve", "diagnostics", "metrics")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name == "metrics.json":
        payload = json.loads(path.read_text())
        payload.pop("timings", None)
        return _sha(json.dumps(payload, sort_keys=True).encode())
    return _sha(path.read_bytes())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", help="scenario JSONs (default: configs/*.json)")
    ap.add_argument("--against", metavar="FILE", type=Path,
                    help="saved digest to compare with; exit 1 on any difference")
    args = ap.parse_args()
    configs = [Path(c) for c in args.configs] or sorted(CONFIG_DIR.glob("*.json"))
    saved = None
    if args.against is not None:
        try:
            saved = args.against.read_text().splitlines()
        except OSError as exc:
            ap.error(f"cannot read --against file: {exc}")
    lines = []

    def emit(line: str) -> None:
        lines.append(line)
        print(line, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            outdir = Path(tmp) / config.stem
            paths = run_synthesize(load_scenario(config), outdir)
            paths.update(run_reconstruct(paths["observation"], outdir))
            for key in OUTPUTS:
                if key in paths:
                    emit(f"{_file_digest(Path(paths[key]))}  {config.stem}/{key}")

        for report in run_verify("all")["suites"]:
            emit(f"{_sha(json.dumps(report, sort_keys=True).encode())}  verify/{report['suite']}")
    if saved is None:
        return 0
    diff = list(difflib.unified_diff(saved, lines, str(args.against), "this run",
                                     lineterm=""))
    print("\n".join(diff) or f"all {len(lines)} lines match {args.against}",
          file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
