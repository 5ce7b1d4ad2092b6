"""Print a SHA-256 digest of every deterministic output of the package.

For each scenario config it runs synthesize and reconstruct and digests
the observation, its metadata, the curve, the diagnostics and the
metrics (without the wall-clock `timings` key). It then digests the
`verify --suite all` report and the convergence study's files. Two trees
that compute the same numbers print the same lines, so a refactor that
must keep its outputs byte-identical is checked with one diff:

    PYTHONPATH=src python3 scripts/output_digest.py > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fluxrecon.experiments import (load_scenario, run_convergence, run_reconstruct,
                                   run_synthesize, run_verify)

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
    args = ap.parse_args()
    configs = [Path(c) for c in args.configs] or sorted(CONFIG_DIR.glob("*.json"))

    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            outdir = Path(tmp) / config.stem
            paths = run_synthesize(load_scenario(config), outdir)
            paths.update(run_reconstruct(paths["observation"], outdir))
            for key in OUTPUTS:
                if key in paths:
                    print(f"{_file_digest(Path(paths[key]))}  {config.stem}/{key}")
            sys.stdout.flush()

        report = run_verify("all")
        print(f"{_sha(json.dumps(report, sort_keys=True).encode())}  verify/all")
        outdir = Path(tmp) / "convergence"
        run_convergence(outdir)
        for name in ("convergence.csv", "convergence.json"):
            print(f"{_file_digest(outdir / name)}  convergence/{name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
