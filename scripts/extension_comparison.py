"""Reconstruct one observation with both extension methods and report
how far the recovered curves disagree.

The primary curve uses the harmonic extension and the alternate one the
normal-constant extension, both on the same data functional; the sup
discrepancy over the shared trusted band is printed and stored in
diagnostics.json.
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

from fluxrecon.experiments import (load_scenario, output_dir, run_reconstruct,
                                   run_synthesize)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "linear_interval.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG), help="scenario JSON")
    ap.add_argument("--out", default=None, help="output directory")
    args = ap.parse_args()

    scenario = load_scenario(args.config)
    scenario = replace(scenario, reconstruction={**scenario.reconstruction,
                                                 "compare_extensions": True})
    outdir = output_dir(args.out)
    paths = run_synthesize(scenario, outdir)
    run_reconstruct(paths["observation"], outdir, override=scenario)
    diag = json.loads((outdir / "diagnostics.json").read_text())["diagnostics"]
    print(f"primary extension:   {diag['extension_method']}")
    print(f"alternate extension: {diag['alt_extension_method']}")
    print(f"sup discrepancy:     {diag['extension_discrepancy']:.4e}")
    print(f"tail energy ratio:   {diag['tail_energy_ratio']:.4e}")
    print(f"outputs:             {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
