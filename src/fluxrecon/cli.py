"""Command-line front end.

Subcommands: synthesize, reconstruct, verify. Every run setting comes
from the scenario file, or from the copy of it in the observation's
metadata. Exit codes: 0 success, 2 configuration or input problems,
3 numerical failures (including failed verification suites).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, InputError, NumericalError
from .experiments import (load_scenario, output_dir, run_reconstruct, run_synthesize,
                          run_verify)
from .suites import SUITES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fluxrecon",
                                description="Reaction-law recovery from boundary flux data")
    sub = p.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="solve an instance and write observation files")
    syn.add_argument("--config", required=True, help="scenario JSON file")
    syn.add_argument("--out", default=None, help="output directory "
                     "(default: $FLUXRECON_OUT or ./fluxrecon_out)")

    rec = sub.add_parser("reconstruct", help="recover the reaction curve from an observation")
    rec.add_argument("--observation", required=True, help="observation.csv path")
    rec.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", default="all", choices=SUITES + ("all",))
    ver.add_argument("--out", default=None, help="also write verify_<suite>.json here")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "synthesize":
            paths = run_synthesize(load_scenario(args.config), output_dir(args.out))
            print(json.dumps(paths, sort_keys=True))
            return EXIT_OK
        if args.command == "reconstruct":
            paths = run_reconstruct(args.observation, output_dir(args.out))
            print(json.dumps(paths, sort_keys=True))
            return EXIT_OK
        if args.command == "verify":
            out = output_dir(args.out) if args.out else None
            report = run_verify(args.suite, out)
            print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK if report["passed"] else EXIT_NUMERICAL
    except (ConfigurationError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
