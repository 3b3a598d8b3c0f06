"""Command-line entry point.

    anosovlab VERB --config scenario.yaml [--out DIR] [--seed N]

Verbs select pipeline stages: analyze, certify, conjugacy, orbits, branches,
metric run one stage each; `all` runs the full pipeline; `dichotomy` runs the
epsilon sweep configured in the scenario's dichotomy section. Exit codes: 0
clean, 2 verdict-level findings, 1 infrastructure or config errors.
`--threads N` (N >= 1) is accepted and has no effect: sweeps run serially.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from anosovlab.errors import ConfigInvalid
from anosovlab.scenarios import STAGES, load_scenario, run_scenario

_VERBS = STAGES + ("dichotomy", "all")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anosovlab",
        description="Experiment runner for non-invertible hyperbolic toral maps.",
    )
    p.add_argument("verb", choices=_VERBS, help="pipeline stage(s) to run")
    p.add_argument("--config", required=True, metavar="PATH", help="scenario YAML file")
    p.add_argument("--out", metavar="DIR", help="override the configured output directory")
    p.add_argument("--seed", type=int, metavar="N", help="override the configured seed")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility; has no effect (sweeps run serially)",
    )
    return p


def _config_errors(problems) -> int:
    for problem in problems:
        print(f"config error: {problem}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
    except ConfigInvalid as exc:
        return _config_errors(exc.problems)

    if args.seed is not None and args.seed < 0:
        return _config_errors(["--seed must be >= 0"])
    if args.threads < 1:
        return _config_errors(["--threads must be >= 1"])
    if args.out == "":
        return _config_errors(["--out must be a non-empty path"])
    if args.out is not None:
        sc = replace(sc, out_dir=args.out)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)

    stages = STAGES if args.verb == "all" else (args.verb,)
    try:
        result = run_scenario(replace(sc, stages=stages))
    except ConfigInvalid as exc:  # an output or cache path that cannot be a directory
        return _config_errors(exc.problems)

    print(f"wrote {result.summary_path}")
    for name in result.files:
        print(f"wrote {sc.out_dir}/{name}")
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
    for finding in result.findings:
        print(f"finding: {finding}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
