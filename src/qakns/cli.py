"""Command-line interface: run verification suites and emit reports.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, demo_config, load_config
from .report import emit_report
from .suites import run_suite

VERB_PREFIXES = {
    "verify": None,
    "dressing": ["dressing."],
    "resolvent": ["hierarchy.", "classical.qr_residual"],
    "bilinear": ["bilinear."],
    "tau": ["tau."],
    "demo": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qakns",
        description=(
            "Exact-arithmetic verification of the q-deformed AKNS-D "
            "hierarchy: dressing and resolvent solvers, bilinear residues, "
            "and tau-function shift checks."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in [
        ("verify", "run the full suite"),
        ("dressing", "dressing factorization and route agreement"),
        ("resolvent", "resolvent, flow, and zero-curvature checks"),
        ("bilinear", "bilinear residue checks"),
        ("tau", "tau-function suite"),
        ("demo", "run everything on the built-in example"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default text)",
        )
        p.add_argument(
            "--check", action="append", default=None, metavar="NAME",
            help="restrict to a named check (repeatable)",
        )
        p.add_argument(
            "--inject-corruption", action="store_true",
            help="corrupt the dressing first; proves the checks can fail",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "demo" or args.config is None:
            cfg = demo_config(args.inject_corruption)
        else:
            cfg = load_config(args.config, args.inject_corruption)
        if args.check:
            cfg = type(cfg)(**{**cfg.__dict__, "checks": tuple(args.check)})
        report = run_suite(cfg, VERB_PREFIXES.get(args.verb))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
