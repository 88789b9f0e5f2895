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

# verb -> (help, the check-name prefixes it runs; None runs every check)
VERBS = {
    "verify": ("run the full suite", None),
    "dressing": ("dressing factorization and route agreement", ["dressing."]),
    "resolvent": ("resolvent, flow, and zero-curvature checks",
                  ["hierarchy.", "classical.qr_residual"]),
    "bilinear": ("bilinear residue checks", ["bilinear."]),
    "tau": ("tau-function suite", ["tau."]),
    "demo": ("run everything on the built-in example", None),
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
    parser.set_defaults(inject_corruption=False)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, prefixes) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        # demo runs the built-in example: a config there would go unread
        if verb != "demo":
            p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format (default text)",
        )
        p.add_argument(
            "--check", action="append", default=None, metavar="NAME",
            help="restrict to a named check (repeatable)",
        )
        # only the bilinear checks read the corrupted dressing
        if prefixes is None or "bilinear." in prefixes:
            p.add_argument(
                "--inject-corruption", action="store_true",
                help="corrupt the dressing first; proves the checks can fail",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is None:
            cfg = demo_config(args.inject_corruption)
        else:
            cfg = load_config(args.config, args.inject_corruption)
        if args.check:
            cfg = cfg.with_checks(args.check)
        report = run_suite(cfg, VERBS[args.verb][1])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
