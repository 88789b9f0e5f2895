"""Count the kernel operations of one verification, check by check.

    python3 tools/op_counts.py CONFIG

Runs what `qakns verify --config CONFIG` runs, in this process, and
prints one line per check: its status, the `XSeries.dot` calls and the
pairs they sum, the `MatSeries.dot` calls and the `MZSeries.product`
calls; the total comes last. The counts are deterministic, so they
compare two versions of the program where timings drift. A shared
artifact (a resolvent family, a dressing) counts in the first check that
builds it, and an idle check, which the suite answers with its note
without calling it, counts zeros. The kernels and the check table are
wrapped by name for the run and restored after it, also when it raises.
A check that ends in `error` stopped part way, so its counts and the
total are partial: the run names those checks and exits 1. With no path
or with --help it prints this text, and with a missing path it names
that path; both exit 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qakns import suites  # noqa: E402
from qakns.config import load_config  # noqa: E402
from qakns.matseries import MatSeries  # noqa: E402
from qakns.series import XSeries  # noqa: E402
from qakns.zseries import MZSeries  # noqa: E402

COLUMNS = ("xdot.calls", "xdot.pairs", "matdot.calls", "zproduct.calls")


def op_counts(cfg) -> dict[str, tuple[str, tuple[int, ...]]]:
    """{check name: (status, counts in COLUMNS order)} for one run of `cfg`."""
    tally = dict.fromkeys(COLUMNS, 0)
    real_xdot, real_matdot = XSeries.__dict__["dot"], MatSeries.__dict__["dot"]
    real_product, real_checks = MZSeries.product, list(suites.CHECKS)

    def xdot(pairs):
        pairs = list(pairs)
        tally["xdot.calls"] += 1
        tally["xdot.pairs"] += len(pairs)
        return real_xdot.__func__(pairs)

    def matdot(blocks):
        tally["matdot.calls"] += 1
        return real_matdot.__func__(blocks)

    def product(self, *args, **kwargs):
        tally["zproduct.calls"] += 1
        return real_product(self, *args, **kwargs)

    out = {}

    def counted(name, fn):
        def run(ctx):
            before = dict(tally)
            try:
                return fn(ctx)
            finally:
                out[name] = tuple(tally[c] - before[c] for c in COLUMNS)
        return run

    XSeries.dot, MatSeries.dot = staticmethod(xdot), staticmethod(matdot)
    MZSeries.product = product
    suites.CHECKS[:] = [(name, counted(name, fn)) for name, fn in real_checks]
    try:
        report = suites.run_suite(cfg)
    finally:
        XSeries.dot, MatSeries.dot = real_xdot, real_matdot
        MZSeries.product = real_product
        suites.CHECKS[:] = real_checks
    zeros = (0,) * len(COLUMNS)
    return {c.name: (c.status, out.get(c.name, zeros)) for c in report.checks}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not Path(argv[0]).exists():
        print(f"op_counts.py: no such file: {argv[0]}", file=sys.stderr)
        return 2
    counts = op_counts(load_config(argv[0]))
    width = max(len(name) for name in counts) if counts else 5

    def line(name, status, row):
        print(f"{name:<{width}} {status:>6} " + " ".join(f"{v:>14}" for v in row))

    line("check", "status", COLUMNS)
    total = [0] * len(COLUMNS)
    for name, (status, row) in counts.items():
        total = [t + v for t, v in zip(total, row)]
        line(name, status, row)
    line("total", "", total)
    errors = [name for name, (status, _) in counts.items() if status == "error"]
    if errors:
        print(f"op_counts.py: partial counts, {len(errors)} check(s) ended in "
              f"error: {', '.join(errors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
