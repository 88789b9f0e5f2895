"""Check results and machine-readable reports.

A `CheckResult` is one check's verdict and a `Report` one run's results;
both are plain mutable records. `nonzero` is the one verdict rule and
`describe_witness` turns its witness into the report's record.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .matseries import MatSeries
from .series import XSeries
from .timepoly import TimePoly
from .window import determined
from .zseries import MZSeries


class CheckResult:
    """One check's verdict: `status` is pass, fail or error, with what it
    verified and its first failure. `run_suite` names and times it after
    it is built."""

    __slots__ = ("name", "params", "status", "max_degree_verified",
                 "first_failure", "ms")

    def __init__(self, name: str = "", params: dict | None = None,
                 status: str = "pass", max_degree_verified: dict | None = None,
                 first_failure: dict | None = None, ms: float = 0.0):
        self.name = name
        self.params = {} if params is None else params
        self.status = status
        self.max_degree_verified = ({} if max_degree_verified is None
                                    else max_degree_verified)
        self.first_failure = first_failure
        self.ms = ms

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "max_degree_verified": self.max_degree_verified or None,
            "first_failure": self.first_failure,
            "ms": round(self.ms, 3),
        }


class Report:
    """The results of one run under its config hash."""

    __slots__ = ("config_hash", "checks")

    def __init__(self, config_hash: str, checks: list):
        self.config_hash = config_hash
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "checks": [c.to_json() for c in self.checks],
        }


def config_hash(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError("format must be 'json' or 'text'")
    lines = []
    width = max((len(c.name) for c in report.checks), default=10) + 2
    lines.append(f"config {report.config_hash[:16]}")
    for c in report.checks:
        mark = {"pass": "ok", "fail": "FAIL", "error": "ERROR"}[c.status]
        extra = ""
        if c.max_degree_verified:
            extra = "  [" + ", ".join(
                f"{k}<={v}" for k, v in sorted(c.max_degree_verified.items())
            ) + "]"
        if c.first_failure is not None:
            extra += f"  first failure: {c.first_failure}"
        lines.append(f"  {c.name:<{width}} {mark:<6} {c.ms:8.1f}ms{extra}")
    total = len(report.checks)
    good = sum(1 for c in report.checks if c.status == "pass")
    lines.append(f"{good}/{total} checks passed")
    return "\n".join(lines)


def nonzero(labelled, windows=None):
    """(label, witness) for each failing residual of (label, residual) pairs.

    The one verdict rule: a residual passes exactly when it is zero and
    every entry of it determines a coefficient. The carrier's own
    `is_zero` is asked first, as it is cheaper than a walk; a nonzero
    residual's witness is then `first_nonzero`, and a zero one with an
    entry that determines nothing has ("undetermined", path..., axis,
    window) from `undetermined`. The report flattens the label with the
    witness, so the label `()` leaves just the witness. With a dict
    `windows`, that walk also folds each passing residual's windows into
    it, so what a check verified costs no second walk.
    """
    for label, residual in labelled:
        if not residual.is_zero():
            yield label, first_nonzero(residual)
        elif (hole := undetermined(residual, windows)) is not None:
            yield label, ("undetermined",) + hole


def _walk(part, path=()):
    """(path, carrier) for `part` and each carrier inside it, in witness order.

    An MZSeries is read by ascending z-degree, a MatSeries row-major and a
    TimePoly by sorted monomial, down to the XSeries coefficients; each
    carrier comes before the carriers inside it. The path runs through
    z-degree, row, column and monomial.
    """
    yield path, part
    if isinstance(part, MatSeries):
        for i, r in enumerate(part.rows):
            for j, e in enumerate(r):
                yield from _walk(e, path + (i, j))
    elif not isinstance(part, XSeries):  # MZSeries or TimePoly
        for k in sorted(part.terms):
            yield from _walk(part.terms[k], path + (k,))


def first_nonzero(residual):
    """(path..., x-degree, value) of the first coefficient of `residual`
    that is nonzero inside its x-window, or None when every one vanishes."""
    for path, part in _walk(residual):
        if isinstance(part, XSeries):
            for k, v in enumerate(part.known):
                if v:
                    return path + (k, Fraction(v, part.den))
    return None


def undetermined(residual, windows=None):
    """(path..., axis, window) of the first entry of `residual` whose
    carrier determines no coefficient, or None when every entry does.

    The entries are the upper carriers: a TimePoly by its t-window, read
    before its coefficients, and each XSeries by its x-window
    (`window.determined`). With a dict `windows`, each carrier walked
    lowers windows[axis] to its own window, the least on each axis: "x" to
    an XSeries' `valid` and "t" to a TimePoly's `tvalid`, each capped at
    its carrier's cap, and "z" to -zvalid of an MZSeries that has a
    floor. An exact z-series adds no z, and an exact zero one stores no
    carrier, so it adds nothing.
    """
    for path, part in _walk(residual):
        if isinstance(part, XSeries):
            if not determined(part.valid):
                return path + ("x", part.valid)
            axis, v = "x", min(part.valid, part.order)
        elif isinstance(part, TimePoly):
            if not determined(part.tvalid):
                return path + ("t", part.tvalid)
            axis, v = "t", min(part.tvalid, part.tmax)
        elif isinstance(part, MZSeries) and not part.is_exact:
            axis, v = "z", -part.zvalid
        else:
            continue
        if windows is not None and v < windows.get(axis, math.inf):
            windows[axis] = v
    return None


def _flat(item):
    """The items of `item`, nested tuples flattened in order."""
    if isinstance(item, tuple):
        for inner in item:
            yield from _flat(inner)
    else:
        yield item


def describe_witness(witness) -> dict:
    """Normalize a failure into a JSON-friendly record.

    Accepts a message string or a (label, witness) pair of `nonzero`.
    A label may nest tuples and a witness holds each time monomial as an
    exponent tuple; the coordinates list every item, flattened, in order.
    """
    return {"coordinates": [str(v) for v in _flat(witness)]}
