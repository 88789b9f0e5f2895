"""Check results and machine-readable reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .matseries import MatSeries
from .series import XSeries
from .timepoly import TimePoly
from .window import determined


@dataclass
class CheckResult:
    name: str = ""
    params: dict = field(default_factory=dict)
    status: str = "pass"            # pass | fail | error
    max_degree_verified: dict = field(default_factory=dict)
    first_failure: dict | None = None
    ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "max_degree_verified": self.max_degree_verified or None,
            "first_failure": self.first_failure,
            "ms": round(self.ms, 3),
        }


@dataclass
class Report:
    config_hash: str
    checks: list

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
            parts = [
                f"{k}<={v}" for k, v in sorted(c.max_degree_verified.items())
                if v is not None
            ]
            if parts:
                extra = "  [" + ", ".join(parts) + "]"
        if c.first_failure is not None:
            extra += f"  first failure: {c.first_failure}"
        lines.append(f"  {c.name:<{width}} {mark:<6} {c.ms:8.1f}ms{extra}")
    total = len(report.checks)
    good = sum(1 for c in report.checks if c.status == "pass")
    lines.append(f"{good}/{total} checks passed")
    return "\n".join(lines)


def nonzero(labelled):
    """(label, witness) for each failing residual of (label, residual) pairs.

    The one verdict rule: a residual passes exactly when it is zero and
    every entry of it determines a coefficient. A nonzero residual's
    witness is its first nonzero coefficient; a zero one with an entry
    that determines nothing has ("undetermined", path..., axis, window)
    from `undetermined`. The report flattens the witness, so the label
    `()` leaves just the witness.
    """
    for label, residual in labelled:
        if not residual.is_zero():
            yield label, residual.first_nonzero()
        elif (hole := undetermined(residual)) is not None:
            yield label, ("undetermined",) + hole


def undetermined(residual):
    """(path..., axis, window) of the first entry of `residual` whose
    carrier determines no coefficient, or None when every entry does.

    The entries are the upper carriers: a TimePoly by its t-window, then
    each XSeries coefficient by its x-window (`window.determined`). The
    path runs through z-degree, matrix entry and time monomial, as the
    path of `first_nonzero` does.
    """
    if isinstance(residual, XSeries):
        return None if determined(residual.valid) else ("x", residual.valid)
    if isinstance(residual, TimePoly) and not determined(residual.tvalid):
        return "t", residual.tvalid
    if isinstance(residual, MatSeries):
        parts = (((i, j), e) for i, r in enumerate(residual.rows)
                 for j, e in enumerate(r))
    else:  # MZSeries by z-degree, TimePoly by monomial
        parts = (((k,), residual.terms[k]) for k in sorted(residual.terms))
    for at, part in parts:
        hole = undetermined(part)
        if hole is not None:
            return at + hole
    return None


def describe_witness(witness) -> dict | None:
    """Normalize a first-nonzero witness into a JSON-friendly record.

    Accepts the nested tuples produced by the series layers:
    (z-degree, i, j, (x-degree, value)) or matrix-level (i, j, (deg, val)).
    """
    if witness is None:
        return None
    if isinstance(witness, tuple):
        flat: list = []

        def walk(t):
            for item in t:
                if isinstance(item, tuple):
                    walk(item)
                else:
                    flat.append(item)

        walk(witness)
        return {"coordinates": [str(v) for v in flat]}
    return {"coordinates": [str(witness)]}
