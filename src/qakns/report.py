"""Check results and machine-readable reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
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
    """(label, first nonzero) for each nonzero residual of (label, residual) pairs.

    The one verdict rule: a residual passes exactly when it is zero, and
    its witness is its first nonzero coefficient. The report flattens the
    witness, so the label `()` leaves just that coefficient.
    """
    for label, residual in labelled:
        if not residual.is_zero():
            yield label, residual.first_nonzero()


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
