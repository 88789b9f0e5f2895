"""Run configuration: JSON schema, parsing, and invariant validation.

Rationals travel as "p/q" strings so a config round-trips exactly. All
channel indices are 1-based in files and reports, 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import QCalc
from .hierarchy import LaxData
from .matseries import MatSeries
from .scalars import AdmissibilityError, check_q, frac, frac_str
from .series import XSeries


class ConfigError(ValueError):
    """The configuration is malformed or violates a model invariant."""


@dataclass(frozen=True)
class TauConfig:
    variables: tuple            # ((k, channel0), ...)
    monomials: tuple            # ((exponents, coeff), ...)
    companions: dict            # (alpha0, beta0) -> monomial tuple

    def to_json(self):
        return {
            "variables": [[k, a + 1] for k, a in self.variables],
            "monomials": [
                {"exponents": list(e), "coeff": frac_str(c)}
                for e, c in self.monomials
            ],
            "companions": {
                f"{a+1},{b+1}": [
                    {"exponents": list(e), "coeff": frac_str(c)} for e, c in mons
                ]
                for (a, b), mons in sorted(self.companions.items())
            },
        }


@dataclass(frozen=True)
class RunConfig:
    n: int
    q: Fraction
    a: tuple                    # diagonal entries
    u: tuple                    # n x n tuple of coefficient tuples (x-poly)
    bilinear_u: tuple | None    # optional separate potential for dressing suites
    n_x: int
    n_z: int
    n_band: int
    n_t: int
    dressing_depth: int | None
    resolvent_depth: int | None
    flows: tuple                # ((k, channel0), ...)
    lambda_max: int
    l_max: int
    tau: TauConfig | None
    q_sequence: tuple
    checks: tuple | None
    inject_corruption: bool = False

    # -- derived builders -------------------------------------------------

    def calc(self, classical: bool = False) -> QCalc:
        """The configured q-structure, or the classical structure (q = 1)."""
        return QCalc(1 if classical else self.q, self.n_x)

    def _u_matrix(self, entries) -> MatSeries:
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                row.append(XSeries.poly(list(entries[i][j]), self.n_x))
            rows.append(row)
        return MatSeries(rows)

    def lax(self, classical: bool = False) -> LaxData:
        return LaxData(list(self.a), self._u_matrix(self.u), self.calc(classical))

    def bilinear_lax(self, classical: bool = False) -> LaxData:
        entries = self.bilinear_u if self.bilinear_u is not None else self.u
        return LaxData(list(self.a), self._u_matrix(entries), self.calc(classical))

    def required_resolvent_depth(self) -> int:
        if self.resolvent_depth is not None:
            return self.resolvent_depth
        k_top = max((k for k, _ in self.flows), default=1)
        # qr through z**-n_z needs one extra order; zero-curvature needs k+l
        return max(self.n_z + 1, 2 * k_top + 1)

    def required_dressing_depth(self) -> int:
        if self.dressing_depth is not None:
            return self.dressing_depth
        k_top = max((k for k, _ in self.flows), default=1)
        return self.l_max + self.lambda_max * k_top + 2

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": frac_str(self.q),
            "a": [frac_str(v) for v in self.a],
            "u": [
                [[frac_str(c) for c in entry] for entry in row] for row in self.u
            ],
            "bilinear_u": None if self.bilinear_u is None else [
                [[frac_str(c) for c in entry] for entry in row]
                for row in self.bilinear_u
            ],
            "truncations": {
                "x": self.n_x, "z": self.n_z, "band": self.n_band, "t": self.n_t,
            },
            "dressing_depth": self.dressing_depth,
            "resolvent_depth": self.resolvent_depth,
            "flows": [[k, a + 1] for k, a in self.flows],
            "lambda_max": self.lambda_max,
            "l_max": self.l_max,
            "tau": None if self.tau is None else self.tau.to_json(),
            "q_sequence": [frac_str(v) for v in self.q_sequence],
            "checks": None if self.checks is None else list(self.checks),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _parse_u(raw, n: int, n_x: int, label: str):
    if len(raw) != n or any(len(row) != n for row in raw):
        raise ConfigError(f"{label} must be an {n}x{n} matrix of coefficient lists")
    out = []
    for i, row in enumerate(raw):
        cells = []
        for j, entry in enumerate(row):
            if isinstance(entry, str):
                entry = [entry]
            coeffs = tuple(frac(c) for c in entry)
            if len(coeffs) > n_x + 1:
                raise ConfigError(
                    f"{label}[{i+1}][{j+1}] degree exceeds the x truncation"
                )
            if i == j and any(c != 0 for c in coeffs):
                raise ConfigError(
                    f"{label} must have zero diagonal (u_ii = 0), "
                    f"violated at entry {i+1}"
                )
            cells.append(coeffs)
        out.append(tuple(cells))
    return tuple(out)


def _parse_monomials(raw, arity: int):
    out = []
    for item in raw:
        e = tuple(int(v) for v in item["exponents"])
        if len(e) != arity:
            raise ConfigError("tau monomial exponent arity mismatch")
        out.append((e, frac(item["coeff"])))
    return tuple(out)


def _count(value, label: str, nullable: bool = False):
    """A nonnegative integer field (or null, when the field allows it)."""
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        allowed = "null or an integer >= 0" if nullable else "an integer >= 0"
        raise ConfigError(f"{label} must be {allowed}, got {value!r}")
    return value


def _parse_flow(pair, n: int):
    k, channel = int(pair[0]), int(pair[1])
    if not 1 <= channel <= n:
        raise ConfigError(f"flow channel {channel} outside 1..{n}")
    if k < 0:
        raise ConfigError("flow order must be nonnegative")
    return (k, channel - 1)


def parse_config(data: dict, inject_corruption: bool = False) -> RunConfig:
    try:
        n = int(data["n"])
        q = frac(data["q"])
        a = tuple(frac(v) for v in data["a"])
        tr = data.get("truncations", {})
        n_x, n_z, n_band, n_t = (
            _count(tr.get(key, default), f"truncations.{key}")
            for key, default in (("x", 8), ("z", 6), ("band", 4), ("t", 4))
        )
        u = _parse_u(data["u"], n, n_x, "u")
        bilinear_u = None
        if data.get("bilinear_u") is not None:
            bilinear_u = _parse_u(data["bilinear_u"], n, n_x, "bilinear_u")
        flows = tuple(_parse_flow(p, n) for p in data.get("flows", [[1, 1]]))
        tau = None
        if data.get("tau") is not None:
            traw = data["tau"]
            variables = tuple(
                sorted(_parse_flow(p, n) for p in traw["variables"])
            )
            monomials = _parse_monomials(traw["monomials"], len(variables))
            companions = {}
            for key, mons in traw.get("companions", {}).items():
                alpha, beta = (int(v) for v in key.split(","))
                companions[(alpha - 1, beta - 1)] = _parse_monomials(
                    mons, len(variables)
                )
            tau = TauConfig(variables, monomials, companions)
        cfg = RunConfig(
            n=n, q=q, a=a, u=u, bilinear_u=bilinear_u,
            n_x=n_x, n_z=n_z, n_band=n_band, n_t=n_t,
            dressing_depth=_count(
                data.get("dressing_depth"), "dressing_depth", nullable=True
            ),
            resolvent_depth=_count(
                data.get("resolvent_depth"), "resolvent_depth", nullable=True
            ),
            flows=flows,
            lambda_max=_count(data.get("lambda_max", 2), "lambda_max"),
            l_max=_count(data.get("l_max", 4), "l_max"),
            tau=tau,
            q_sequence=tuple(frac(v) for v in data.get("q_sequence", [])),
            checks=None if data.get("checks") is None
            else tuple(data["checks"]),
            inject_corruption=inject_corruption,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    # model invariants, with messages naming the violated condition
    if len(set(cfg.a)) != cfg.n:
        raise ConfigError("eigenvalues must be distinct (a_i != a_j)")
    try:
        check_q(cfg.q, cfg.n_x)
        cfg.lax()
        if cfg.bilinear_u is not None:
            cfg.bilinear_lax()
    except (AdmissibilityError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str, inject_corruption: bool = False) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data, inject_corruption)


DEMO_CONFIG = {
    "n": 2,
    "q": "2",
    "a": ["1", "-1"],
    "u": [[["0"], ["1"]], [["1"], ["0"]]],
    "bilinear_u": [[["0"], ["0", "1"]], [["0"], ["0"]]],
    "truncations": {"x": 8, "z": 6, "band": 4, "t": 4},
    "flows": [[1, 1], [1, 2], [2, 1]],
    "lambda_max": 2,
    "l_max": 4,
    "tau": {
        "variables": [[1, 1], [1, 2], [2, 1]],
        "monomials": [{"exponents": [0, 0, 0], "coeff": "1"}],
        "companions": {},
    },
    "q_sequence": ["9/8", "17/16", "33/32", "65/64"],
    "checks": None,
}


def demo_config(inject_corruption: bool = False) -> RunConfig:
    return parse_config(DEMO_CONFIG, inject_corruption)
