"""Run configuration: JSON schema, parsing, and invariant validation.

Rationals travel as "p/q" strings so a config round-trips exactly. All
channel indices are 1-based in files and reports, 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .hierarchy import LaxData
from .matseries import MatSeries
from .scalars import AdmissibilityError, check_q, frac, frac_str
from .series import XSeries
from .tau import EXPQO_Z_DEPTH


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
    n_t: int
    flows: tuple                # ((k, channel0), ...)
    lambda_max: int
    l_max: int
    tau: TauConfig | None
    q_sequence: tuple
    checks: tuple | None
    inject_corruption: bool = False

    # -- derived builders -------------------------------------------------

    def _lax(self, entries, classical: bool) -> LaxData:
        u = MatSeries([[XSeries.poly(list(entries[i][j]), self.n_x)
                        for j in range(self.n)] for i in range(self.n)])
        return LaxData(list(self.a), u, 1 if classical else self.q)

    def lax(self, classical: bool = False) -> LaxData:
        """The configured Lax datum, or its classical counterpart (q = 1)."""
        return self._lax(self.u, classical)

    def bilinear_lax(self, classical: bool = False) -> LaxData:
        """The Lax datum of the bilinear checks: `bilinear_u`, else `u`."""
        return self._lax(self.u if self.bilinear_u is None else self.bilinear_u,
                         classical)

    def required_resolvent_depth(self) -> int:
        k_top = max((k for k, _ in self.flows), default=1)
        # qr through z**-n_z needs one extra order; zero-curvature needs k+l
        return max(self.n_z + 1, 2 * k_top + 1)

    def required_dressing_depth(self) -> int:
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
            "truncations": {"x": self.n_x, "z": self.n_z, "t": self.n_t},
            "flows": [[k, a + 1] for k, a in self.flows],
            "lambda_max": self.lambda_max,
            "l_max": self.l_max,
            "tau": None if self.tau is None else self.tau.to_json(),
            "q_sequence": [frac_str(v) for v in self.q_sequence],
            "checks": None if self.checks is None else list(self.checks),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


_FIELDS = (
    "n", "q", "a", "u", "bilinear_u", "truncations", "flows", "lambda_max",
    "l_max", "tau", "q_sequence", "checks",
)
_MONOMIAL_FIELDS = ("exponents", "coeff")


def _parse_u(raw, n: int, n_x: int, label: str):
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(row, list) or len(row) != n for row in raw)):
        raise ConfigError(f"{label} must be an {n}x{n} matrix of coefficient lists")
    out = []
    for i, row in enumerate(raw):
        cells = []
        for j, entry in enumerate(row):
            field = f"{label}[{i+1}][{j+1}]"
            if not isinstance(entry, list):
                entry = [entry]
            coeffs = tuple(_rational(c, field) for c in entry)
            if len(coeffs) > n_x + 1:
                raise ConfigError(f"{field} degree exceeds the x truncation")
            if i == j and any(c != 0 for c in coeffs):
                raise ConfigError(
                    f"{label} must have zero diagonal (u_ii = 0), "
                    f"violated at entry {i+1}"
                )
            cells.append(coeffs)
        out.append(tuple(cells))
    return tuple(out)


def _parse_monomials(raw, order, n_t: int, label: str):
    """Monomials of total degree <= n_t, one exponent per tau variable.

    The exponents come in the order the file lists the variables; `order`
    lists, for each sorted variable, its place in the file, and the
    exponents are returned in the sorted order.
    """
    arity = len(order)
    out = []
    for i, item in enumerate(_list(raw, label)):
        item = _known(_object(item, f"{label}[{i}]"), _MONOMIAL_FIELDS,
                      f"{label}[{i}].")
        field = f"{label}[{i}].exponents"
        raw_e = _list(_required(item, "exponents", field), field)
        e = tuple(_count(v, field) for v in raw_e)
        if len(e) != arity:
            raise ConfigError(
                f"{field} must have one entry per tau variable ({arity}), "
                f"got {len(e)}"
            )
        if sum(e) > n_t:
            raise ConfigError(
                f"{field} has total degree {sum(e)}, above truncations.t = {n_t}"
            )
        coeff = f"{label}[{i}].coeff"
        out.append((tuple(e[k] for k in order),
                    _rational(_required(item, "coeff", coeff), coeff)))
    return tuple(out)


def _companion_key(key: str, n: int):
    """An "alpha,beta" key, 1 <= alpha != beta <= n, as a 0-based pair."""
    parts = key.split(",")
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ConfigError(
            f'tau.companions keys must be "alpha,beta" channel pairs, got {key!r}'
        )
    alpha, beta = (int(p) for p in parts)
    if alpha == beta or not (1 <= alpha <= n and 1 <= beta <= n):
        raise ConfigError(
            f"tau.companions key {key!r} needs 1 <= alpha != beta <= {n}"
        )
    return alpha - 1, beta - 1


def _count(value, label: str, least: int = 0):
    """An integer field >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{label} must be an integer >= {least}, got {value!r}")
    return value


def _rational(value, label: str) -> Fraction:
    """An exact rational field: an integer or a "p/q" string."""
    if not isinstance(value, bool):
        try:
            return frac(value)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ConfigError(
        f'{label} must be an exact rational (an integer or a "p/q" string), '
        f"got {value!r}"
    )


def _list(value, label: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{label} must be a list, got {value!r}")
    return value


def _object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{label} must be an object, got {value!r}")
    return value


def _known(obj: dict, fields, prefix: str = "") -> dict:
    """obj, once every key in it is one of `fields`: a misspelled key is an
    error, not a default."""
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{prefix}{key} is not a configuration field")
    return obj


def _required(obj: dict, key: str, label: str):
    if key not in obj:
        raise ConfigError(f"{label} is missing")
    return obj[key]


def _parse_flow(pair, n: int, label: str, least: int = 0):
    """One [order, channel] pair of integers, the order >= least and the
    channel 1-based."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)):
        raise ConfigError(
            f"{label} entries must be [order, channel] integer pairs, got {pair!r}"
        )
    k, channel = pair
    if not 1 <= channel <= n:
        raise ConfigError(f"{label}: flow channel {channel} outside 1..{n}")
    if k < least:
        raise ConfigError(f"{label}: flow order must be >= {least}, got {k}")
    return (k, channel - 1)


def _parse_checks(raw):
    """Null (every check) or a list of check names."""
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ConfigError(f"checks must be a list of names, got {raw!r}")
    return tuple(raw)


def parse_config(data: dict, inject_corruption: bool = False) -> RunConfig:
    try:
        data = _known(_object(data, "the configuration"), _FIELDS)
        n = _count(_required(data, "n", "n"), "n", least=1)
        q = _rational(_required(data, "q", "q"), "q")
        a = tuple(
            _rational(v, f"a[{i}]")
            for i, v in enumerate(_list(_required(data, "a", "a"), "a"), 1)
        )
        # nothing reads a band, but perfbench/workloads.py still sends
        # "band": 4 and refusing the key would fail every workload: it is
        # checked, then dropped, so it is not hashed
        tr = _known(_object(data.get("truncations", {}), "truncations"),
                    ("x", "z", "band", "t"), "truncations.")
        _count(tr.get("band", 0), "truncations.band")
        # the suite's fixed depths: tau.expqo compares through z**4, which
        # needs x >= 4, and tau.classical_limit's mixed case has t-degree 3
        n_x, n_z, n_t = (
            _count(tr.get(key, default), f"truncations.{key}", least=least)
            for key, default, least in (
                ("x", 8, EXPQO_Z_DEPTH), ("z", 6, 0), ("t", 4, 3),
            )
        )
        u = _parse_u(_required(data, "u", "u"), n, n_x, "u")
        bilinear_u = None
        if data.get("bilinear_u") is not None:
            bilinear_u = _parse_u(data["bilinear_u"], n, n_x, "bilinear_u")
        raw_flows = _list(data.get("flows", [[1, 1]]), "flows")
        flows = tuple(_parse_flow(p, n, "flows") for p in raw_flows)
        # an empty list would let the flow checks pass on nothing
        if not flows:
            raise ConfigError("flows must name at least one flow")
        if len(set(flows)) != len(flows):
            raise ConfigError(f"flows must be distinct, got {raw_flows!r}")
        tau = None
        if data.get("tau") is not None:
            traw = _known(_object(data["tau"], "tau"),
                          ("variables", "monomials", "companions"), "tau.")
            raw_vars = _list(
                _required(traw, "variables", "tau.variables"), "tau.variables"
            )
            # the Miwa shift t_k -> t_k - z**-k / k divides by the order
            listed = [_parse_flow(p, n, "tau.variables", least=1)
                      for p in raw_vars]
            order = sorted(range(len(listed)), key=listed.__getitem__)
            variables = tuple(listed[k] for k in order)
            if not variables:
                raise ConfigError("tau.variables must name at least one time")
            if len(set(variables)) != len(variables):
                raise ConfigError(
                    f"tau.variables must be distinct, got {raw_vars!r}"
                )
            monomials = _parse_monomials(
                _required(traw, "monomials", "tau.monomials"), order, n_t,
                "tau.monomials",
            )
            if sum(c for e, c in monomials if not any(e)) == 0:
                raise ConfigError(
                    "tau.monomials must have a nonzero constant term: "
                    "the Baker function divides by tau"
                )
            raw_companions = _object(traw.get("companions", {}), "tau.companions")
            companions = {
                _companion_key(key, n): _parse_monomials(
                    mons, order, n_t, f"tau.companions[{key!r}]"
                )
                for key, mons in raw_companions.items()
            }
            tau = TauConfig(variables, monomials, companions)
        cfg = RunConfig(
            n=n, q=q, a=a, u=u, bilinear_u=bilinear_u,
            n_x=n_x, n_z=n_z, n_t=n_t, flows=flows,
            lambda_max=_count(data.get("lambda_max", 2), "lambda_max"),
            l_max=_count(data.get("l_max", 4), "l_max"),
            tau=tau,
            q_sequence=tuple(
                _rational(v, f"q_sequence[{i}]") for i, v in
                enumerate(_list(data.get("q_sequence", []), "q_sequence"))
            ),
            checks=_parse_checks(data.get("checks")),
            inject_corruption=inject_corruption,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    # model invariants, with messages naming the violated condition
    if len(cfg.a) != cfg.n:
        raise ConfigError(f"a must have n = {cfg.n} entries, got {len(cfg.a)}")
    try:
        check_q(cfg.q, cfg.n_x)
        cfg.lax()
        if cfg.bilinear_u is not None:
            cfg.bilinear_lax()
    except (AdmissibilityError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    for i, value in enumerate(cfg.q_sequence):
        try:
            check_q(value, cfg.n_x)
        except AdmissibilityError as exc:
            raise ConfigError(f"q_sequence[{i}]: {exc}") from exc
    if len(cfg.q_sequence) == 1:
        raise ConfigError(
            "q_sequence[1] is missing: a non-empty q_sequence needs at least "
            "2 entries to form a ratio"
        )
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
    "truncations": {"x": 8, "z": 6, "t": 4},
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
