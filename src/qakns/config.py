"""Run configuration: JSON schema, parsing, and invariant validation.

A run is parsed once, straight into the objects the checks read: each
potential into a `LaxData` and the tau data into a `TauSpec` over the
run's time ring, held by an immutable `RunConfig`, a plain class so that
start-up loads no `dataclasses`. The canonical JSON, and so the config
hash, is written from those objects, so spellings of one datum hash
alike.

Rationals travel as "p/q" strings so a config round-trips exactly. All
channel indices are 1-based in files and reports, 0-based internally.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .hierarchy import LaxData
from .matseries import MatSeries
from .scalars import AdmissibilityError, check_q, frac, frac_str
from .series import TruncationError, XSeries
from .tau import EXPQO_Z_DEPTH, TauSpec
from .timepoly import TimePoly


class ConfigError(ValueError):
    """The configuration is malformed or violates a model invariant."""


def default_tau_times(n: int) -> tuple:
    """(k, alpha) for k in {1, 2}: the tau times when a config names none."""
    return tuple((k, a) for k in (1, 2) for a in range(n))


def _default_tau(n: int, n_t: int, n_x: int) -> TauSpec:
    """tau = 1 over the default times: the tau of a config that gives none."""
    ring = TimePoly.zero(default_tau_times(n), n_t, n_x)
    return TauSpec(ring.constant(1), {}, n)


def _u_json(u: MatSeries) -> list:
    """Each entry's coefficients through its highest nonzero degree (at
    least one)."""
    return [[[frac_str(c) for c in e.coeffs[:max(e.top, 0) + 1]] for e in row]
            for row in u.rows]


def _monomials_json(p: TimePoly) -> list:
    """The monomials by total degree, then by descending exponents."""
    terms = sorted(p.terms.items(),
                   key=lambda t: (sum(t[0]), tuple(-v for v in t[0])))
    return [{"exponents": list(e), "coeff": frac_str(c.constant_term())}
            for e, c in terms]


_RUN_FIELDS = (
    "lax", "bilinear_lax", "n_x", "n_z", "n_t", "flows", "lambda_max",
    "l_max", "tau", "q_sequence", "checks", "inject_corruption",
)


class RunConfig:
    """One run, parsed once into the objects the checks read, with every
    default decided. `lax` is the configured Lax datum and `bilinear_lax`
    the one the dressing and bilinear checks read: the same object as
    `lax` when the config gives no `bilinear_u` or one equal to `u`.
    `tau` is the configured `TauSpec`, else tau = 1 over the default
    times. `flows` holds (k, channel0) pairs and `checks` the selected
    names, or None for every check.

    A run is immutable and equal to another field by field;
    `with_checks` is the same run with another selection.
    """

    __slots__ = _RUN_FIELDS

    def __init__(self, lax: LaxData, bilinear_lax: LaxData, n_x: int,
                 n_z: int, n_t: int, flows: tuple, lambda_max: int,
                 l_max: int, tau: TauSpec, q_sequence: tuple,
                 checks: tuple | None, inject_corruption: bool = False):
        values = (lax, bilinear_lax, n_x, n_z, n_t, flows, lambda_max,
                  l_max, tau, q_sequence, checks, inject_corruption)
        for name, value in zip(_RUN_FIELDS, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RunConfig is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in _RUN_FIELDS}

    def __eq__(self, other):
        if type(other) is not RunConfig:
            return NotImplemented
        return self._fields() == other._fields()

    def with_checks(self, checks) -> RunConfig:
        """This run with the check names `checks` selected (None: every
        check)."""
        return RunConfig(**{**self._fields(),
                            "checks": None if checks is None else tuple(checks)})

    @property
    def n(self) -> int:
        return self.lax.n

    @property
    def q(self) -> Fraction:
        return self.lax.q

    @property
    def a(self) -> list:
        """The diagonal entries of A."""
        return self.lax.a

    def required_resolvent_depth(self) -> int:
        k_top = max((k for k, _ in self.flows), default=1)
        # qr through z**-n_z needs one extra order; zero-curvature needs k+l
        return max(self.n_z + 1, 2 * k_top + 1)

    def required_dressing_depth(self) -> int:
        k_top = max((k for k, _ in self.flows), default=1)
        return self.l_max + self.lambda_max * k_top + 2

    def to_json(self) -> dict:
        tau = self.tau
        return {
            "n": self.n,
            "q": frac_str(self.q),
            "a": [frac_str(v) for v in self.a],
            "u": _u_json(self.lax.u),
            "bilinear_u": None if self.bilinear_lax is self.lax
            else _u_json(self.bilinear_lax.u),
            "truncations": {"x": self.n_x, "z": self.n_z, "t": self.n_t},
            "flows": [[k, a + 1] for k, a in self.flows],
            "lambda_max": self.lambda_max,
            "l_max": self.l_max,
            "tau": None if tau == _default_tau(self.n, self.n_t, self.n_x)
            else {
                "variables": [[k, a + 1] for k, a in tau.tau.vars],
                "monomials": _monomials_json(tau.tau),
                "companions": {
                    f"{a+1},{b+1}": _monomials_json(p)
                    for (a, b), p in sorted(tau.companions.items())
                },
            },
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


def _parse_u(raw, n: int, n_x: int, label: str) -> MatSeries:
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(row, list) or len(row) != n for row in raw)):
        raise ConfigError(f"{label} must be an {n}x{n} matrix of coefficient lists")
    rows = []
    for i, row in enumerate(raw):
        cells = []
        for j, entry in enumerate(row):
            field = f"{label}[{i+1}][{j+1}]"
            if not isinstance(entry, list):
                entry = [entry]
            try:
                cell = XSeries.poly([_rational(c, field) for c in entry], n_x)
            except TruncationError as exc:
                raise ConfigError(
                    f"{field} degree exceeds the x truncation") from exc
            if i == j and not cell.is_zero():
                raise ConfigError(
                    f"{label} must have zero diagonal (u_ii = 0), "
                    f"violated at entry {i+1}"
                )
            cells.append(cell)
        rows.append(cells)
    return MatSeries(rows)


def _parse_monomials(raw, order, ring: TimePoly, label: str) -> TimePoly:
    """The sum of the listed monomials in `ring`, each of total degree at
    most the ring's cap and with one exponent per tau variable.

    The exponents come in the order the file lists the variables; `order`
    lists, for each sorted variable, its place in the file, and `ring`
    holds the variables in the sorted order.
    """
    arity, n_t = len(order), ring.tmax
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
    return ring.from_monomials(out)


def _companion_key(key: str, n: int):
    """An "alpha,beta" key, 1 <= alpha != beta <= n, as a 0-based pair.
    Each pair has one spelling, so "01,2" cannot name the companion "1,2"
    names."""
    pair = [int(p) for p in key.split(",") if p.isascii() and p.isdigit()]
    if len(pair) != 2 or ",".join(map(str, pair)) != key:
        raise ConfigError(
            f'tau.companions keys must be "alpha,beta" channel pairs, got {key!r}'
        )
    alpha, beta = pair
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
        if data.get("tau") is None:
            tau = _default_tau(n, n_t, n_x)
        else:
            traw = _known(_object(data["tau"], "tau"),
                          ("variables", "monomials", "companions"), "tau.")
            raw_vars = _list(
                _required(traw, "variables", "tau.variables"), "tau.variables"
            )
            # the Miwa shift t_k -> t_k - z**-k / k divides by the order
            listed = [_parse_flow(p, n, "tau.variables", least=1)
                      for p in raw_vars]
            # the one place the tau time order is decided: sorted, so the
            # config hash does not depend on the listed order
            order = sorted(range(len(listed)), key=listed.__getitem__)
            variables = tuple(listed[k] for k in order)
            if not variables:
                raise ConfigError("tau.variables must name at least one time")
            if len(set(variables)) != len(variables):
                raise ConfigError(
                    f"tau.variables must be distinct, got {raw_vars!r}"
                )
            ring = TimePoly.zero(variables, n_t, n_x)
            tau_poly = _parse_monomials(
                _required(traw, "monomials", "tau.monomials"), order, ring,
                "tau.monomials",
            )
            if tau_poly.constant_term().is_zero():
                raise ConfigError(
                    "tau.monomials must have a nonzero constant term: "
                    "the Baker function divides by tau"
                )
            raw_companions = _object(traw.get("companions", {}), "tau.companions")
            companions = {
                _companion_key(key, n): _parse_monomials(
                    mons, order, ring, f"tau.companions[{key!r}]"
                )
                for key, mons in raw_companions.items()
            }
            tau = TauSpec(tau_poly, companions, n)
        lambda_max = _count(data.get("lambda_max", 2), "lambda_max")
        l_max = _count(data.get("l_max", 4), "l_max")
        q_sequence = tuple(
            _rational(v, f"q_sequence[{i}]") for i, v in
            enumerate(_list(data.get("q_sequence", []), "q_sequence"))
        )
        checks = _parse_checks(data.get("checks"))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    # model invariants, with messages naming the violated condition
    if len(a) != n:
        raise ConfigError(f"a must have n = {n} entries, got {len(a)}")
    try:
        # LaxData takes q = 1 as the classical structure; a config may not
        check_q(q, n_x)
        lax = LaxData(a, u, q)
        bilinear_lax = (lax if bilinear_u is None or bilinear_u == u
                        else LaxData(a, bilinear_u, q))
    except (AdmissibilityError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    for i, value in enumerate(q_sequence):
        try:
            check_q(value, n_x)
        except AdmissibilityError as exc:
            raise ConfigError(f"q_sequence[{i}]: {exc}") from exc
        # tau.classical_limit reads each norm ratio as q - 1 halves
        halved = 1 + (q_sequence[i - 1] - 1) / 2 if i else value
        if value != halved:
            raise ConfigError(
                f"q_sequence[{i}] must halve q - 1 of q_sequence[{i-1}]: "
                f"expected {frac_str(halved)}, got {frac_str(value)}"
            )
    if len(q_sequence) == 1:
        raise ConfigError(
            "q_sequence[1] is missing: a non-empty q_sequence needs at least "
            "2 entries to form a ratio"
        )
    return RunConfig(
        lax=lax, bilinear_lax=bilinear_lax, n_x=n_x, n_z=n_z, n_t=n_t,
        flows=flows, lambda_max=lambda_max, l_max=l_max, tau=tau,
        q_sequence=q_sequence, checks=checks,
        inject_corruption=inject_corruption,
    )


def load_config(path: str, inject_corruption: bool = False) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
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
