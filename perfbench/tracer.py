"""Outside-in tracing of one qakns verification.

`Tracer.installed()` wraps the program's layer boundaries from outside:
carrier kernels (methods on XSeries, MatSeries, MZSeries, TimePoly), the
calculus functions the QCalc/ClassicalCalc methods delegate to, the
solver, pairing, bilinear and tau entry points, the suite checks and the
SuiteContext artifact builds. A module-level function is replaced under
every name that refers to it in any `qakns` module, so direct imports such
as `suites.dilate` are traced too. Every wrapper is removed on exit.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until `metrics()` folds them. Self time is a span's
duration minus that of its child spans. Count hooks (zero operands,
coefficient bit sizes, dropped blocks) run with the span clock paused, so
their cost lands in no layer's time.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

from qakns import bilinear, calculus, config, hierarchy, qop, report, suites
from qakns import tau as tau_mod
from qakns.matseries import MatSeries
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.zseries import NEG_INF, MZSeries

WRAPPED = "__perfbench_wrapped__"

ARTIFACT_KEYS = ("calc", "lax", "session", "blax", "dressing", "family", "tau_ctx")

# (owner, attribute, span name) of the kernels timed by self time
KERNELS = (
    (XSeries, "__mul__", "series.mul"),
    (XSeries, "__add__", "series.add"),
    (XSeries, "__sub__", "series.add"),
    (XSeries, "invert", "series.invert"),
    (MatSeries, "__matmul__", "matseries.matmul"),
    (MZSeries, "__mul__", "zseries.mul"),
    (MZSeries, "invert", "zseries.invert"),
    (TimePoly, "__mul__", "timepoly.mul"),
    (calculus, "q_derive", "calculus.derive"),
    (calculus, "x_derive", "calculus.derive"),
    (calculus, "q_antiderive", "calculus.antiderive"),
    (calculus, "x_antiderive", "calculus.antiderive"),
    (calculus, "dilate", "calculus.dilate"),
)

# module functions timed inclusively, reported as <module>.<function>.s
ENTRY_POINTS = (
    (qop, ("pairing_lhs", "pairing_rhs", "pairing_oracle")),
    (hierarchy, ("solve_resolvent_direct", "solve_dressing",
                 "verify_resolvent", "verify_zero_curvature")),
    (bilinear, ("check_q_bilinear", "adjoint_baker",
                "reconstruct_from_bilinear")),
    (tau_mod, ("taylor_agreement", "verify_tau_theorem", "verify_expqo",
               "classical_limit_check")),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _is_exact_zero(entry) -> bool:
    if isinstance(entry, XSeries):
        return not any(entry.coeffs)
    return not entry.terms


def metric_names() -> list[str]:
    """Every per-layer metric a traced run emits, in a fixed order."""
    names = [
        "series.mul.calls", "series.mul.self_s", "series.add.calls",
        "series.add.self_s", "series.invert.calls",
        "series.mul.zero_operand_frac", "series.coeff_bits_max",
        "matseries.matmul.calls", "matseries.matmul.self_s",
        "matseries.matmul.zero_entry_frac",
        "zseries.mul.calls", "zseries.mul.self_s", "zseries.mul.blocks",
        "zseries.mul.dropped_block_frac", "zseries.invert.calls",
        "zseries.invert.self_s",
        "timepoly.mul.calls", "timepoly.mul.self_s",
        "timepoly.mul.overflow_frac",
    ]
    for op in ("derive", "antiderive", "dilate"):
        names += [f"calculus.{op}.calls", f"calculus.{op}.self_s"]
    for module, functions in ENTRY_POINTS:
        for fn in functions:
            names += [f"{_layer(module)}.{fn}.s", f"{_layer(module)}.{fn}.calls"]
    names.append("hierarchy.session.hit_frac")
    names += [f"suites.check.{name}.s" for name, _ in suites.CHECKS]
    names += [f"suites.artifact.{key}.s" for key in ARTIFACT_KEYS]
    names += ["suites.ctx.hit_frac", "config.parse_s", "report.emit_s"]
    return names


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(
            ("mul_zero", "coeff_bits", "mat_entries", "mat_zero",
             "z_blocks", "z_dropped", "t_pairs", "t_overflow",
             "session_calls", "session_hits", "ctx_calls", "ctx_hits"), 0)

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _wrap(self, fn, name: str, hook=None):
        name_id = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(perf_counter() - self._paused)
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter() - self._paused
                stack.pop()
            if hook is not None:
                t0 = perf_counter()
                hook(idx, args, result)
                self._paused += perf_counter() - t0
            return result

        setattr(wrapper, WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- count hooks ---------------------------------------------------------

    def _series_mul(self, idx, args, result):
        c = self.counts
        a, b = args
        if not any(a.coeffs) or not any(b.coeffs):
            c["mul_zero"] += 1
        bits = c["coeff_bits"]
        for v in result.coeffs:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        c["coeff_bits"] = bits

    def _matmul(self, idx, args, result):
        a, b = args
        n = a.n
        zero_a = [sum(_is_exact_zero(a.rows[i][k]) for i in range(n)) for k in range(n)]
        zero_b = [sum(_is_exact_zero(e) for e in b.rows[k]) for k in range(n)]
        live = sum((n - za) * (n - zb) for za, zb in zip(zero_a, zero_b))
        self.counts["mat_entries"] += n ** 3
        self.counts["mat_zero"] += n ** 3 - live

    def _zmul(self, idx, args, result):
        a, b = args
        blocks = len(a.terms) * len(b.terms)
        self.counts["z_blocks"] += blocks
        if result.zvalid != NEG_INF:
            self.counts["z_dropped"] += sum(
                1 for da in a.terms for db in b.terms if da + db < result.zvalid
            )

    def _tmul(self, idx, args, result):
        a, b = args
        da = [sum(e) for e in a.terms]
        db = [sum(e) for e in b.terms]
        self.counts["t_pairs"] += len(da) * len(db)
        self.counts["t_overflow"] += sum(
            1 for x in da for y in db if x + y > a.tmax
        )

    def _session_resolvent(self, idx, args, result):
        self.counts["session_calls"] += 1
        solver = self._ids["hierarchy.solve_resolvent_direct"]
        if solver not in self.span_name[idx + 1:]:
            self.counts["session_hits"] += 1

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name, hook=None):
        """Replace `fn` under every name bound to it in a qakns module."""
        wrapper = self._wrap(fn, name, hook)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qakns" and not mod_name.startswith("qakns."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _install(self):
        hooks = {
            (XSeries, "__mul__"): self._series_mul,
            (MatSeries, "__matmul__"): self._matmul,
            (MZSeries, "__mul__"): self._zmul,
            (TimePoly, "__mul__"): self._tmul,
        }
        for owner, attr, name in KERNELS:
            fn = getattr(owner, attr)
            hook = hooks.get((owner, attr))
            if isinstance(owner, type):
                self._set(owner, attr, self._wrap(fn, name, hook))
            else:
                self._patch_function(fn, name, hook)
        for module, functions in ENTRY_POINTS:
            for fn in functions:
                self._patch_function(
                    getattr(module, fn), f"{_layer(module)}.{fn}"
                )
        self._set(
            hierarchy.HierarchySession, "resolvent",
            self._wrap(hierarchy.HierarchySession.resolvent,
                       "hierarchy.session.resolvent", self._session_resolvent),
        )
        self._install_context()
        self._patch_function(config.parse_config, "config.parse")
        self._patch_function(report.emit_report, "report.emit")
        self._set(suites, "CHECKS", [
            (name, self._wrap(fn, f"suites.check.{name}"))
            for name, fn in suites.CHECKS
        ])

    def _install_context(self):
        get = suites.SuiteContext.get
        builds = {}
        counts = self.counts

        def traced_get(ctx, key, builder):
            counts["ctx_calls"] += 1
            if key in ctx._cache:
                counts["ctx_hits"] += 1
                return get(ctx, key, builder)
            build = builds.get(key)
            if build is None:
                build = builds[key] = self._wrap(get, f"suites.artifact.{key}")
            return build(ctx, key, builder)

        setattr(traced_get, WRAPPED, get)
        self._set(suites.SuiteContext, "get", traced_get)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self.uninstall()

    # -- folding -----------------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        """Fold the recorded spans and counts into the per-layer metrics."""
        n = len(self.span_name)
        names = {i: name for name, i in self._ids.items()}
        dur = array("d", (self.span_end[i] - self.span_start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        check_s = self._check_times(names, dur)

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        derived = {
            "series.mul.zero_operand_frac": frac(c["mul_zero"], calls.get("series.mul", 0)),
            "series.coeff_bits_max": c["coeff_bits"],
            "matseries.matmul.zero_entry_frac": frac(c["mat_zero"], c["mat_entries"]),
            "zseries.mul.blocks": c["z_blocks"],
            "zseries.mul.dropped_block_frac": frac(c["z_dropped"], c["z_blocks"]),
            "timepoly.mul.overflow_frac": frac(c["t_overflow"], c["t_pairs"]),
            "hierarchy.session.hit_frac": frac(c["session_hits"], c["session_calls"]),
            "suites.ctx.hit_frac": frac(c["ctx_hits"], c["ctx_calls"]),
            "config.parse_s": total.get("config.parse", 0.0),
            "report.emit_s": total.get("report.emit", 0.0),
        }
        out = {}
        for metric in metric_names():
            if metric in derived:
                out[metric] = derived[metric]
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(span, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif span.startswith("suites.check."):
                out[metric] = check_s.get(span, 0.0)
            else:
                out[metric] = total.get(span, 0.0)
        return out

    def _check_times(self, names, dur) -> dict[str, float]:
        """Check span time minus the artifact builds it triggered."""
        out = {}
        for i in range(len(self.span_name)):
            name = names[self.span_name[i]]
            if name.startswith("suites.check."):
                out[name] = out.get(name, 0.0) + dur[i]
            elif name.startswith("suites.artifact."):
                p = self.span_parent[i]
                while p >= 0:
                    owner = names[self.span_name[p]]
                    if owner.startswith("suites.artifact."):
                        break
                    if owner.startswith("suites.check."):
                        out[owner] = out.get(owner, 0.0) - dur[i]
                        break
                    p = self.span_parent[p]
        return out


def installed_wrappers() -> list[str]:
    """Names of qakns attributes that are still perfbench wrappers."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qakns" and not mod_name.startswith("qakns."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                for cattr, cval in vars(value).items():
                    if hasattr(cval, WRAPPED):
                        found.append(f"{mod_name}.{attr}.{cattr}")
        if mod_name == "qakns.suites":
            found += [f"suites.CHECKS[{n}]" for n, fn in module.CHECKS
                      if hasattr(fn, WRAPPED)]
    return found
