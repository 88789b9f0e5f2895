"""Check verdicts: a failing check names its first failure, never null."""

import json
import math
import sys
from pathlib import Path

import pytest

from qakns import bilinear as bl
from qakns import hierarchy as hy
from qakns import qop, report
from qakns import tau as tau_mod
from qakns.config import DEMO_CONFIG, demo_config, parse_config
from qakns.matseries import MatSeries
from qakns.scalars import frac
from qakns.series import XSeries
from qakns.suites import (
    CHECKS,
    SuiteContext,
    check_u_flow,
    check_zero_curvature,
    run_suite,
)
from qakns.zseries import NEG_INF, MZSeries, derive_through


def run_checks(*names):
    cfg = demo_config()
    cfg = cfg.with_checks(names)
    return run_suite(cfg).checks


@pytest.fixture
def broken_oracle(monkeypatch):
    real = qop.pairing_oracle

    def oracle(p, g, a_values, q, factors=None):
        good = real(p, g, a_values, q, factors)
        return good + type(good).identity(good.n, good.proto())

    monkeypatch.setattr(qop, "pairing_oracle", oracle)


def test_oracle_mismatch_alone_has_a_witness(broken_oracle):
    # the other routes agree, so the oracle residual is the only failure
    (res,) = run_checks("pairing.oracle_examples")
    assert res.status == "fail"
    assert res.first_failure is not None
    assert res.first_failure["coordinates"][0] == "oracle"


def test_random_pairs_oracle_witness_is_complete(broken_oracle):
    (res,) = run_checks("pairing.random_pairs")
    assert res.status == "fail"
    coords = res.first_failure["coordinates"]
    assert coords[:2] == ["0", "oracle"] and "None" not in coords


def test_qr_residual_names_the_first_failing_channel(monkeypatch):
    # the resolvent itself is a nonzero residual in every channel
    monkeypatch.setattr(hy, "verify_resolvent", lambda lax, r: r)
    (res,) = run_checks("hierarchy.qr_residual")
    assert res.status == "fail"
    # channel, then z-degree, entry (i, j), x-degree and value
    coords = res.first_failure["coordinates"]
    assert coords[0] == "0" and len(coords) == 6


def test_basis_expansion_witness_is_the_remainder_outside_the_span(monkeypatch):
    # a remainder with one nonzero entry: 7/5 x**2 at z**-3, row 0, column 1
    proto = XSeries.zero(8)
    bad = MatSeries([[proto, XSeries.monomial(frac("7/5"), 2, 8)],
                     [proto, proto]])
    remainder = MZSeries(2, {-3: bad}, -5)

    def expand(s, family):
        return {(0, 2): frac("-1/4")}, remainder

    monkeypatch.setattr(hy, "expand_in_basis", expand)
    (res,) = run_checks("hierarchy.basis_expansion")
    assert res.status == "fail"
    # z-degree, entry (i, j), x-degree and value
    assert res.first_failure == {"coordinates": ["-3", "0", "1", "2", "7/5"]}
    assert res.params == {"constants": {"b1,z-2": "-1/4"}}


def test_every_route_agreement_check_is_the_one_writer(monkeypatch):
    from qakns import suites

    depths = []
    real = suites._route_agreement

    def recording(dressing, session, depth):
        depths.append(depth)
        return real(dressing, session, depth)

    monkeypatch.setattr(suites, "_route_agreement", recording)
    results = run_checks("hierarchy.first_order_routes",
                         "dressing.route_agreement",
                         "classical.route_agreement")
    assert [r.status for r in results] == ["pass"] * 3
    assert depths == [1, 7, 5]
    # each record reports the depth and the z it compared
    for res, depth in zip(results, depths):
        assert res.params == {"depth": depth}, res.name
        assert res.max_degree_verified == {"z": depth}, res.name


def test_gatekeeping_fails_when_the_non_solution_is_not_rejected(monkeypatch):
    monkeypatch.setattr(tau_mod, "verify_tau_theorem", lambda *args: [])
    (res,) = run_checks("tau.gatekeeping")
    assert res.status == "fail"
    assert res.first_failure == {
        "coordinates": ["a non-solution passed the classical precheck"]}


def test_classical_limit_fails_when_the_linear_case_does_not_vanish(monkeypatch):
    # every ratio inside the window, every norm nonzero: only the linear
    # case, which must vanish exactly, fails
    def limit(poly, a_values, qs):
        return [1] * len(qs), [frac("1/2")] * len(qs)

    monkeypatch.setattr(tau_mod, "classical_limit_check", limit)
    (res,) = run_checks("tau.classical_limit")
    assert res.status == "fail"
    assert res.first_failure == {
        "coordinates": ["linear", "expected exact vanishing"]}


def test_tau_checks_run_on_the_default_times_without_a_tau():
    cfg = parse_config({**DEMO_CONFIG, "tau": None, "checks": None})
    results = run_suite(cfg, ["tau."]).checks
    assert [r.name for r in results] == [
        name for name, _ in CHECKS if name.startswith("tau.")]
    assert all(r.status == "pass" for r in results)
    (theorem,) = [r for r in results if r.name == "tau.theorem"]
    assert theorem.params == {"lambdas": 4, "lambda_max": 1, "l_max": 3}


def test_dressing_factorization_reads_its_z_window_off_the_residual():
    # x**3 above the diagonal: the depth-2 dressing does not terminate
    cfg = parse_config({
        **DEMO_CONFIG, "l_max": 0, "lambda_max": 0,
        "bilinear_u": [[["0"], ["0", "0", "0", "1"]], [["0"], ["0"]]],
        "checks": ["dressing.factorization"],
    })
    (res,) = run_suite(cfg).checks
    assert res.status == "pass" and res.params == {"depth": 2}
    assert res.max_degree_verified == {"z": 1}
    ctx = SuiteContext(cfg)
    lax, w = ctx.bilinear_lax, ctx.dressing.w
    assert w.zvalid == -2
    a_z = MZSeries.from_term(lax.n, 1, lax.a_mat())
    residual = derive_through(w, a_z, lax.derive, lax.dilate) + (
        lax.u_minus_za() * w)
    assert res.max_degree_verified["z"] == -residual.zvalid


def test_oracle_factors_are_built_once_per_run(monkeypatch):
    builds = {}
    real = qop.exp_q_laurent

    def counted(a_values, q, order, sign=+1, *rest):
        key = (tuple(a_values), q, order, sign)
        builds[key] = builds.get(key, 0) + 1
        return real(a_values, q, order, sign, *rest)

    monkeypatch.setattr(qop, "exp_q_laurent", counted)
    results = run_checks("pairing.oracle_examples", "pairing.random_pairs")
    assert all(r.status == "pass" for r in results)
    # the scalar a = (1) is shared by both checks, the demo a by one
    assert len(builds) == 4 and set(builds.values()) == {1}


def test_bilinear_and_tau_checks_decide_through_the_one_verdict(monkeypatch):
    # a verdict that rejects every residual: each check that decides through
    # report.nonzero must then fail, and name a witness
    def reject_all(labelled, windows=None):
        return ((label, "rejected") for label, _ in labelled)

    verdict = report.nonzero
    for name, module in list(sys.modules.items()):
        if name.startswith("qakns") and getattr(module, "nonzero", None) is verdict:
            monkeypatch.setattr(module, "nonzero", reject_all)
    names = ("bilinear.qb1", "classical.bilinear", "tau.expqo", "tau.theorem",
             "tau.mechanism_agreement")
    results = {r.name: r for r in run_checks(*names)}
    assert set(results) == set(names)
    for res in results.values():
        assert res.status == "fail", res.name
        assert "rejected" in str(res.first_failure), res.name


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _deepest_l(labels):
    """The deepest z-degree, l_max + 1, that residues labelled by l read: a
    bilinear label reads `l=2 m=0 lam=[...]`, a Taylor label (2, ...)."""
    return 1 + max(int(label.split()[0][2:]) if isinstance(label, str)
                   else label[0] for label in labels)


@pytest.mark.parametrize("config", ["demo.json", "tau_rational.json"])
def test_every_window_is_read_off_the_residuals(monkeypatch, config):
    # each check's max_degree_verified is the fold of the residuals it
    # handed to the verdict, and a z-range is the deepest degree it read
    from qakns import suites

    handed, seen = {}, []
    real_result = suites._result

    def recording(params, residuals=(), z=None, failures=()):
        residuals = list(residuals)
        seen.append((residuals, z))
        return real_result(params, residuals, z, failures)

    def named(name, fn):
        def run(ctx):
            seen.clear()
            res = fn(ctx)
            (handed[name],) = seen
            return res
        return run

    expansions, expqo_depths, in_expqo = [], [], [0]
    real_expand, real_exp = hy.expand_in_basis, tau_mod.graded_exp
    real_expqo = tau_mod.verify_expqo

    def expand(s, family):
        expansions.append(s)
        return real_expand(s, family)

    def graded_exp(gens, depth):
        # the Taylor sum's z-exponentials read no z-range
        if in_expqo[0]:
            expqo_depths.append(depth)
        return real_exp(gens, depth)

    def verify_expqo(*args):
        in_expqo[0] += 1
        try:
            return real_expqo(*args)
        finally:
            in_expqo[0] -= 1

    monkeypatch.setattr(suites, "_result", recording)
    monkeypatch.setattr(suites, "CHECKS",
                        [(name, named(name, fn)) for name, fn in CHECKS])
    monkeypatch.setattr(hy, "expand_in_basis", expand)
    monkeypatch.setattr(tau_mod, "graded_exp", graded_exp)
    monkeypatch.setattr(tau_mod, "verify_expqo", verify_expqo)
    data = json.loads((CONFIGS / config).read_text())
    results = run_suite(parse_config({**data, "checks": None})).checks
    monkeypatch.undo()

    assert all(r.status == "pass" for r in results)
    for res in results:
        if res.name not in handed:  # idle: answered with its note
            assert res.max_degree_verified == {}, res.name
            continue
        residuals, z = handed[res.name]
        windows = {} if z is None else {"z": z}
        assert not any(report.nonzero(residuals, windows)), res.name
        assert res.max_degree_verified == windows, res.name
    z_ranges = {name: z for name, (_, z) in handed.items() if z is not None}
    assert set(z_ranges) == {
        "bilinear.qb1", "classical.bilinear", "tau.theorem",
        "tau.mechanism_agreement", "tau.expqo"}
    for name in ("bilinear.qb1", "classical.bilinear",
                 "tau.mechanism_agreement"):
        labels = [label for label, _ in handed[name][0]]
        assert z_ranges[name] == _deepest_l(labels), name
    for stage in ("q_bilinear", "taylor"):
        labels = [label for (tag, label), _ in handed["tau.theorem"][0]
                  if tag == stage]
        assert z_ranges["tau.theorem"] == _deepest_l(labels), stage
    # the expansion's remainder carries the window of the series expanded
    (s,) = expansions
    (basis,) = [r for r in results if r.name == "hierarchy.basis_expansion"]
    assert basis.max_degree_verified == {"z": -s.zvalid}
    assert z_ranges["tau.expqo"] == max(expqo_depths)
    if config == "tau_rational.json":
        # the shift theorem's residuals are determined through total
        # t-degree 1 and x-degree 3, whatever the t and x truncations
        (theorem,) = [r for r in results if r.name == "tau.theorem"]
        assert theorem.max_degree_verified == {"z": 3, "t": 1, "x": 3}


def test_a_corruption_run_corrupts_and_inverts_once(monkeypatch):
    # qb1, reconstruct_roundtrip and corruption_detected read one corrupted
    # dressing; the parent revision built 3 and inverted 4 times
    calls = {"corrupt": 0, "invert": 0}
    real_corrupt, real_invert = bl.inject_corruption, MZSeries.invert

    def corrupt(*args):
        calls["corrupt"] += 1
        return real_corrupt(*args)

    def invert(self, floor):
        calls["invert"] += 1
        return real_invert(self, floor)

    monkeypatch.setattr(bl, "inject_corruption", corrupt)
    monkeypatch.setattr(MZSeries, "invert", invert)
    report = run_suite(demo_config(True), ["bilinear."])
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["bilinear.corruption_detected"] == "pass"
    assert by_name["bilinear.qb1"] == "fail"
    # the corrupted dressing's inverse, and the solver dressing's for the
    # adjoint check
    assert calls == {"corrupt": 1, "invert": 2}


def test_zero_curvature_reads_every_pair_from_one_flow_table(monkeypatch):
    # one table over the family forms each B_g and each d_g B_h once for all
    # three demo pairs, and each flow derivative only from the degree that
    # the deepest pair reads
    ctx = SuiteContext(demo_config())
    ctx.family
    calls = {"table": 0, "product": 0, "dot": 0}
    real_product, real_dot = MZSeries.product, MatSeries.dot

    class CountedTable(hy.FlowTable):
        def __init__(self, *args):
            calls["table"] += 1
            super().__init__(*args)

    def product(self, other, lo=NEG_INF, hi=math.inf):
        calls["product"] += 1
        return real_product(self, other, lo, hi)

    def dot(blocks):
        calls["dot"] += 1
        return real_dot(blocks)

    monkeypatch.setattr(hy, "FlowTable", CountedTable)
    monkeypatch.setattr(MZSeries, "product", product)
    monkeypatch.setattr(MatSeries, "dot", staticmethod(dot))
    res = check_zero_curvature(ctx)
    monkeypatch.undo()
    assert res.status == "pass" and len(res.params["pairs"]) == 3
    assert calls["table"] == 1
    assert calls["product"] <= 16
    assert calls["dot"] <= 62


def test_zero_curvature_pairs_distinct_flows_only():
    # (f, f) is identically zero, so a pair always joins two flows; one flow
    # has no pair, and the params say so
    (res,) = run_checks("hierarchy.zero_curvature")
    assert res.params["pairs"] == ["(1,1)x(1,2)", "(1,1)x(2,1)", "(1,2)x(2,1)"]
    data = {**DEMO_CONFIG, "flows": [[1, 1]],
            "checks": ["hierarchy.zero_curvature", "qcalc.expq_log_form"]}
    _, res = run_suite(parse_config(data)).checks
    assert res.name == "hierarchy.zero_curvature" and res.status == "pass"
    assert res.params == {"note": "fewer than two flows configured"}


def test_power_additivity_derives_each_power_once(monkeypatch):
    # D**m D**n for m, n <= 2 reaches the powers 0..4: one running derivative
    # per sample takes 4 steps
    import qakns.suites as suites

    calls = [0]
    real = suites.q_derive

    def counted(s, q):
        calls[0] += 1
        return real(s, q)

    monkeypatch.setattr(suites, "q_derive", counted)
    (res,) = run_checks("qcalc.power_additivity")
    assert res.status == "pass" and calls[0] == 4 * 4
    # a broken derivation names the power it failed at
    monkeypatch.setattr(suites, "q_derive", lambda s, q: real(s, q).scale(2))
    (res,) = run_checks("qcalc.power_additivity")
    assert res.first_failure["coordinates"][0] == "1"


def test_expq_eigenvalue_checks_each_eigenvalue_once(monkeypatch):
    # the demo's a_1 is 1, the first fixed eigenvalue: two series, not three
    import qakns.suites as suites

    seen = []
    real = suites.exp_q_series

    def recorded(c, q, order):
        seen.append(c)
        return real(c, q, order)

    monkeypatch.setattr(suites, "exp_q_series", recorded)
    (res,) = run_checks("qcalc.expq_eigenvalue")
    assert res.status == "pass" and seen == [1, -2]


def test_u_flow_depth_shortage_is_an_error(monkeypatch):
    # a resolvent known only at z**0 (solved to depth 0) cannot decide the
    # flow's nonnegative part: that is a depth shortage, reported as ERROR,
    # not as a violated flow
    from qakns.zseries import InsufficientDepthError

    class Shallow(hy.HierarchySession):
        def resolvent(self, alpha, depth, normalization="orthogonal"):
            return super().resolvent(alpha, 0, normalization)

    ctx = SuiteContext(demo_config())
    ctx._cache["session"] = Shallow(ctx.lax)
    with pytest.raises(InsufficientDepthError, match="not fully determined"):
        check_u_flow(ctx)
    monkeypatch.setattr(hy, "HierarchySession", Shallow)
    (res,) = run_checks("hierarchy.u_flow_structure")
    assert res.status == "error"
    assert res.first_failure["error"].startswith("InsufficientDepthError: ")


@pytest.mark.parametrize("name", ["pairing.nonneg_zero", "pairing.oracle_examples"])
def test_zero_pairings_are_computed_by_the_oracle(monkeypatch, name):
    # no pair of the band [0, 2], nor of two identities, has k + l = -1, so
    # the symbol sum forms no product; the oracle forms every pair, and an
    # oracle broken on zero pairings fails the check
    real = qop.pairing_oracle

    def oracle(p, g, a_values, q, factors=None):
        good = real(p, g, a_values, q, factors)
        return good + type(good).identity(good.n, good.proto()) if good.is_zero() else good

    monkeypatch.setattr(qop, "pairing_oracle", oracle)
    (res,) = run_checks(name)
    assert res.status == "fail" and res.first_failure["coordinates"][0] == "oracle"


def test_nonneg_zero_forms_products(monkeypatch):
    calls = [0]
    real = MatSeries.dot

    def dot(blocks):
        calls[0] += 1
        return real(blocks)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(dot))
    (res,) = run_checks("pairing.nonneg_zero")
    assert res.status == "pass" and calls[0] > 0


def test_pairing_checks_do_not_call_the_operator_side_route(monkeypatch):
    # pairing_rhs forms the products pairing_lhs sums, so it checks nothing
    def forbidden(*args):
        raise AssertionError("pairing_rhs called")

    monkeypatch.setattr(qop, "pairing_rhs", forbidden)
    results = run_checks("pairing.oracle_examples", "pairing.random_pairs",
                         "pairing.nonneg_zero")
    assert [r.status for r in results] == ["pass"] * 3


DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.json"

# an n = 3 x-dependent potential running the solver checks only
SOLVERS_N3 = {
    "n": 3, "q": "1/3", "a": ["1", "-1", "2"],
    "u": [[["0"], ["-2"], ["0", "-2"]], [["-1"], ["0"], ["1"]],
          [["0", "-2"], ["1"], ["0"]]],
    "bilinear_u": [[["0"], ["0", "2"], ["2"]], [["0"], ["0"], ["0", "-2"]],
                   [["0"], ["0"], ["0"]]],
    "truncations": {"x": 8, "z": 6, "t": 4},
    "flows": [[1, 1], [1, 2], [2, 1]], "lambda_max": 2, "l_max": 4,
    "tau": None, "q_sequence": [],
    "checks": [name for name, _ in CHECKS if name.startswith(
        ("hierarchy.", "dressing.", "bilinear.", "classical."))],
}


def _counted_run(monkeypatch, data, checks=None):
    """run_suite on `data`, recording every direct resolvent solve as
    (Lax datum, channel, depth, normalization) and every classical Lax
    datum built."""
    real_solve, real_init = hy.solve_resolvent_direct, hy.LaxData.__init__
    calls = {"solves": [], "classical_lax": 0}

    def solve(lax, alpha, depth, normalization="orthogonal"):
        calls["solves"].append((id(lax), alpha, depth, normalization))
        return real_solve(lax, alpha, depth, normalization)

    def init(self, a, u, q):
        real_init(self, a, u, q)
        calls["classical_lax"] += self.classical

    monkeypatch.setattr(hy, "solve_resolvent_direct", solve)
    monkeypatch.setattr(hy.LaxData, "__init__", init)
    if checks is not None:
        data = {**data, "checks": checks}
    run_suite(parse_config(data))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("data, solves", [
    (json.loads(DEMO.read_text()), 8), (SOLVERS_N3, 12),
], ids=["demo", "solvers_n3"])
def test_each_resolvent_is_solved_once_per_run(monkeypatch, data, solves):
    # one session per Lax datum, each (channel, normalization) solved at the
    # deepest depth any check requests; the parent revision solved 13 and 19
    calls = _counted_run(monkeypatch, data)
    keys = [(lax, alpha, norm) for lax, alpha, _, norm in calls["solves"]]
    assert len(keys) == solves and len(set(keys)) == solves
    # one q = 1 counterpart per potential: u's and bilinear_u's
    assert calls["classical_lax"] == 2


def test_a_config_without_bilinear_u_solves_its_datum_once(monkeypatch):
    # with no bilinear_u the dressing checks read the datum of u itself, so
    # its resolvents come from the one session: 6 solves over the q and
    # q = 1 data, where a second copy of the datum would take 8 over 3
    data = json.loads(DEMO.read_text())
    data = {**data, "u": data["bilinear_u"], "bilinear_u": None}
    cfg = parse_config(data)
    assert cfg.bilinear_lax is cfg.lax
    calls = _counted_run(monkeypatch, data)
    assert len(calls["solves"]) == 6
    assert len({lax for lax, *_ in calls["solves"]}) == 2


def test_a_bilinear_u_equal_to_u_is_the_same_datum(monkeypatch):
    # equal by value, though spelled with a trailing zero: one datum, one
    # session, and the hash of the null spelling
    data = json.loads(DEMO.read_text())
    data = {**data, "u": data["bilinear_u"], "bilinear_u": None}
    spelled = {**data, "bilinear_u": [[["0"], ["0", "1", "0"]], [["0"], ["0"]]]}
    cfg = parse_config(spelled)
    assert cfg.bilinear_lax is cfg.lax
    assert cfg.canonical_json() == parse_config(data).canonical_json()
    calls = _counted_run(monkeypatch, spelled)
    assert len(calls["solves"]) == 6
    assert len({lax for lax, *_ in calls["solves"]}) == 2


GOLDEN_N3 = Path(__file__).resolve().parent / "golden" / "solvers_n3.config.json"


@pytest.mark.parametrize("path, failing", [
    (DEMO, {"hierarchy.orthogonality", "classical.route_agreement"}),
    (GOLDEN_N3, {"hierarchy.orthogonality", "hierarchy.partition_of_identity",
                 "classical.route_agreement"}),
], ids=["demo", "solvers_n3"])
def test_a_wrong_idempotent_lift_is_seen(monkeypatch, path, failing):
    # the lift's constants with their sign flipped. dressing.route_agreement
    # cannot see it on these configs: it runs on their strictly triangular
    # bilinear_u, where every lift constant is zero, so it must still pass
    real = hy._idempotent_repair

    def flipped(alpha, lift, rho, prior):
        return rho + (rho - real(alpha, lift, rho, prior))

    monkeypatch.setattr(hy, "_idempotent_repair", flipped)
    watched = ["hierarchy.orthogonality", "hierarchy.partition_of_identity",
               "dressing.route_agreement", "classical.route_agreement"]
    data = {**json.loads(path.read_text()), "checks": watched}
    statuses = {r.name: r.status for r in run_suite(parse_config(data)).checks}
    assert statuses == {name: "fail" if name in failing else "pass"
                        for name in watched}


@pytest.mark.parametrize("data", [json.loads(DEMO.read_text()), SOLVERS_N3],
                         ids=["demo", "solvers_n3"])
def test_classical_route_agreement_reads_the_qr_solve(monkeypatch, data):
    alone = _counted_run(monkeypatch, data, ["classical.route_agreement"])
    both = _counted_run(monkeypatch, data,
                        ["classical.qr_residual", "classical.route_agreement"])
    qr = _counted_run(monkeypatch, data, ["classical.qr_residual"])
    n = data["n"]
    assert len(alone["solves"]) == len(qr["solves"]) == n
    # after the qr check, the route agreement solves nothing
    assert len(both["solves"]) == n and both["classical_lax"] == 1


def _exact_zero(s):
    return s.is_zero() and s.is_exact


def _count_dot_pairs(monkeypatch, owner, attr):
    """Count the pairs that `XSeries.dot` receives while `owner.attr` runs,
    and those with an exact-zero operand."""
    counts = {"pairs": 0, "zero": 0}
    inside = [0]
    real_dot, real_fn = XSeries.dot, getattr(owner, attr)

    def dot(pairs):
        pairs = list(pairs)
        if inside[0]:
            counts["pairs"] += len(pairs)
            counts["zero"] += sum(_exact_zero(a) or _exact_zero(b) for a, b in pairs)
        return real_dot(pairs)

    def traced(*args, **kwargs):
        inside[0] += 1
        try:
            return real_fn(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(XSeries, "dot", staticmethod(dot))
    monkeypatch.setattr(owner, attr, staticmethod(traced) if owner is MatSeries
                        else traced)
    return counts


def test_solver_products_form_no_exact_zero_pair(monkeypatch):
    # the parent revision passed 42,459 such pairs of 57,294 on solvers_n3
    counts = _count_dot_pairs(monkeypatch, MatSeries, "dot")
    run_suite(parse_config(SOLVERS_N3))
    assert counts["pairs"] > 0 and counts["zero"] == 0


def test_pairing_oracle_forms_no_exact_zero_pair(monkeypatch):
    # the parent revision passed 2,560 such pairs of 3,238
    counts = _count_dot_pairs(monkeypatch, qop, "pairing_oracle")
    results = run_checks("pairing.oracle_examples", "pairing.random_pairs",
                         "pairing.nonneg_zero")
    assert [r.status for r in results] == ["pass"] * 3
    assert counts["pairs"] > 0 and counts["zero"] == 0


@pytest.mark.parametrize("config", [
    CONFIGS / "demo.json", GOLDEN_N3.parent / "deep_x.config.json",
    CONFIGS / "tau_rational.json"], ids=["demo", "deep_x", "tau_rational"])
def test_taylor_sum_forms_no_exact_zero_pair(monkeypatch, config):
    # the parent revision passed 62, 230 and 26 such pairs
    counts = _count_dot_pairs(monkeypatch, tau_mod, "taylor_sum")
    data = json.loads(config.read_text())
    results = run_suite(parse_config({**data, "checks": None})).checks
    assert all(r.status == "pass" for r in results)
    assert counts["pairs"] > 0 and counts["zero"] == 0
