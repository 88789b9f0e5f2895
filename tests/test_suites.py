"""Check verdicts: a failing check names its first failure, never null."""

import json
import math
import sys
from pathlib import Path

import pytest

from qakns import hierarchy as hy
from qakns import qop, report
from qakns.config import DEMO_CONFIG, RunConfig, demo_config, parse_config
from qakns.matseries import MatSeries
from qakns.series import XSeries
from qakns.suites import (
    CHECKS,
    SuiteContext,
    check_u_flow,
    check_zero_curvature,
    run_suite,
)
from qakns.zseries import NEG_INF, MZSeries


def run_checks(*names):
    cfg = demo_config()
    cfg = type(cfg)(**{**cfg.__dict__, "checks": names})
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
    def reject_all(labelled):
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


def test_zero_curvature_reads_every_pair_from_one_flow_table(monkeypatch):
    # one table over the family forms each B_g and each d_g B_h once for all
    # three demo pairs
    ctx = SuiteContext(demo_config())
    ctx.family
    calls = {"table": 0, "product": 0, "dot": 0}
    real_product, real_dot = MZSeries.product, MatSeries.dot

    class CountedTable(hy.FlowTable):
        def __init__(self, family):
            calls["table"] += 1
            super().__init__(family)

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
    assert calls["dot"] <= 102


def test_zero_curvature_pairs_distinct_flows_only():
    # (f, f) is identically zero, so a pair always joins two flows; one flow
    # has no pair, and the params say so
    (res,) = run_checks("hierarchy.zero_curvature")
    assert res.params["pairs"] == ["(1,1)x(1,2)", "(1,1)x(2,1)", "(1,2)x(2,1)"]
    data = {**DEMO_CONFIG, "flows": [[1, 1]], "checks": ["hierarchy.zero_curvature"]}
    (res,) = run_suite(parse_config(data)).checks
    assert res.status == "pass"
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
    real_solve, real_lax = hy.solve_resolvent_direct, RunConfig.lax
    calls = {"solves": [], "classical_lax": 0}

    def solve(lax, alpha, depth, normalization="orthogonal"):
        calls["solves"].append((id(lax), alpha, depth, normalization))
        return real_solve(lax, alpha, depth, normalization)

    def lax(self, classical=False):
        calls["classical_lax"] += classical
        return real_lax(self, classical)

    monkeypatch.setattr(hy, "solve_resolvent_direct", solve)
    monkeypatch.setattr(RunConfig, "lax", lax)
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
    assert calls["classical_lax"] == 1


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
