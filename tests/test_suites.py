"""Check verdicts: a failing check names its first failure, never null."""

import math
import sys

import pytest

from qakns import hierarchy as hy
from qakns import qop, report
from qakns.config import demo_config
from qakns.matseries import MatSeries
from qakns.suites import SuiteContext, check_u_flow, check_zero_curvature, run_suite
from qakns.zseries import NEG_INF, MZSeries


def run_checks(*names):
    cfg = demo_config()
    cfg = type(cfg)(**{**cfg.__dict__, "checks": names})
    return run_suite(cfg).checks


@pytest.fixture
def broken_oracle(monkeypatch):
    real = qop.pairing_oracle

    def oracle(p, q_op, a_values, factors=None):
        good = real(p, q_op, a_values, factors)
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
    # six demo pairs; a table per pair makes 36 products and 236 dot calls
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
    assert res.status == "pass" and len(res.params["pairs"]) == 6
    assert calls["table"] == 1
    assert calls["product"] <= 24
    assert calls["dot"] <= 140


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
