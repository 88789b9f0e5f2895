"""The measuring tools: the code-line counter that measures the size of
src/qakns, and the kernel operation counts of a run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _counter():
    return _tool().code_lines


def test_counts_code_only():
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
        that is code"""
        return (text,
                os.sep)
'''
    # import, class, def, the two lines of `text`, the two of `return`
    assert _counter()(source) == 7


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"]])
def test_usage_exits_2(argv, capsys):
    assert _tool().main(argv) == 2
    assert "python3 tools/code_lines.py src/qakns" in capsys.readouterr().err


def test_missing_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert _tool().main([str(TOOL), str(missing)]) == 2
    captured = capsys.readouterr()
    assert str(missing) in captured.err and captured.out == ""


def _op_counts():
    path = TOOL.parent / "op_counts.py"
    spec = importlib.util.spec_from_file_location("op_counts", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_op_counts_repeat_and_leave_no_wrapper():
    from qakns import suites
    from qakns.config import demo_config
    from qakns.matseries import MatSeries
    from qakns.series import XSeries
    from qakns.zseries import MZSeries

    tool = _op_counts()
    before = (XSeries.__dict__["dot"], MatSeries.__dict__["dot"],
              MZSeries.__dict__["product"], list(suites.CHECKS))
    cfg = demo_config()
    # pairing.oracle_examples and tau.expqo call MZSeries.product with a
    # keyword, which the wrapper forwards; bilinear.corruption_detected is
    # idle without --inject-corruption, so run_suite never calls it
    cfg = cfg.with_checks((
        "pairing.oracle_examples", "hierarchy.qr_residual",
        "hierarchy.zero_curvature", "bilinear.qb1",
        "bilinear.corruption_detected", "tau.expqo"))
    first = tool.op_counts(cfg)
    assert first == tool.op_counts(cfg)
    assert list(first) == list(cfg.checks)
    assert all(status == "pass" for status, _ in first.values())
    assert all(calls > 0 for calls in first["hierarchy.zero_curvature"][1])
    assert all(calls > 0 for calls in first["tau.expqo"][1])
    assert first["bilinear.corruption_detected"] == ("pass", (0, 0, 0, 0))
    after = (XSeries.__dict__["dot"], MatSeries.__dict__["dot"],
             MZSeries.__dict__["product"], list(suites.CHECKS))
    assert all(a is b for a, b in zip(before[:3], after[:3]))
    assert before[3] == after[3]


def test_op_counts_restores_the_kernels_when_a_check_raises(monkeypatch):
    from qakns import suites
    from qakns.config import demo_config
    from qakns.series import XSeries

    def broken(ctx):
        XSeries.one(2) * XSeries.one(2)
        raise KeyError("boom")

    real = XSeries.__dict__["dot"]
    monkeypatch.setattr(suites, "run_suite", lambda cfg: broken(None))
    with pytest.raises(KeyError):
        _op_counts().op_counts(demo_config())
    assert XSeries.__dict__["dot"] is real


def test_op_counts_exits_1_naming_a_check_that_ends_in_error(
        monkeypatch, tmp_path, capsys):
    from qakns import suites

    def broken(ctx):
        raise KeyError("boom")

    checks = [(name, broken if name == "qcalc.leibniz_forms" else fn)
              for name, fn in suites.CHECKS]
    monkeypatch.setattr(suites, "CHECKS", checks)
    path = tmp_path / "cfg.json"
    data = json.loads((ROOT / "configs" / "demo.json").read_text())
    data["checks"] = ["qcalc.leibniz_forms", "qcalc.expq_reciprocal"]
    path.write_text(json.dumps(data))
    assert _op_counts().main([str(path)]) == 1
    captured = capsys.readouterr()
    assert "1 check(s) ended in error: qcalc.leibniz_forms" in captured.err
    rows = {line.split()[0]: line.split()[1] for line in captured.out.splitlines()}
    assert rows["qcalc.leibniz_forms"] == "error"
    assert rows["qcalc.expq_reciprocal"] == "pass"


@pytest.mark.parametrize("argv", [[], ["--help"], ["a.json", "b.json"]])
def test_op_counts_usage_exits_2(argv, capsys):
    assert _op_counts().main(argv) == 2
    assert "python3 tools/op_counts.py CONFIG" in capsys.readouterr().err


@pytest.mark.parametrize("config, totals", [
    ("configs/demo.json", (1910, 4705, 805, 275)),
    ("tests/golden/solvers_n3.config.json", (2980, 10490, 742, 147)),
    ("configs/tau_rational.json", (9934, 137190, 892, 281)),
    ("tests/golden/deep_x.config.json", (2130, 5143, 847, 275)),
    ("configs/hierarchy_x.json", (2153, 5272, 801, 271)),
], ids=["demo", "solvers_n3", "tau_rational", "deep_x", "hierarchy_x"])
def test_op_count_totals_do_not_drift(config, totals):
    # the deterministic work of a whole run, in the tool's COLUMNS: a
    # change that moves a total does more or less kernel work, which the
    # timings of this machine are too noisy to show. A product by an exact
    # one returns the other factor without convolving, but it still counts
    # as an `XSeries.dot` call and pair, so xdot.calls understates what
    # that path saves
    from qakns.config import load_config

    counts = _op_counts().op_counts(load_config(ROOT / config))
    assert all(status != "error" for status, _ in counts.values())
    assert tuple(map(sum, zip(*(row for _, row in counts.values())))) == totals
