"""The code-line counter that measures the size of src/qakns."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


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
    cfg = type(cfg)(**{**cfg.__dict__, "checks": (
        "hierarchy.qr_residual", "hierarchy.zero_curvature", "bilinear.qb1")})
    first = tool.op_counts(cfg)
    assert first == tool.op_counts(cfg)
    assert list(first) == list(cfg.checks)
    assert all(calls > 0 for calls in first["hierarchy.zero_curvature"])
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


@pytest.mark.parametrize("argv", [[], ["--help"], ["a.json", "b.json"]])
def test_op_counts_usage_exits_2(argv, capsys):
    assert _op_counts().main(argv) == 2
    assert "python3 tools/op_counts.py CONFIG" in capsys.readouterr().err
