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
