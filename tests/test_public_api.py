"""The public surface: the package's exported names and the README example."""

import re
from pathlib import Path

import qakns

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The fenced python block under the README's "## Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {})
    # the printed values are the ones the example's comment states
    assert capsys.readouterr().out == "True -5\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qakns import *", namespace)
    missing = [name for name in qakns.__all__ if name not in namespace]
    assert missing == []
    for gone in ("QCalc", "QDOp", "q_commutator", "TimeContext"):
        assert gone not in qakns.__all__ and not hasattr(qakns, gone)
