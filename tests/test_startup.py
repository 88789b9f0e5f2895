"""Start-up cost: what a fresh `qakns verify` process imports.

Every `qakns verify` is a fresh interpreter, so each module that start-up
imports is paid once per configuration. `dataclasses` alone pulls in
`inspect`, `ast`, `dis` and `tokenize` and builds each class's methods
with `exec`; no qakns import path needs it, nor `typing`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qakns.config import demo_config

ROOT = Path(__file__).resolve().parent.parent

# a process that starts `qakns verify`, up to a parsed config
STARTUP = """
import sys
import qakns.cli
from qakns.config import load_config
load_config(sys.argv[1])
print(" ".join(m for m in ("dataclasses", "inspect", "typing") if m in sys.modules))
"""


def test_startup_imports_no_dataclasses_inspect_or_typing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP, str(ROOT / "configs" / "demo.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []


def test_run_config_is_immutable_and_with_checks_copies():
    cfg = demo_config()
    with pytest.raises(AttributeError):
        cfg.checks = ("tau.expqo",)
    with pytest.raises(AttributeError):
        del cfg.n_x
    picked = cfg.with_checks(["tau.expqo"])
    assert picked.checks == ("tau.expqo",) and cfg.checks is None
    assert picked != cfg and picked.with_checks(None) == cfg
