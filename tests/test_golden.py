"""Golden reports: refactors must leave every report unchanged.

Each golden file is a report in JSON with the per-check `ms` removed. To
regenerate them from the current source (only when a report is meant to
change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from qakns.config import demo_config, load_config
from qakns.suites import run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "demo": lambda: run_suite(load_config(ROOT / "configs" / "demo.json")),
    "hierarchy_x": lambda: run_suite(
        load_config(ROOT / "configs" / "hierarchy_x.json")
    ),
    # `qakns bilinear --inject-corruption`
    "bilinear_corrupt": lambda: run_suite(demo_config(True), ["bilinear."]),
    # n = 3 solver, dressing, bilinear and classical checks on an x-dependent
    # potential (the config of the solvers_n3 benchmark workload, seed 0)
    "solvers_n3": lambda: run_suite(
        load_config(GOLDEN / "solvers_n3.config.json")
    ),
    # the full suite at x = 16, z = 8 (the config of the deep_x benchmark
    # workload, seed 0)
    "deep_x": lambda: run_suite(load_config(GOLDEN / "deep_x.config.json")),
}


def report_text(report) -> str:
    data = report.to_json()
    for check in data["checks"]:
        del check["ms"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert report_text(RUNS[name]()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        (GOLDEN / f"{name}.json").write_text(report_text(run()))
