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
    # the demo suite on a real tau, tau = 1 - t_(1,1) + t_(1,2), at x = 4,
    # t = 6 and l_max = 2. Its tau.theorem window {"z": 4, "t": 6} is the
    # hand-written one, though the check reads only z**-1..z**-3; windows
    # derived from the residual carriers will regenerate it with the others
    "tau_rational": lambda: run_suite(
        load_config(ROOT / "configs" / "tau_rational.json")
    ),
}


def report_text(report) -> str:
    data = report.to_json()
    for check in data["checks"]:
        del check["ms"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def first_difference(got: str, expected: str) -> str:
    """Where two report texts first differ: a check name and field."""
    a, b = json.loads(got), json.loads(expected)
    for i, (ca, cb) in enumerate(zip(a["checks"], b["checks"])):
        if ca != cb:
            field = min(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
            return f"check {i} {ca.get('name')!r}, field {field!r}"
    if len(a["checks"]) != len(b["checks"]):
        return f"check count {len(a['checks'])} != {len(b['checks'])}"
    field = min((k for k in set(a) | set(b) if a.get(k) != b.get(k)), default=None)
    return f"top-level field {field!r}" if field else "formatting only"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    got = report_text(RUNS[name]())
    assert got == expected, first_difference(got, expected)


def test_first_difference_names_check_and_field():
    text = (GOLDEN / "demo.json").read_text()
    data = json.loads(text)
    assert first_difference(text, text) == "formatting only"
    data["checks"][3]["status"] = "fail"
    data["checks"][5]["params"] = {}
    got = json.dumps(data, indent=2, sort_keys=True) + "\n"
    name = data["checks"][3]["name"]
    assert first_difference(got, text) == f"check 3 {name!r}, field 'status'"
    data["config_hash"] = "0"
    data["checks"] = json.loads(text)["checks"]
    got = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert first_difference(got, text) == "top-level field 'config_hash'"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        (GOLDEN / f"{name}.json").write_text(report_text(run()))
