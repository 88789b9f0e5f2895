"""Golden reports: refactors must leave every report unchanged.

Each golden file is a report in JSON with the per-check `ms` removed. To
regenerate them from the current source (only when a report is meant to
change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It prints, per golden, every (check, field) that differs from the file it
overwrites, or "unchanged", so a regeneration's reason can be checked
against its output.
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
    # t = 6 and l_max = 2. Its tau.theorem window {"z": 3, "t": 1, "x": 3}
    # is z**-1..z**-3, the degrees its q-bilinear and Taylor stages
    # compare, and the t- and x-degrees its residuals determine
    "tau_rational": lambda: run_suite(
        load_config(ROOT / "configs" / "tau_rational.json")
    ),
}


def report_text(report) -> str:
    data = report.to_json()
    for check in data["checks"]:
        del check["ms"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def differences(got: str, expected: str) -> list:
    """Every place two report texts differ, in report order: each differing
    field of a check (with its index and name), the check count, and each
    differing top-level field."""
    a, b = json.loads(got), json.loads(expected)
    out = []
    for i, (ca, cb) in enumerate(zip(a["checks"], b["checks"])):
        out += [f"check {i} {ca.get('name')!r}, field {k!r}"
                for k in sorted(set(ca) | set(cb)) if ca.get(k) != cb.get(k)]
    if len(a["checks"]) != len(b["checks"]):
        out.append(f"check count {len(a['checks'])} != {len(b['checks'])}")
    out += [f"top-level field {k!r}"
            for k in sorted((set(a) | set(b)) - {"checks"}) if a.get(k) != b.get(k)]
    return out


def first_difference(got: str, expected: str) -> str:
    """Where two report texts first differ: a check name and field."""
    return next(iter(differences(got, expected)), "formatting only")


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
    name, other = data["checks"][3]["name"], data["checks"][5]["name"]
    assert first_difference(got, text) == f"check 3 {name!r}, field 'status'"
    assert differences(got, text) == [
        f"check 3 {name!r}, field 'status'", f"check 5 {other!r}, field 'params'"
    ]
    data["config_hash"] = "0"
    data["checks"] = json.loads(text)["checks"]
    got = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert first_difference(got, text) == "top-level field 'config_hash'"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        path = GOLDEN / f"{name}.json"
        text = report_text(run())
        if not path.exists():
            print(f"{name}: new")
        elif text == path.read_text():
            print(f"{name}: unchanged")
        else:
            for where in differences(text, path.read_text()) or ["formatting only"]:
                print(f"{name}: {where}")
        path.write_text(text)
