"""Configuration, reporting, and the command-line surface."""

import json

import pytest

from qakns.cli import main
from qakns.config import ConfigError, demo_config, load_config, parse_config
from qakns.report import config_hash, emit_report
from qakns.suites import run_suite


def write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def base_config():
    return {
        "n": 2,
        "q": "2",
        "a": ["1", "-1"],
        "u": [[["0"], ["1"]], [["1"], ["0"]]],
        "truncations": {"x": 6, "z": 4, "band": 4, "t": 4},
        "flows": [[1, 1], [1, 2]],
        "lambda_max": 1,
        "l_max": 2,
        "q_sequence": [],
    }


def test_demo_config_parses():
    cfg = demo_config()
    assert cfg.n == 2
    assert str(cfg.q) == "2"
    assert cfg.required_resolvent_depth() >= cfg.n_z + 1


def test_round_trip_and_hash_stability(tmp_path):
    cfg = demo_config()
    path = write_config(tmp_path, cfg.to_json())
    again = load_config(path)
    assert again.canonical_json() == cfg.canonical_json()


def test_rejects_duplicate_eigenvalues(tmp_path):
    data = base_config()
    data["a"] = ["1", "1"]
    with pytest.raises(ConfigError, match="distinct"):
        parse_config(data)


def test_rejects_nonzero_diagonal(tmp_path):
    data = base_config()
    data["u"] = [[["1"], ["1"]], [["1"], ["0"]]]
    with pytest.raises(ConfigError, match="u_ii"):
        parse_config(data)


def test_rejects_resonant_parameters():
    data = base_config()
    data["a"] = ["4", "1"]  # a_2 * 2**2 == a_1
    with pytest.raises(ConfigError, match="resonance"):
        parse_config(data)


def test_rejects_root_of_unity():
    data = base_config()
    data["q"] = "-1"
    with pytest.raises(ConfigError, match="root of unity"):
        parse_config(data)


def test_rejects_q_equal_to_one():
    # q = 1 is the classical structure inside the program, not a config value
    data = base_config()
    data["q"] = "1"
    with pytest.raises(ConfigError, match="differ from 1"):
        parse_config(data)


def test_rejects_bad_flow_channel():
    data = base_config()
    data["flows"] = [[1, 3]]
    with pytest.raises(ConfigError, match="channel"):
        parse_config(data)


def test_unreadable_and_malformed(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(bad))


def test_report_determinism_and_schema():
    cfg = demo_config()
    prefixes = ["qcalc.", "pairing.nonneg_zero"]
    r1 = run_suite(cfg, prefixes)
    r2 = run_suite(cfg, prefixes)

    def strip(rep):
        data = json.loads(emit_report(rep, "json"))
        for c in data["checks"]:
            c.pop("ms")
        return json.dumps(data, sort_keys=True)

    assert strip(r1) == strip(r2)
    data = json.loads(emit_report(r1, "json"))
    assert set(data) == {"config_hash", "checks"}
    for c in data["checks"]:
        assert set(c) == {
            "name", "params", "status", "max_degree_verified",
            "first_failure", "ms",
        }
        assert c["status"] == "pass"
        assert c["first_failure"] is None


def test_empty_selection_is_empty_report():
    cfg = demo_config()
    data = dict(json.loads(json.dumps(cfg.to_json())))
    data["checks"] = []
    empty = parse_config(data)
    report = run_suite(empty)
    assert report.checks == []
    assert report.ok


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify", "--check", "qcalc.expq_log_form",
                 "--check", "qcalc.expq_reciprocal"]) == 0
    out = capsys.readouterr().out
    assert "expq_log_form" in out and "2/2 checks passed" in out
    # configuration problems exit 2
    bad = write_config(tmp_path, {"n": 2})
    assert main(["verify", "--config", bad]) == 2
    dup = base_config()
    dup["a"] = ["1", "1"]
    assert main(["verify", "--config", write_config(tmp_path, dup)]) == 2


def test_cli_corruption_injection_fails_qb1(capsys):
    code = main([
        "bilinear", "--inject-corruption", "--format", "json",
    ])
    data = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["bilinear.qb1"]["status"] == "fail"
    assert by_name["bilinear.qb1"]["first_failure"] is not None
    assert by_name["bilinear.corruption_detected"]["status"] == "pass"
    assert code == 1


def test_cli_verb_scoping(capsys):
    assert main(["tau", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in data["checks"]]
    assert names and all(n.startswith("tau.") for n in names)


def test_text_report_mentions_failures(capsys):
    code = main(["bilinear", "--inject-corruption"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "first failure" in out


def test_unknown_check_names_exit_2(tmp_path, capsys):
    assert main(["verify", "--check", "no.such.check"]) == 2
    assert "no.such.check" in capsys.readouterr().err
    data = base_config()
    data["checks"] = ["qcalc.expq_log_form", "qcalc.bogus"]
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "qcalc.bogus" in err and "expq_log_form" not in err


def test_selection_outside_verb_scope_exits_2(capsys):
    assert main(["tau", "--check", "hierarchy.qr_residual"]) == 2
    assert "hierarchy.qr_residual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("dressing_depth", "abc"),
        ("resolvent_depth", -1),
        ("lambda_max", 1.5),
        ("l_max", "4"),
        ("truncations.x", -1),
        ("truncations.z", "6"),
        ("truncations.band", None),
        ("truncations.t", True),
    ],
)
def test_rejects_malformed_integer_fields(field, value):
    data = base_config()
    if field.startswith("truncations."):
        data["truncations"][field.split(".")[1]] = value
    else:
        data[field] = value
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        parse_config(data)


def test_malformed_depth_exits_2(tmp_path, capsys):
    data = base_config()
    data["dressing_depth"] = "abc"
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert "dressing_depth" in capsys.readouterr().err


def test_integer_fields_keep_the_config_hash():
    data = base_config()
    data.update(dressing_depth=None, resolvent_depth=0)
    assert parse_config(data).resolvent_depth == 0
    # the canonical form of a valid config is unchanged by validation
    assert config_hash(demo_config().canonical_json()) == (
        "9ea0102d2ea8ea2470561fe9c8e0a10a1d6ff9b0a081b8587431e450bcd43b51"
    )
