"""Configuration, reporting, and the command-line surface."""

import json
from pathlib import Path

import pytest

from qakns.cli import main
from qakns.config import (
    DEMO_CONFIG, ConfigError, demo_config, load_config, parse_config,
)
from qakns.report import config_hash, emit_report
from qakns.suites import SuiteContext, _tau_spec_from_config, run_suite


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


def test_builtin_demo_config_matches_the_demo_file():
    # `qakns demo` reads the built-in copy; the demo golden and the
    # benchmark's demo workload read configs/demo.json
    path = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
    assert parse_config(DEMO_CONFIG) == load_config(str(path))


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("flows", [[1]]),
        ("flows", [[1, 1.5]]),
        ("flows", [[True, 1]]),
        ("flows", [1]),
        ("tau.variables", [[1.9, 2]]),
    ],
)
def test_malformed_flow_pairs_exit_2(tmp_path, capsys, field, value):
    data = base_config()
    if field == "tau.variables":
        data["tau"] = {"variables": value, "monomials": [], "companions": {}}
    else:
        data[field] = value
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert f"{field} entries must be [order, channel] integer pairs" in (
        capsys.readouterr().err
    )


def _tau_config(n=2, exponents=(0, 0, 0), companion_key=None,
                variables=([1, 1], [1, 2], [2, 1])):
    data = dict(base_config(), n=n)
    data["tau"] = {
        "variables": [list(v) for v in variables],
        "monomials": [{"exponents": list(exponents), "coeff": "1"}],
        "companions": {} if companion_key is None else {
            companion_key: [{"exponents": [0, 0, 0], "coeff": "-1"}]
        },
    }
    return data


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"n": 2.9}, "n must be an integer >= 1, got 2.9"),
        ({"n": 0}, "n must be an integer >= 1, got 0"),
        ({"exponents": [1.7, 0, 0]},
         "tau.monomials[0].exponents must be an integer >= 0, got 1.7"),
        ({"exponents": [True, 0, 0]},
         "tau.monomials[0].exponents must be an integer >= 0, got True"),
        ({"exponents": [-1, 0, 0]},
         "tau.monomials[0].exponents must be an integer >= 0, got -1"),
        ({"exponents": [9, 0, 0]},
         "tau.monomials[0].exponents has total degree 9, above truncations.t = 4"),
        ({"companion_key": "1,1"},
         "tau.companions key '1,1' needs 1 <= alpha != beta <= 2"),
        ({"companion_key": "1,5"},
         "tau.companions key '1,5' needs 1 <= alpha != beta <= 2"),
        ({"variables": ([1, 1], [1, 1], [2, 1])},
         "tau.variables must be distinct, got [[1, 1], [1, 1], [2, 1]]"),
        ({"exponents": [0, 0]},
         "tau.monomials[0].exponents must have one entry per tau variable (3), "
         "got 2"),
        ({"companion_key": "1-2"},
         'tau.companions keys must be "alpha,beta" channel pairs, got \'1-2\''),
    ],
)
def test_malformed_tau_input_exits_2(tmp_path, capsys, edit, message):
    data = _tau_config(**edit)
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("u", [[["0"], [str(c) for c in range(8)]], [["1"], ["0"]]],
         "u[1][2] degree exceeds the x truncation"),
        ("a", ["0", "1"], "eigenvalues of A must be nonzero"),
    ],
)
def test_malformed_potential_and_eigenvalues_exit_2(tmp_path, capsys, field,
                                                    value, message):
    # x = 6 holds 7 coefficients; the zero eigenvalue reaches LaxData
    data = dict(base_config(), **{field: value})
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


def test_a_of_the_wrong_length_names_a_and_n():
    data = base_config()
    data["a"] = ["1", "-1", "3"]
    with pytest.raises(ConfigError, match="a must have n = 2 entries, got 3"):
        parse_config(data)


def test_checks_must_be_a_list(tmp_path, capsys):
    data = base_config()
    data["checks"] = "qcalc.expq_log_form"
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert "checks must be a list of names" in capsys.readouterr().err


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


def test_empty_selection_is_refused():
    # an empty list would pass on nothing: null is the way to run every check
    cfg = demo_config()
    data = dict(json.loads(json.dumps(cfg.to_json())))
    data["checks"] = []
    empty = parse_config(data)
    with pytest.raises(ConfigError, match="checks is an empty list"):
        run_suite(empty)


def test_empty_checks_list_exits_2(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
    data = json.loads(path.read_text())
    data["checks"] = []
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert "checks is an empty list" in captured.err
    assert "checks passed" not in captured.out


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
    message = field.replace(".", r"\.")
    if field.endswith("_depth"):
        # the depths follow from the truncations and the flows alone
        message = f"^{field} is not a configuration field$"
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_malformed_depth_exits_2(tmp_path, capsys):
    # a depth key exits 2 whatever its value, a valid-looking one included
    for field in ("dressing_depth", "resolvent_depth"):
        for value in ("abc", 3, None):
            data = base_config()
            data[field] = value
            path = write_config(tmp_path, data)
            assert main(["verify", "--config", path]) == 2
            err = capsys.readouterr().err
            assert f"{field} is not a configuration field" in err


def test_integer_fields_keep_the_config_hash():
    # the canonical form of a valid config is unchanged by validation
    assert config_hash(demo_config().canonical_json()) == (
        "d5c3076039897195429c4ab300c505a7c958ee5e4b8ee37719ed80eacef78025"
    )


def test_tau_exponents_follow_the_listed_variable_order():
    # the variables are sorted, and every exponent tuple is permuted with
    # them: [1, 0, 0] against a list that starts with t_(2,1) is t_(2,1)
    def tau_data(variables, term, companion):
        data = json.loads(json.dumps(DEMO_CONFIG))
        data["tau"] = {
            "variables": variables,
            "monomials": [{"exponents": [0, 0, 0], "coeff": "1"},
                          {"exponents": term, "coeff": "1"}],
            "companions": {"1,2": [{"exponents": companion, "coeff": "-1"}]},
        }
        return parse_config(data)

    listed = tau_data([[2, 1], [1, 1], [1, 2]], [1, 0, 0], [0, 1, 0])
    ordered = tau_data([[1, 1], [1, 2], [2, 1]], [0, 0, 1], [1, 0, 0])
    assert listed.canonical_json() == ordered.canonical_json()
    assert listed.tau.companions == {(0, 1): (((1, 0, 0), -1),)}
    spec = _tau_spec_from_config(SuiteContext(listed))
    ring = SuiteContext(listed).tau_ctx
    assert spec.tau == ring.constant(1) + ring.variable((2, 0))
    assert spec.companions[(0, 1)] == ring.constant(-1) * ring.variable((1, 0))


def test_band_is_checked_but_not_hashed():
    # truncations.band is accepted for the benchmark's configs, which still
    # send it, and changes nothing: not the hash, not a report
    texts = set()
    for band in (4, 9, None):
        data = _demo_data()
        if band is not None:
            data["truncations"]["band"] = band
        report = run_suite(parse_config(data)).to_json()
        for c in report["checks"]:
            c.pop("ms")
        texts.add(json.dumps(report, sort_keys=True))
    assert len(texts) == 1
    assert json.loads(texts.pop())["config_hash"] == config_hash(
        demo_config().canonical_json()
    )


def _demo_data():
    return json.loads(json.dumps(DEMO_CONFIG))


@pytest.mark.parametrize(
    "sequence, message",
    [
        (["1"], "q_sequence[0]: deformation parameter must differ from 1"),
        (["-1", "9/8"], "q_sequence[0]: deformation parameter is a root of unity"),
        (["9/8"], "q_sequence[1] is missing"),
    ],
    ids=["q_is_1", "root_of_unity", "one_entry"],
)
def test_inadmissible_q_sequence_exits_2(tmp_path, capsys, sequence, message):
    data = _demo_data()
    data["q_sequence"] = sequence
    path = write_config(tmp_path, data)
    assert main(["tau", "--config", path, "--check", "tau.classical_limit"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, least", [("x", 3, 4), ("t", 2, 3)], ids=["x", "t"]
)
def test_truncations_below_the_suite_depths_exit_2(tmp_path, capsys, key, value,
                                                   least):
    data = _demo_data()
    data["truncations"][key] = value
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert f"truncations.{key} must be an integer >= {least}, got {value}" in (
        capsys.readouterr().err
    )


def test_least_truncations_pass_every_check():
    data = _demo_data()
    data["truncations"].update(x=4, t=3)
    report = run_suite(parse_config(data))
    assert len(report.checks) == 30
    assert [c.name for c in report.checks if c.status != "pass"] == []


def test_flow_outside_the_tau_variables_exits_2(tmp_path, capsys):
    data = _demo_data()
    data["flows"] = [[3, 1]]
    path = write_config(tmp_path, data)
    assert main(["tau", "--config", path, "--check", "tau.theorem"]) == 2
    assert "flows entry [3, 1] is not a tau time variable" in (
        capsys.readouterr().err
    )
    # the flows reach only tau.theorem: another selection runs
    assert main(["tau", "--config", path, "--check", "tau.expqo"]) == 0


def test_truncations_that_are_not_an_object_exit_2(tmp_path, capsys):
    data = _demo_data()
    data["truncations"] = 5
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert "truncations must be an object, got 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "monomials",
    [
        [{"exponents": [1, 0, 0], "coeff": "1"}],
        [{"exponents": [0, 0, 0], "coeff": "0"},
         {"exponents": [1, 0, 0], "coeff": "1"}],
        [],
    ],
    ids=["no_constant_monomial", "zero_constant_coeff", "no_monomials"],
)
def test_tau_with_a_zero_constant_term_exits_2(tmp_path, capsys, monomials):
    # the Baker function divides by tau
    data = _demo_data()
    data["tau"]["monomials"] = monomials
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert "tau.monomials must have a nonzero constant term" in (
        capsys.readouterr().err
    )


def test_empty_tau_variables_exit_2(tmp_path, capsys):
    # an empty list is not "no variables configured": the default is not used
    data = _demo_data()
    data["tau"].update(variables=[],
                       monomials=[{"exponents": [], "coeff": "1"}])
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert "tau.variables must name at least one time" in capsys.readouterr().err


def test_order_zero_tau_variable_exits_2(tmp_path, capsys):
    # the Miwa shift divides by the order: an order-0 time is malformed
    # input, not a per-check ZeroDivisionError in tau.theorem
    data = _demo_data()
    data["tau"].update(variables=[[0, 1], [1, 2]],
                       monomials=[{"exponents": [0, 0], "coeff": "1"}])
    data["flows"] = [[1, 2]]
    assert main(["tau", "--config", write_config(tmp_path, data)]) == 2
    assert "tau.variables: flow order must be >= 1, got 0" in (
        capsys.readouterr().err
    )
    # order-0 flows stay valid where no tau time is needed
    data = _demo_data()
    data["flows"] = [[0, 1]]
    assert main(["resolvent", "--config", write_config(tmp_path, data)]) == 0


def _set(data, path, value):
    """Assign `value` at a path of object keys and list indices."""
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["q"], 1.5, "q must be an exact rational"),
        (["q"], "1/0", "q must be an exact rational"),
        (["a"], ["1", 2.5], "a[2] must be an exact rational"),
        (["a"], "1", "a must be a list"),
        (["u", 0, 1], [1.5], "u[1][2] must be an exact rational"),
        (["u", 0, 1], 1.5, "u[1][2] must be an exact rational"),
        (["u", 0], "0", "u must be an 2x2 matrix"),
        (["bilinear_u", 1, 0], ["0", True], "bilinear_u[2][1] must be an exact"),
        (["q_sequence"], ["9/8", 1.2], "q_sequence[1] must be an exact rational"),
        (["q_sequence"], "9/8", "q_sequence must be a list"),
        (["flows"], 5, "flows must be a list"),
        (["tau"], [], "tau must be an object"),
        (["tau", "monomials", 0], [[0, 0, 0], "1"],
         "tau.monomials[0] must be an object"),
        (["tau", "monomials", 0, "coeff"], 0.5,
         "tau.monomials[0].coeff must be an exact rational"),
        (["tau", "monomials", 0, "exponents"], 0,
         "tau.monomials[0].exponents must be a list"),
        (["tau", "companions"], {"1,2": [{"exponents": [0, 0, 0], "coeff": 0.5}]},
         "tau.companions['1,2'][0].coeff must be an exact rational"),
        (["tau", "companions"], {"1,2": {"exponents": [0, 0, 0]}},
         "tau.companions['1,2'] must be a list"),
        (["flows"], [], "flows must name at least one flow"),
        (["flows"], [[1, 1], [1, 2], [1, 1]],
         "flows must be distinct, got [[1, 1], [1, 2], [1, 1]]"),
    ],
)
def test_malformed_fields_are_named(tmp_path, capsys, path, value, message):
    data = _demo_data()
    _set(data, path, value)
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, key, message",
    [
        ([], "q", "q is missing"),
        (["tau"], "variables", "tau.variables is missing"),
        (["tau", "monomials", 0], "coeff", "tau.monomials[0].coeff is missing"),
    ],
)
def test_missing_fields_are_named(tmp_path, capsys, path, key, message):
    data = _demo_data()
    target = data
    for step in path:
        target = target[step]
    del target[key]
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["lamda_max"], 0, "lamda_max is not a configuration field"),
        (["truncations", "xx"], 3, "truncations.xx is not a configuration field"),
        (["tau", "companion"], {}, "tau.companion is not a configuration field"),
        (["tau", "monomials", 0, "coef"], "1",
         "tau.monomials[0].coef is not a configuration field"),
        (["tau", "companions"],
         {"1,2": [{"exponents": [0, 0, 0], "coeff": "1", "coef": "1"}]},
         "tau.companions['1,2'][0].coef is not a configuration field"),
    ],
)
def test_unknown_fields_exit_2(tmp_path, capsys, path, value, message):
    data = _demo_data()
    _set(data, path, value)
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert message in capsys.readouterr().err


def test_demo_takes_no_config(tmp_path, capsys):
    # the demo verb runs the built-in example; a config there would go unread
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--config", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["dressing", "resolvent", "tau"])
def test_corruption_is_offered_only_where_a_check_reads_it(capsys, verb):
    # only the bilinear checks read the corrupted dressing
    with pytest.raises(SystemExit) as exc:
        main([verb, "--inject-corruption"])
    assert exc.value.code == 2
    assert "--inject-corruption" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, check",
    [
        ({"flows": [[1, 1]]}, "hierarchy.zero_curvature"),
        ({}, "bilinear.corruption_detected"),
        ({"q_sequence": []}, "tau.classical_limit"),
    ],
    ids=["one_flow", "no_corruption", "no_q_sequence"],
)
def test_a_selection_that_compares_nothing_exits_2(tmp_path, capsys, changes,
                                                   check):
    path = write_config(tmp_path, {**_demo_data(), **changes})
    assert main(["verify", "--config", path, "--check", check]) == 2
    assert f"compare nothing: {check} (" in capsys.readouterr().err
