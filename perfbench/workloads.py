"""Seeded run configurations for the benchmark workloads.

Each generator takes a seed and returns plain JSON data in the schema of
`configs/*.json`; the program only ever sees that data. Draws come from
one `random.Random(seed)` stream, and a draw that `parse_config` refuses
(a resonant or non-admissible q) is replaced by the next draw of the same
stream, so a seed always yields the same configuration.
"""

from __future__ import annotations

import copy
import random

from qakns.config import ConfigError, parse_config
from qakns.suites import CHECKS

# q candidates of one height class: their rationals grow at similar rates,
# so run time depends little on which one a seed draws.
Q_POOL = ("2", "3", "-2", "-3", "1/2", "1/3", "-1/2", "-1/3")
COEFF_POOL = ("1", "-1", "2", "-2")

SOLVER_PREFIXES = ("hierarchy.", "dressing.", "bilinear.", "classical.")

_DEMO_SHAPE = {
    "n": 2,
    "q": None,
    "a": ["1", "-1"],
    "u": [[["0"], ["1"]], [["1"], ["0"]]],
    "bilinear_u": [[["0"], ["0", "1"]], [["0"], ["0"]]],
    "truncations": {"x": 8, "z": 6, "band": 4, "t": 4},
    "flows": [[1, 1], [1, 2], [2, 1]],
    "lambda_max": 2,
    "l_max": 4,
    "tau": {
        "variables": [[1, 1], [1, 2], [2, 1]],
        "monomials": [{"exponents": [0, 0, 0], "coeff": "1"}],
        "companions": {},
    },
    "q_sequence": ["9/8", "17/16", "33/32", "65/64"],
    "checks": None,
}


def _demo(rng: random.Random, x: int = 8, z: int = 6) -> dict:
    data = copy.deepcopy(_DEMO_SHAPE)
    data["q"] = rng.choice(Q_POOL)
    data["truncations"]["x"] = x
    data["truncations"]["z"] = z
    return data


def _deep_x(rng: random.Random) -> dict:
    return _demo(rng, x=16, z=8)


def _solvers_n3(rng: random.Random) -> dict:
    def c():
        return rng.choice(COEFF_POOL)

    def xmono():
        return ["0", c()]

    z = ["0"]
    return {
        "n": 3,
        "q": rng.choice(Q_POOL),
        "a": ["1", "-1", "2"],
        "u": [
            [z, [c()], xmono()],
            [[c()], z, [c()]],
            [xmono(), [c()], z],
        ],
        "bilinear_u": [
            [z, xmono(), [c()]],
            [z, z, xmono()],
            [z, z, z],
        ],
        "truncations": {"x": 8, "z": 6, "band": 4, "t": 4},
        "flows": [[1, 1], [1, 2], [2, 1]],
        "lambda_max": 2,
        "l_max": 4,
        "tau": None,
        "q_sequence": [],
        "checks": [
            name for name, _ in CHECKS if name.startswith(SOLVER_PREFIXES)
        ],
    }


GENERATORS = {"demo": _demo, "deep_x": _deep_x, "solvers_n3": _solvers_n3}

MAX_DRAWS = 100


def generate(workload: str, seed: int) -> dict:
    """The configuration of `workload` for `seed`, redrawn until it parses."""
    gen = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(MAX_DRAWS):
        data = gen(rng)
        try:
            parse_config(data)
        except ConfigError:
            continue
        return data
    raise RuntimeError(f"no admissible {workload} configuration for seed {seed}")
