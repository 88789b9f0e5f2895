"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. The file name keeps
it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

from qakns import calculus, suites  # noqa: E402
from qakns.config import parse_config  # noqa: E402
from qakns.series import XSeries  # noqa: E402

# values a traced run must reproduce exactly
EXACT_SUFFIXES = (".calls", "_frac", ".coeff_bits_max", ".blocks")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def small_config() -> dict:
    data = workloads.generate("demo", 0)
    data["truncations"].update(x=4, z=3)
    data["checks"] = [
        "qcalc.leibniz_forms", "pairing.oracle_examples",
        "hierarchy.qr_residual", "bilinear.qb1", "tau.expqo",
    ]
    return data


class WorkloadTests(unittest.TestCase):
    def test_seed_zero_reproduces_demo_config(self):
        with open(os.path.join(ROOT, "configs", "demo.json")) as fh:
            self.assertEqual(workloads.generate("demo", 0), json.load(fh))

    def test_generation_is_deterministic_and_parses(self):
        for workload in run.WORKLOADS:
            for seed in range(6):
                data = workloads.generate(workload, seed)
                self.assertEqual(data, workloads.generate(workload, seed))
                parse_config(data)

    def test_resonant_draws_are_replaced(self):
        # a = (1, -1, 2) resonates at q = 2, -2, 1/2 and -1/2
        qs = {workloads.generate("solvers_n3", s)["q"] for s in range(20)}
        self.assertTrue(qs)
        self.assertFalse(qs & {"2", "-2", "1/2", "-1/2"})


class TracerTests(unittest.TestCase):
    def test_no_wrapper_left_installed(self):
        cfg = parse_config(small_config())
        originals = (XSeries.__mul__, suites.dilate, suites.CHECKS)
        tracer = Tracer()
        with tracer.installed():
            inside = installed_wrappers()
            suites.run_suite(cfg)
        self.assertIn("qakns.suites.dilate", inside)
        self.assertIn("qakns.series.XSeries.__mul__", inside)
        self.assertEqual(installed_wrappers(), [])
        self.assertIs(suites.dilate, calculus.dilate)
        self.assertEqual(originals, (XSeries.__mul__, suites.dilate, suites.CHECKS))
        self.assertGreater(len(tracer.span_name), 0)

    def test_wrappers_removed_after_error(self):
        tracer = Tracer()
        with self.assertRaises(ZeroDivisionError):
            with tracer.installed():
                XSeries.zero(2).invert()
        self.assertEqual(installed_wrappers(), [])
        self.assertEqual(tracer.metrics()["series.invert.calls"], 1)

    def test_self_time_subtracts_child_spans(self):
        tracer = Tracer()
        outer = tracer._id("matseries.matmul")
        inner = tracer._id("series.mul")
        for name, parent, start, end in (
            (outer, -1, 0.0, 10.0), (inner, 0, 2.0, 5.0), (inner, 0, 6.0, 7.0),
        ):
            tracer.span_name.append(name)
            tracer.span_parent.append(parent)
            tracer.span_start.append(start)
            tracer.span_end.append(end)
        m = tracer.metrics()
        self.assertEqual(m["matseries.matmul.calls"], 1)
        self.assertEqual(m["matseries.matmul.self_s"], 6.0)
        self.assertEqual(m["series.mul.calls"], 2)
        self.assertEqual(m["series.mul.self_s"], 4.0)


class WorkerTests(unittest.TestCase):
    def test_speed_probe_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with worker.SpeedProbe() as probe:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(probe.durations), 1)
        self.assertGreater(probe.spent, 0)
        self.assertGreater(probe.scale(), 0)

    def test_report_sha_ignores_ms(self):
        a = '{"config_hash": "h", "checks": [{"name": "c", "ms": 1.0}]}'
        b = '{"config_hash": "h", "checks": [{"name": "c", "ms": 2.5}]}'
        c = '{"config_hash": "h", "checks": [{"name": "d", "ms": 1.0}]}'
        self.assertEqual(worker.report_sha(a), worker.report_sha(b))
        self.assertNotEqual(worker.report_sha(a), worker.report_sha(c))


class TracedRunTests(unittest.TestCase):
    """Two traced runs of one seed, in processes with different hash seeds."""

    @classmethod
    def setUpClass(cls):
        cls.runs = []
        saved = os.environ.get("PYTHONHASHSEED")
        try:
            for hash_seed in ("1", "2"):
                os.environ["PYTHONHASHSEED"] = hash_seed
                cls.runs.append(run.measure_traced("solvers_n3", 0, 0))
        finally:
            if saved is None:
                os.environ.pop("PYTHONHASHSEED", None)
            else:
                os.environ["PYTHONHASHSEED"] = saved

    def test_counts_repeat_exactly(self):
        a, b = (r["metrics"] for r in self.runs)
        exact = [k for k in a if k.endswith(EXACT_SUFFIXES)]
        self.assertGreaterEqual(len(exact), 30)
        for name in exact:
            self.assertEqual(a[name]["value"], b[name]["value"], name)
        self.assertEqual(self.runs[0]["report_sha"], self.runs[1]["report_sha"])

    def test_every_per_layer_metric_has_a_unit(self):
        spec = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        got = self.runs[0]["metrics"]
        self.assertEqual(set(got), set(spec))
        for name, m in got.items():
            self.assertEqual(m["unit"], spec[name], name)

    def test_bypass_predictions_hold(self):
        m = self.runs[0]["metrics"]
        for name in ("qop.pairing_lhs.calls", "qop.pairing_rhs.calls",
                     "qop.pairing_oracle.calls", "timepoly.mul.calls"):
            self.assertEqual(m[name]["value"], 0, name)
        self.assertAlmostEqual(m["suites.failed_frac"]["value"], 1 / 17)
        self.assertTrue(all(r["correct"] for r in self.runs))


class EndToEndTests(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        res = run.measure("solvers_n3", 0, 0)
        spec = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], 2)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, spec)
        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
        self.assertEqual(set(res["measured"]), {"verify_s", "verify_cpu_s", "setup_s"})
        self.assertAlmostEqual(res["failed_frac"], 1 / 17)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "demo",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
