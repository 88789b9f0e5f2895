"""One benchmark process: set-up, a closed verify loop, or a traced loop.

    python3 perfbench/worker.py setup  CONFIG
    python3 perfbench/worker.py verify CONFIG SECONDS
    python3 perfbench/worker.py trace  CONFIG SECONDS

`run.py` starts it with `src` on PYTHONPATH and reads the JSON object it
prints. One verification is what `qakns verify --config CONFIG --format
json` runs: read and parse the config, run the suite, emit the report.
The verify loop repeats it, one call at a time, until the next repeat
would end after SECONDS, and at least twice.

Set-up and verify times are reported twice: as measured, and at the
reference speed. The host's speed drifts by tens of percent over minutes,
so the worker keeps timing a fixed reference kernel: on a timer while it
verifies, and right after set-up. A time at the reference speed is the
measured time (less the kernel's own time) times REF_KERNEL_S divided by
the kernel's duration at that moment.
"""

from time import perf_counter, process_time

_T0 = perf_counter()  # set-up is timed from here, before qakns is imported

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

# The kernel's duration at the reference speed: about its duration on the
# 2.1 GHz Xeon vCPU the benchmark was tuned on, in that host's slow phase.
REF_KERNEL_S = 0.004
PROBE_PERIOD_S = 0.2
SETUP_PROBES = 10


def reference_kernel() -> float:
    """Time a fixed piece of small-rational arithmetic, like qakns's own."""
    t0 = perf_counter()
    acc = Fraction(0)
    half = Fraction(1, 2)
    for k in range(1, 300):
        acc = acc * half + Fraction(k % 13 - 6, k % 7 + 1) * Fraction(k % 5 + 1, k % 11 + 1)
    return perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel every PROBE_PERIOD_S on a SIGALRM timer."""

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0  # time taken by the probe itself

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.durations.append(reference_kernel())
        self.spent += perf_counter() - t0

    def reset(self):
        self.durations.clear()
        self.spent = 0.0

    def scale(self) -> float:
        """REF_KERNEL_S over the kernel's duration, averaged over the samples."""
        if not self.durations:
            self.durations.append(reference_kernel())
        return REF_KERNEL_S * sum(1 / d for d in self.durations) / len(self.durations)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def report_sha(text: str) -> str:
    """sha256 of a JSON report with every `ms` field removed."""
    doc = json.loads(text)
    for check in doc["checks"]:
        check.pop("ms", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def verify_once(path: str, probe: SpeedProbe | None = None) -> dict:
    """One timed verification; returns its times and the report digest."""
    from qakns import config, report, suites

    if probe is not None:
        probe.reset()
    w0, c0 = perf_counter(), process_time()
    with open(path) as fh:
        cfg = config.parse_config(json.load(fh))
    rep = suites.run_suite(cfg)
    text = report.emit_report(rep, "json")
    wall, cpu = perf_counter() - w0, process_time() - c0
    out = {"wall_s": wall, "cpu_s": cpu}
    if probe is not None:
        scale, spent = probe.scale(), probe.spent
        out["ref_wall_s"] = (wall - spent) * scale
        out["ref_cpu_s"] = (cpu - spent) * scale
    out["sha"] = report_sha(text)
    out["statuses"] = {c.name: c.status for c in rep.checks}
    return out


def setup(path: str) -> dict:
    from qakns import config

    with open(path) as fh:
        config.parse_config(json.load(fh))
    raw = perf_counter() - _T0
    reference_kernel()  # warm-up
    scale = REF_KERNEL_S * sum(
        1 / reference_kernel() for _ in range(SETUP_PROBES)
    ) / SETUP_PROBES
    return {"setup_s": raw, "ref_setup_s": raw * scale}


MIN_REPEATS = 2


def verify_loop(path: str, seconds: float) -> dict:
    """Repeat until the next repeat would end past `seconds` (at least twice)."""
    start = perf_counter()
    runs = []
    with SpeedProbe() as probe:
        while len(runs) < MIN_REPEATS or (
            perf_counter() - start + runs[-1]["wall_s"] <= seconds
        ):
            runs.append(verify_once(path, probe))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": runs, "peak_rss_mb": peak_kb / 1024.0}


def trace_loop(path: str, seconds: float) -> dict:
    """Alternate untraced and traced verifications until time is up."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer, installed_wrappers

    start = perf_counter()
    plain, traced = [], []
    while not traced or (
        perf_counter() - start + plain[-1]["wall_s"] + traced[-1]["wall_s"]
        <= seconds
    ):
        plain.append(verify_once(path))
        tracer = Tracer()
        with tracer.installed():
            run = verify_once(path)
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        run["metrics"] = tracer.metrics()
        del tracer
        traced.append(run)
    return {"plain": plain, "traced": traced}


def main(argv) -> int:
    mode, path = argv[0], argv[1]
    if mode == "setup":
        out = setup(path)
    elif mode == "verify":
        out = verify_loop(path, float(argv[2]))
    elif mode == "trace":
        out = trace_loop(path, float(argv[2]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
