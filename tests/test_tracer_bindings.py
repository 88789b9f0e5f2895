"""Every qakns name the benchmark tracer wraps still resolves.

The tracer binds its kernels and entry points by attribute name, so
deleting or renaming one of them breaks `perfbench/run.py --trace 1`.
The tracer module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_kernels_and_entry_points_resolve():
    tracer = _tracer()
    wanted = [(owner, attr) for owner, attr, _ in tracer.KERNELS]
    wanted += [(module, name) for module, names in tracer.ENTRY_POINTS
               for name in names]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wanted
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_install_and_uninstall_leave_no_wrapper():
    tracer = _tracer()
    with tracer.Tracer().installed():
        assert tracer.installed_wrappers()
    assert tracer.installed_wrappers() == []


def test_a_traced_solve_counts_the_calculus_kernels():
    # the solvers reach the calculus through `LaxData`, whose methods call
    # the module functions the tracer wraps; at q = 1 the solve integrates too
    from qakns.hierarchy import LaxData, solve_resolvent_direct
    from qakns.matseries import MatSeries
    from qakns.series import XSeries

    tracer = _tracer()
    x, z, o = XSeries.monomial(1, 1, 6), XSeries.zero(6), XSeries.one(6)
    lax = LaxData([1, -1], MatSeries([[z, x], [o, z]]), 1)
    with tracer.Tracer().installed() as traced:
        solve_resolvent_direct(lax, 0, 3)
    metrics = traced.metrics()
    for op in ("derive", "dilate", "antiderive"):
        assert metrics[f"calculus.{op}.calls"] > 0, op
