"""Exact-arithmetic engine for the q-deformed AKNS-D hierarchy.

Truncated series carriers (XSeries, MatSeries, MZSeries, TimePoly),
q-difference operator algebra with residue pairing, dressing and
resolvent solvers, bilinear residue checks, tau-function shifts, and a
reporting CLI. Everything computes over exact rationals; identities hold
with tolerance zero up to the tracked truncation validity.
"""

from .calculus import (
    QCalc,
    dilate,
    exp_q_series,
    exp_series,
    q_antiderive,
    q_derive,
)
from .hierarchy import (
    DiagonalConsistencyError,
    Dressing,
    HierarchySession,
    LaxData,
    Resolvent,
    ResonanceError,
    b_split,
    resolvent_from_dressing,
    solve_dressing,
    solve_resolvent_direct,
    u_flow,
    verify_resolvent,
    verify_zero_curvature,
)
from .matseries import MatSeries
from .qop import (
    QDOp,
    pairing_lhs,
    pairing_oracle,
    pairing_rhs,
    q_commutator,
)
from .scalars import frac, frac_str
from .series import XSeries
from .timepoly import TimePoly
from .tau import (
    TauSpec,
    TimeContext,
    baker_from_tau,
    classical_limit_check,
    miwa_shift,
    q_shift_times,
    verify_expqo,
    verify_tau_theorem,
)
from .zseries import MZSeries

__all__ = [
    "QCalc", "dilate", "exp_q_series", "exp_series",
    "q_antiderive", "q_derive",
    "DiagonalConsistencyError", "Dressing", "HierarchySession", "LaxData",
    "Resolvent", "ResonanceError", "b_split", "resolvent_from_dressing",
    "solve_dressing", "solve_resolvent_direct", "u_flow", "verify_resolvent",
    "verify_zero_curvature",
    "MatSeries", "QDOp", "pairing_lhs", "pairing_oracle", "pairing_rhs",
    "q_commutator",
    "frac", "frac_str", "XSeries", "TimePoly",
    "TauSpec", "TimeContext", "baker_from_tau", "classical_limit_check",
    "miwa_shift", "q_shift_times", "verify_expqo", "verify_tau_theorem",
    "MZSeries",
]

__version__ = "0.1.0"
