"""Dependency propagation: decision procedures and cover computation.

:func:`propagates`, :func:`prop_cfd_spc` and :func:`prop_cfd_spcu` are
the plain single-query procedures, uncached.  Batched, cached and
remote queries go through the service API (:mod:`repro.api`) instead —
see ``docs/api.md``.
"""

from .check import (
    BranchPairCache,
    Counterexample,
    UnsupportedViewError,
    find_counterexample,
    propagates,
)
from .closure_baseline import (
    closure_projection_cover,
    exponential_family,
    exponential_family_schema,
)
from .cover import CoverReport, prop_cfd_spc, prop_cfd_spc_report
from .emptiness import nonempty_witness, view_is_empty
from .eqclasses import BottomEQ, EquivalenceClasses, compute_eq, eq2cfd
from .general import (
    finite_branching_cells,
    propagates_general,
    propagates_ptime_chase,
)
from .general_cover import prop_cfd_spc_general
from .spcu_cover import branch_guards, prop_cfd_spcu
from .rbr import RBRStats, a_resolvent, drop, rbr, resolvents
from .reductions import PropagationEncoding, ThreeSat, encode
from .engine import EngineStats, PropagationEngine

__all__ = [
    "BottomEQ",
    "BranchPairCache",
    "Counterexample",
    "CoverReport",
    "EngineStats",
    "EquivalenceClasses",
    "PropagationEngine",
    "RBRStats",
    "PropagationEncoding",
    "ThreeSat",
    "UnsupportedViewError",
    "a_resolvent",
    "branch_guards",
    "closure_projection_cover",
    "compute_eq",
    "drop",
    "encode",
    "eq2cfd",
    "exponential_family",
    "exponential_family_schema",
    "find_counterexample",
    "finite_branching_cells",
    "nonempty_witness",
    "prop_cfd_spc",
    "prop_cfd_spc_general",
    "prop_cfd_spc_report",
    "prop_cfd_spcu",
    "propagates",
    "propagates_general",
    "propagates_ptime_chase",
    "rbr",
    "resolvents",
    "view_is_empty",
]

