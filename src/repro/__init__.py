"""repro — reproduction of "Propagating Functional Dependencies with
Conditions" (Fan, Ma, Hu, Liu, Wu; VLDB 2008).

Public API highlights:

- :class:`repro.CFD`, :class:`repro.FD` — dependencies.
- :func:`repro.implies`, :func:`repro.min_cover`, :func:`repro.is_consistent`
  — dependency reasoning.
- :class:`repro.SPCView`, :class:`repro.SPCUView` and the expression nodes
  — views.
- :func:`repro.propagates`, :func:`repro.find_counterexample`,
  :func:`repro.view_is_empty` — propagation decision procedures.
- :func:`repro.prop_cfd_spc` — the PropCFD_SPC minimal-cover algorithm.
- :mod:`repro.api` — the unified service API: :class:`repro.Workspace`,
  :class:`repro.PropagationService`, typed requests
  (:class:`repro.CheckRequest`, :class:`repro.CoverRequest`, ...) with
  capability routing, the :class:`repro.ApiError` taxonomy, and the
  ``repro serve`` asyncio server (see ``docs/api.md``).
- :mod:`repro.generators` — the Section 5 workload generators.

The free functions :func:`repro.propagates`, :func:`repro.prop_cfd_spc`
and :func:`repro.prop_cfd_spcu` are the plain, uncached procedures; the
service is the cached and routed surface over the same procedures.
"""

from .algebra import (
    AttrEq,
    ConstEq,
    ConstantRelation,
    DatabaseInstance,
    Difference,
    Product,
    Projection,
    Relation,
    RelationAtom,
    RelationRef,
    Renaming,
    SPCUView,
    SPCView,
    Selection,
    Union,
    classify,
    evaluate,
    operators,
)
from .core import (
    BOOL,
    CFD,
    Attribute,
    Const,
    DatabaseSchema,
    Domain,
    FD,
    INT,
    REAL,
    RelationSchema,
    SPECIAL,
    STRING,
    WILDCARD,
    attribute_closure,
    equivalent,
    fd_implies,
    finite,
    implies,
    is_consistent,
    min_cover,
    minimal_cover,
    witness_tuple,
)
from .propagation import (
    EngineStats,
    PropagationEngine,
    ThreeSat,
    find_counterexample,
    nonempty_witness,
    prop_cfd_spc,
    prop_cfd_spc_report,
    prop_cfd_spcu,
    propagates,
    propagates_ptime_chase,
    view_is_empty,
)
from .api import (
    ApiError,
    BatchRequest,
    CheckRequest,
    CoverRequest,
    CoverResult,
    EmptinessRequest,
    EmptinessResult,
    PropagationService,
    Verdict,
    Workspace,
)

__version__ = "1.0.0"

__all__ = [
    "ApiError",
    "AttrEq",
    "Attribute",
    "BOOL",
    "BatchRequest",
    "CFD",
    "CheckRequest",
    "CoverRequest",
    "CoverResult",
    "EmptinessRequest",
    "EmptinessResult",
    "PropagationService",
    "Verdict",
    "Workspace",
    "Const",
    "ConstEq",
    "ConstantRelation",
    "DatabaseInstance",
    "DatabaseSchema",
    "Difference",
    "Domain",
    "EngineStats",
    "FD",
    "INT",
    "Product",
    "Projection",
    "PropagationEngine",
    "REAL",
    "Relation",
    "RelationAtom",
    "RelationRef",
    "RelationSchema",
    "Renaming",
    "SPCUView",
    "SPCView",
    "SPECIAL",
    "STRING",
    "Selection",
    "ThreeSat",
    "Union",
    "WILDCARD",
    "attribute_closure",
    "classify",
    "equivalent",
    "evaluate",
    "fd_implies",
    "find_counterexample",
    "finite",
    "implies",
    "is_consistent",
    "min_cover",
    "minimal_cover",
    "nonempty_witness",
    "operators",
    "prop_cfd_spc",
    "prop_cfd_spc_report",
    "prop_cfd_spcu",
    "propagates",
    "propagates_ptime_chase",
    "view_is_empty",
    "witness_tuple",
]
