"""Kernel selection: which chase/closure implementation answers a query.

Two kernels exist (``KERNELS``):

- ``"bitset"`` — the factorised, bit-packed fast path of this package:
  attribute closures on int bitmasks, equivalence classes on int
  union-find, the single-chase branch-pair loop on a packed union-find
  over interned cell ids (:mod:`repro.kernel.chase`), and MinCover's
  implication tests on the swap-symmetric two-tuple chase, kept per
  attribute group in three bitmasks, over a Sigma compiled once per
  relation (:mod:`repro.kernel.implication`).
- ``"baseline"`` — the original frozenset/dict implementation, kept as
  the differential oracle.

The kernel is an *engine* setting (``PropagationEngine(kernel=...)``,
service/wire ``kernel`` field, CLI ``--kernel``), resolved here from the
``REPRO_KERNEL`` environment variable with default ``"bitset"``.  It is
deliberately **not** part of any memo or persistent cache key: both
kernels answer byte-identically (the fuzz matrix enforces it), so warm
lines written under one kernel stay valid under the other.

The bitset kernel covers exactly the *single-chase* setting (no
finite-domain attribute in the view, or ``assume_infinite``, and no
``max_instantiations`` cap) on a cache-enabled engine; compiled
implication likewise needs a cache-enabled engine and no finite-domain
attribute in ``min_cover``'s schema.  Anything else falls back to the
baseline automatically (see ``docs/kernel.md``).
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_KERNEL", "KERNELS", "resolve_kernel", "validate_kernel"]

KERNELS = ("bitset", "baseline")
DEFAULT_KERNEL = "bitset"

#: Environment knob consulted when no explicit kernel is given.
ENV_VAR = "REPRO_KERNEL"


def validate_kernel(value: str) -> str:
    """Check *value* names a known kernel; returns it unchanged."""
    if value not in KERNELS:
        raise ValueError(
            f"unknown kernel {value!r}; expected one of {', '.join(KERNELS)}"
        )
    return value


def resolve_kernel(value: str | None = None) -> str:
    """The effective kernel: *value*, else ``$REPRO_KERNEL``, else bitset."""
    if value is not None:
        return validate_kernel(value)
    env = os.environ.get(ENV_VAR)
    if env:
        return validate_kernel(env)
    return DEFAULT_KERNEL
