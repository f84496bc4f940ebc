"""The bit-packed fast path for cold propagation queries.

Interns attributes, constants and chase variables to dense integer ids
so the hot fixpoints — attribute closure, ``ComputeEQ`` union-find and
the branch-pair chase on flat int arrays, and the CFD implication tests
of MinCover and of single-branch SPC checks over distinct relations
(:mod:`repro.kernel.implication`) on three bitmasks per test — run
without frozenset/dict/``SymVar`` algebra.  Selected per engine with
``kernel="bitset"`` (the default; ``REPRO_KERNEL`` overrides the
default), with the baseline implementations kept intact as the
differential oracle and the automatic fallback for constructs the
kernel does not cover.  See ``docs/kernel.md``.
"""

from .closure import bitset_closure, clear_program_cache, compile_fds
from .config import DEFAULT_KERNEL, ENV_VAR, KERNELS, resolve_kernel, validate_kernel
from .eqpack import PackedEquivalenceClasses

__all__ = [
    "DEFAULT_KERNEL",
    "ENV_VAR",
    "KERNELS",
    "PackedEquivalenceClasses",
    "bitset_closure",
    "clear_program_cache",
    "compile_fds",
    "resolve_kernel",
    "validate_kernel",
]
