"""Span tracing from outside the program: wrap each layer's public calls.

A :class:`Tracer` replaces every timed function with a wrapper that
records one span per call (start, end, and the enclosing span on the same
thread) and folds it into per-function totals: calls, total time and
self time (the span minus the spans of its direct children).  Nothing
under ``src/`` is edited; the wrappers are installed at run time.

Modules import most timed functions by name (``from .wire import
handle_request``), so a module-level function is replaced at its
definition *and* at every ``repro.*`` module attribute bound to the same
function object.  Methods are replaced on their class, which every
caller reaches through attribute lookup.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

#: (layer, timed-call label, defining module, qualified name).  The
#: metric names are ``<layer>.<label>.calls`` and ``<layer>.<label>.self_ms``.
LAYERS: list[tuple[str, str, str, str]] = [
    ("api.client", "request_to_json", "repro.api.wire", "request_to_json"),
    ("api.client", "Transport.request", "repro.api.transport", "Transport.request"),
    ("api.client", "response_from_json", "repro.api.wire", "response_from_json"),
    (
        "api.server",
        "PropagationServer.respond_line",
        "repro.api.server",
        "PropagationServer.respond_line",
    ),
    ("api.wire", "handle_request", "repro.api.wire", "handle_request"),
    ("api.wire", "request_from_json", "repro.api.wire", "request_from_json"),
    ("api.wire", "response_to_json", "repro.api.wire", "response_to_json"),
    ("api.service", "route_check", "repro.api.service", "PropagationService.route_check"),
    ("api.service", "check", "repro.api.service", "PropagationService.check"),
    ("api.service", "cover", "repro.api.service", "PropagationService.cover"),
    ("api.service", "delta_sigma", "repro.api.service", "PropagationService.delta_sigma"),
    (
        "propagation.engine",
        "check_many",
        "repro.propagation.engine.core",
        "PropagationEngine.check_many",
    ),
    (
        "propagation.engine",
        "cover_many",
        "repro.propagation.engine.core",
        "PropagationEngine.cover_many",
    ),
    (
        "propagation.engine",
        "invalidate_relations",
        "repro.propagation.engine.core",
        "PropagationEngine.invalidate_relations",
    ),
    ("propagation.check", "find_counterexample", "repro.propagation.check", "find_counterexample"),
    (
        "kernel",
        "PackedPairRunner.find_violation",
        "repro.kernel.chase",
        "PackedPairRunner.find_violation",
    ),
    ("kernel", "bitset_closure", "repro.kernel.closure", "bitset_closure"),
    ("propagation.cover", "prop_cfd_spc_report", "repro.propagation.cover", "prop_cfd_spc_report"),
    ("propagation.cover", "rbr", "repro.propagation.rbr", "rbr"),
    ("propagation.cover", "compute_eq", "repro.propagation.eqclasses", "compute_eq"),
    ("propagation.cover", "prop_cfd_spcu", "repro.propagation.spcu_cover", "prop_cfd_spcu"),
    ("core.mincover", "min_cover", "repro.core.mincover", "min_cover"),
    ("core.implication", "implies", "repro.core.implication", "implies"),
    ("core.chase", "chase", "repro.core.chase", "chase"),
]

#: Metric prefix per timed call, in table order.
SPAN_NAMES = [f"{layer}.{label}" for layer, label, _, _ in LAYERS]


class Tracer:
    """Installs span wrappers on every :data:`LAYERS` entry and totals them.

    Totals are kept per span name: ``calls``, ``total_s`` and ``self_s``.
    Each thread keeps its own span stack, so a call handed to an executor
    thread starts a new root there; the cross-thread wait is derived by
    the caller from the totals (see ``run.py``).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.total_s: dict[str, float] = defaultdict(float)
            self.self_s: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in SPAN_NAMES
            }

    # -- spans ---------------------------------------------------------

    def _enter(self) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]

    def _wrap(self, name: str, fn):
        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args, **kwargs):
                frame = self._enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(name, frame)

        else:

            def wrapper(*args, **kwargs):
                frame = self._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(name, frame)

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (_, _, module_name, qualname) in zip(SPAN_NAMES, LAYERS):
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            sites = [owner]
            if not path:  # a module-level function: every by-name import too
                sites += [
                    module
                    for module_name_, module in list(sys.modules.items())
                    if module_name_.startswith("repro")
                    and module is not owner
                    and getattr(module, attr, None) is original
                ]
            for site in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)
