"""Fleet orchestration: replica balancing with failover.

:class:`ReplicaSet` spreads requests over N identical workers (same
registered workspace): every check / cover / emptiness / batch request
goes to one live replica, chosen round-robin, and fails over to the
next one when a replica dies mid-request (idempotent requests only ever
produce one answer, so re-routing is safe).  A worker is marked dead on
its first ``unavailable`` failure and skipped until
:meth:`ReplicaSet.mark_alive` or a successful
:meth:`ReplicaSet.check_health` ping revives it.  Registrations and
Sigma diffs fan out to every replica so the fleet stays identical; a
fan-out that loses workers collects every per-worker failure into one
typed :class:`~repro.api.ApiError` naming which endpoints died.

    >>> from repro.api.orchestrator import ReplicaSet
    >>> # two workers; any mix of local://, tcp://..., http://... URLs
    >>> fleet = ReplicaSet(["local://", "local://"])
    >>> fleet.close()
"""

from __future__ import annotations

import concurrent.futures
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, Union

from .client import Client, connect
from .errors import ApiError, to_api_error
from .requests import Request, Response, SigmaUpdate, UpdateSigmaRequest, Verdict

__all__ = ["ReplicaSet"]

Endpoint = Union[str, Client]


class ReplicaSet:
    """Load-balances requests across identical replicas.

    Every :meth:`submit` (check / cover / emptiness / batch) goes to
    ONE live replica, chosen round-robin; a replica that fails with
    ``unavailable`` is marked dead and the request fails over to the
    next live one within the same call.  Service-level errors
    (``bad-request``, ``not-found``, ...) re-raise immediately — the
    endpoint answered, re-routing cannot change the answer.

    Replicas serve the same registered workspace; use
    :meth:`register_schema` / :meth:`register_sigma` /
    :meth:`register_view` / :meth:`delta_sigma`, which fan out, to keep
    them identical.

    ``endpoints`` are URLs (connected here, closed by :meth:`close`) or
    live :class:`~repro.api.client.Client` objects (left open — the
    caller owns them).  ``connect_options`` are forwarded to
    :func:`~repro.api.client.connect` for every URL endpoint (e.g.
    ``retry=RetryPolicy(...)``; ``local://`` ignores it).
    """

    def __init__(self, endpoints: Sequence[Endpoint], **connect_options) -> None:
        if not endpoints:
            raise ApiError(
                "bad-request", f"a {type(self).__name__} needs >= 1 endpoint"
            )
        self._owned: list[Client] = []
        self.workers: list[Client] = []
        try:
            for endpoint in endpoints:
                if isinstance(endpoint, Client):
                    self.workers.append(endpoint)
                else:
                    client = connect(endpoint, **connect_options)
                    self.workers.append(client)
                    self._owned.append(client)
        except BaseException:
            for client in self._owned:
                client.close()
            raise
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.workers), thread_name_prefix="repro-fleet"
        )
        self._health_guard = threading.Lock()
        self._dead: dict[int, str] = {}
        #: Dead-worker detections so far (each one is work re-routed
        #: onto survivors — the failover counter benches assert on).
        self.failovers = 0
        self._rr_guard = threading.Lock()
        self._rr = 0

    # ------------------------------------------------------------------
    # Liveness: mark-dead / mark-alive state, ping-driven health checks.
    # ------------------------------------------------------------------

    def _describe(self, index: int) -> str:
        return self.workers[index].url or f"worker {index}"

    def mark_dead(self, index: int, reason) -> None:
        """Record worker *index* as dead: skipped by every dispatch until
        revived by :meth:`mark_alive` or a successful health probe."""
        message = reason.message if isinstance(reason, ApiError) else str(reason)
        with self._health_guard:
            if index not in self._dead:
                self._dead[index] = message
                self.failovers += 1

    def mark_alive(self, index: int) -> None:
        """Put worker *index* back into rotation.

        A revived worker that actually restarted has an empty workspace —
        re-register (or let :meth:`register` fan out again) before it
        serves; its caches warm back up from traffic.
        """
        with self._health_guard:
            self._dead.pop(index, None)

    def live_workers(self) -> list[int]:
        """Indexes of the workers currently considered alive, in order."""
        with self._health_guard:
            return [i for i in range(len(self.workers)) if i not in self._dead]

    def health(self) -> list[dict]:
        """The current liveness book (no probes): one record per worker."""
        with self._health_guard:
            dead = dict(self._dead)
        return [
            {
                "index": index,
                "url": worker.url,
                "alive": index not in dead,
                "error": dead.get(index),
            }
            for index, worker in enumerate(self.workers)
        ]

    def check_health(self) -> list[dict]:
        """Ping every worker — dead ones too — and update the liveness book.

        Never raises: an unreachable worker is marked dead and reported
        with its error; a responsive one is marked alive (back in
        rotation) and reported with the endpoint's advertised
        capabilities (protocol, uptime, served count).
        """

        def probe(worker: Client, index: int) -> dict:
            try:
                pong = worker.ping()
            except Exception as exc:  # noqa: BLE001 - probe boundary
                error = to_api_error(exc)
                self.mark_dead(index, error)
                return {
                    "index": index,
                    "url": worker.url,
                    "alive": False,
                    "error": f"[{error.kind}] {error.message}",
                }
            self.mark_alive(index)
            report = {
                "index": index,
                "url": worker.url,
                "alive": True,
                "error": None,
            }
            for key in ("protocol", "uptime_s", "requests_served"):
                if key in pong:
                    report[key] = pong[key]
            return report

        return self._fan_out(probe)

    # ------------------------------------------------------------------
    # Fan-out with aggregated typed failures.
    # ------------------------------------------------------------------

    def _fan_out(self, call: Callable[[Client, int], object]) -> list:
        """Run ``call(worker, index)`` on every worker concurrently.

        Transports are not thread-safe, but each worker is driven by
        exactly one task per fan-out, and fan-outs never overlap (this
        class is itself single-caller, like the transports).  Every
        future is drained; if any failed, the per-worker failures are
        aggregated into ONE typed error naming which endpoints died —
        sibling outcomes are never silently discarded.  Workers that
        failed with ``unavailable`` are marked dead on the way.
        """
        futures = [
            self._pool.submit(call, worker, index)
            for index, worker in enumerate(self.workers)
        ]
        concurrent.futures.wait(futures)
        results: list = []
        failures: list[tuple[int, ApiError]] = []
        for index, future in enumerate(futures):
            exc = future.exception()
            if exc is None:
                results.append(future.result())
            else:
                error = to_api_error(exc)
                if error.kind == "unavailable":
                    self.mark_dead(index, error)
                failures.append((index, error))
        if failures:
            raise self._aggregate(failures)
        return results

    def _aggregate(self, failures: Sequence[tuple[int, ApiError]]) -> ApiError:
        """One typed error for many worker failures.

        A non-``unavailable`` kind wins (the request itself is wrong —
        retrying elsewhere cannot help); a fleet that only lost workers
        aggregates to ``unavailable``.
        """
        kind = next(
            (e.kind for _, e in failures if e.kind != "unavailable"),
            "unavailable",
        )
        detail = "; ".join(
            f"{self._describe(i)}: [{e.kind}] {e.message}" for i, e in failures
        )
        return ApiError(
            kind,
            f"{len(failures)}/{len(self.workers)} workers failed: {detail}",
        )

    # ------------------------------------------------------------------
    # Workspace fan-out.
    # ------------------------------------------------------------------

    def register(self, kind: str, name: str, doc, schema: str = "default") -> list:
        """Register one schema/sigma/view document on every worker."""
        method = {
            "schema": lambda w: w.register_schema(name, doc),
            "sigma": lambda w: w.register_sigma(name, doc),
            "view": lambda w: w.register_view(name, doc, schema=schema),
        }.get(kind)
        if method is None:
            raise ApiError(
                "bad-request",
                f"unknown register kind {kind!r}; kinds are schema, sigma, view",
            )
        return self._fan_out(lambda worker, _index: method(worker))

    def register_schema(self, name: str, schema) -> list:
        return self.register("schema", name, schema)

    def register_sigma(self, name: str, sigma) -> list:
        return self.register("sigma", name, sigma)

    def register_view(self, name: str, view, schema: str = "default") -> list:
        return self.register("view", name, view, schema=schema)

    def delta_sigma(self, request: UpdateSigmaRequest) -> list[SigmaUpdate]:
        """Apply one Sigma diff on every worker (keeps the fleet consistent)."""
        return self._fan_out(lambda worker, _index: worker.delta_sigma(request))

    # ------------------------------------------------------------------
    # Round-robin routing with failover.
    # ------------------------------------------------------------------

    def _next_live(self, tried: set[int]) -> int | None:
        live = [i for i in self.live_workers() if i not in tried]
        if not live:
            return None
        with self._rr_guard:
            index = live[self._rr % len(live)]
            self._rr += 1
        return index

    def _route(self, call: Callable[[Client], object]):
        """Run *call* on one live replica, failing over on death."""
        failures: list[tuple[int, ApiError]] = []
        tried: set[int] = set()
        while True:
            index = self._next_live(tried)
            if index is None:
                if failures:
                    raise self._aggregate(failures)
                raise ApiError(
                    "unavailable",
                    "no live replicas; mark one alive (or check_health a "
                    "recovered one) first",
                )
            tried.add(index)
            try:
                return call(self.workers[index])
            except ApiError as exc:
                if exc.kind != "unavailable":
                    raise
                self.mark_dead(index, exc)
                failures.append((index, exc))

    # ------------------------------------------------------------------
    # The balanced request surface (mirrors Client).
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Response:
        return self._route(lambda worker: worker.submit(request))

    def check(self, request) -> Verdict:
        return self.submit(request)

    def cover(self, request):
        return self.submit(request)

    def emptiness(self, request):
        return self.submit(request)

    def batch(self, request):
        return self.submit(request)

    def stats(self) -> dict:
        """One live replica's engine counters (round-robin like queries)."""
        return self._route(lambda worker: worker.stats())

    # ------------------------------------------------------------------
    # Fleet ops.
    # ------------------------------------------------------------------

    def ping(self) -> list[dict]:
        return self._fan_out(lambda worker, _index: worker.ping())

    def close(self) -> None:
        """Shut the thread pool; close the clients this fleet opened."""
        self._pool.shutdown(wait=True)
        for client in self._owned:
            client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
