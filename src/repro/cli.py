"""Command-line interface: a thin client of URL-addressed endpoints.

Drives the library from JSON files (formats in :mod:`repro.io`):

    repro check   --schema s.json --sigma deps.json --view v.json --phi target.json
    repro propagate-batch --schema s.json --sigma deps.json --view v.json --phi targets.json
    repro cover   --schema s.json --sigma deps.json --view v.json [--out cover.json]
    repro empty   --schema s.json --sigma deps.json --view v.json
    repro serve   [--schema ... --sigma ... --view ...] [--transport ndjson|http]
                  [--port N]
    repro validate --schema s.json --rules deps.json --data db.json
    repro repair  --schema s.json --rules deps.json --data db.json [--out fixed.json]
    repro fuzz    --cases N --seed S [--matrix baseline,cache,...]
                  [--corpus DIR] [--replay FILE ...] [--harvest]
    repro stream  [--trace t.json | --seed S --edits N] [--ops-per-edit M]
                  [--verify] [--out report.json]

Every analysis subcommand routes through the typed client SDK
(:func:`repro.api.connect`): the ``--endpoint URL`` flag (or the
``REPRO_ENDPOINT`` environment variable) picks where the work runs —

- ``local://`` (default): a fresh in-process
  :class:`~repro.api.PropagationService`, exactly the pre-endpoint
  behavior;
- ``tcp://host:port``: a long-lived ``repro serve --port`` NDJSON
  server, so repeated invocations share its warm cache;
- ``http://host:port``: a ``repro serve --transport http`` front end
  (loadbalancer-friendly).

Resilience flags (any service-routed subcommand): ``--retries N`` /
``--backoff S`` retry transient ``unavailable`` failures of idempotent
requests with exponential backoff, and ``--replica URL`` (repeated)
load-balances the request across identical workers with automatic
failover (see :mod:`repro.api.orchestrator`).

The input files are registered on the endpoint per invocation (names
``"default"``, the view also under its own name), then a typed request
is submitted and capability-routed server-side.  ``repro serve`` is the
other half: it keeps one warm service alive behind NDJSON (stdin or
``--port``) or HTTP (``--transport http``).

Engine knobs (shared by check / propagate-batch / cover / empty / serve):

- ``--no-cache`` gives the uncached ablation baseline;
- ``--stats`` prints the endpoint's engine counters to stderr;
- ``--cache-dir DIR`` persists verdicts/covers in a schema-versioned
  sqlite store under ``DIR``, shared across processes (warm restarts);
- ``--store-url URL`` (or ``REPRO_STORE_URL``) names the persistent
  tier as a URL — ``sqlite://DIR`` (the ``--cache-dir`` store; every
  process pointed at one directory shares its warmth, with
  cross-process single-flight stampede control) or ``memory://``;
  takes precedence over ``--cache-dir``;
- ``--cache-size N`` bounds each in-memory memo tier (and each tableau
  cache layer) to an N-entry LRU;
- ``--kernel bitset|baseline`` picks the chase/closure implementation
  (default bitset — the packed fast path; ``REPRO_KERNEL`` overrides
  the default; answers are byte-identical either way).

``repro --profile <subcommand> ...`` runs any subcommand under cProfile
and prints the top 20 functions by cumulative time to stderr.

``--no-cache`` and ``--kernel`` are per-request settings and apply on
any endpoint; the infrastructure knobs (``--cache-dir`` /
``--cache-size`` / ``--store-url``) configure the *service* and
therefore apply to ``local://`` endpoints and ``serve`` — a remote
server keeps its own.

Exit codes follow the stable taxonomy of :mod:`repro.api.errors`:
0 on a "positive" analysis result (propagated / nonempty / clean), 1 on
the negative one, 2 for format / not-found / bad-request errors, 3 for
unsupported view languages, 4 for internal failures, 5 when a remote
endpoint is unreachable — so shell pipelines can branch on the verdict
and on the failure class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import uuid
from typing import Sequence

from . import io as repro_io
from .api import (
    ApiError,
    CheckRequest,
    Client,
    CoverRequest,
    EXIT_NEGATIVE,
    EXIT_OK,
    EmptinessRequest,
    PropagationService,
    ReplicaSet,
    RetryPolicy,
    Workspace,
    connect,
    serve_http,
    serve_stdio,
    serve_tcp,
    to_api_error,
)
from .cleaning import detect, repair, summarize

#: The endpoint every subcommand targets when neither ``--endpoint`` nor
#: ``REPRO_ENDPOINT`` is given: a fresh in-process service.
DEFAULT_ENDPOINT = "local://"


def _endpoint(args) -> str:
    return (
        getattr(args, "endpoint", None)
        or os.environ.get("REPRO_ENDPOINT")
        or DEFAULT_ENDPOINT
    )


def _store_url(args) -> str | None:
    """``--store-url``, falling back to the ``REPRO_STORE_URL`` environment."""
    return (
        getattr(args, "store_url", None)
        or os.environ.get("REPRO_STORE_URL")
        or None
    )


def _service_options(args) -> dict:
    """The local-service knobs (server-side properties on remote endpoints)."""
    return dict(
        use_cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        cache_size=getattr(args, "cache_size", None),
        store_url=_store_url(args),
        kernel=getattr(args, "kernel", None),
    )


def _request_settings(args) -> dict:
    """The per-request settings, honored by local and remote endpoints."""
    return dict(
        use_cache=False if getattr(args, "no_cache", False) else None,
        kernel=getattr(args, "kernel", None),
    )


def _retry_policy(args) -> RetryPolicy | None:
    """``--retries/--backoff`` as a transport policy (``None`` = fail fast)."""
    retries = getattr(args, "retries", 0) or 0
    if retries < 1:
        return None
    return RetryPolicy(retries=retries, backoff=getattr(args, "backoff", 0.05))


def _client(args) -> tuple[Client, str]:
    """Connect to the invocation's endpoint and register the input files.

    With ``--replica URL`` (repeatable) the "client" is a
    :class:`~repro.api.ReplicaSet` over those endpoints instead:
    registrations fan out to every replica and the request load-balances
    across them with failover — the subcommands drive both shapes
    through the same methods.

    The files are registered under one per-invocation unique name (the
    returned *scope*), so concurrent invocations sharing a warm remote
    server never clobber each other's registrations.  Warmth is still
    shared: the engine's cache keys are structural (Sigma/view content),
    not registration names.
    """
    retry = _retry_policy(args)
    replicas = list(getattr(args, "replica", None) or [])
    if replicas:
        if getattr(args, "endpoint", None):
            raise ApiError(
                "bad-request",
                "--endpoint and --replica are mutually exclusive; list every "
                "replica with --replica",
            )
        client = ReplicaSet(replicas, retry=retry)
    else:
        url = _endpoint(args)
        if url.startswith("local:"):
            client = connect(url, retry=retry, **_service_options(args))
        else:
            client = connect(url, retry=retry)
    scope = f"cli-{uuid.uuid4().hex[:12]}"
    try:
        schema = getattr(args, "schema", None)
        sigma = getattr(args, "sigma", None)
        view = getattr(args, "view", None)
        if schema is not None:
            client.register_schema(scope, repro_io.load_json(schema))
        if sigma is not None:
            client.register_sigma(scope, repro_io.load_json(sigma))
        if view is not None:
            client.register_view(scope, repro_io.load_json(view), schema=scope)
    except BaseException:
        client.close()
        raise
    return client, scope


def _load_targets(path):
    """The ``--phi`` file: one dependency or a list of them."""
    doc = repro_io.load_json(path)
    targets = doc if isinstance(doc, list) else [doc]
    return [repro_io.dependency_from_json(item) for item in targets]


def _print_stats(client: Client, args) -> None:
    if getattr(args, "stats", False):
        print(f"# {client.stats()['engine']}", file=sys.stderr)


def _cmd_check(args) -> int:
    phis = _load_targets(args.phi)
    client, scope = _client(args)
    with client:
        result = client.check(
            CheckRequest(
                view=scope, sigma=scope, targets=phis, witness=args.witness,
                **_request_settings(args),
            )
        )
        for index, (phi, verdict) in enumerate(zip(phis, result.propagated)):
            print(f"{'PROPAGATED' if verdict else 'not propagated'}: {phi}")
            if not verdict and result.witnesses is not None:
                # Witnesses cross the wire as repro.io instance documents.
                print(json.dumps(result.witnesses[index], indent=2))
        _print_stats(client, args)
    return EXIT_OK if result.all_propagated else EXIT_NEGATIVE


def _cmd_propagate_batch(args) -> int:
    phis = _load_targets(args.phi)
    client, scope = _client(args)
    with client:
        result = client.check(
            CheckRequest(
                view=scope, sigma=scope, targets=phis, **_request_settings(args)
            )
        )
        for phi, verdict in zip(phis, result.propagated):
            print(f"{'PROPAGATED' if verdict else 'not propagated'}: {phi}")
        propagated = sum(result.propagated)
        print(f"# {propagated}/{len(result.propagated)} propagated", file=sys.stderr)
        _print_stats(client, args)
    if args.out:
        survivors = [
            phi for phi, verdict in zip(phis, result.propagated) if verdict
        ]
        repro_io.dump_json(repro_io.dependencies_to_json(survivors), args.out)
        print(
            f"# wrote {len(survivors)} propagated CFDs to {args.out}",
            file=sys.stderr,
        )
    return EXIT_OK if result.all_propagated else EXIT_NEGATIVE


def _cmd_cover(args) -> int:
    client, scope = _client(args)
    with client:
        result = client.cover(
            CoverRequest(view=scope, sigma=scope, **_request_settings(args))
        )
        _print_stats(client, args)
    for phi in result.cover:
        print(phi)
    if args.out:
        repro_io.dump_json(repro_io.dependencies_to_json(result.cover), args.out)
        print(f"# wrote {len(result.cover)} CFDs to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_empty(args) -> int:
    client, scope = _client(args)
    with client:
        result = client.emptiness(
            EmptinessRequest(view=scope, sigma=scope, **_request_settings(args))
        )
        _print_stats(client, args)
    print("EMPTY" if result.empty else "NONEMPTY")
    return EXIT_NEGATIVE if result.empty else EXIT_OK


def _cmd_fuzz(args) -> int:
    # Imported here: the fuzz harness pulls in the replica/server
    # stack, which the data-file subcommands never need.
    from .fuzz import run_fuzz
    from .fuzz.runner import harvest_corpus, replay_corpus

    matrix = (
        [name.strip() for name in args.matrix.split(",") if name.strip()]
        if args.matrix
        else None
    )
    if args.replay:
        problems = replay_corpus(args.replay, matrix=matrix)
        for problem in problems:
            print(problem)
        print(
            f"# replayed {len(args.replay)} corpus file(s): "
            f"{len(problems)} problem(s)",
            file=sys.stderr,
        )
        return EXIT_OK if not problems else EXIT_NEGATIVE
    if args.harvest:
        written = harvest_corpus(
            args.cases, args.seed, args.corpus, matrix=matrix
        )
        for path in written:
            print(path)
        print(f"# wrote {len(written)} corpus file(s)", file=sys.stderr)
        return EXIT_OK
    report = run_fuzz(
        args.cases,
        args.seed,
        matrix=matrix,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        log=lambda message: print(message, file=sys.stderr),
    )
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if report.failures:
        print(
            f"# {len(report.failures)} oracle disagreement(s); shrunk "
            f"repros under {args.corpus}",
            file=sys.stderr,
        )
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_stream(args) -> int:
    # Imported here: the streaming driver rides on the client SDK and is
    # only needed by this subcommand.
    from .streaming import (
        ColdReference,
        StreamingSession,
        generate_trace,
        load_trace,
        save_trace,
    )

    if args.trace:
        trace = load_trace(args.trace)
    else:
        if args.edits is None:
            raise ApiError(
                "bad-request",
                "either --trace FILE or --seed N --edits N is required",
            )
        trace = generate_trace(
            args.seed, args.edits, ops_per_edit=args.ops_per_edit
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"# trace written to {args.save_trace}", file=sys.stderr)
    verify = ColdReference(trace) if args.verify else None
    client, _scope = _client(args)
    with client:
        report = StreamingSession(client, trace, verify=verify).run()
        _print_stats(client, args)
    doc = report.to_json()
    doc["trace"] = {
        "seed": trace.get("seed"),
        "edits": trace.get("edits"),
        "ops_per_edit": trace.get("ops_per_edit"),
        "verified": bool(verify),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"# report written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return EXIT_OK


def _cmd_serve(args) -> int:
    workspace = Workspace.from_files(
        schema=args.schema, sigma=args.sigma, view=args.view
    )
    service = PropagationService(workspace, **_service_options(args))
    try:
        if args.transport == "http":
            serve_http(service, args.host, args.port or 0)
        elif args.port is not None:
            serve_tcp(service, args.host, args.port)
        else:
            serve_stdio(service)
    except KeyboardInterrupt:  # pragma: no cover - interactive escape
        pass
    finally:
        service.close()
    return EXIT_OK


def _reject_remote_endpoint(args, command: str) -> None:
    # Only an *explicit* --endpoint is rejected: an ambient
    # REPRO_ENDPOINT set for the service-routed subcommands must not
    # break these purely-local data commands.
    url = getattr(args, "endpoint", None)
    if url and not url.startswith("local:"):
        raise ApiError(
            "bad-request",
            f"'{command}' runs on local data files and has no wire op; it "
            f"only accepts local:// endpoints, got {url!r}",
        )
    if getattr(args, "replica", None):
        raise ApiError(
            "bad-request",
            f"'{command}' runs on local data files and has no wire op; "
            f"--replica does not apply",
        )


def _cmd_validate(args) -> int:
    _reject_remote_endpoint(args, "validate")
    schema = repro_io.schema_from_json(repro_io.load_json(args.schema))
    rules = repro_io.dependencies_from_json(repro_io.load_json(args.rules))
    database = repro_io.instance_from_json(repro_io.load_json(args.data), schema)
    violations = detect(rules, database)
    if not violations:
        print("clean: no violations")
        return EXIT_OK
    for summary in summarize(violations):
        print(
            f"{summary.total} violation(s), {summary.dirty_tuples} dirty "
            f"tuple(s): {summary.rule}"
        )
    return EXIT_NEGATIVE


def _cmd_repair(args) -> int:
    _reject_remote_endpoint(args, "repair")
    schema = repro_io.schema_from_json(repro_io.load_json(args.schema))
    rules = repro_io.dependencies_from_json(repro_io.load_json(args.rules))
    database = repro_io.instance_from_json(repro_io.load_json(args.data), schema)
    fixed, edits = repair(rules, database)
    print(f"repaired with {len(edits)} edit(s)")
    for edit in edits:
        print(
            f"  {edit.relation}.{edit.attribute}: "
            f"{edit.old_value!r} -> {edit.new_value!r}"
        )
    if args.out:
        repro_io.dump_json(repro_io.instance_to_json(fixed), args.out)
        print(f"# wrote repaired instance to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CFD propagation analysis (Fan et al., VLDB 2008)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the subcommand under cProfile and print the top 20 "
        "functions by cumulative time to stderr (exit code unchanged)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, required=True):
        p.add_argument(
            "--schema", required=required, help="schema JSON file"
        )
        p.add_argument(
            "--sigma", required=required, help="source dependencies JSON"
        )
        p.add_argument("--view", required=required, help="view JSON file")

    def endpoint_option(p):
        p.add_argument(
            "--endpoint",
            help="endpoint URL to run against: local:// (default), "
            "tcp://host:port (a `repro serve --port` server) or "
            "http://host:port (`repro serve --transport http`); "
            "REPRO_ENDPOINT sets the default",
        )
        p.add_argument(
            "--replica",
            action="append",
            metavar="URL",
            help="a replica endpoint (repeat per replica): the request "
            "load-balances across the listed identical workers and fails "
            "over when one dies; mutually exclusive with --endpoint",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            help="retry transient endpoint failures (unavailable, "
            "idempotent requests only) up to this many times with "
            "exponential backoff (default 0: fail fast)",
        )
        p.add_argument(
            "--backoff",
            type=float,
            default=0.05,
            help="base backoff delay in seconds before the first retry, "
            "doubling per attempt with jitter (default 0.05)",
        )

    def engine_options(p):
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the engine caches (ablation baseline; also "
            "disables --cache-dir)",
        )
        p.add_argument(
            "--stats",
            action="store_true",
            help="print the endpoint's engine cache counters to stderr",
        )
        p.add_argument(
            "--cache-dir",
            help="persist verdicts/covers in a sqlite store under this "
            "directory (shared across processes; survives restarts; "
            "local:// endpoints and serve — remote servers keep their own)",
        )
        p.add_argument(
            "--cache-size",
            type=int,
            help="LRU capacity of each in-memory memo tier (default "
            "unbounded; local:// endpoints and serve)",
        )
        p.add_argument(
            "--store-url",
            help="persistent-tier store URL: sqlite://DIR (same as "
            "--cache-dir; processes sharing DIR share warmth) or "
            "memory://; takes precedence over --cache-dir; "
            "REPRO_STORE_URL sets the default (local:// endpoints and "
            "serve)",
        )
        p.add_argument(
            "--kernel",
            choices=("bitset", "baseline"),
            help="chase/closure implementation: bitset (packed fast path, "
            "the default) or baseline (the differential oracle); "
            "REPRO_KERNEL sets the default; answers are identical either "
            "way (honored by any endpoint)",
        )

    check = sub.add_parser("check", help="decide Sigma |=_V phi")
    common(check)
    check.add_argument(
        "--phi", required=True, help="target dependency JSON (single or list)"
    )
    check.add_argument(
        "--witness", action="store_true", help="print a counterexample database"
    )
    endpoint_option(check)
    engine_options(check)
    check.set_defaults(func=_cmd_check)

    batch = sub.add_parser(
        "propagate-batch",
        help="decide Sigma |=_V phi for a batch of targets (cached engine)",
    )
    common(batch)
    batch.add_argument(
        "--phi", required=True, help="target dependency JSON (single or list)"
    )
    endpoint_option(batch)
    engine_options(batch)
    batch.add_argument("--out", help="write the propagated targets to this JSON file")
    batch.set_defaults(func=_cmd_propagate_batch)

    cover = sub.add_parser(
        "cover", help="compute a propagation cover (cached engine)"
    )
    common(cover)
    endpoint_option(cover)
    engine_options(cover)
    cover.add_argument("--out", help="write the cover to this JSON file")
    cover.set_defaults(func=_cmd_cover)

    empty = sub.add_parser("empty", help="is the view always empty?")
    common(empty)
    endpoint_option(empty)
    engine_options(empty)
    empty.set_defaults(func=_cmd_empty)

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based differential fuzzing: seeded random "
        "Sigma/view cases checked for byte-level agreement across the "
        "engine/transport configuration matrix",
    )
    fuzz.add_argument(
        "--cases", type=int, default=200, help="number of cases (default 200)"
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="run seed; the same seed reproduces the same case "
        "fingerprints (default 0)",
    )
    fuzz.add_argument(
        "--matrix",
        help="comma-separated configuration subset (default: every entry); "
        "the baseline reference is always included",
    )
    fuzz.add_argument(
        "--corpus",
        default="tests/fuzz_corpus",
        help="directory for shrunk repro files (default tests/fuzz_corpus)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing cases unshrunk (harness triage)",
    )
    fuzz.add_argument(
        "--replay",
        nargs="+",
        metavar="FILE",
        help="replay these corpus files through the matrix instead of "
        "generating cases",
    )
    fuzz.add_argument(
        "--harvest",
        action="store_true",
        help="scan --cases agreeing cases and commit one shrunk "
        "answer-pinning anchor per profile to --corpus",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    stream = sub.add_parser(
        "stream",
        help="replay a continuous-edit trace (Sigma edits interleaved "
        "with check/cover traffic) against an endpoint, measuring "
        "per-edit latency and retained warmth",
    )
    stream.add_argument(
        "--trace",
        help="replay this repro-trace/1 JSON file (instead of generating "
        "one from --seed/--edits)",
    )
    stream.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generation seed; the same seed reproduces the same trace "
        "byte for byte (default 0)",
    )
    stream.add_argument(
        "--edits",
        type=int,
        help="number of Sigma edits to generate (required without --trace)",
    )
    stream.add_argument(
        "--ops-per-edit",
        type=int,
        default=2,
        help="check/cover ops interleaved after each edit (default 2)",
    )
    stream.add_argument(
        "--save-trace",
        metavar="FILE",
        help="also write the (generated or loaded) trace to FILE",
    )
    stream.add_argument(
        "--out", help="write the session report JSON to this file"
    )
    stream.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify every answer against a fresh cold "
        "recompute as the session runs (slow; the byte-identity contract "
        "of the delta path)",
    )
    endpoint_option(stream)
    engine_options(stream)
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="long-lived server over one warm service: NDJSON on stdin "
        "(default) or TCP (--port), HTTP with --transport http",
    )
    common(serve, required=False)
    engine_options(serve)
    serve.add_argument(
        "--transport",
        choices=("ndjson", "http"),
        default="ndjson",
        help="wire format: ndjson (stdin, or TCP with --port) or http "
        "(HTTP/1.1 JSON; --port 0 if unset)",
    )
    serve.add_argument(
        "--port",
        type=int,
        help="listen on TCP instead of stdin (0 picks an ephemeral port, "
        "announced on stderr)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default loopback)"
    )
    serve.set_defaults(func=_cmd_serve)

    validate = sub.add_parser("validate", help="detect CFD violations in data")
    validate.add_argument("--schema", required=True)
    validate.add_argument("--rules", required=True)
    validate.add_argument("--data", required=True)
    endpoint_option(validate)
    validate.set_defaults(func=_cmd_validate)

    rep = sub.add_parser("repair", help="greedily repair CFD violations")
    rep.add_argument("--schema", required=True)
    rep.add_argument("--rules", required=True)
    rep.add_argument("--data", required=True)
    rep.add_argument("--out", help="write the repaired instance here")
    endpoint_option(rep)
    rep.set_defaults(func=_cmd_repair)
    return parser


def _profiled(args) -> int:
    """Run the subcommand under cProfile; stats go to stderr.

    The report never contaminates stdout (where verdicts, covers and
    JSON documents land), so ``--profile`` composes with shell pipelines
    and ``--out`` files.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return args.func(args)
    finally:
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(20)
        print(buffer.getvalue(), file=sys.stderr, end="")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every failure is normalized through the :class:`repro.api.ApiError`
    taxonomy: one ``error[kind]: message`` line on stderr and the kind's
    stable exit code (see :data:`repro.api.EXIT_CODES`).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.profile:
            return _profiled(args)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the process boundary
        error = to_api_error(exc)
        print(f"error[{error.kind}]: {error.message}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
