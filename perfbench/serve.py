"""Launch one ``repro`` NDJSON server on ``tcp://127.0.0.1:<free port>``.

Usage: ``python3 perfbench/serve.py [--trace]`` from the repository root.

The server is the one ``repro serve --port 0`` runs (a default
:class:`~repro.api.PropagationService`: ``jobs=1``, ``shards=1``) and
announces ``listening on HOST:PORT`` on stderr.  A ``shutdown`` request
stops it, and so does the end of its stdin, so a benchmark that dies
takes its server with it.  With ``--trace`` every layer call is wrapped
by :class:`tracing.Tracer`, and stdin carries commands the benchmark
client sends between requests:

- ``reset`` clears the span totals and prints ``ok``;
- ``dump`` prints the span totals as one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _control(tracer) -> None:
    for line in sys.stdin:
        command = line.strip()
        if tracer is not None and command == "reset":
            tracer.reset()
            print("ok", flush=True)
        elif tracer is not None and command == "dump":
            print(json.dumps(tracer.snapshot()), flush=True)
    os._exit(0)


def main(argv: list[str]) -> int:
    from repro.api import PropagationService
    from repro.api.server import serve_tcp

    tracer = None
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()
    with PropagationService() as service:
        serve_tcp(service, "127.0.0.1", 0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
