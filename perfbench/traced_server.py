"""Serve the planning API with the layer wrappers installed.

Same server as ``python -m repro service`` (same in-flight limit, its
own metrics registry), but every layer entry point listed in
:data:`layers.TARGETS` is wrapped before the service binds its routes.
The wrappers record nothing until the process receives SIGUSR1, so one
server can answer an untraced baseline phase first.  On SIGTERM the
server stops and writes its spans as JSON to ``--spans``.

    python3 perfbench/traced_server.py --spans spans.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def _stop(*_) -> None:
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    args = parser.parse_args()

    recorder = layers.Recorder(enabled=False)
    layers.install(recorder)
    signal.signal(
        signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True)
    )
    signal.signal(signal.SIGTERM, _stop)

    from repro.obs import MetricsRegistry
    from repro.service import PlanningServer

    server = PlanningServer(
        "127.0.0.1",
        0,
        max_inflight=64,  # the `repro service` default
        registry=MetricsRegistry(),
    )
    print(f"serving on {server.url}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(layers.to_json(recorder.spans), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
