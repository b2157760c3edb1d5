"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python -m perfbench.launcher --out spans.json --port 0 --state-dir DIR

Same service configuration as ``python -m repro serve --port 0
--state-dir DIR``; the analysis and server boundaries of
:mod:`perfbench.layers` record spans in this process.  When the server
stops (``POST /shutdown``) every wrapper is removed and *out* receives
the spans and the boundaries that were missing or left wrapped.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.layers import (
    ANALYSIS_BOUNDARIES,
    SERVER_BOUNDARIES,
    install,
    wrapped_boundaries,
)
from perfbench.spans import SpanRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--state-dir", required=True)
    args = parser.parse_args(argv)

    from repro.service.server import ServiceConfig, serve

    boundaries = ANALYSIS_BOUNDARIES + SERVER_BOUNDARIES
    recorder = SpanRecorder("server")
    patcher, missing = install(recorder, boundaries)
    try:
        code = serve(ServiceConfig(port=args.port, state_dir=args.state_dir))
    finally:
        patcher.restore()
    left = wrapped_boundaries(boundaries)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": recorder.spans,
                "missing": missing,
                "left": left,
            },
            fh,
            separators=(",", ":"),
        )
    return code if not left else 3


if __name__ == "__main__":
    sys.exit(main())
