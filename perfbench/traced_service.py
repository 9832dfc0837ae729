"""Run ``python -m repro.service`` with the layer wrappers installed.

Used only by traced ``service_mix`` runs, so the chase, implication and api
spans of the solves the service performs are recorded in the server
process.  The service is started exactly as ``-m repro.service`` would
start it; when it has drained (SIGTERM), the per-layer metrics are written
as JSON to the path given first::

    python perfbench/traced_service.py OUT.json --port 0 --universe ABCD ...
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from repro.service.__main__ import main as serve

    tracer = tracing.Tracer()
    with tracing.install(tracer):
        code = serve(argv)
    metrics = tracing.layer_metrics(tracer)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": {k: list(v) for k, v in metrics.items()},
                   "spans": tracer.spans()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
