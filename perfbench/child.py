"""Runs one ``hdrdeghost`` CLI command in its own process, as the installed
console script would, optionally under the tracer.

    python3 child.py <launch perf_counter> <op id> <trace out | -> <cli args...>

The package is imported from the checkout's ``src/``. With a trace path the
tracer is installed before ``cli.main`` runs; the spans, counters and
``cli.startup_s`` (launch to the call of ``main``) are written there when
``main`` returns. The exit code is ``main``'s.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

launched, op, trace_out, argv = (float(sys.argv[1]), int(sys.argv[2]),
                                 sys.argv[3], sys.argv[4:])
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

tracer = None
if trace_out != "-":
    from tracer import Tracer
    tracer = Tracer().install()
    tracer.unit = op

from hdrdeghost import cli  # noqa: E402  (after sys.path is set)

started = perf_counter()
rc = cli.main(argv)
if tracer is not None:
    tracer.uninstall()
    tracer.add("cli.startup_s", started - launched)
    Path(trace_out).write_text(json.dumps(tracer.records()))
sys.exit(rc)
