"""Traced stand-in for ``python -m bihomlie.cli`` in the benchmark's traced run.

Usage: python bench/cli_child.py TRACE_FILE CLI_ARGS...

Times the fresh-interpreter import of ``bihomlie.cli`` before anything else
is imported, runs ``main`` under the tracer, writes the tracer's sums and
spans to TRACE_FILE as JSON, and exits with ``main``'s exit code.  The
program's stdout, stderr and ``--out`` files are exactly those of the plain
command.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import bihomlie.cli

    import_s = time.perf_counter() - t0

    import json

    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = bihomlie.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        raw = tracer.raw()
        raw["totals"]["cli.import"] = import_s
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"raw": raw, "spans": tracer.spans}, fh)
    sys.exit(code)
