"""Traced stand-in for `python -m solgeo.cli`: times a fresh
`import solgeo.cli`, installs the span recorder, runs
`solgeo.cli.main(argv)` and writes the spans to a JSON file.

Usage: python perfbench/launch_cli.py TRACE_OUT -- SOLGEO_ARGS...
"""

from __future__ import annotations

import json
import sys
import time


def main():
    trace_out = sys.argv[1]
    if sys.argv[2] != "--":
        print("usage: launch_cli.py TRACE_OUT -- SOLGEO_ARGS...",
              file=sys.stderr)
        return 2
    argv = sys.argv[3:]
    t0 = time.perf_counter()
    import solgeo.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = solgeo.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
