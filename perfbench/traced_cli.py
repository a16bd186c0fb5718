"""Run the icc-kit command line with the benchmark's layer wrappers installed.

    python perfbench/traced_cli.py SPANS.json simulate --config sim.json

Behaves like ``python -m icc_kit.cli`` (same output, same exit code) and
also writes the spans of the run, the import time of ``icc_kit.cli`` and
the wall time of ``cli.main`` to SPANS.json.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from icc_kit import cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    begin = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        done = time.perf_counter()
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": imported - start, "main_s": done - begin,
                       "spans": tracer.spans, "absent": sorted(tracer.absent)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
