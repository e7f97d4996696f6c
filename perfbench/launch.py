"""Traced stand-in for ``python -m qell.cli``.

Usage: ``python3 perfbench/launch.py DUMP.json <qell cli arguments...>``.
Imports the CLI (timing the import), installs the tracer's wrappers, runs
``qell.cli.main`` on the arguments, restores the originals and writes the
counters and spans to DUMP.json.  Standard output and the exit code are the
CLI's own.  PERFBENCH_OP names the operation the spans belong to.
"""

from __future__ import annotations

import json
import os
import sys
import time

t0 = time.perf_counter()
import qell.cli  # noqa: E402

import_s = time.perf_counter() - t0
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.scope("timed")
    tracer.op = os.environ.get("PERFBENCH_OP")
    try:
        rc = qell.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "stats": tracer.dump(),
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
