"""Run the slidechrom CLI with the tracer installed in every process.

    BENCH_TRACE_DIR=DIR python3 bench/traced_cli.py [slidechrom arguments...]

Each process that runs slidechrom code writes its trace aggregates to
``DIR/trace-<pid>.json`` when it ends.  Forked pool workers inherit
the wrappers and reset the copied counts; spawned workers re-import this
file as their main module, which installs a fresh tracer.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import slidechrom.cli  # noqa: E402
import tracer as tracing  # noqa: E402

TRACER = tracing.install()
DUMP_DIR = Path(os.environ.get("BENCH_TRACE_DIR", "."))


def _dump():
    # a spawned worker can reach both the finalizer and atexit
    path = DUMP_DIR / f"trace-{os.getpid()}.json"
    if not path.exists():
        path.write_text(json.dumps(TRACER.snapshot()))


def _after_fork(tracer):
    tracer.reset()
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)


atexit.register(_dump)
multiprocessing.util.register_after_fork(TRACER, _after_fork)

if __name__ == "__main__":
    sys.exit(slidechrom.cli.main(sys.argv[1:]))
