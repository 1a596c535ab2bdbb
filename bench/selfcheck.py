"""Tiny-size self-check of the benchmark itself, in about a minute.

    python3 bench/selfcheck.py

For every workload it runs a few items and demands that
  * a clean run passes every oracle check (failed == 0),
  * a run whose first output is deliberately damaged is caught
    (failed >= 1, correct false, so it would show in fail_ratio),
  * the traced run prints every per-layer metric, and its counts repeat
    exactly when the same seed runs again,
and that the tracer names a target it cannot find instead of reading 0.
Exits 1 and names the failed check otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def bench(workload: str, *extra: str) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seconds", "1", "--items", "3", *extra]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def missing_target_is_named() -> bool:
    """Install the tracer here with one target the package lacks."""
    missing = ("slidechrom.posets", "no_such_function", "posets.missing", False)
    tracer.TARGETS.append(missing)
    try:
        installed = tracer.install()
    finally:
        tracer.TARGETS.remove(missing)
    return installed.unresolved == ["slidechrom.posets.no_such_function"]


def main() -> int:
    problems = []
    if not missing_target_is_named():
        problems.append("tracer: a missing target was not reported as unresolved")
    for workload in WORKLOADS:
        clean = bench(workload)
        if not clean["correct"] or clean["failed"] or set(clean["metrics"]) != {n for n, _ in END_TO_END}:
            problems.append(f"{workload}: clean run failed or printed the wrong metrics")
        bad = bench(workload, "--corrupt")
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{workload}: a damaged output was not counted as failed")
        first = bench(workload, "--trace", "1")
        second = bench(workload, "--trace", "1")
        if set(first["metrics"]) != {n for n, _ in PER_LAYER}:
            problems.append(f"{workload}: traced run printed the wrong metrics")
        counts = [n for n, unit in PER_LAYER if unit == "count"]
        moved = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if moved:
            problems.append(f"{workload}: counts differ between identical runs: {moved}")
        print(f"{workload}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
