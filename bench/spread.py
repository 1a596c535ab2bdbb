"""Run the benchmark on many seeds and summarise each metric's spread.

    python3 bench/spread.py --runs 10 --first-seed 11 [--workloads keys-scan,cli-sweep]
                            [--seconds 20] [--out bench/trajectory/NAME.json]

Each run is one ``run.py`` invocation with its own seed.  For every
end-to-end metric it prints the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure the metric's bound in BENCHMARK.json is
checked against.  Then one traced run per workload at the default seed
records the per-layer metrics.  ``--out`` writes all of it as one JSON
file, a point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent, timeout=180)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    details = dict(lines[-2]["details"], run_s=time.monotonic() - t0)
    return lines[0]["machine"], details, lines[-1]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    doc = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        run_seconds: list[float] = []
        correct = True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            machine, details, result = one_run(workload, seed, args.seconds, 0)
            doc.setdefault("machine", machine)
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            run_seconds.append(details["run_s"])
            print(f"{workload} seed {seed}: {details['run_s']:.1f} s, rounds {details['rounds']}, calibration "
                  f"{machine['calibration_ms']:.1f} ms "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), file=sys.stderr)
        _, details, traced = one_run(workload, DEFAULT_SEED, args.seconds, 1)
        entry = {
            "correct": correct,
            "run_seconds": run_seconds,
            "end_to_end": {name: dict(summary(v), values=v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_seed": DEFAULT_SEED,
        }
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:<14} {name:<14} median {s['median']:<12.5g} spread {s['spread']:.3f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
