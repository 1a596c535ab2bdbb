"""One benchmark round, in a fresh process so that every cache starts cold.

Reads a job as JSON on stdin, runs its items one after another (a closed
loop with one client), then optionally checks every output against an
oracle, and prints one JSON result line on stdout.  Run by ``run.py``:

    {"workload": "keys-scan", "items": [...], "trace": false,
     "check": true, "corrupt": false, "fixtures": {...}}
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calib import Calibrator  # noqa: E402
from slidechrom import chromatic, compositions, dyck, keys, slides, tpoly  # noqa: E402


def _canon(exp) -> list:
    """A {WeakComposition: {deg: coef}} map as sorted plain data."""
    return sorted(
        [e.lo, list(e.entries), sorted([d, c] for d, c in tc.items() if c)]
        for e, tc in exp.items()
        if any(tc.values())
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started its program.

    getrusage's ru_maxrss also counts the parent's peak, which a child
    inherits at exec; /proc's VmHWM does not."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------ keys-scan


def step_keys_scan(literal, cache):
    path = dyck.PartialDyckPath.parse(literal)
    return keys.key_expansion_of_chromatic(path, cache)


def check_keys_scan(literal, exp, fixtures):
    """Sum of coefficient * key polynomial must be the brute-force
    chromatic polynomial, and a pinned path must give its records."""
    path = dyck.PartialDyckPath.parse(literal)
    w = compositions.Window(1, path.r)
    total = tpoly.TPolynomial.zero(w)
    for b, tc in exp.items():
        total = total + keys.key_polynomial(b, path.r).scaled(tc)
    if total != chromatic.chromatic_brute(path, w):
        return False
    if literal in fixtures:
        negatives = {b: tc for b, tc in exp.items() if any(c < 0 for c in tc.values())}
        return _canon(negatives) == fixtures[literal]
    return True


# ------------------------------------------------------------ window-verify


def step_window_verify(literal, cache):
    path = dyck.PartialDyckPath.parse(literal)
    return chromatic.verify_backstable(path, 2), chromatic.verify_fundamental_expansion(path, path.n)


def check_window_verify(literal, out, fixtures):
    """Both verdicts must be true, and both must follow from the program's
    polynomials rather than be taken on trust: the two routes of the
    report must agree, and the fundamental expansion summed here must be
    the brute-force polynomial on [1 - n, 0]."""
    rep, fundamental = out
    if not (rep.equal and fundamental and rep.brute == rep.via_slides):
        return False
    path = dyck.PartialDyckPath.parse(literal)
    w = compositions.Window(1 - path.n, 0)
    total = tpoly.TPolynomial.zero(w)
    for alpha, tc in chromatic.fundamental_expansion(path).items():
        total = total + slides.fundamental_qsym(alpha, path.n).shifted(-path.n).scaled(tc)
    return total == chromatic.chromatic_brute(path, w)


# ------------------------------------------------------------ slides-peel


def step_slides_peel(item, cache):
    poly = tpoly.TPolynomial.loads(item[1])
    return slides.expand_in_slides(poly, poly.window)


def check_slides_peel(item, exp, fixtures):
    """The peel must be the theorem's slide expansion minus the indices
    whose slide polynomial vanishes on [1, r]: those with a part at an
    index below 1 (descent compositions never reach past r)."""
    path = dyck.PartialDyckPath.parse(item[0])
    _, theorem = chromatic.chromatic_via_slides(path, compositions.Window(1, path.r))
    kept = {a: tc for a, tc in theorem.items() if a.weight() == 0 or a.lo >= 1}
    return _canon(exp) == _canon(kept)


def _output_data(workload, out):
    if workload == "window-verify":
        rep, fundamental = out
        return [rep.equal, fundamental, rep.brute.dumps(), rep.via_slides.dumps()]
    return _canon(out)


def _corrupt(workload, outs):
    """Damage the first output, as a wrong program would."""
    if isinstance(outs[0], Exception):
        return
    if workload == "window-verify":
        rep, fundamental = outs[0]
        wrong = rep.via_slides + tpoly.TPolynomial.one(rep.window)
        outs[0] = (dataclasses.replace(rep, via_slides=wrong), fundamental)
        return
    exp = dict(outs[0])
    if exp:
        first = min(exp, key=lambda e: (e.lo, e.entries))
        exp[first] = {d: c + 1 for d, c in exp[first].items()}
    else:
        exp[compositions.WeakComposition((1,), 1)] = {0: 1}
    outs[0] = exp


WORKLOADS = {
    "keys-scan": (step_keys_scan, check_keys_scan),
    "window-verify": (step_window_verify, check_window_verify),
    "slides-peel": (step_slides_peel, check_slides_peel),
}


def main() -> int:
    job = json.loads(sys.stdin.read())
    workload = job["workload"]
    items = job["items"]
    step, check = WORKLOADS[workload]
    tracer = None
    cache = {}
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install()
        cache = tracing.CountingCache()

    latencies = []
    outs = []
    cal = Calibrator()
    cal.run()
    spent0 = cal.spent_s
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for index, item in enumerate(items):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = step(item, cache)
            else:
                with tracer.item_span(index):
                    out = step(item, cache)
        except Exception as exc:  # a failed item is counted, not fatal
            out = exc
        latencies.append((time.perf_counter() - start) * 1000.0)
        outs.append(out)
        cal.maybe()
    # the bursts between items are not the program's time
    wall = time.perf_counter() - t0 - (cal.spent_s - spent0)
    cpu = time.process_time() - cpu0 - (cal.spent_s - spent0)
    cal.run()
    rss_mb = peak_rss_mb()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "latencies_ms": latencies,
        "cal_ms": cal.times_ms,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace"]["key_lookups"] = [cache.lookups, cache.hits]
    if job.get("corrupt"):
        _corrupt(workload, outs)
    result["digests"] = [
        f"error:{type(o).__name__}" if isinstance(o, Exception)
        else _digest(_output_data(workload, o))
        for o in outs
    ]
    if job["check"]:
        fixtures = job.get("fixtures", {})
        result["failed"] = [
            index for index, (item, out) in enumerate(zip(items, outs))
            if isinstance(out, Exception) or not check(item, out, fixtures)
        ]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
