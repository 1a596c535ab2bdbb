"""Rebuild the cost tables that run.py draws inputs from.

    python3 bench/make_costs.py peel      # writes peel_costs.json
    python3 bench/make_costs.py window    # writes window_costs.json
    python3 bench/make_costs.py keys      # writes keys_costs.json

Each table lists candidate inputs with their cold-cache time in ms on the
machine that built it, the median of three (a single run for keys).  ``run.py`` uses the times
only to choose inputs of a steady cost profile; the program never sees
them.

peel: every STRIDE-th six-vertex path with r <= 6 in scan order whose
chromatic polynomial on [1, r] is nonzero and has at most MAX_TERMS
terms (larger ones take seconds each to peel, longer than a round);
the time is that of ``expand_in_slides``.  run.py further leaves out
those above PEEL_MAX_MS.

window: every path of P(5, r <= 4); the time is that of one
window-verify item, ``verify_backstable(p, 2)`` plus
``verify_fundamental_expansion(p, 5)``.

keys: every STRIDE-th six-vertex path with r <= 6 in scan order; the time
is that of ``key_expansion_of_chromatic`` with every cache empty.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from run import population  # noqa: E402
from slidechrom import keys, slides  # noqa: E402
from slidechrom.chromatic import (  # noqa: E402
    chromatic_brute,
    verify_backstable,
    verify_fundamental_expansion,
)
from slidechrom.compositions import Window  # noqa: E402
from slidechrom.dyck import PartialDyckPath  # noqa: E402

STRIDE = 8
MAX_TERMS = 250


def cold_ms(fn, reps=3) -> float:
    times = []
    for _ in range(reps):
        slides.slide_polynomial.cache_clear()
        keys._KEY_CACHE.clear()
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return round(statistics.median(times), 3)


def peel_rows():
    for literal in population(6, 6)[::STRIDE]:
        path = PartialDyckPath.parse(literal)
        poly = chromatic_brute(path, Window(1, path.r))
        if not poly.is_zero() and len(poly.terms) <= MAX_TERMS:
            yield [literal, len(poly.terms),
                   cold_ms(lambda: slides.expand_in_slides(poly, poly.window))]


def window_rows():
    for literal in population(5, 4):
        path = PartialDyckPath.parse(literal)
        yield [literal, cold_ms(lambda: (verify_backstable(path, 2),
                                         verify_fundamental_expansion(path, path.n)))]


def keys_rows():
    for literal in population(6, 6)[::STRIDE]:
        path = PartialDyckPath.parse(literal)
        yield [literal, cold_ms(lambda: keys.key_expansion_of_chromatic(path, {}), reps=1)]


TABLES = {"peel": peel_rows, "window": window_rows, "keys": keys_rows}


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in TABLES:
        print(__doc__, file=sys.stderr)
        return 2
    name = sys.argv[1]
    rows = list(TABLES[name]())
    (BENCH / f"{name}_costs.json").write_text(
        '{"rows": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")
    print(f"{len(rows)} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
