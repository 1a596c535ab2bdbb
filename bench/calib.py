"""Host-speed calibration: a fixed burst of pure-Python work, timed.

The benchmark shares a few cores of a host whose speed drifts: a fixed
loop can run up to 1.8 times slower for stretches of seconds to minutes.  Each round
therefore runs short bursts of the same fixed work between its items
(outside every timed item), and run.py rescales the round's times by
``REF_MS / mean burst``: a time in ``ref_ms`` is the time the round
would have taken on a host that runs one burst in ``REF_MS``.  The mean,
not the median: a round's time is a sum, and the stalls that lengthen
some bursts lengthen the items too (over 14 rounds of one input the
scaled round time varied by 2.8 % with the mean, 6.4 % with the median,
and 13.7 % unscaled).  The program under test never runs inside a
burst, so a change to it cannot move the scale; a change to this file
changes the unit and needs a new baseline.
"""

from __future__ import annotations

import time

# Mean burst on the 2-core Xeon VM the benchmark was defined on.
REF_MS = 5.5
# A round runs a burst whenever this long has passed since the last one.
EVERY_S = 0.1


def burst() -> float:
    """Run the fixed work once; return its time in ms.

    Small tuples, sorts, frozensets and dicts of dicts, allocated and
    hashed: the operations the program's polynomial and composition
    arithmetic is made of.  On the defining host this tracked the
    program's speed drift better than an arithmetic or permutation loop.
    """
    t0 = time.perf_counter()
    out: dict = {}
    for i in range(3000):
        key = tuple(sorted((i * 7 % 11, i % 5, i * 3 % 13)))
        row = out.setdefault(key, {})
        row[i % 17] = row.get(i % 17, 0) + 1
        fs = frozenset(key)
        out[fs] = len(fs)
    ms = (time.perf_counter() - t0) * 1000.0
    if sum(sum(row.values()) for row in out.values() if isinstance(row, dict)) != 3000:
        raise AssertionError("calibration burst miscounted")
    return ms


class Calibrator:
    """Bursts interleaved with a round's items, and the time they took."""

    def __init__(self):
        self.times_ms: list[float] = []
        self.spent_s = 0.0
        self.last = 0.0  # perf_counter() when the last burst ended

    def run(self) -> None:
        t0 = time.perf_counter()
        self.times_ms.append(burst())
        self.last = time.perf_counter()
        self.spent_s += self.last - t0

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.run()


if __name__ == "__main__":
    # python3 calib.py N: run N bursts, print their times as JSON
    import json
    import sys

    print(json.dumps([burst() for _ in range(int(sys.argv[1]))]))
