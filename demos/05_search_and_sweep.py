#!/usr/bin/env python3
"""Exhaustive verification sweeps at desk scale.

Everything the library claims is checked against brute force over every
partial Dyck path at the given size.  This demo runs the small end of
each sweep in-process and prints a one-line verdict per statement; the
CLI exposes the same sweeps with process-level parallelism.
"""

import time

from slidechrom import (
    Window,
    compare_chromatic,
    count_paths,
    enumerate_paths,
    search_negative_records,
    verify_backstable,
    verify_fundamental_expansion,
)
from slidechrom.tpoly import t_is_nonnegative


def sweep(name, check, n_max, r_max):
    t0 = time.time()
    total = bad = 0
    for n in range(n_max + 1):
        for r in range(r_max + 1):
            for p in enumerate_paths(n, r):
                total += 1
                if not check(p):
                    bad += 1
    verdict = "all pass" if bad == 0 else f"{bad} FAILURES"
    print(f"  {name:<28} {total:>5} paths  {verdict}  ({time.time() - t0:.1f}s)")


print("verification sweeps:")
sweep(
    "slide-positivity theorem",
    lambda p: (
        lambda rep: rep.equal
        and all(t_is_nonnegative(tc) for tc in rep.expansion.values())
    )(compare_chromatic(p, Window(1, p.r))),
    4, 3,
)
sweep("backstable window m=1", lambda p: verify_backstable(p, 1).equal, 3, 3)
sweep("backstable window m=2", lambda p: verify_backstable(p, 2).equal, 3, 3)
sweep(
    "fundamental truncation", lambda p: verify_fundamental_expansion(p, p.n), 3, 3
)

print()
print("key-positivity search (none expected for r <= 3; n = 4 first fails at r = 5):")
for n in (2, 3, 4):
    t0 = time.time()
    recs = search_negative_records(n, 3)
    print(f"  n={n}, r<=3: {len(recs)} negative records ({time.time() - t0:.1f}s)")

print()
print(f"path counts grow fast: |P(6,6)| = {count_paths(6, 6)};")
print("the full six-vertex scan lives behind `slidechrom sweep keys 6 6`.")
