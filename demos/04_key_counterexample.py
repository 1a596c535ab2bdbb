#!/usr/bin/env python3
"""Key-basis coefficients go negative.

Slide expansions of these chromatic polynomials are always nonnegative;
expanding in key polynomials instead can fail.  Nothing fails with
r <= 3 through four vertices, but EENEENENEENEE@4,5 already has one -t^2
coefficient (``slidechrom sweep keys 4 5``).  This demo replays the
first pinned six-vertex witness, a graph whose key expansion carries two
-t^2 coefficients.
Recomputing takes a few seconds; finding it from scratch means scanning
about ten thousand paths (``slidechrom sweep keys 6 5``).
"""

from slidechrom import (
    PartialDyckPath,
    Window,
    chromatic_brute,
    dyck_graph,
    key_expansion_of_chromatic,
    key_polynomial,
    load_negative_fixtures,
    restriction_map,
)
from slidechrom.tpoly import combine, t_is_nonnegative, t_str

records = load_negative_fixtures()
lit = records[0].path
path = PartialDyckPath.parse(lit)
print(f"witness path  {lit}")
print(f"edges         {dyck_graph(path).sorted_edges()}")
print(f"restriction   {restriction_map(path)}")
print()

expansion = key_expansion_of_chromatic(path)
print(f"key expansion has {len(expansion)} terms; the offending ones:")
for b in sorted(expansion, key=lambda e: (e.lo, e.entries)):
    tc = expansion[b]
    if not t_is_nonnegative(tc):
        print(f"  kappa[{b}]  coefficient {t_str(tc)}")
print()

# Independent confirmation: summing key polynomials against these
# coefficients reproduces the brute-force chromatic polynomial exactly.
w = Window(1, path.r)
total = combine(expansion, lambda b: key_polynomial(b, path.r).terms.items())
ok = total == chromatic_brute(path, w).terms
print(f"reconstruction against brute force: {'exact' if ok else 'MISMATCH'}")
print()
print(f"{len(records)} pinned records over {len({r.path for r in records})} paths;")
print("rerun the full scan with:  slidechrom sweep keys 6 6")
