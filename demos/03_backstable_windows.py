#!/usr/bin/env python3
"""Sliding the color window left: truncations and the product identity.

The slide expansion of a chromatic polynomial keeps indices whose
support reaches into nonpositive positions.  Those terms vanish on the
positive window but wake up as soon as colors 0, -1, ... are allowed.
This demo widens the window step by step and checks the coloring count
agrees every time, then decomposes one tail-strong index into its
fundamental-times-slide staircase.
"""

from slidechrom import (
    PartialDyckPath,
    TPolynomial,
    WeakComposition,
    Window,
    fundamental_qsym,
    slide_polynomial,
    tail_strong_decomposition,
    verify_backstable,
)

path = PartialDyckPath.parse("ENEENENEE@3,3")
print(f"path {path.literal}")
for m in (0, 1, 2, 3):
    rep = verify_backstable(path, m) if m else None
    if m == 0:
        print("  m=0: window [1,3], the positive story")
        continue
    status = "agree" if rep.equal else "DISAGREE"
    n_active = sum(
        1
        for a in rep.expansion
        if not slide_polynomial(a, rep.window).is_zero()
    )
    print(
        f"  m={m}: window [{rep.window.lo},{rep.window.hi}], "
        f"{n_active}/{len(rep.expansion)} slide terms active, brute {status}"
    )
print()

# One tail-strong index, decomposed: each step moves one unit of the
# deepest nonpositive part across the bar, trading it for a fundamental
# factor on the nonpositive alphabet.
a = WeakComposition((1, 2, 0, 2, 0, 1), -1)
print(f"tail-strong index {a}:")
for gamma, delta in tail_strong_decomposition(a, 4):
    print(f"  F[{','.join(map(str, gamma))}] * S[{delta}]")

# and the identity itself, over two extra columns
m, r = 2, 4
w = Window(1 - m, r)
lhs = slide_polynomial(a, w)
rhs = TPolynomial.zero(w)
for gamma, delta in tail_strong_decomposition(a, r):
    f = fundamental_qsym(gamma, m).shifted(-m)
    rhs = rhs + f.with_window(w) * slide_polynomial(delta, Window(1, r)).with_window(w)
print(f"product identity over [{w.lo},{w.hi}]: {'holds' if lhs == rhs else 'fails'}")
