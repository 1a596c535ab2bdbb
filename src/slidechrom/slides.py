"""Slide polynomials over integer windows, their expansion algorithm
(tpoly.expand over compositions.slide_terms, each slide set read on its
index's own digits), fundamental quasisymmetric polynomials, and the
tail-strong product decomposition that splits a slide index into a
nonpositive fundamental part and positive slide parts.
"""

from __future__ import annotations

from functools import lru_cache

from .compositions import WeakComposition, Window, slide_set, slide_terms
from .tpoly import TCoeff, TPolynomial, expand


# Bounded so a long-running process cannot grow it without limit.  Only
# fundamental_qsym, the CLI and tests build slide polynomials; the engine
# reads the packed memo, which translated pairs share.
@lru_cache(maxsize=4096)
def slide_polynomial(a: WeakComposition, w: Window) -> TPolynomial:
    """Sum of x^b over the slide set of a inside the window (slide_set);
    see slide_polynomial_by_chains for the independent model."""
    # the members are distinct exponents inside w
    return TPolynomial._canonical(w, {b: {0: 1} for b in slide_set(a, w)})


def slide_polynomial_by_chains(a: WeakComposition, w: Window) -> TPolynomial:
    """Chain-model slide polynomial: one block per part of flatten(a),
    the block's values capped by the index the part occupies, weakly
    increasing inside blocks and strictly increasing across them.
    """
    parts = []
    for idx, v in a.items():
        parts.append((idx, v))
    terms: dict[WeakComposition, TCoeff] = {}

    def rec(block: int, taken: list[int], prev: int, strict: bool):
        if block == len(parts):
            e = WeakComposition.from_values(taken)
            tc = terms.setdefault(e, {})
            tc[0] = tc.get(0, 0) + 1
            return
        cap, size = parts[block]
        cap = min(cap, w.hi)

        def fill(k: int, lastv: int, first: bool):
            if k == size:
                rec(block + 1, taken, lastv, True)
                return
            lo = max(w.lo, lastv + 1 if (first and strict) else lastv)
            if first and not taken:
                lo = w.lo
            for val in range(lo, cap + 1):
                taken.append(val)
                fill(k + 1, val, False)
                taken.pop()

        fill(0, prev, True)

    rec(0, [], w.lo - 1, False)
    return TPolynomial(w, terms)


def expand_in_slides(p: TPolynomial, w: Window) -> dict[WeakComposition, TCoeff]:
    """Write p as a Z[t]-combination of slide polynomials on w.

    Peeled by tpoly.expand from w.lo with the basis
    compositions.slide_terms: a slide set read on its index's own digits,
    which is the index's slide set on w, since no member reaches past the
    index's top digit.  Only w.lo and the exponents set the digits, never
    w's width.  Raises ValueError if p has an exponent outside w
    and tpoly.ExpansionError (a RuntimeError) if the peel cannot certify
    its result, which would indicate a bug.
    """
    for e in p.terms:
        if not e.supported_in(w):
            raise ValueError(f"exponent {e} not supported in window {w}")
    return expand(p, w.lo, slide_terms)


def fundamental_qsym(alpha: tuple[int, ...], m: int) -> TPolynomial:
    """Fundamental quasisymmetric polynomial F_alpha(x_1..x_m): the slide
    polynomial on [1, m] of alpha right-justified to end at index m
    (Assaf-Searles).  It vanishes when alpha has more than m parts."""
    if any(p <= 0 for p in alpha):
        raise ValueError(f"parts must be positive, got {alpha}")
    return slide_polynomial(WeakComposition(alpha, m - len(alpha) + 1), Window(1, m))


def is_tail_strong(a: WeakComposition) -> bool:
    """Entries at nonpositive indices form a contiguous block ending at 0
    (vacuously true when the support is entirely positive)."""
    neg = [i for i in a.support() if i <= 0]
    if not neg:
        return True
    return neg[-1] == 0 and neg == list(range(neg[0], 1))


def tail_strong_decomposition(
    a: WeakComposition, r: int
) -> list[tuple[tuple[int, ...], WeakComposition]]:
    """All ways to split the positive part of a tail-strong index across
    a concatenation or near-concatenation boundary.

    Returns pairs (alpha . gamma, delta-part placed back at its indices);
    the first factor feeds a fundamental polynomial on the nonpositive
    letters, the second a slide polynomial on x_1..x_r.
    """
    if not is_tail_strong(a):
        raise ValueError(f"{a} is not tail-strong")
    if any(i > r for i in a.support()):
        raise ValueError(f"support of {a} exceeds r={r}")
    alpha = tuple(v for i, v in a.items() if i <= 0)
    pos_items = [(i, v) for i, v in a.items() if i >= 1]
    s = len(pos_items)
    out = []
    for c in range(s + 1):
        gamma = alpha + tuple(v for _, v in pos_items[:c])
        delta = WeakComposition.from_items(pos_items[c:])
        out.append((gamma, delta))
        if c < s:
            idx, part = pos_items[c]
            for g in range(1, part):
                gamma2 = alpha + tuple(
                    v for _, v in pos_items[:c]
                ) + (g,)
                delta_items = [(idx, part - g)] + pos_items[c + 1 :]
                out.append((gamma2, WeakComposition.from_items(delta_items)))
    return out

