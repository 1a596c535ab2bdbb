"""Property tests of the peel round trip: a random sparse Z[t] polynomial,
expanded in slides or keys and summed back with tpoly.combine, is the
input again, no expansion entry is zero, and widening the window at the
top leaves a slide expansion unchanged."""

import itertools

from hypothesis import given, settings, strategies as st

from slidechrom import (
    TPolynomial,
    WeakComposition,
    Window,
    expand_in_keys,
    expand_in_slides,
    key_polynomial,
    slide_polynomial,
)
from slidechrom.tpoly import combine

# weight <= 3 on [lo, 3]; the pools are small, so draws repeat exponents
POOLS = {
    lo: [WeakComposition(e, lo) for e in itertools.product(range(4), repeat=4 - lo) if sum(e) <= 3]
    for lo in (-1, 0, 1)
}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def polynomials(draw, lo):
    """Terms summed from signed (exponent, t-degree, coefficient) entries,
    with some entries drawn again negated so that terms cancel."""
    entry = st.tuples(
        st.sampled_from(POOLS[lo]), st.integers(0, 3), st.sampled_from([-3, -2, -1, 1, 2, 3])
    )
    entries = draw(st.lists(entry, max_size=12))
    if entries:
        undone = draw(st.lists(st.sampled_from(entries), max_size=4))
        entries += [(e, d, -c) for e, d, c in undone]
    terms: dict = {}
    for e, d, c in entries:
        tc = terms.setdefault(e, {})
        tc[d] = tc.get(d, 0) + c
    return TPolynomial(Window(lo, 3), terms)  # drops what cancelled


def _no_zero_entry(expansion) -> bool:
    return all(tc and all(tc.values()) for tc in expansion.values())


@PROPERTY
@given(st.sampled_from([-1, 0, 1]).flatmap(polynomials), st.integers(1, 10**6))
def test_slide_peel_round_trip(p, k):
    w = p.window
    exp = expand_in_slides(p, w)
    assert _no_zero_entry(exp)
    assert combine(exp, lambda a: slide_polynomial(a, w).terms.items()) == p.terms
    # no slide reaches past its index's top, so a window k indices higher
    # expands p the same (test_cli.py checks the cost on a 10^10-wide one)
    assert expand_in_slides(p, Window(w.lo, w.hi + k)) == exp


@PROPERTY
@given(polynomials(1))
def test_key_peel_round_trip(p):
    exp = expand_in_keys(p, 3)
    assert _no_zero_entry(exp)
    assert combine(exp, lambda m: key_polynomial(m, 3).terms.items()) == p.terms
