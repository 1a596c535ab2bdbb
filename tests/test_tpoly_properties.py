"""Property tests of the Z[t] arithmetic that tpoly.combine carries: the
ring axioms of TPolynomial, scaling and evaluation at x = 1 as maps into
Z[t], and the divided difference, on windows with nonpositive indices and
t-coefficients of several degrees and both signs."""

import itertools

from hypothesis import given, settings, strategies as st

from slidechrom import TPolynomial, WeakComposition, Window, divided_difference

WINDOWS = (Window(-2, 0), Window(-1, 1), Window(0, 2))
DIVIDED_WINDOW = Window(-1, 3)
# weight <= 2 on each window; the pools are small, so draws repeat exponents
POOLS = {
    w: [
        WeakComposition(e, w.lo)
        for e in itertools.product(range(3), repeat=w.hi - w.lo + 1)
        if sum(e) <= 2
    ]
    for w in WINDOWS + (DIVIDED_WINDOW,)
}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# up to three t-degrees, each with a nonzero coefficient of either sign
T_COEFFS = st.dictionaries(
    st.integers(0, 3), st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3
)


@st.composite
def polynomials(draw, w, max_entries=6):
    """Terms summed from (exponent, t-coefficient) entries, with some
    entries drawn again negated so that terms cancel."""
    entries = draw(st.lists(st.tuples(st.sampled_from(POOLS[w]), T_COEFFS), max_size=max_entries))
    if entries:
        undone = draw(st.lists(st.sampled_from(entries), max_size=3))
        entries += [(e, {d: -c for d, c in tc.items()}) for e, tc in undone]
    terms: dict = {}
    for e, tc in entries:
        acc = terms.setdefault(e, {})
        for d, c in tc.items():
            acc[d] = acc.get(d, 0) + c
    return TPolynomial(w, terms)  # drops what cancelled


ANY = st.sampled_from(WINDOWS).flatmap(polynomials)


def constant(tc, w):
    return TPolynomial.monomial(WeakComposition(), w, tc)


@PROPERTY
@given(ANY, ANY, ANY)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@PROPERTY
@given(ANY, ANY, T_COEFFS)
def test_scaling_and_evaluation(a, b, tc):
    w = a.window
    assert a.scaled(tc) == a * constant(tc, w)
    assert -a == a.scaled({0: -1})

    def at_ones(p):
        return constant(p.evaluate_all_ones(), w)

    # a monomial evaluates to its coefficient, and sums and products carry over
    for e, t in a.terms.items():
        assert TPolynomial.monomial(e, w, t).evaluate_all_ones() == t
    assert at_ones(a + b) == at_ones(a) + at_ones(b)
    assert at_ones(a * b) == at_ones(a) * at_ones(b)


def swapped(p, i):
    """s_i p: entries i and i + 1 of every exponent exchanged."""
    s = {i: i + 1, i + 1: i}
    return TPolynomial(
        p.window,
        {
            WeakComposition.from_items((s.get(k, k), v) for k, v in e.items()): tc
            for e, tc in p.terms.items()
        },
    )


@PROPERTY
@given(polynomials(DIVIDED_WINDOW, max_entries=12))
def test_divided_difference_identity(p):
    # (x_i - x_{i+1}) * d_i p == p - s_i p for every admissible i
    w = p.window
    for i in range(w.lo, w.hi):
        xi = TPolynomial.monomial(WeakComposition((1,), i), w)
        xj = TPolynomial.monomial(WeakComposition((1,), i + 1), w)
        assert (xi - xj) * divided_difference(p, i) == p - swapped(p, i)
