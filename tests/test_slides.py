import itertools
import random

import pytest

from slidechrom import (
    TPolynomial,
    WeakComposition,
    Window,
    comp_of_subset,
    expand_in_slides,
    fundamental_qsym,
    slide_polynomial,
    slide_polynomial_by_chains,
    tail_strong_decomposition,
)
from slidechrom import slides
from slidechrom.compositions import pack, packed_slides
from slidechrom.slides import is_tail_strong


def wc(entries, lo=1):
    return WeakComposition(tuple(entries), lo)


def mono_names(p):
    return {str(e) for e in p.terms}


# -------------------------------------------------------- slide polynomials


def test_slide_0201_known_terms():
    w = Window(1, 4)
    p = slide_polynomial(wc([0, 2, 0, 1]), w)
    # the six displayed monomials ...
    for e in (
        (0, 2, 0, 1), (2, 0, 0, 1), (2, 0, 1, 0), (2, 1, 0, 0),
        (1, 1, 0, 1), (1, 1, 1, 0),
    ):
        assert p.terms.get(wc(e)) == {0: 1}, e
    # ... plus the refinement x2^2 x3 both models force
    assert p.terms.get(wc((0, 2, 1, 0))) == {0: 1}
    assert len(p.terms) == 7


def test_slide_support_window_vanishing():
    # indices with weight at nonpositive positions vanish on [1, r]
    w = Window(1, 4)
    assert slide_polynomial(wc([1, 0, 2, 0, 1], lo=0), w).is_zero()
    assert not slide_polynomial(wc([1, 0, 2, 0, 1], lo=0), Window(0, 4)).is_zero()


def test_slide_zero_weight():
    assert slide_polynomial(wc([]), Window(1, 3)) == TPolynomial.one(Window(1, 3))


def test_slide_single_variable():
    w = Window(1, 3)
    p = slide_polynomial(wc([0, 0, 2]), w)
    # x3^2 slides to x2^2, x1^2 and the refinements x1x2, x1x3, x2x3
    assert mono_names(p) == {"0,0,2", "0,2", "2", "1,1", "1,0,1", "0,1,1"}


def test_models_agree_small():
    rng = random.Random(31)
    for _ in range(150):
        k = rng.randint(1, 5)
        entries = tuple(rng.randint(0, 2) for _ in range(k))
        lo = rng.randint(-2, 2)
        a = WeakComposition(entries, lo)
        w = Window(rng.choice([-2, -1, 1]), 4)
        assert slide_polynomial(a, w) == slide_polynomial_by_chains(a, w)
    # the engine's cache is bounded, so a long run cannot grow it forever
    assert slide_polynomial.cache_info().maxsize == 4096


def test_models_agree_exhaustive_weight_4():
    for entries in itertools.product(range(3), repeat=4):
        if sum(entries) > 4:
            continue
        a = WeakComposition(entries, -1)
        for lo in (-1, 1):
            w = Window(lo, 3)
            assert slide_polynomial(a, w) == slide_polynomial_by_chains(a, w)


# ------------------------------------------------------------- expansions


def test_expand_round_trip_basis():
    w = Window(1, 4)
    a = wc([0, 2, 0, 1])
    assert expand_in_slides(slide_polynomial(a, w), w) == {a: {0: 1}}


def test_expand_fig3_triple():
    # generating function of the 3-element poset with relations 3<2, 1<2,
    # identity labels, rho=(2,3,2)
    from slidechrom import (
        LabeledPoset,
        Window,
        partition_generating_function,
    )

    P = LabeledPoset(
        3, frozenset({(3, 2), (1, 2)}), omega=(1, 2, 3), rho=(2, 3, 2)
    )
    w = Window(1, 3)
    gf = partition_generating_function(P, w)
    exp = expand_in_slides(gf, w)
    assert exp == {
        wc([1, 2, 0]): {0: 1},
        wc([1, 1, 1]): {0: 1},
        wc([0, 2, 1]): {0: 1},
    }


def test_expand_random_round_trip():
    # coefficients in two t-degrees, on windows with and without
    # nonpositive indices; indices of weight 2 and 3 share enough
    # monomials for terms to cancel
    rng = random.Random(17)
    pools = {
        lo: [
            a for e in itertools.product(range(3), repeat=4 - lo)
            if (a := WeakComposition(e, lo)).weight() in (2, 3)
        ]
        for lo in (-1, 1)
    }
    cancelled = 0
    for _ in range(120):
        w = Window(rng.choice([-1, 1]), 3)
        combo = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(pools[w.lo])
            d = rng.randint(0, 1)
            combo[a] = {
                d: rng.choice([-2, -1, 1, 2]),
                d + 1: rng.choice([-2, -1, 1, 2]),
            }
        p = TPolynomial.zero(w)
        for a, c in combo.items():
            p = p + slide_polynomial(a, w).scaled(c)
        # a (monomial, t-degree) pair some slide carries but p lacks cancelled
        carried = {
            (e, d) for a, c in combo.items()
            for e in slide_polynomial(a, w).terms for d in c
        }
        cancelled += sum(len(tc) for tc in p.terms.values()) < len(carried)
        assert expand_in_slides(p, w) == combo
    assert cancelled >= 10


def test_expand_detects_linear_combinations():
    w = Window(1, 3)
    a, b = wc([2, 0, 1]), wc([1, 1, 1])
    p = slide_polynomial(a, w).scaled({0: 3}) - slide_polynomial(b, w).scaled(
        {1: 2}
    )
    assert expand_in_slides(p, w) == {a: {0: 3}, b: {1: -2}}


def test_expand_nonzero_remainder_raises(monkeypatch):
    # a corrupted slide set (leading coefficient 0: the index itself
    # missing) cannot peel x2
    w = Window(1, 2)
    p = slide_polynomial(wc([0, 1]), w)
    real = slides.slide_terms

    def headless(x, bits):
        return ((y, k) for y, k in real(x, bits) if y != x)

    monkeypatch.setattr(slides, "slide_terms", headless)
    with pytest.raises(RuntimeError, match="remainder"):
        expand_in_slides(p, w)


def test_expand_on_a_window_far_wider_than_the_index():
    # a slide set never reaches past its index's top digit, so neither the
    # walk nor the peel may scale with the window: 10^8 digits of padding
    # once raised MemoryError
    a, wide = wc([1, 0, 1]), Window(1, 10**8)
    x = pack(a.entries, 2)
    assert packed_slides(x, 10**8, 2) == packed_slides(x, 3, 2)
    assert packed_slides(pack((1,), 1), 10**8, 1) == (1,)
    for p in (slide_polynomial(wc([1]), Window(1, 1)), TPolynomial(Window(1, 3), {a: {0: 1}})):
        assert expand_in_slides(p.with_window(wide), wide) == expand_in_slides(p, p.window)


def test_expand_zero():
    assert expand_in_slides(TPolynomial.zero(Window(1, 3)), Window(1, 3)) == {}


# ------------------------------------------------------------ fundamentals


def test_fundamental_qsym_small():
    # F_(2)(x1,x2) = h2 on two variables
    p = fundamental_qsym((2,), 2)
    assert mono_names(p) == {"2", "1,1", "0,2"}
    # F_(1,1)(x1,x2) = e2
    q = fundamental_qsym((1, 1), 2)
    assert mono_names(q) == {"1,1"}


def test_fundamental_qsym_strict_at_breaks():
    # F_(1,2) on 3 vars: words w1 < w2 <= w3
    p = fundamental_qsym((1, 2), 3)
    assert wc([1, 2, 0]) in p.terms
    assert wc([1, 0, 2]) in p.terms
    assert wc([0, 1, 2]) in p.terms
    assert wc([1, 1, 1]) in p.terms
    assert wc([3, 0, 0]) not in p.terms
    assert wc([2, 1, 0]) not in p.terms


def test_fundamental_qsym_too_few_variables():
    assert fundamental_qsym((1, 1, 1), 2).is_zero()


def test_fundamental_qsym_matches_chain_model():
    # F_alpha on [1, m] is the slide polynomial of alpha right-justified
    # at m; the chain model is the independent enumerator
    alphas = [
        comp_of_subset(subset, n)
        for n in range(7)
        for k in range(max(n, 1))
        for subset in itertools.combinations(range(1, n), k)
    ]
    assert len(alphas) == 64  # every composition of weight at most 6
    for alpha in alphas:
        for m in range(8):
            a = WeakComposition(alpha, m - len(alpha) + 1)
            assert fundamental_qsym(alpha, m) == slide_polynomial_by_chains(
                a, Window(1, m)
            ), (alpha, m)


def test_fundamental_qsym_rejects_nonpositive_parts():
    with pytest.raises(ValueError, match="positive"):
        fundamental_qsym((1, 0), 2)


# ------------------------------------------------------------- tail-strong


def test_is_tail_strong():
    assert is_tail_strong(wc([1, 2, 0, 2, 0, 1], lo=-1))
    assert is_tail_strong(wc([2, 0, 1]))  # all-positive support counts
    assert not is_tail_strong(wc([1, 0, 1, 1], lo=-2))  # gap at index -1
    assert not is_tail_strong(wc([1, 1], lo=-3))  # stops before 0


def test_tail_strong_decomposition_worked():
    a = wc([1, 2, 0, 2, 0, 1], lo=-1)
    got = tail_strong_decomposition(a, 4)
    want = [
        ((1, 2), wc([0, 2, 0, 1])),
        ((1, 2, 1), wc([0, 1, 0, 1])),
        ((1, 2, 2), wc([0, 0, 0, 1])),
        ((1, 2, 2, 1), wc([])),
    ]
    assert got == want


def test_truncated_product_identity_small():
    # slide(a, [1-m, r]) = sum over decomposition of F_gamma * slide(delta)
    for m in (1, 2, 3):
        a = wc([1, 2, 0, 2, 0, 1], lo=-1)
        r = 4
        w = Window(1 - m, r)
        lhs = slide_polynomial(a, w)
        rhs = TPolynomial.zero(w)
        for gamma, delta in tail_strong_decomposition(a, r):
            f = fundamental_qsym(gamma, m).shifted(-m)
            s = slide_polynomial(delta, Window(1, r))
            rhs = rhs + (f.with_window(w) * s.with_window(w))
        assert lhs == rhs, m

