import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import comp_of_subset, contains, from_values, subset_of_comp, transpose
from slidechrom import (
    WeakComposition,
    Window,
    chromatic,
    dominates,
    keys,
    leq_slide,
    refines,
    slide_polynomial,
    slide_set,
)
from slidechrom.compositions import digit_bits, pack, packed_slides, slide_walk, unpack


def wc(entries, lo=1):
    return WeakComposition(tuple(entries), lo)


# ---------------------------------------------------------------- storage


def test_canonical_trim():
    assert wc([0, 1, 2, 0, 0], lo=0) == wc([1, 2], lo=1)
    assert wc([], lo=5) == wc([0, 0], lo=-3)
    assert wc([1], lo=2).lo == 2
    assert wc([0, 0, 0], lo=1).is_zero()


def test_getitem_outside_support():
    a = wc([1, 0, 2], lo=-1)
    assert a[-1] == 1 and a[1] == 2
    assert a[-100] == 0 and a[100] == 0


def test_support_weight_hi():
    a = wc([1, 0, 2], lo=-1)
    assert a.support() == (-1, 1)
    assert a.weight() == 3
    assert a.hi == 1
    assert wc([]).weight() == 0


def test_from_values_counts_colors():
    a = from_values([3, 1, 1, -2])
    assert a == WeakComposition((1, 0, 0, 2, 0, 1), -2)


def test_equality_ignores_padding():
    assert wc([0, 1, 1], lo=0) == wc([1, 1, 0, 0], lo=1)
    assert hash(wc([0, 1, 1], lo=0)) == hash(wc([1, 1], lo=1))


# ---------------------------------------------------------------- notation


def test_bar_notation():
    assert str(wc([1, 1], lo=0) ) == "1|1"
    assert str(wc([1, 1, 0, 1], lo=0)) == "1|1,0,1"
    assert str(wc([1, 2], lo=-1)) == "1,2|"
    assert str(wc([0, 2, 0, 1], lo=1)) == "0,2,0,1"
    assert str(wc([], lo=1)) == "0"
    # nonpositive-only support still shows the bar
    assert str(wc([2], lo=0)) == "2|"


def test_json_round_trip():
    for a in (wc([1, 0, 2], lo=-3), wc([]), wc([5], lo=7)):
        assert WeakComposition.from_json(a.to_json()) == a


def test_flatten():
    assert wc([0, 2, 0, 2], lo=1).flatten() == (2, 2)
    assert wc([]).flatten() == ()


def test_shifted():
    a = wc([1, 2], lo=1)
    assert a.shifted(-3) == wc([1, 2], lo=-2)
    assert a.shifted(-3).shifted(3) == a


# ---------------------------------------------------------------- orders


def test_refines_examples():
    assert refines((1, 1), (2,))
    assert refines((2, 2), (2, 2))
    assert refines((1, 1, 2), (2, 2))


def test_refines_direction():
    # strictly finer splits each part into consecutive chunks
    assert refines((1, 1, 1, 1), (2, 2))
    assert refines((2, 1, 1), (2, 2))
    assert not refines((1, 2, 1), (2, 2))
    assert not refines((2, 2), (1, 1, 2))
    assert not refines((3, 1), (2, 2))
    assert not refines((1, 1), (3,))


def test_dominates_examples():
    assert dominates(wc([2, 0, 0, 2]), wc([0, 2, 0, 2]))
    assert not dominates(wc([0, 0, 2, 2]), wc([0, 2, 0, 2]))
    # dominance compares prefix sums over the union of supports
    assert dominates(wc([2], lo=-1), wc([2], lo=3))


def test_leq_slide():
    a = wc([0, 2, 0, 2])
    assert leq_slide(wc([2, 0, 0, 2]), a)
    assert leq_slide(a, a)
    assert not leq_slide(wc([0, 0, 2, 2]), a)
    # refinement failure: (3,1) does not refine (2,2)
    assert not leq_slide(wc([3, 1]), a)
    # weight mismatch is never comparable
    assert not leq_slide(wc([1]), a)


# ---------------------------------------------------------------- slide sets

KNOWN_SLIDES_0202 = {
    "0202", "2002", "2020", "2200", "1102", "1120",
    "1111", "0211", "2011", "2101", "2110",
}


def test_slide_set_0202():
    a = wc([0, 2, 0, 2])
    got = slide_set(a, Window(1, 4))
    names = {"".join(str(b[i]) for i in range(1, 5)) for b in got}
    # the eleven hand-checked members plus the refinement (0,2,2,0)
    assert KNOWN_SLIDES_0202 <= names
    assert names == KNOWN_SLIDES_0202 | {"0220"}
    assert len(got) == 12


def test_slide_set_window_cutoff():
    a = wc([0, 2, 0, 2])
    # window starting below 1 admits members shifted further left
    wide = slide_set(a, Window(-1, 4))
    assert len(wide) > 12
    assert all(b.lo >= -1 for b in wide if not b.is_zero())


def test_slide_set_zero_weight():
    assert slide_set(wc([]), Window(1, 3)) == {wc([])}


def test_slide_set_members_compare():
    a = wc([1, 0, 2], lo=-1)
    for b in slide_set(a, Window(-2, 2)):
        assert leq_slide(b, a)


# ------------------------------------------------------- subsets/transpose


def test_comp_of_subset():
    assert comp_of_subset(set(), 3) == (3,)
    assert comp_of_subset({1, 2}, 3) == (1, 1, 1)
    assert comp_of_subset({2}, 5) == (2, 3)
    assert subset_of_comp((2, 3)) == (2,)
    assert subset_of_comp((1, 1, 1)) == (1, 2)


def test_comp_of_subset_validates():
    with pytest.raises(ValueError):
        comp_of_subset({3}, 3)
    with pytest.raises(ValueError):
        comp_of_subset({0}, 3)


def test_transpose():
    # transpose(comp(S)) = comp of the complementary subset
    assert transpose((3,)) == (1, 1, 1)
    assert transpose((1, 1, 1)) == (3,)
    assert transpose((2, 3)) == (1, 2, 1, 1)
    assert transpose(()) == ()


def test_transpose_involution():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 6)
        alpha = tuple(rng.randint(1, 4) for _ in range(k))
        assert transpose(transpose(alpha)) == alpha


# ---------------------------------------------------------------- window


def test_window_basics():
    w = Window(-1, 3)
    assert list(w.indices()) == [-1, 0, 1, 2, 3]
    assert contains(w, 0) and not contains(w, 4)
    assert w.union(Window(2, 5)) == Window(-1, 5)


def test_window_empty_allowed():
    w = Window(1, 0)
    assert list(w.indices()) == []


def test_window_invalid():
    with pytest.raises(ValueError):
        Window(3, 1)


def test_supported_in_matches_support_definition():
    # every composition of weight <= 4 on [-2, 4], every window inside
    # [-3, 5], empty windows (lo = hi + 1) included
    comps = [
        WeakComposition(entries, -2)
        for entries in itertools.product(range(5), repeat=7)
        if sum(entries) <= 4
    ]
    windows = [Window(lo, hi) for lo in range(-3, 6) for hi in range(lo - 1, 6)]
    for a in comps:
        for w in windows:
            assert a.supported_in(w) == all(contains(w, i) for i in a.support()), (a, w)
    assert len(comps) == 330 and len(windows) == 54


# ---------------------------------------------------------------- properties


def test_leq_slide_is_partial_order():
    rng = random.Random(5)
    comps = []
    for _ in range(60):
        k = rng.randint(1, 4)
        comps.append(
            WeakComposition(
                tuple(rng.randint(0, 2) for _ in range(k)), rng.randint(-1, 1)
            )
        )
    for a in comps:
        assert leq_slide(a, a)
        for b in comps:
            if leq_slide(a, b) and leq_slide(b, a):
                assert a == b
            for c in comps:
                if leq_slide(a, b) and leq_slide(b, c):
                    assert leq_slide(a, c)


def _weak(n, slots):
    # every weak composition of n into the given number of slots
    if slots == 0:
        if n == 0:
            yield ()
        return
    for v in range(n + 1):
        for rest in _weak(n - v, slots - 1):
            yield (v,) + rest


def test_slide_set_matches_definition():
    # every a of weight <= 4 on [-1, 3], on every window with -1 <= lo <= 2
    # and lo - 1 <= hi <= 4: the empty window, weight of a below w.lo and
    # a.hi beyond w.hi all occur
    for k in range(5):
        for e in _weak(k, 5):
            a = wc(e, lo=-1)
            for lo in range(-1, 3):
                for hi in range(lo - 1, 5):
                    w = Window(lo, hi)
                    window_comps = (wc(f, lo=lo) for f in _weak(k, hi - lo + 1))
                    expected = {b for b in window_comps if leq_slide(b, a)}
                    assert slide_set(a, w) == expected, (a, w)


def test_slide_set_triangular():
    # every member of a slide set has the whole of its own slide set inside
    a = wc([0, 2, 1], lo=0)
    w = Window(-1, 2)
    members = slide_set(a, w)
    for b in members:
        assert slide_set(b, w) <= members


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    entries=st.lists(st.integers(0, 3), max_size=5),
    a_lo=st.integers(-2, 2),
    lo=st.integers(-2, 3),
    width=st.integers(0, 5),
    spare_bits=st.integers(0, 3),
)
def test_slide_walk_matches_definition(entries, a_lo, lo, width, spare_bits):
    # the packed walk, at its least digit width and wider, and slide_set
    # both give the definition's set on windows with nonpositive indices
    a = wc(entries, lo=a_lo)
    w = Window(lo, lo + width - 1)
    window_comps = (wc(f, lo=lo) for f in _weak(a.weight(), width))
    expected = {b for b in window_comps if leq_slide(b, a)}
    assert slide_set(a, w) == expected, (a, w)
    if a.is_zero() or a.lo >= w.lo:  # slide_set's own case otherwise
        bits = digit_bits(a.weight()) + spare_bits
        prefix = list(itertools.accumulate(a[i] for i in w.indices()))
        packed = slide_walk(a.flatten(), prefix, bits)
        assert len(set(packed)) == len(packed)
        assert {wc(unpack(x, bits), lo=lo) for x in packed} == expected, (a, w, bits)


def test_every_layer_reads_one_slide_set_memo():
    # weight 200 packs at its bit length, 8 bits per entry, in every
    # layer; (150, 50) is weakly decreasing, so its key row reads the
    # slide set of its own index and no other
    a, w = wc([150, 50]), Window(1, 2)
    x = pack(a.entries, 8)  # a from w.lo, as the slide sum and key rows pack it
    packed_slides.cache_clear()
    slide_polynomial.cache_clear()
    members = slide_set(a, w)
    slide_polynomial(a, w)
    chromatic._via_slides({x: 1}, w, 200)
    keys._key_slide_row(x, 8)
    info = packed_slides.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
    # an index and a window translated together hit the same entry: the
    # slide sum packs from the window, so it passes the same int
    for k in (-4, 3):
        assert slide_set(a.shifted(k), Window(1 + k, 2 + k)) == {b.shifted(k) for b in members}
        chromatic._via_slides({x: 1}, Window(1 + k, 2 + k), 200)
    info = packed_slides.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 7)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9).flatmap(
        lambda bits: st.tuples(st.just(bits), st.lists(st.integers(0, (1 << bits) - 1), max_size=12))
    )
)
def test_pack_round_trips(case):
    bits, entries = case
    x = pack(entries, bits)
    trimmed = tuple(entries)
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    assert unpack(x, bits) == trimmed
    assert pack(unpack(x, bits), bits) == x
    # digit k holds entry k
    assert all(x >> (bits * k) & ((1 << bits) - 1) == v for k, v in enumerate(entries))
