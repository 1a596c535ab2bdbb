import json
import random

import pytest

from slidechrom import TPolynomial, WeakComposition, Window
from slidechrom.compositions import pack
from slidechrom.tpoly import (
    ExpansionError,
    combine,
    peel,
    t_from_json,
    t_is_nonnegative,
    t_str,
)


def rand_poly(rng, w=Window(-1, 2), terms=3, weight=4):
    p = TPolynomial.zero(w)
    for _ in range(rng.randint(0, terms)):
        comp = [0] * (w.hi - w.lo + 1)
        for _ in range(rng.randint(0, weight)):
            comp[rng.randrange(len(comp))] += 1
        e = WeakComposition(tuple(comp), w.lo)
        tc = {rng.randint(0, 3): rng.choice([-2, -1, 1, 2, 3])}
        p = p + TPolynomial.monomial(e, w, tc)
    return p


# ----------------------------------------------------------- t coefficients


def test_t_helpers():
    x1 = WeakComposition((1,), 1)
    w = Window(1, 1)
    a = TPolynomial.monomial(x1, w, {0: 1, 2: 3})
    assert (a + TPolynomial.monomial(x1, w, {2: -3, 1: 1})).terms == {x1: {0: 1, 1: 1}}
    assert TPolynomial.monomial(x1, w, {0: 1, 1: 1}).scaled({0: 1, 1: 1}).terms == {
        x1: {0: 1, 1: 2, 2: 1}
    }
    assert t_is_nonnegative({0: 1, 4: 2})
    assert not t_is_nonnegative({0: 1, 4: -2})
    assert t_str({}) == "0"
    assert t_str({0: 1, 1: 1}) == "1 + t"
    assert t_str({2: -3}) == "-3t^2"


# ----------------------------------------------------------------- algebra


def test_zero_one_monomial():
    w = Window(1, 3)
    z = TPolynomial.zero(w)
    one = TPolynomial.one(w)
    x2 = TPolynomial.monomial(WeakComposition((1,), 2), w, {0: 1})
    assert z + x2 == x2
    assert one * x2 == x2
    assert x2 - x2 == z
    assert str(x2) == "x2"


def test_window_containment_enforced():
    w = Window(1, 2)
    with pytest.raises(ValueError):
        TPolynomial.monomial(WeakComposition((1,), 3), w, {0: 1})


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(1000):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == TPolynomial.zero(a.window)


def test_window_union_on_add():
    p = TPolynomial.monomial(WeakComposition((1,), -1), Window(-1, 0))
    q = TPolynomial.monomial(WeakComposition((1,), 2), Window(1, 2))
    assert (p + q).window == Window(-1, 2)


def test_scale_t():
    w = Window(1, 2)
    p = TPolynomial.monomial(WeakComposition((1,), 1), w, {0: 1, 1: 2})
    assert p.scaled({3: 1}).terms[WeakComposition((1,), 1)] == {3: 1, 4: 2}


def test_shifted():
    w = Window(1, 3)
    p = TPolynomial.monomial(WeakComposition((1, 2), 1), w)
    q = p.shifted(-3)
    assert q.window == Window(-2, 0)
    assert WeakComposition((1, 2), -2) in q.terms
    assert q.shifted(3) == p


def test_evaluate_all_ones():
    w = Window(1, 2)
    p = TPolynomial.monomial(WeakComposition((1, 1), 1), w, {0: 1, 1: 1}) + (
        TPolynomial.monomial(WeakComposition((2,), 1), w, {1: 1})
    )
    assert p.evaluate_all_ones() == {0: 1, 1: 2}


def test_equality_ignores_window():
    a = TPolynomial.monomial(WeakComposition((1,), 1), Window(1, 1))
    b = TPolynomial.monomial(WeakComposition((1,), 1), Window(-2, 4))
    assert a == b


def test_hash_refuses():
    with pytest.raises(TypeError):
        hash(TPolynomial.zero(Window(1, 1)))


# ------------------------------------------------------------------- output


def test_str_variables():
    w = Window(-1, 2)
    p = TPolynomial.monomial(WeakComposition((1, 0, 0, 2), -1), w, {1: 1})
    s = str(p)
    assert "x(-1)" in s and "x2^2" in s


def test_json_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        p = rand_poly(rng)
        assert TPolynomial.loads(p.dumps()) == p


def test_json_deterministic():
    rng = random.Random(1)
    p = rand_poly(rng, terms=5)
    # same logical content in a different build order serializes identically
    q = TPolynomial.zero(p.window)
    for e in sorted(p.terms, key=lambda e: (-e.lo, e.entries)):
        q = q + TPolynomial.monomial(e, p.window, p.terms[e])
    assert p.dumps() == q.dumps()
    assert json.loads(p.dumps())  # valid JSON


def test_big_integer_coefficients():
    w = Window(1, 1)
    big = 10**40
    p = TPolynomial.monomial(WeakComposition((1,), 1), w, {0: big})
    q = p * p
    assert q.terms[WeakComposition((2,), 1)] == {0: big * big}
    assert TPolynomial.loads(q.dumps()) == q


_X1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": 0, "coef": "1"}]}


@pytest.mark.parametrize(
    "doc, msg",
    [
        ({"window": [1, 1], "terms": [_X1, _X1]}, "duplicate exponent"),
        (
            # the same exponent stored at a different offset
            {"window": [0, 1], "terms": [_X1, {**_X1, "exp": {"lo": 0, "entries": [0, 1]}}]},
            "duplicate exponent",
        ),
        (
            {"window": [1, 1], "terms": [{**_X1, "t": [{"deg": 0, "coef": "1"}] * 2}]},
            "duplicate t-degree",
        ),
        ({"window": [1, 1], "terms": 5}, "terms"),
        ([], "object"),
        ({"window": [1], "terms": []}, "window"),
        ({"window": [1, 1], "terms": [{"exp": 3, "t": []}]}, "weak composition"),
        ({"window": [1, 1], "terms": [{"exp": {"lo": 1, "entries": ["a"]}, "t": []}]}, "weak composition"),
        ({"window": [1, 1], "terms": [{**_X1, "t": [{"deg": 0, "coef": 1.5}]}]}, "t entry"),
        # coefficient strings int() reads but t_to_json never writes
        *(
            ({"window": [1, 1], "terms": [{**_X1, "t": [{"deg": 0, "coef": c}]}]}, "t entry")
            for c in ("1_0", " 7 ", "+3", "\u0667", "", "-", "1.0", "7\n")
        ),
        ({"window": [1, 1], "terms": [{**_X1, "t": [{"deg": 0, "coef": True}]}]}, "t entry"),
        # a zero entry still claims its degree
        *(
            ({"window": [1, 1], "terms": [{**_X1, "t": t}]}, "duplicate t-degree")
            for t in (
                [{"deg": 0, "coef": "0"}, {"deg": 0, "coef": "1"}],
                [{"deg": 0, "coef": "1"}, {"deg": 0, "coef": "0"}],
                [{"deg": 0, "coef": 0}, {"deg": 0, "coef": "-0"}],
            )
        ),
        ({"window": [2, 3], "terms": [_X1]}, "outside window"),
        # a dropped all-zero term still claims its exponent
        ({"window": [1, 1], "terms": [{**_X1, "t": [{"deg": 0, "coef": "0"}]}, _X1]}, "duplicate exponent"),
    ],
)
def test_from_json_rejects_bad_documents(doc, msg):
    with pytest.raises(ValueError, match=msg):
        TPolynomial.from_json_dict(doc)


def test_from_json_drops_zero_terms_before_the_window_check():
    zero = {"exp": {"lo": 5, "entries": [1]}, "t": [{"deg": 0, "coef": "0"}, {"deg": 1, "coef": 0}]}
    p = TPolynomial.from_json_dict({"window": [1, 1], "terms": [zero, _X1]})
    assert p.terms == {WeakComposition((1,), 1): {0: 1}}
    assert TPolynomial.from_json_dict({"window": [1, 1], "terms": [zero]}).is_zero()


def test_t_from_json_drops_zero_coefficients():
    # t_to_json writes no zero entry, so reading one back must not keep it
    t = [{"deg": 2, "coef": "-1"}, {"deg": 3, "coef": "0"}, {"deg": 4, "coef": "-00"}, {"deg": 5, "coef": 0}]
    assert t_from_json(t) == {2: -1}
    assert t_from_json([{"deg": 0, "coef": "0"}]) == {}


@pytest.mark.parametrize("coef", ["1", "-2", "0"])
def test_t_from_json_rejects_negative_degrees(coef):
    # t^-1 is a Laurent term, not in Z[t]; a zero entry is no exception
    with pytest.raises(ValueError, match="negative t-degree -1"):
        t_from_json([{"deg": 0, "coef": "1"}, {"deg": -1, "coef": coef}])
    doc = {"window": [1, 1], "terms": [{**_X1, "t": [{"deg": -1, "coef": coef}]}]}
    with pytest.raises(ValueError, match="negative t-degree -1"):
        TPolynomial.from_json_dict(doc)


def test_from_json_reads_int_and_decimal_coefficients():
    t = [{"deg": 0, "coef": 7}, {"deg": 1, "coef": "-12"}, {"deg": 2, "coef": "007"}]
    p = TPolynomial.from_json_dict({"window": [1, 1], "terms": [{**_X1, "t": t}]})
    assert p.terms == {WeakComposition((1,), 1): {0: 7, 1: -12, 2: 7}}


# --------------------------------------------------------------------- peel


def test_peel_round_guard():
    # a basis that is not unitriangular for the grade brings the peeled
    # exponent back: x2 lists x1, as its slide set would, but x1 lists x2,
    # of smaller grade; the guard stops the peel instead of looping
    x1, x2 = pack((1,), 2), pack((0, 1), 2)
    basis = {x2: [(x2, 1), (x1, 1)], x1: [(x1, 1), (x2, 1)]}
    with pytest.raises(ExpansionError, match="peeled twice"):
        peel({x2: {0: 1}}, basis.__getitem__, 2)


# ------------------------------------------------------------------ combine


def test_combine_drops_cancelled_terms():
    x1, x2 = WeakComposition((1,), 1), WeakComposition((1,), 2)
    basis = {"a": [(x1, {0: 1}), (x2, {1: 2})], "b": [(x1, {0: 1}), (x2, {1: 2})]}
    assert combine({"a": {0: 1, 2: 1}, "b": {0: -1, 2: -1}}, lambda k: basis[k]) == {}
    assert combine({}, lambda k: basis[k]) == {}
    # a partial cancellation keeps the surviving t-degrees only
    assert combine({"a": {0: 1, 1: 3}, "b": {0: -1}}, lambda k: basis[k]) == {
        x1: {1: 3},
        x2: {2: 6},
    }


def test_combine_matches_repeated_addition():
    rng = random.Random(11)
    for _ in range(30):
        polys = [rand_poly(rng) for _ in range(4)]
        expansion = {
            k: {rng.randint(0, 2): rng.choice([-2, -1, 1, 3])} for k in range(4)
        }
        total = TPolynomial.zero(Window(-1, 2))
        for k, tc in expansion.items():
            total = total + polys[k].scaled(tc)
        assert combine(expansion, lambda k: polys[k].terms.items()) == total.terms
