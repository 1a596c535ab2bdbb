import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from oracles import demazure_operator, monomial
from slidechrom import (
    NegativeRecord,
    PartialDyckPath,
    TPolynomial,
    WeakComposition,
    Window,
    chromatic_brute,
    divided_difference,
    dyck_graph,
    expand_in_keys,
    expand_in_slides,
    is_key_positive,
    key_expansion_of_chromatic,
    key_polynomial,
    load_negative_fixtures,
    negative_records,
    restriction_map,
    scan_paths,
    search_negative_records,
    slide_polynomial,
)
from slidechrom import chromatic, keys
from slidechrom.chromatic import _packed_dp, _terms
from slidechrom.compositions import digit_bits, pack, unpack
from slidechrom.tpoly import ExpansionError, combine


def wc(entries, lo=1):
    return WeakComposition(tuple(entries), lo)


def x(i, w):
    return monomial(wc([1], lo=i), w)


# ------------------------------------------------------ divided differences


def test_divided_difference_symmetric_kills():
    w = Window(1, 2)
    p = x(1, w) * x(2, w)
    assert divided_difference(p, 1).is_zero()


def test_divided_difference_basic():
    w = Window(1, 2)
    # d1(x1) = 1
    assert divided_difference(x(1, w), 1) == TPolynomial.one(w)
    # d1(x1^2) = x1 + x2
    assert divided_difference(x(1, w) * x(1, w), 1) == x(1, w) + x(2, w)
    # d1(x2) = -1
    assert divided_difference(x(2, w), 1) == -TPolynomial.one(w)


def test_demazure_idempotent():
    w = Window(1, 3)
    rng = random.Random(3)
    for _ in range(50):
        p = TPolynomial.zero(w)
        for _ in range(rng.randint(1, 3)):
            e = WeakComposition(
                tuple(rng.randint(0, 2) for _ in range(3)), 1
            )
            p = p + monomial(e, w, {0: rng.randint(1, 3)})
        for i in (1, 2):
            q = demazure_operator(p, i)
            assert demazure_operator(q, i) == q


def test_demazure_braid():
    w = Window(1, 3)
    rng = random.Random(4)
    for _ in range(30):
        p = TPolynomial.zero(w)
        for _ in range(rng.randint(1, 3)):
            e = WeakComposition(tuple(rng.randint(0, 2) for _ in range(3)), 1)
            p = p + monomial(e, w)
        lhs = demazure_operator(demazure_operator(demazure_operator(p, 1), 2), 1)
        rhs = demazure_operator(demazure_operator(demazure_operator(p, 2), 1), 2)
        assert lhs == rhs


# ------------------------------------------------------------------- keys


def test_key_polynomials_small():
    w = Window(1, 2)
    assert key_polynomial(wc([0, 1]), 2) == x(1, w) + x(2, w)
    assert key_polynomial(wc([1, 0]), 2) == x(1, w)
    k02 = key_polynomial(wc([0, 2]), 2)
    assert k02 == (
        x(1, w) * x(1, w) + x(1, w) * x(2, w) + x(2, w) * x(2, w)
    )


def test_key_of_weakly_decreasing_is_monomial():
    # anti-dominant? dominant (weakly decreasing) compositions give monomials
    w = Window(1, 3)
    assert key_polynomial(wc([3, 1, 0]), 3) == monomial(
        wc([3, 1, 0]), w
    )


def test_key_support_validation():
    with pytest.raises(ValueError):
        key_polynomial(wc([1], lo=0), 2)
    with pytest.raises(ValueError):
        key_polynomial(wc([0, 0, 1]), 2)


def _key_by_demazure(entries, w):
    # oracle: unswap the largest ascent (the library takes the smallest)
    ascents = [i for i in range(len(entries) - 1) if entries[i] < entries[i + 1]]
    if not ascents:
        return monomial(wc(entries), w)
    i = ascents[-1]
    swapped = entries[:i] + (entries[i + 1], entries[i]) + entries[i + 2 :]
    return demazure_operator(_key_by_demazure(swapped, w), i + 1)


def test_key_polynomial_matches_demazure_chain():
    checked = 0
    for r in range(1, 5):
        w = Window(1, r)
        for entries in itertools.product(range(5), repeat=r):
            if sum(entries) <= 4:
                assert key_polynomial(wc(entries), r) == _key_by_demazure(
                    entries, w
                ), entries
                checked += 1
    assert checked == 5 + 15 + 35 + 70


def test_key_padding_independence():
    # trailing zeros in the index do not change the polynomial beyond window
    a = wc([2, 0, 1])
    k3 = key_polynomial(a, 3)
    k4 = key_polynomial(a, 4)
    assert k3 == k4.with_window(Window(1, 4)) or set(k3.terms) <= set(k4.terms)


def test_expand_in_keys_round_trip():
    for r in (2, 3):
        for entries in itertools.product(range(3), repeat=r):
            a = WeakComposition(entries, 1)
            exp = expand_in_keys(key_polynomial(a, r), r)
            want_index = a if a.weight() else WeakComposition()
            assert exp == {want_index: {0: 1}}


def test_expand_in_keys_x2():
    w = Window(1, 2)
    exp = expand_in_keys(x(2, w), 2)
    assert exp == {wc([0, 1]): {0: 1}, wc([1, 0]): {0: -1}}


def test_expand_in_keys_random_round_trip():
    # coefficients in two t-degrees, peeled together in one pass; indices
    # of weight 2 and 3 share enough monomials for terms to cancel
    rng = random.Random(12)
    r = 3
    pool = [wc(e) for e in itertools.product(range(3), repeat=r) if sum(e) in (2, 3)]
    cancelled = 0
    for _ in range(40):
        combo = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(pool)
            d = rng.randint(0, 1)
            combo[a] = {
                d: rng.choice([-2, -1, 1, 2]),
                d + 1: rng.choice([-2, -1, 1, 2]),
            }
        p = TPolynomial.zero(Window(1, r))
        for a, c in combo.items():
            p = p + key_polynomial(a, r).scaled(c)
        # a (monomial, t-degree) pair some key carries but p lacks cancelled
        carried = {
            (e, d) for a, c in combo.items()
            for e in key_polynomial(a, r).terms for d in c
        }
        cancelled += sum(len(tc) for tc in p.terms.values()) < len(carried)
        assert expand_in_keys(p, r) == combo
    assert cancelled >= 5


def test_expand_in_keys_nonzero_remainder_raises(monkeypatch):
    # a corrupted key polynomial (leading coefficient 2) cannot peel x2,
    # whose weight 1 packs at 1 bit
    monkeypatch.setitem(
        keys._KEY_CACHE, (1, pack((0, 1), 1)), ((pack((0, 1), 1), 2), (pack((1,), 1), 1))
    )
    with pytest.raises(ExpansionError, match="remainder"):
        expand_in_keys(x(2, Window(1, 2)), 2)


def test_keys_are_slide_positive():
    # Assaf-Searles: a key polynomial is a nonnegative sum of slide
    # polynomials; both peels run through tpoly.peel
    checked = 0
    for r in range(1, 6):
        w = Window(1, r)
        for entries in itertools.product(range(6), repeat=r):
            if not 1 <= sum(entries) <= 5:
                continue
            kappa = key_polynomial(wc(entries), r)
            exp = expand_in_slides(kappa, w)
            assert exp and all(tc.keys() == {0} and tc[0] > 0 for tc in exp.values())
            assert combine(exp, lambda b: slide_polynomial(b, w).terms.items()) == kappa.terms
            # the key-to-slide row key_expansion_of_chromatic peels with,
            # built on [1, len(b)] at the weight's width, is the same expansion
            bits = digit_bits(sum(entries))
            row = keys._key_slide_row(pack(entries, bits), bits)
            assert {wc(unpack(a, bits)): {0: c} for a, c in row} == exp
            checked += 1
    assert checked == 456


def test_slide_key_rows_do_not_depend_on_r():
    # on [1, R] with R >= a.hi the slide polynomial of a and the keys it
    # expands into live in x_1..x_(a.hi)
    indices = {
        wc(entries)
        for r in range(1, 7)
        for entries in itertools.product(range(6), repeat=r)
        if 1 <= sum(entries) <= 5
    }
    pairs = 0
    for a in indices:
        row = expand_in_keys(slide_polynomial(a, Window(1, a.hi)), a.hi)
        for big in range(a.hi + 1, 8):
            assert expand_in_keys(slide_polynomial(a, Window(1, big)), big) == row, (a, big)
            pairs += 1
    assert pairs == 917


def test_shared_slide_key_cache_matches_fresh_caches():
    # whole expansions, so the negative records agree too
    paths = list(scan_paths(5, 5))
    cache: dict = {}
    shared = [key_expansion_of_chromatic(p, cache) for p in paths]
    assert shared == [key_expansion_of_chromatic(p) for p in paths]
    # one key-to-slide row per key index, a weak composition of 5 on
    # [1, 5]: at most C(9, 4), and every one of them is reached
    assert len(cache) == 126


def test_key_expansion_matches_slide_to_key_rows():
    # oracle: expand each slide polynomial of the slide expansion in keys
    # on its own and sum the rows
    rows: dict = {}

    def slide_to_key(a):
        if a not in rows:
            rows[a] = expand_in_keys(slide_polynomial(a, Window(1, a.hi)), a.hi)
        return rows[a].items()

    paths = list(scan_paths(5, 5)) + list(scan_paths(6, 6))[::7]
    cache: dict = {}
    for p in paths:
        # the DP run from 1: the slide indices that survive on [1, r]
        dp = _terms(_packed_dp(dyck_graph(p), restriction_map(p), 1), 1, p.n)
        want = combine(dp, slide_to_key)
        assert key_expansion_of_chromatic(p, cache) == want, p.literal
    assert len(paths) == 3682 + 3342


@pytest.mark.parametrize(
    "b, corrupt, msg",
    [
        # leading coefficient 2: the slide of (1, 1, 1) is never cleared
        (
            (1, 1, 1),
            lambda row: tuple((a, 2 if a == pack((1, 1, 1), 2) else c) for a, c in row),
            "remainder",
        ),
        # a slide of smaller grade than the key: (1, 1, 1) comes back
        ((2, 0, 1), lambda row: row + ((pack((1, 1, 1), 2), 1),), "peeled twice"),
    ],
)
def test_corrupted_key_slide_row_raises(monkeypatch, b, corrupt, msg):
    # ENEENENEE@3,3 peels kappa(1,1,1), then kappa(2,0,1), at 2 bits
    real = keys._key_slide_row

    def row(v, bits):
        assert bits == 2
        return corrupt(real(v, bits)) if v == pack(b, bits) else real(v, bits)

    monkeypatch.setattr(keys, "_key_slide_row", row)
    with pytest.raises(ExpansionError, match=msg):
        key_expansion_of_chromatic(PartialDyckPath.parse("ENEENENEE@3,3"))


def test_key_slide_rows_of_weight_six_are_pinned():
    # every row of weight 6, on [1, len b] at 3 bits, as
    # representation-free JSON: the digest the tuple-exponent key layer
    # and the 8-bit one gave
    rows = sorted(
        [list(unpack(b, 3)), sorted([list(unpack(a, 3)), c] for a, c in keys._key_slide_row(b, 3))]
        for b in (pack(e, 3) for e in itertools.product(range(7), repeat=6) if sum(e) == 6)
    )
    assert len(rows) == 462
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "d4aaac13f9769b2f206494edb54dd08daf569b9fa6c329ed090f08064cda36b9"


def test_weights_past_eight_bits_pack_wider():
    # a weight packs at its own bit length, so 255 takes 8 bits and 256
    # takes 9, and no entry or prefix sum the peel grade reads carries
    # into the next digit
    w = Window(1, 2)
    assert expand_in_keys(key_polynomial(wc([0, 255]), 2), 2) == {wc([0, 255]): {0: 1}}
    # kappa(0, k) is every monomial of weight k in x1, x2: one slide
    assert len(key_polynomial(wc([0, 255]), 2).terms) == 256
    assert len(key_polynomial(wc([0, 256]), 2).terms) == 257
    assert keys._key_slide_row(pack((0, 255), 8), 8) == ((pack((0, 255), 8), 1),)
    assert keys._key_slide_row(pack((0, 256), 9), 9) == ((pack((0, 256), 9), 1),)
    # x1 x2^(k-1) = kappa(1, k-1) - kappa(2, k-2) - kappa(k-1, 1)
    for k in (255, 256):
        assert expand_in_keys(monomial(wc([1, k - 1]), w), 2) == {
            wc([1, k - 1]): {0: 1}, wc([2, k - 2]): {0: -1}, wc([k - 1, 1]): {0: -1}
        }
    # every rho(i) is 0, so the subset DP returns before building a table
    assert key_expansion_of_chromatic(PartialDyckPath("NE" * 256, 256, 0)) == {}


def test_key_memo_keys_on_the_width():
    # (0, 1) at 1 bit and (2,) at 2 bits both pack to the int 2
    keys._KEY_CACHE.clear()
    assert key_polynomial(wc([0, 1]), 2) == x(1, Window(1, 2)) + x(2, Window(1, 2))
    assert key_polynomial(wc([2]), 1) == x(1, Window(1, 1)) * x(1, Window(1, 1))


def test_caches_shared_across_widths_match_fresh_caches():
    # n = 3 -> 4 and 5 -> 8 cross bit-length boundaries (2, 3 and 4 bits);
    # the fresh run clears the key memo for each n and gives every path
    # its own row cache
    sizes = [(3, 3), (4, 4), (5, 5), (8, 2)]
    keys._KEY_CACHE.clear()
    cache: dict = {}
    shared = [key_expansion_of_chromatic(p, cache) for n, r in sizes for p in scan_paths(n, r)]
    fresh = []
    for n, r in sizes:
        keys._KEY_CACHE.clear()
        fresh += [key_expansion_of_chromatic(p) for p in scan_paths(n, r)]
    assert shared == fresh
    assert len(fresh) == 95 + 586 + 3682 + 18226


def test_census_stays_packed(monkeypatch):
    # the census peels the subset DP's packed dict: it never converts a
    # whole slide expansion to WeakComposition
    def refuse(*args, **kwargs):
        raise AssertionError("the census converted a slide expansion")

    monkeypatch.setattr(chromatic, "_terms", refuse)
    monkeypatch.setattr(chromatic, "slide_expansion", refuse)
    assert search_negative_records(5, 5) == [
        NegativeRecord("EENEENENEENEENE@5,5", wc([1, 3, 0, 1]), ((2, -1),))
    ]


def test_is_key_positive():
    assert is_key_positive({wc([1]): {0: 2}})
    assert not is_key_positive({wc([1]): {0: 2, 1: -1}})


# ---------------------------------------------------------------- chromatic


def test_three_vertex_chromatic_key_positive():
    p = PartialDyckPath.parse("ENEENENEE@3,3")
    exp = key_expansion_of_chromatic(p)
    assert exp == {
        wc([1, 1, 1]): {0: 1, 1: 1},
        wc([2, 0, 1]): {1: 1},
    }
    assert is_key_positive(exp)


def test_key_expansion_reconstructs_chromatic():
    for lit in ("ENEENENEE@3,3", "EENNEE@2,2", "ENE@1,1"):
        p = PartialDyckPath.parse(lit)
        r = p.r
        w = Window(1, r)
        exp = key_expansion_of_chromatic(p)
        total = TPolynomial.zero(w)
        for b, tc in exp.items():
            total = total + key_polynomial(b, r).scaled(tc)
        assert total == chromatic_brute(p, w), lit


def test_no_negatives_tiny():
    assert search_negative_records(2, 2) == []


def test_small_census():
    # every path with n <= 5 and r <= 5, and n = 6 with r <= 4
    found = [rec for n in range(6) for rec in search_negative_records(n, 5)]
    assert found == [
        NegativeRecord("EENEENENEENEE@4,5", wc([1, 2, 0, 1]), ((2, -1),)),
        NegativeRecord("EENEENENEENEENE@5,5", wc([1, 3, 0, 1]), ((2, -1),)),
    ]
    assert search_negative_records(6, 4) == []
    for rec in found:
        p = PartialDyckPath.parse(rec.path)
        w = Window(1, p.r)
        exp = key_expansion_of_chromatic(p)
        total = combine(exp, lambda b: key_polynomial(b, p.r).terms.items())
        assert total == chromatic_brute(p, w).terms, rec.path


# ----------------------------------------------------------------- fixtures


def test_negative_record_json_round_trip():
    rec = NegativeRecord(
        path="EENEENENEENEENENE@6,5",
        composition=wc([1, 3, 0, 2]),
        coefficient=((2, -1),),
    )
    assert NegativeRecord.from_json(rec.to_json()) == rec
    # the path is stored as the literal PartialDyckPath.parse reads
    assert NegativeRecord.from_json({**rec.to_json(), "path": " EENEENENEENEENENE@6,5\n"}) == rec


def test_negative_record_from_json_drops_zero_coefficients():
    doc = {
        "path": "EENEENENEENEE@4,5",
        "composition": {"lo": 1, "entries": [1, 2, 0, 1]},
        "coefficient": [{"deg": 2, "coef": "-1"}, {"deg": 3, "coef": "0"}],
    }
    rec = NegativeRecord.from_json(doc)
    assert rec.coefficient == ((2, -1),)
    assert rec == NegativeRecord.from_json({**doc, "coefficient": [{"deg": 2, "coef": "-1"}]})
    # a coefficient that is zero once its zero entries go has no negative entry
    with pytest.raises(ValueError, match="no negative entry"):
        NegativeRecord.from_json({**doc, "coefficient": [{"deg": 2, "coef": "0"}]})


@pytest.mark.parametrize(
    "coefficient, msg",
    [
        ([{"deg": 2, "coef": "-1"}, {"deg": 2, "coef": "-1"}], "duplicate t-degree"),
        ([{"deg": 2, "coef": -1.5}], "t entry"),
        ([{"deg": "2", "coef": "-1"}], "t entry"),
        ({"deg": 2, "coef": "-1"}, "list"),
        # a zero entry still claims its degree
        ([{"deg": 2, "coef": "-1"}, {"deg": 2, "coef": "0"}], "duplicate t-degree"),
        ([{"deg": 2, "coef": "0"}, {"deg": 2, "coef": "-1"}], "duplicate t-degree"),
        # t^-1 is a Laurent term, not in Z[t]
        ([{"deg": 2, "coef": "-1"}, {"deg": -1, "coef": "1"}], "negative t-degree -1"),
    ],
)
def test_negative_record_from_json_rejects_bad_coefficients(coefficient, msg):
    doc = {
        "path": "EENEENENEENEE@4,5",
        "composition": {"lo": 1, "entries": [1, 2, 0, 1]},
        "coefficient": coefficient,
    }
    with pytest.raises(ValueError, match=msg):
        NegativeRecord.from_json(doc)


GOOD_RECORD = {
    "path": "EENEENENEENEE@4,5",
    "composition": {"lo": 1, "entries": [1, 2, 0, 1]},
    "coefficient": [{"deg": 2, "coef": "-1"}],
}


@pytest.mark.parametrize(
    "doc, msg",
    [
        ([1], "record must be"),
        ({}, "record must be"),
        ({k: v for k, v in GOOD_RECORD.items() if k != "path"}, "record must be"),
        ({k: v for k, v in GOOD_RECORD.items() if k != "composition"}, "record must be"),
        ({k: v for k, v in GOOD_RECORD.items() if k != "coefficient"}, "record must be"),
        ({**GOOD_RECORD, "path": 5, "coefficient": []}, "path must be a string"),
        ({**GOOD_RECORD, "path": "X@1,1"}, "bad path literal"),
        ({**GOOD_RECORD, "coefficient": [{"deg": 0, "coef": "3"}]}, "no negative entry"),
        ({**GOOD_RECORD, "coefficient": []}, "no negative entry"),
        ({**GOOD_RECORD, "path": "EENEENENEENEE@\u0664,5"}, "bad path literal"),
        ({**GOOD_RECORD, "coefficient": [{"deg": 2, "coef": "-1_0"}]}, "t entry"),
    ],
)
def test_negative_record_from_json_rejects_bad_records(doc, msg):
    with pytest.raises(ValueError, match=msg):
        NegativeRecord.from_json(doc)


def test_fixture_records_present():
    recs = load_negative_fixtures()
    assert len(recs) >= 1
    # every pinned record names an n=6 path and a genuinely negative value
    for rec in recs:
        p = PartialDyckPath.parse(rec.path)
        assert p.n == 6 and p.r <= 6
        assert any(c < 0 for _, c in rec.coefficient)


@pytest.mark.parametrize("doc", [{"paths": []}, {"records": {}}, [], None])
def test_fixture_without_a_records_list_raises(monkeypatch, tmp_path, doc):
    # a copy of the fixtures directory with one more file: the shipped
    # fixture still loads its 6 records, and the bad file raises by name
    shipped = load_negative_fixtures()
    assert len(shipped) == 6
    (tmp_path / "fixtures").mkdir()
    for fp in (Path(keys.__file__).parent / "fixtures").glob("*.json"):
        (tmp_path / "fixtures" / fp.name).write_text(fp.read_text())
    monkeypatch.setattr(keys, "__file__", str(tmp_path / "keys.py"))
    assert load_negative_fixtures() == shipped
    (tmp_path / "fixtures" / "zz_bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="zz_bad.json"):
        load_negative_fixtures()


def test_fixture_records_replay():
    # recompute each pinned path and confirm the exact negative coefficients
    recs = load_negative_fixtures()
    by_path: dict[str, list[NegativeRecord]] = {}
    for rec in recs:
        by_path.setdefault(rec.path, []).append(rec)
    cache: dict = {}
    for lit, pinned in sorted(by_path.items()):
        found = negative_records(PartialDyckPath.parse(lit), cache)
        assert found == sorted(
            pinned, key=lambda rec: (rec.composition.lo, rec.composition.entries)
        ), lit
