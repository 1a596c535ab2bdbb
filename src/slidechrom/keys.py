"""Demazure key polynomials, exact expansion of polynomials in the key
basis, and the search for expansion coefficients with negative entries.

Key polynomials live in x_1..x_r.  Inside this module an exponent is
one packed int (compositions.pack), x_1 in the low digit, at the width
compositions.digit_bits gives every layer.  Callers pass the width
down, and every memo keys on (width, packed int): an int alone names no
index.  key_polynomial and expand_in_keys (through tpoly.expand)
convert to and from WeakComposition at their boundaries;
key_expansion_of_chromatic peels the subset DP's packed dict and names
only the key indices it returns.  A key polynomial's coefficients are
plain ints (t^0 only).  The expansion solves the change of basis exactly
over Z[t] and certifies itself by reducing the input to zero; a nonzero
remainder raises, so a wrong answer cannot be returned silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .chromatic import _packed_dp, _t_slot, _t_unpack
from .compositions import WeakComposition, Window, digit_bits, slide_terms, unpack
from .dyck import PartialDyckPath, dyck_graph, restriction_map, scan_paths
from .tpoly import (
    TCoeff,
    TPolynomial,
    combine,
    expand,
    peel,
    t_from_json,
    t_is_nonnegative,
    t_to_json,
)

# (bits, packed exponent) -> the key polynomial's (packed exponent, coefficient) pairs
_KEY_CACHE: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}


def divided_difference(p: TPolynomial, i: int) -> TPolynomial:
    """(p - p with x_i, x_{i+1} swapped) / (x_i - x_{i+1}), exactly.

    Computed term by term from the telescoping identity, so no division
    ever happens.
    """
    if not (p.window.lo <= i and i + 1 <= p.window.hi):
        raise ValueError(f"variables x{i}, x{i + 1} outside window {p.window}")

    def quotient(e: WeakComposition):
        # x^e's quotient: x_i^b x_{i+1}^b times the complete homogeneous
        # terms of degree a - b - 1 in x_i, x_{i+1}, negated when a < b
        a, b, sign = e[i], e[i + 1], {0: 1}
        if a < b:
            a, b, sign = b, a, {0: -1}
        rest = WeakComposition.from_items(
            (k, v) for k, v in e.items() if k not in (i, i + 1)
        )
        for m in range(a - b):
            yield rest.added(WeakComposition.from_items([(i, b + m), (i + 1, a - 1 - m)])), sign

    return TPolynomial(p.window, combine(p.terms, quotient))


def key_polynomial(a: WeakComposition, r: int) -> TPolynomial:
    """Demazure key polynomial for a composition supported in [1, r].

    Weakly decreasing exponents give the bare monomial; otherwise the
    smallest ascent is unswapped through the Demazure operator.  Results
    are memoized on the composition alone, packed at its weight's width
    (compositions.digit_bits; padding with zeros on the right never
    changes the polynomial).
    """
    if a.weight() and (a.lo < 1 or a.hi > r):
        raise ValueError(f"support of {a} outside [1, {r}]")
    bits = digit_bits(a.weight())
    return TPolynomial(
        Window(1, r),
        {WeakComposition(unpack(e, bits)): {0: c} for e, c in _key_terms(a.packed(1, bits), bits)},
    )


def _key_terms(x: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Monomials of the key polynomial of an exponent packed bits bits
    per entry, at least compositions.digit_bits of its weight.

    kappa_x = pi_i kappa_(s_i x) at the smallest ascent i, with the
    closed form of pi_i on a monomial x_i^p x_(i+1)^q: for p >= q the sum
    of x_i^(p-k) x_(i+1)^(q+k) over 0 <= k <= p - q, for p < q the
    negated sum of x_i^(p+k) x_(i+1)^(q-k) over 0 < k < q - p.  Moving
    one unit from x_i to x_(i+1) adds one step, the unit of digit i
    less that of digit i - 1, so each sum is a range of ints.
    """
    cached = _KEY_CACHE.get((bits, x))
    if cached is not None:
        return cached
    vec = unpack(x, bits)
    i = next((i for i in range(len(vec) - 1) if vec[i] < vec[i + 1]), None)
    if i is None:
        result: tuple = ((x, 1),)
    else:
        shift, digit = bits * i, (1 << bits) - 1  # x_(i+1) in 1-based terms sits at digit i
        step = (1 << (shift + bits)) - (1 << shift)
        terms: dict[int, int] = {}
        for e, c in _key_terms(x - (vec[i + 1] - vec[i]) * step, bits):
            p, q = e >> shift & digit, e >> (shift + bits) & digit
            if p >= q:
                for f in range(e, e + (p - q) * step + 1, step):
                    terms[f] = terms.get(f, 0) + c
            else:
                for f in range(e - step, e - (q - p) * step, -step):
                    terms[f] = terms.get(f, 0) - c
        result = tuple((e, c) for e, c in terms.items() if c)
    _KEY_CACHE[bits, x] = result
    return result


def expand_in_keys(p: TPolynomial, r: int) -> dict[WeakComposition, TCoeff]:
    """Write p (exponents inside [1, r]) as a Z[t]-combination of keys.

    Peeled by tpoly.expand from 1 with the basis _key_terms; the peel's
    prefix-sum grade grows whenever a unit of exponent moves to a
    smaller index: every monomial of kappa_m other than x^m dominates m
    and reaches no higher index, so it has a larger grade than m.  A
    nonzero remainder raises tpoly.ExpansionError; a zero one certifies
    that the returned coefficients are exactly the unique key-basis
    coordinates of p.
    """
    for e in p.terms:
        if e.weight() and (e.lo < 1 or e.hi > r):
            raise ValueError(f"exponent {e} outside [1, {r}]")
    return expand(p, 1, _key_terms)


def is_key_positive(expansion: dict[WeakComposition, TCoeff]) -> bool:
    return all(t_is_nonnegative(tc) for tc in expansion.values())


@dataclass(frozen=True)
class NegativeRecord:
    """A key-basis coefficient with a negative entry somewhere in t."""

    path: str
    composition: WeakComposition
    coefficient: tuple[tuple[int, int], ...]  # sorted (t-degree, value)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "composition": self.composition.to_json(),
            "coefficient": t_to_json(dict(self.coefficient)),
        }

    @classmethod
    def from_json(cls, d: dict) -> "NegativeRecord":
        """Inverse of to_json.  Raises ValueError on any other shape, on a
        path literal PartialDyckPath.parse rejects and on a coefficient
        that tpoly.t_from_json rejects, such as one with a negative
        t-degree, or that has no negative entry."""
        fields = {"path", "composition", "coefficient"}
        if not (isinstance(d, dict) and fields <= d.keys()):
            raise ValueError(f"record must be {{path, composition, coefficient}}, got {d!r}")
        if not isinstance(d["path"], str):
            raise ValueError(f"record path must be a string, got {d['path']!r}")
        path = PartialDyckPath.parse(d["path"]).literal
        coefficient = t_from_json(d["coefficient"])
        if t_is_nonnegative(coefficient):
            raise ValueError(f"record coefficient has no negative entry: {d['coefficient']!r}")
        return cls(
            path=path,
            composition=WeakComposition.from_json(d["composition"]),
            coefficient=tuple(sorted(coefficient.items())),
        )


def _key_slide_row(b: int, bits: int) -> tuple[tuple[int, int], ...]:
    """The slide expansion of the key polynomial of an index packed bits
    bits per entry, on [1, len(b)], as (packed slide index, coefficient)
    pairs in the same layout.

    Peeled by tpoly.peel from the memoised key monomials over the slide
    basis compositions.slide_terms; the peel's prefix-sum grade is a
    slide grade as well as a key grade.  Keys are nonnegative sums of
    slides (Assaf-Searles), with the slide of b itself once and every
    other slide index of a larger grade, so the rows form a
    unitriangular change of basis.
    """
    found = peel({e: {0: c} for e, c in _key_terms(b, bits)}, lambda x: slide_terms(x, bits), bits)
    return tuple((a, tc[0]) for a, tc in found.items())


def key_expansion_of_chromatic(
    path: PartialDyckPath,
    _key_slide_cache: dict | None = None,
) -> dict[WeakComposition, TCoeff]:
    """Key-basis coordinates of the slide-sum chromatic polynomial.

    One tpoly.peel in slide coordinates: the subset DP's packed slide
    expansion on the positive window (chromatic._packed_dp from 1, at
    compositions.digit_bits of n) is peeled with key-to-slide rows
    (_key_slide_row) at that width, never through the assembled
    polynomial; only its t-coefficients are unpacked.  Slide polynomials
    on [1, R] are linearly independent, so the zero remainder that
    certifies the peel certifies equality of polynomials.  The peel
    builds its grade from the packed indices themselves; no row entry
    reaches past its key index's top digit, so that grade orders every
    index the peel meets.

    The cache maps (bits, packed key index b) to (b as a WeakComposition,
    its row) and can be shared across a scan, and across scans of
    different n: a row depends on b and its width alone, and the
    WeakComposition is reused as the result key.  A scan over n vertices
    and r <= r_max fills at most C(n + r_max - 1, r_max - 1) entries, one
    per weak composition of n on [1, r_max].
    """
    graph = dyck_graph(path)
    # slide polynomials with an index below 1 vanish on the positive window
    dp = _packed_dp(graph, restriction_map(path), 1)
    if not dp:
        return {}  # about two thirds of the paths of a scan: skip the peel's set-up
    bits, slot = digit_bits(graph.n), _t_slot(graph.n)
    cache = _key_slide_cache if _key_slide_cache is not None else {}

    def row(b: int):
        if (bits, b) not in cache:
            cache[bits, b] = (WeakComposition(unpack(b, bits)), _key_slide_row(b, bits))
        return cache[bits, b][1]

    found = peel({x: _t_unpack(tc, slot) for x, tc in dp.items()}, row, bits)
    return {cache[bits, b][0]: tc for b, tc in found.items()}


def negative_records(
    path: PartialDyckPath, cache: dict | None = None
) -> list[NegativeRecord]:
    """The key coefficients of the path's chromatic polynomial with a
    negative entry, ordered by composition; cache is the key-to-slide
    row cache of key_expansion_of_chromatic."""
    exp = key_expansion_of_chromatic(path, cache)
    return [
        NegativeRecord(path.literal, b, tuple(sorted(exp[b].items())))
        for b in sorted(exp, key=lambda e: (e.lo, e.entries))
        if not t_is_nonnegative(exp[b])
    ]


def search_negative_records(
    n: int, r_max: int, stop_after: int | None = None
) -> list[NegativeRecord]:
    """Scan every path with the given n and r <= r_max in scan_paths
    order and record every key coefficient of the chromatic polynomial
    with a negative entry.

    stop_after caps the number of offending paths before returning early.
    """
    records: list[NegativeRecord] = []
    bad_paths = 0
    cache: dict = {}
    for path in scan_paths(n, r_max):
        found = negative_records(path, cache)
        if found:
            records += found
            bad_paths += 1
            if stop_after is not None and bad_paths >= stop_after:
                break
    return records


def load_negative_fixtures() -> list[NegativeRecord]:
    """The records pinned in the package's fixtures directory.  Raises
    ValueError naming the file when one is not an object with a records
    list, rather than loading nothing from it."""
    out: list[NegativeRecord] = []
    for fp in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        data = json.loads(fp.read_text())
        if not (isinstance(data, dict) and isinstance(data.get("records"), list)):
            raise ValueError(f"{fp}: fixture must be an object with a records list")
        out += map(NegativeRecord.from_json, data["records"])
    return out
