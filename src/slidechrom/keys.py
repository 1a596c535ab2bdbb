"""Demazure key polynomials, exact expansion of polynomials in the key
basis, and the search for expansion coefficients with negative entries.

Key polynomials live in x_1..x_r.  Inside this module an exponent is
one packed int (compositions.pack): 8 bits per entry, x_1 in the low
digit, so x^e times x_i is e + (1 << 8(i - 1)).  Key monomials,
key-to-slide rows and the chromatic key peel all use it, slide sets are
read in it on each index's own digits (compositions.slide_terms), and
key_polynomial, expand_in_keys and key_expansion_of_chromatic convert
to and from WeakComposition at their boundaries.  An entry, and so
every prefix sum the peel's grade (tpoly.peel) reads, must fit in a
digit: each of the three refuses a weight above 255 with ValueError.
A key polynomial's coefficients are plain ints (t^0 only).  The
expansion solves the change of basis exactly over Z[t] and
certifies itself by reducing the input to zero; a nonzero remainder
raises, so a wrong answer cannot be returned silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .chromatic import slide_expansion
from .compositions import WeakComposition, Window, slide_terms, unpack
from .dyck import PartialDyckPath, scan_paths
from .tpoly import (
    TCoeff,
    TPolynomial,
    combine,
    peel,
    t_from_json,
    t_is_nonnegative,
    t_to_json,
)

_BITS = 8  # bits per entry of a packed exponent
_DIGIT = (1 << _BITS) - 1  # one digit's mask and largest value: the largest weight

# packed exponent -> the key polynomial's (packed exponent, coefficient) pairs
_KEY_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}


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


def demazure_operator(p: TPolynomial, i: int) -> TPolynomial:
    """pi_i(p) = divided difference of x_i * p."""
    xi = TPolynomial.monomial(WeakComposition.from_items([(i, 1)]), p.window)
    return divided_difference(xi * p, i)


def key_polynomial(a: WeakComposition, r: int) -> TPolynomial:
    """Demazure key polynomial for a composition supported in [1, r].

    Weakly decreasing exponents give the bare monomial; otherwise the
    smallest ascent is unswapped through the Demazure operator.  Results
    are memoized on the composition alone (padding with zeros on the
    right never changes the polynomial).  Raises ValueError for a weight
    above 255.
    """
    if a.weight() and (a.lo < 1 or a.hi > r):
        raise ValueError(f"support of {a} outside [1, {r}]")
    return TPolynomial(
        Window(1, r),
        {WeakComposition(unpack(e, _BITS)): {0: c} for e, c in _key_terms(_packed(a))},
    )


def _packed(e: WeakComposition) -> int:
    # e must have e.lo >= 1 or be zero
    if e.weight() > _DIGIT:
        raise ValueError(f"weight of {e} above {_DIGIT}")
    return e.packed(1, _BITS)


def _key_terms(x: int) -> tuple[tuple[int, int], ...]:
    """Monomials of the key polynomial of a packed exponent.

    kappa_x = pi_i kappa_(s_i x) at the smallest ascent i, with the
    closed form of pi_i on a monomial x_i^p x_(i+1)^q: for p >= q the sum
    of x_i^(p-k) x_(i+1)^(q+k) over 0 <= k <= p - q, for p < q the
    negated sum of x_i^(p+k) x_(i+1)^(q-k) over 0 < k < q - p.  Moving
    one unit from x_i to x_(i+1) adds step = (1 << 8i) - (1 << 8(i-1)),
    so each sum is a range of ints.
    """
    cached = _KEY_CACHE.get(x)
    if cached is not None:
        return cached
    vec = unpack(x, _BITS)
    i = next((i for i in range(len(vec) - 1) if vec[i] < vec[i + 1]), None)
    if i is None:
        result: tuple = ((x, 1),)
    else:
        shift = _BITS * i  # x_(i+1) in 1-based terms sits at digit i
        step = (1 << (shift + _BITS)) - (1 << shift)
        terms: dict[int, int] = {}
        for e, c in _key_terms(x - (vec[i + 1] - vec[i]) * step):
            p, q = e >> shift & _DIGIT, e >> (shift + _BITS) & _DIGIT
            if p >= q:
                for f in range(e, e + (p - q) * step + 1, step):
                    terms[f] = terms.get(f, 0) + c
            else:
                for f in range(e - step, e - (q - p) * step, -step):
                    terms[f] = terms.get(f, 0) - c
        result = tuple((e, c) for e, c in terms.items() if c)
    _KEY_CACHE[x] = result
    return result


def expand_in_keys(
    p: TPolynomial, r: int
) -> dict[WeakComposition, TCoeff]:
    """Write p (exponents inside [1, r], weight at most 255) as a
    Z[t]-combination of keys.

    Peeled by tpoly.peel on packed exponents, whose prefix-sum grade
    grows whenever a unit of exponent moves to a smaller index: every
    monomial of kappa_m other than x^m dominates m and reaches no higher
    index, so it has a larger grade than m.  A nonzero remainder raises
    tpoly.ExpansionError; a zero one certifies that the returned
    coefficients are exactly the unique key-basis coordinates of p.
    """
    names: dict[int, WeakComposition] = {}  # reused as result keys
    for e in p.terms:
        if e.weight() and (e.lo < 1 or e.hi > r):
            raise ValueError(f"exponent {e} outside [1, {r}]")
        names[_packed(e)] = e
    found = peel({x: p.terms[e] for x, e in names.items()}, _key_terms, _BITS)
    return {names.get(m) or WeakComposition(unpack(m, _BITS)): tc for m, tc in found.items()}


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
        with no negative entry."""
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


def _key_slide_row(b: int) -> tuple[tuple[int, int], ...]:
    """The slide expansion of the key polynomial of a packed index on
    [1, len(b)], as (packed slide index, coefficient) pairs.

    Peeled by tpoly.peel from the memoised key monomials over the slide
    basis compositions.slide_terms; the peel's prefix-sum grade is a
    slide grade as well as a key grade.  Keys are nonnegative sums of
    slides (Assaf-Searles), with the slide of b itself once and every
    other slide index of a larger grade, so the rows form a
    unitriangular change of basis.
    """
    found = peel({e: {0: c} for e, c in _key_terms(b)}, lambda x: slide_terms(x, _BITS), _BITS)
    return tuple((a, tc[0]) for a, tc in found.items())


def key_expansion_of_chromatic(
    path: PartialDyckPath,
    _key_slide_cache: dict | None = None,
) -> dict[WeakComposition, TCoeff]:
    """Key-basis coordinates of the slide-sum chromatic polynomial.

    One tpoly.peel in slide coordinates: the slide expansion on the
    positive window is peeled with key-to-slide rows (_key_slide_row),
    never through the assembled polynomial.  Slide polynomials on [1, R]
    are linearly independent, so the zero remainder that certifies the
    peel certifies equality of polynomials.  The peel builds its grade
    from the packed indices themselves; no row entry reaches past its
    key index's top digit, so that grade orders every index the peel
    meets.  Raises ValueError for a path with more than 255 vertices,
    whose weight does not fit a digit.

    The cache maps a packed key index b to (b as a WeakComposition, its
    row) and can be shared across a scan: a row depends on b alone, and
    the WeakComposition is reused as the result key.  A scan over n
    vertices and r <= r_max fills at most C(n + r_max - 1, r_max - 1)
    entries, one per weak composition of n on [1, r_max].
    """
    if path.n > _DIGIT:
        raise ValueError(f"{path.n} vertices: key weights above {_DIGIT} do not fit")
    # slide polynomials with an index below 1 vanish on the positive window
    expansion = slide_expansion(path, lo=1)
    if not expansion:
        return {}  # about two thirds of the paths of a scan: skip the peel's set-up
    cache = _key_slide_cache if _key_slide_cache is not None else {}

    def row(b: int):
        if b not in cache:
            cache[b] = (WeakComposition(unpack(b, _BITS)), _key_slide_row(b))
        return cache[b][1]

    terms = {_packed(a): tc for a, tc in expansion.items()}
    found = peel(terms, row, _BITS)
    return {cache[b][0]: tc for b, tc in found.items()}


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
    """The records pinned in the package's fixtures directory."""
    out: list[NegativeRecord] = []
    for fp in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        data = json.loads(fp.read_text())
        for item in data.get("records", []):
            out.append(NegativeRecord.from_json(item))
    return out
