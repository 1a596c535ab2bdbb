"""Demazure key polynomials, exact expansion of polynomials in the key
basis, and the search for expansion coefficients with negative entries.

Key polynomials live in x_1..x_r.  Inside this module an exponent is a
plain tuple (e_1, e_2, ...) with trailing zeros trimmed, and a key
polynomial's coefficients are plain ints (t^0 only).  The expansion
solves the change of basis exactly over Z[t] and certifies itself by
reducing the input to zero; a nonzero remainder raises, so a wrong
answer cannot be returned silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .chromatic import slide_expansion
from .compositions import WeakComposition, Window, slide_set
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

# trimmed exponent -> the key polynomial's (exponent, coefficient) pairs
_KEY_CACHE: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}
# trimmed index -> the slide polynomial's exponents on [1, len(index)],
# each with coefficient 1
_SLIDE_CACHE: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}


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
    right never changes the polynomial).
    """
    if a.weight() and (a.lo < 1 or a.hi > r):
        raise ValueError(f"support of {a} outside [1, {r}]")
    return TPolynomial(
        Window(1, r),
        {WeakComposition(e): {0: c} for e, c in _key_terms(_vector(a))},
    )


def _vector(e: WeakComposition) -> tuple[int, ...]:
    # exponents from x_1 on, trailing zeros trimmed; needs e.lo >= 1 or e zero
    return (0,) * (e.lo - 1) + e.entries if e.entries else ()


def _trim(vec: tuple[int, ...]) -> tuple[int, ...]:
    while vec and vec[-1] == 0:
        vec = vec[:-1]
    return vec


def _key_terms(vec: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomials of the key polynomial of a trimmed exponent vector.

    kappa_vec = pi_i kappa_(s_i vec) at the smallest ascent i, with the
    closed form of pi_i on a monomial x_i^p x_(i+1)^q: for p >= q the sum
    of x_i^(p-k) x_(i+1)^(q+k) over 0 <= k <= p - q, for p < q the
    negated sum of x_i^(p+k) x_(i+1)^(q-k) over 0 < k < q - p.
    """
    cached = _KEY_CACHE.get(vec)
    if cached is not None:
        return cached
    i = next((i for i in range(len(vec) - 1) if vec[i] < vec[i + 1]), None)
    if i is None:
        result: tuple = ((vec, 1),)
    else:
        swapped = vec[:i] + (vec[i + 1], vec[i]) + vec[i + 2 :]
        width = len(vec)
        terms: dict[tuple[int, ...], int] = {}
        for e, c in _key_terms(_trim(swapped)):
            e = e + (0,) * (width - len(e))
            p, q = e[i], e[i + 1]
            if p >= q:
                shifts, sign = range(p - q + 1), 1
            else:
                shifts, sign = range(-1, p - q, -1), -1
            for k in shifts:
                f = _trim(e[:i] + (p - k, q + k) + e[i + 2 :])
                terms[f] = terms.get(f, 0) + sign * c
        result = tuple((e, c) for e, c in terms.items() if c)
    _KEY_CACHE[vec] = result
    return result


def expand_in_keys(
    p: TPolynomial, r: int
) -> dict[WeakComposition, TCoeff]:
    """Write p (exponents inside [1, r]) as a Z[t]-combination of keys.

    Peeled by tpoly.peel with the grade sum((r + 1 - i) * m_i), which
    grows whenever a unit of exponent moves to a smaller index: every
    monomial of kappa_m other than x^m has a larger grade than m.  A
    nonzero remainder raises tpoly.ExpansionError; a zero one certifies
    that the returned coefficients are exactly the unique key-basis
    coordinates of p.
    """
    names: dict[tuple[int, ...], WeakComposition] = {}  # reused as result keys
    for e in p.terms:
        if e.weight() and (e.lo < 1 or e.hi > r):
            raise ValueError(f"exponent {e} outside [1, {r}]")
        names[_vector(e)] = e
    found = peel({vec: p.terms[e] for vec, e in names.items()}, _key_terms, _key_grade(r))
    return {names.get(m) or WeakComposition(m): tc for m, tc in found.items()}


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


def _slide_terms(vec: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomials of the slide polynomial of a trimmed index on
    [1, len(vec)], which is its slide polynomial on any [1, R] with
    R >= len(vec): a b that dominates the index with the same weight has
    no entry past len(vec)."""
    cached = _SLIDE_CACHE.get(vec)
    if cached is None:
        cached = _SLIDE_CACHE[vec] = tuple(
            (_vector(b), 1) for b in slide_set(WeakComposition(vec), Window(1, len(vec)))
        )
    return cached


def _key_grade(r: int):
    # x_i weighs r + 1 - i: the grade grows whenever a unit of exponent
    # moves to a smaller index
    weights = range(r, 0, -1)
    return lambda e: sum(map(int.__mul__, weights, e))


def _key_slide_row(vec: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The slide expansion of the key polynomial of a trimmed index on
    [1, len(vec)], as (slide index, coefficient) pairs.

    Peeled from the memoised key monomials with the key grade, which is
    also the slide grade on [1, len(vec)].  Keys are nonnegative sums of
    slides (Assaf-Searles), with the slide of vec itself once and every
    other slide index of a larger grade, so the rows form a unitriangular
    change of basis.
    """
    found = peel(
        {e: {0: c} for e, c in _key_terms(vec)}, _slide_terms, _key_grade(len(vec))
    )
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
    peel certifies equality of polynomials.  The grade is the key grade;
    every index of one peel has weight n, so any R at or above the
    support gives the same order.

    The cache maps a trimmed key index b to (b as a WeakComposition, its
    row) and can be shared across a scan: a row depends on b alone, and
    the WeakComposition is reused as the result key.  A scan over n
    vertices and r <= r_max fills at most C(n + r_max - 1, r_max - 1)
    entries, one per weak composition of n on [1, r_max].
    """
    # slide polynomials with an index below 1 vanish on the positive window
    expansion = slide_expansion(path, lo=1)
    if not expansion:
        return {}  # about two thirds of the paths of a scan: skip the peel's set-up
    cache = _key_slide_cache if _key_slide_cache is not None else {}

    def row(b: tuple[int, ...]):
        if b not in cache:
            cache[b] = (WeakComposition(b), _key_slide_row(b))
        return cache[b][1]

    terms = {_vector(a): tc for a, tc in expansion.items()}
    found = peel(terms, row, _key_grade(max(map(len, terms))))
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
