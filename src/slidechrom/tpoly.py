"""Sparse exact polynomials in variables x_i (i ranging over a window of
integers, possibly nonpositive) with coefficients in Z[t].

A t-coefficient is a dict {t_degree: nonzero int}; all arithmetic is
arbitrary-precision integer arithmetic.  TPolynomial maps exponent
vectors (WeakComposition) to t-coefficients and carries a Window as
metadata describing where exponents are allowed to live.  Operations
never silently truncate: a term outside the window raises.

combine sums tc * basis(k) over an expansion of t-coefficient dicts;
it is behind every TPolynomial operation (+, -, *, scaled,
evaluate_all_ones) and the divided difference in keys.  peel, the
inverse, subtracts c * k in place on packed exponents, which it grades;
expand is the one boundary where both basis expansions (slides, keys)
pack a TPolynomial for it and name its result.  The chromatic routes
use none of them: they add t-coefficients packed into ints
(chromatic._t_slot).
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from .compositions import WeakComposition, Window, digit_bits, lex_key, unpack

TCoeff = dict  # {int: int}, no zero values stored
E = TypeVar("E", bound=Hashable)
K = TypeVar("K", bound=Hashable)

# a coefficient string as t_to_json writes it
_is_decimal = re.compile(r"-?[0-9]+").fullmatch


def t_is_nonnegative(a: Mapping[int, int]) -> bool:
    return all(c >= 0 for c in a.values())


def t_str(a: Mapping[int, int]) -> str:
    if not a:
        return "0"
    parts = []
    for d in sorted(a):
        c = a[d]
        if d == 0:
            parts.append(str(c))
            continue
        tp = "t" if d == 1 else f"t^{d}"
        if c == 1:
            parts.append(tp)
        elif c == -1:
            parts.append(f"-{tp}")
        else:
            parts.append(f"{c}{tp}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def t_to_json(a: Mapping[int, int]) -> list[dict]:
    """A t-coefficient as [{deg, coef}] by ascending degree, each
    coefficient a decimal string so big integers survive any reader."""
    return [{"deg": d, "coef": str(a[d])} for d in sorted(a)]


def t_from_json(items) -> TCoeff:
    """Inverse of t_to_json, which writes no zero coef; a zero coef read
    is dropped.  Raises ValueError on any other shape, on a coef that is
    neither an int nor a decimal string such as "-12", on a negative
    t-degree, which is not in Z[t], and on a repeated t-degree, which
    would otherwise overwrite the first, zero or not."""
    if not isinstance(items, list):
        raise ValueError(f"t must be a list of {{deg, coef}}, got {items!r}")
    out: TCoeff = {}
    for x in items:
        if not (
            isinstance(x, dict) and type(x.get("deg")) is int
            and (type(coef := x.get("coef")) is int or type(coef) is str and _is_decimal(coef))
        ):
            raise ValueError(f"t entry must be {{deg, coef}}, got {x!r}")
        if x["deg"] < 0:
            raise ValueError(f"negative t-degree {x['deg']}")
        if x["deg"] in out:
            raise ValueError(f"duplicate t-degree {x['deg']}")
        out[x["deg"]] = int(coef)
    if 0 in out.values():
        out = {d: c for d, c in out.items() if c}
    return out


class TPolynomial:
    """Exact sparse polynomial over Z[t] in window-indexed x variables.

    terms: {WeakComposition: TCoeff}.  Canonical form stores no zero
    t-coefficients and no empty terms.  Equality compares terms only;
    the window is bookkeeping for which variables are in play.  The
    constructor refuses a t-degree or coefficient that is not an int
    (bools and floats included) and a negative t-degree, as t_from_json
    does, so every polynomial it accepts dumps to a document loads reads
    back.
    """

    __slots__ = ("window", "terms")

    def __init__(self, window: Window, terms: Mapping[WeakComposition, Mapping[int, int]]):
        clean: dict[WeakComposition, TCoeff] = {}
        for e, tc in terms.items():
            for d, c in tc.items():
                # bool is an int subclass; t_from_json reads neither it nor a float
                if type(d) is not int or type(c) is not int:
                    raise ValueError(f"t-degree and coefficient must be ints, got {d!r}: {c!r} at exponent {e}")
                if d < 0:
                    raise ValueError(f"negative t-degree {d} at exponent {e}")
            tc = {d: c for d, c in tc.items() if c}
            if not tc:
                continue
            if not e.supported_in(window):
                raise ValueError(
                    f"exponent {e} outside window [{window.lo}, {window.hi}]"
                )
            clean[e] = tc
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _canonical(cls, window: Window, terms: dict[WeakComposition, TCoeff]) -> "TPolynomial":
        """A polynomial that takes ownership of terms already in canonical
        form: no zero t-entry, no empty t-coefficient, no negative
        t-degree and every exponent inside window.  Nothing is checked or
        copied, so only producers whose terms are canonical by
        construction may call it; none of them makes a negative degree
        (the chromatic routes count inversions, slide_polynomial has t^0
        alone and from_json_dict reads through t_from_json)."""
        self = object.__new__(cls)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TPolynomial is immutable")

    @classmethod
    def zero(cls, window: Window) -> "TPolynomial":
        return cls(window, {})

    @classmethod
    def one(cls, window: Window) -> "TPolynomial":
        return cls(window, {WeakComposition(): {0: 1}})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        parts = (self.terms, other.terms)
        terms = combine({0: {0: 1}, 1: {0: 1}}, lambda k: parts[k].items())
        return TPolynomial(self.window.union(other.window), terms)

    def __neg__(self) -> "TPolynomial":
        return self.scaled({0: -1})

    def __sub__(self, other: "TPolynomial") -> "TPolynomial":
        return self + (-other)

    def __mul__(self, other: "TPolynomial") -> "TPolynomial":
        # the sum of t1 * x^e1 * other over the terms (e1, t1) of self
        terms = combine(
            self.terms, lambda e1: ((e1.added(e2), t2) for e2, t2 in other.terms.items())
        )
        return TPolynomial(self.window.union(other.window), terms)

    def scaled(self, tc: Mapping[int, int]) -> "TPolynomial":
        """Multiply by an element of Z[t]."""
        return TPolynomial(self.window, combine(self.terms, lambda e: ((e, tc),)))

    def shifted(self, k: int) -> "TPolynomial":
        """Shift every variable index by k (x_i -> x_{i+k})."""
        return TPolynomial(
            Window(self.window.lo + k, self.window.hi + k),
            {e.shifted(k): dict(tc) for e, tc in self.terms.items()},
        )

    def with_window(self, w: Window) -> "TPolynomial":
        """Same terms, new window metadata.  Raises if a term escapes w."""
        return TPolynomial(w, self.terms)

    def evaluate_all_ones(self) -> TCoeff:
        """Set every x_i = 1, leaving a polynomial in t."""
        return combine(self.terms, lambda e: ((None, {0: 1}),)).get(None, {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("TPolynomial is not hashable")

    def _sorted_terms(self) -> list[tuple[WeakComposition, TCoeff]]:
        if not self.terms:
            return []
        lo = min(e.lo for e in self.terms)
        hi = max(e.hi for e in self.terms)
        return sorted(self.terms.items(), key=lambda it: lex_key(it[0], lo, hi))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, tc in self._sorted_terms():
            def var(i: int) -> str:
                return f"x({i})" if i < 0 else f"x{i}"

            mono = " ".join(
                var(i) if v == 1 else f"{var(i)}^{v}" for i, v in e.items()
            ) or "1"
            cs = t_str(tc)
            if cs == "1":
                bits.append(mono)
            elif mono == "1":
                bits.append(f"({cs})")
            else:
                bits.append(f"({cs})*{mono}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"TPolynomial(window={tuple(self.window)}, {len(self.terms)} terms)"

    def to_json_dict(self) -> dict:
        terms = [{"exp": e.to_json(), "t": t_to_json(tc)} for e, tc in self._sorted_terms()]
        return {"window": [self.window.lo, self.window.hi], "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TPolynomial":
        """Inverse of to_json_dict.  Raises ValueError on any other shape,
        on a repeated exponent or t-degree, which would otherwise
        overwrite each other, and on an exponent outside the window.  A
        term whose t-entries are all zero is dropped, window or not."""
        if not isinstance(d, dict):
            raise ValueError("polynomial document must be a JSON object")
        win, items = d.get("window"), d.get("terms")
        if not (
            isinstance(win, list) and len(win) == 2
            and all(type(x) is int for x in win)
        ):
            raise ValueError(f"window must be [lo, hi], got {win!r}")
        if not isinstance(items, list):
            raise ValueError(f"terms must be a list, got {items!r}")
        seen: set[WeakComposition] = set()
        terms: dict[WeakComposition, TCoeff] = {}
        for item in items:
            if not (isinstance(item, dict) and isinstance(item.get("t"), list)):
                raise ValueError(f"term must be {{exp, t: [...]}}, got {item!r}")
            e = WeakComposition.from_json(item.get("exp"))
            if e in seen:
                raise ValueError(f"duplicate exponent {e}")
            seen.add(e)
            try:
                tc = t_from_json(item["t"])
            except ValueError as exc:
                raise ValueError(f"{exc} at exponent {e}") from None
            if tc:
                terms[e] = tc
        w = Window(win[0], win[1])
        for e in terms:
            if not e.supported_in(w):
                raise ValueError(f"exponent {e} outside window [{w.lo}, {w.hi}]")
        return cls._canonical(w, terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def loads(cls, s: str) -> "TPolynomial":
        return cls.from_json_dict(json.loads(s))


def combine(
    expansion: Mapping[K, Mapping[int, int]],
    basis: Callable[[K], Iterable[tuple[E, Mapping[int, int]]]],
) -> dict[E, TCoeff]:
    """Terms of the sum of tc * basis(k) over the (k, tc) items of an
    expansion, where basis(k) yields (exponent, t-coefficient) pairs.
    Everything is added into one dict; entries that cancel are dropped."""
    acc: dict[E, TCoeff] = {}
    for k, tc in expansion.items():
        for e, b in basis(k):
            cur = acc.setdefault(e, {})
            for d1, c1 in tc.items():
                for d2, c2 in b.items():
                    cur[d1 + d2] = cur.get(d1 + d2, 0) + c1 * c2
    return {e: nz for e, tc in acc.items() if (nz := {d: c for d, c in tc.items() if c})}


class ExpansionError(RuntimeError):
    """A peel could not certify an exact expansion; indicates a bug."""


def peel(
    terms: Mapping[int, Mapping[int, int]],
    basis: Callable[[int], Iterable[tuple[int, int]]],
    bits: int,
) -> dict[int, TCoeff]:
    """Coordinates of sum(tc * x^e over terms) in a unitriangular basis,
    each exponent packed bits bits per entry (compositions.pack).

    basis(m) lists the monomials of the basis element indexed by m with
    nonzero integer coefficients: x^m with coefficient 1, and others that
    dominate m and have no entry past m's top digit.  The grade is
    (x * ones) & mask, ones a 1 in each digit up to the highest top digit
    of terms, so digit k holds the prefix sum e_0 + ... + e_k, which
    cannot carry while the weight is below 2 ** bits.  Its integer order
    is reverse-lex on prefix sums, which extends dominance: if b
    dominates a and b != a, the first prefix sum from the top where they
    differ is larger for b.  So every other monomial of basis(m) has a
    strictly larger grade than m.

    Each remaining exponent carries its whole Z[t] coefficient, so every
    basis element is fetched and subtracted once.  A heap yields the
    remaining exponent m of smallest grade; no basis element still to be
    subtracted has a monomial at m, so the coefficient of m is final.
    Subtracting coefficient * basis(m) pushes the exponents that newly
    appear; entries that cancel are skipped when popped.  Ties in grade
    need no order, since the expansion is unique.

    Raises ExpansionError when an exponent is peeled twice (the round
    guard: it bounds the rounds by the number of exponents) or when a
    nonzero remainder is left; a zero one certifies that the result is
    exactly the unique basis coordinates.
    """
    digits = -(-max(map(int.bit_length, terms), default=0) // bits)
    mask = (1 << bits * digits) - 1
    ones = mask // ((1 << bits) - 1)
    rem = {e: dict(tc) for e, tc in terms.items() if tc}
    tie = itertools.count()
    heap = [((e * ones) & mask, next(tie), e) for e in rem]
    heapq.heapify(heap)
    out: dict[int, TCoeff] = {}
    while heap:
        m = heapq.heappop(heap)[2]
        tc = rem.get(m)
        if tc is None:
            continue
        if m in out:
            raise ExpansionError(f"exponent {m} peeled twice")
        items = list(tc.items())
        out[m] = dict(items)
        for e, k in basis(m):
            cur = rem.get(e)
            if cur is None:
                rem[e] = {d: -c * k for d, c in items}
                heapq.heappush(heap, ((e * ones) & mask, next(tie), e))
                continue
            for d, c in items:
                v = cur.get(d, 0) - c * k
                if v:
                    cur[d] = v
                else:
                    del cur[d]
            if not cur:
                del rem[e]
    if rem:
        raise ExpansionError("nonzero remainder")
    return out


def expand(
    p: TPolynomial, lo: int, basis: Callable[[int, int], Iterable[tuple[int, int]]]
) -> dict[WeakComposition, TCoeff]:
    """Coordinates of p in a unitriangular basis, by peel: the exponents
    packed at the largest weight's width (compositions.digit_bits), index
    lo in the low digit, and basis(m, bits) the monomials of the element
    of packed index m as in peel.  Only the result is converted back,
    reusing p's own exponents where they name an index.  The caller
    checks that every exponent starts at lo or above."""
    bits = digit_bits(max(map(WeakComposition.weight, p.terms), default=0))
    names = {e.packed(lo, bits): e for e in p.terms}  # reused as result keys
    found = peel({x: p.terms[e] for x, e in names.items()}, lambda x: basis(x, bits), bits)
    return {names.get(x) or WeakComposition(unpack(x, bits), lo): tc for x, tc in found.items()}
