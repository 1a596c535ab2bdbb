"""Integer-indexed weak compositions and the sliding order used by the
slide basis.

A weak composition here is a finitely supported map from Z to the
nonnegative integers; entries may sit at nonpositive indices.  Strong
compositions (all parts positive, positions irrelevant) are plain tuples
of positive ints.  A packed exponent vector is one int with a fixed
number of bits per entry, the first entry in the low digit (pack,
unpack, WeakComposition.packed); digit_bits is the one rule that picks
that number from a weight, for every layer.  slide_walk builds slide
sets in that form for packed_slides, the one slide-set memo every layer
reads, and slide_terms reads it on an index's own digits as the basis
of both slide peels (tpoly.peel).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


class _WindowBase(NamedTuple):
    lo: int
    hi: int


class Window(_WindowBase):
    """Inclusive index range [lo, hi] for variable supports.

    A window is metadata: nothing silently truncates to it.  lo = hi + 1
    encodes the empty window (no admissible indices).
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo > hi + 1:
            raise ValueError(f"bad window [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def union(self, other: "Window") -> "Window":
        return Window(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, i: int) -> bool:
        return self.lo <= i <= self.hi


def _canonical(entries: Iterable[int], lo: int) -> tuple[int, tuple[int, ...]]:
    ent = tuple(entries)
    for v in ent:
        if v < 0:
            raise ValueError("weak composition entries must be >= 0")
    start, end = 0, len(ent)
    while end and ent[end - 1] == 0:
        end -= 1
    if not end:
        return 1, ()
    while ent[start] == 0:
        start += 1
    return lo + start, ent[start:end]


class WeakComposition:
    """Finitely supported weak composition on Z.

    Stored canonically as (lo, entries) with entries[0] and entries[-1]
    nonzero unless the composition is zero.  Equality and hashing are on
    logical values, never on a particular storage offset.
    """

    __slots__ = ("lo", "entries")

    def __init__(self, entries: Iterable[int] = (), lo: int = 1):
        clo, cent = _canonical(entries, lo)
        object.__setattr__(self, "lo", clo)
        object.__setattr__(self, "entries", cent)

    def __setattr__(self, name, value):
        raise AttributeError("WeakComposition is immutable")

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, int]]) -> "WeakComposition":
        d: dict[int, int] = {}
        for i, v in items:
            if v:
                d[i] = d.get(i, 0) + v
        if not d:
            return cls()
        lo = min(d)
        hi = max(d)
        return cls([d.get(i, 0) for i in range(lo, hi + 1)], lo)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "WeakComposition":
        """Exponent vector of the monomial x_{v1}x_{v2}... (color counts)."""
        return cls.from_items((v, 1) for v in values)

    def __getitem__(self, i: int) -> int:
        j = i - self.lo
        if 0 <= j < len(self.entries):
            return self.entries[j]
        return 0

    @property
    def hi(self) -> int:
        return self.lo + len(self.entries) - 1

    def support(self) -> tuple[int, ...]:
        return tuple(
            self.lo + j for j, v in enumerate(self.entries) if v
        )

    def weight(self) -> int:
        return sum(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def items(self) -> Iterator[tuple[int, int]]:
        for j, v in enumerate(self.entries):
            if v:
                yield self.lo + j, v

    def flatten(self) -> tuple[int, ...]:
        """Positive entries read in index order (a strong composition)."""
        return tuple(v for v in self.entries if v)

    def shifted(self, k: int) -> "WeakComposition":
        return WeakComposition(self.entries, self.lo + k)

    def added(self, other: "WeakComposition") -> "WeakComposition":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return WeakComposition(
            [self[i] + other[i] for i in range(lo, hi + 1)], lo
        )

    def packed(self, lo: int, bits: int) -> int:
        """The entries packed bits bits each (pack), index lo in the low
        digit.  The composition must be zero or start at lo or above."""
        return pack(self.entries, bits) << bits * (self.lo - lo) if self.entries else 0

    def supported_in(self, w: Window) -> bool:
        # canonical entries have nonzero ends, so lo and hi bound the support
        return not self.entries or (w.lo <= self.lo and self.hi <= w.hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeakComposition):
            return NotImplemented
        return self.lo == other.lo and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.lo, self.entries))

    def __repr__(self) -> str:
        return f"WeakComposition({list(self.entries)}, lo={self.lo})"

    def __str__(self) -> str:
        """Bar notation: entries at indices <= 0, a bar, then indices >= 1.

        The bar is omitted when the support is entirely positive; the
        positive side always starts at index 1.
        """
        if self.is_zero():
            return "0"
        if self.lo >= 1:
            ent = [0] * (self.lo - 1) + list(self.entries)
            return ",".join(str(v) for v in ent)
        neg = [self[i] for i in range(self.lo, 1)]
        pos = [self[i] for i in range(1, self.hi + 1)]
        return (
            ",".join(str(v) for v in neg)
            + "|"
            + ",".join(str(v) for v in pos)
        )

    def to_json(self) -> dict:
        return {"lo": self.lo, "entries": list(self.entries)}

    @classmethod
    def from_json(cls, d: dict) -> "WeakComposition":
        """Inverse of to_json.  Raises ValueError on any other shape."""
        if not (
            isinstance(d, dict) and type(d.get("lo")) is int
            and isinstance(d.get("entries"), list)
            and all(type(v) is int for v in d["entries"])
        ):
            raise ValueError(f"weak composition must be {{lo, entries}}, got {d!r}")
        return cls(d["entries"], d["lo"])


def refines(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """True when merging adjacent parts of alpha can produce beta.

    Works by comparing partial-sum sets; requires equal weights.
    """
    if sum(alpha) != sum(beta):
        return False
    pa, s = set(), 0
    for p in alpha:
        s += p
        pa.add(s)
    s = 0
    for p in beta:
        s += p
        if s not in pa:
            return False
    return True


def dominates(b: WeakComposition, a: WeakComposition) -> bool:
    """Prefix-sum dominance: sum(b_i, i<=k) >= sum(a_i, i<=k) for all k."""
    points = sorted(set(b.support()) | set(a.support()))
    sb = sa = 0
    for k in points:
        sb += b[k]
        sa += a[k]
        if sb < sa:
            return False
    return True


def leq_slide(b: WeakComposition, a: WeakComposition) -> bool:
    """The sliding order: b is reachable from a by leftward slides."""
    return refines(b.flatten(), a.flatten()) and dominates(b, a)


def digit_bits(weight: int) -> int:
    """Bits per entry of a packed exponent of the given weight: its bit
    length, at least 1.  Every entry and every prefix sum fits in a
    digit, so tpoly.peel's grade cannot carry.  Every layer packs at this
    width, so a packed int together with it names one index."""
    return max(1, weight).bit_length()


def pack(entries: Iterable[int], bits: int) -> int:
    """Entries as one int, bits per entry, the first entry in the low
    digit.  Every entry must be below 2 ** bits."""
    x = 0
    for k, v in enumerate(entries):
        x |= v << (bits * k)
    return x


def unpack(x: int, bits: int) -> tuple[int, ...]:
    """The entries of a packed int from the low digit up, trailing zeros
    trimmed: pack's inverse up to trailing zeros."""
    mask = (1 << bits) - 1
    out = []
    while x:
        out.append(x & mask)
        x >>= bits
    return tuple(out)


def slide_walk(parts: tuple[int, ...], prefix: list[int], bits: int) -> list[int]:
    """The slide set as packed ints: every b on len(prefix) digits whose
    nonzero entries refine parts and whose prefix sums are at least
    prefix, digit k holding b's k-th entry in bits bits.

    parts is flatten(a) and prefix the prefix sums of a over the window;
    bits at least digit_bits(weight(a)) keeps every entry in its digit.
    """
    if not parts:
        return [0]
    out: list[int] = []
    last = len(parts) - 1

    def walk(j: int, left: int, placed: int, start: int, x: int):
        # the next nonzero entry, at some k >= start after a run of zeros,
        # takes units of part j, of which left remain; every entry keeps
        # b's prefix sum at or above a's.  Each call places at least one
        # unit, so the depth is bounded by the weight of a.
        for k in range(start, len(prefix)):
            shift = bits * k
            for v in range(max(1, prefix[k] - placed), left + 1):
                if v < left:
                    walk(j, left - v, placed + v, k + 1, x | v << shift)
                elif j < last:
                    walk(j + 1, parts[j + 1], placed + v, k + 1, x | v << shift)
                else:
                    out.append(x | v << shift)
            if prefix[k] > placed:
                break  # a zero at k would leave b's prefix sum below a's

    walk(0, parts[0], 0, 0, 0)
    return out


# The one slide-set memo.  Its bound holds the 6,435 slide sets the
# weight-8 key-to-slide rows read.
@lru_cache(maxsize=8192)
def packed_slides(x: int, digits: int, bits: int) -> tuple[int, ...]:
    """The slide set of a packed index x on a window of digits indices,
    as packed ints in the same layout: bits bits per entry, the window's
    first index in the low digit (slide_walk).

    The walk depends only on x relative to the window, so an index and a
    window translated together share one entry.  The parts come from
    every digit of x and the prefix sums from the window's digits only:
    an index past the window's top still slides into it, and on an empty
    window a nonzero index has no members.  No member reaches past x's
    top digit, where its prefix sum already equals the weight, so the
    walk never reads the window's digits above it: the cost follows x,
    not the width of the window.
    """
    vec = unpack(x, bits)
    prefix = list(itertools.accumulate(vec[:digits]))
    return tuple(slide_walk(tuple(v for v in vec if v), prefix, bits))


def slide_set(a: WeakComposition, w: Window) -> set[WeakComposition]:
    """All b supported in w with flatten(b) refining flatten(a) and
    b dominating a in prefix sums, read from packed_slides."""
    if a.entries and a.lo < w.lo:
        return set()  # b has no weight below w.lo to dominate a with
    bits = digit_bits(a.weight())
    return {
        WeakComposition(unpack(x, bits), w.lo)
        for x in packed_slides(a.packed(w.lo, bits), len(w.indices()), bits)
    }


def slide_terms(x: int, bits: int) -> Iterator[tuple[int, int]]:
    """The slide polynomial of a packed index as (member, 1) pairs, read
    from packed_slides on the index's own digits: the basis of both slide
    peels (tpoly.peel).  No member reaches past the index's top digit, so
    on any wider window with the same low digit the slide set is the
    same, and the cost never follows the window's width."""
    return zip(packed_slides(x, -(-x.bit_length() // bits), bits), itertools.repeat(1))


def comp_of_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """Strong composition of n with partial sums given by the subset of [n-1]."""
    s = sorted(set(subset))
    if n == 0:
        if s:
            raise ValueError("nonempty subset with n = 0")
        return ()
    if s and (s[0] < 1 or s[-1] > n - 1):
        raise ValueError(f"subset {s} not inside [1, {n - 1}]")
    prev = 0
    out = []
    for c in s + [n]:
        out.append(c - prev)
        prev = c
    return tuple(out)


def subset_of_comp(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Partial sums of alpha except the last (inverse of comp_of_subset)."""
    out, s = [], 0
    for p in alpha[:-1]:
        s += p
        out.append(s)
    return tuple(out)


def transpose(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Composition with complementary partial-sum set inside [n-1]."""
    n = sum(alpha)
    chosen = set(subset_of_comp(alpha))
    return comp_of_subset([i for i in range(1, n) if i not in chosen], n)


def lex_key(a: WeakComposition, lo: int, hi: int) -> tuple[int, ...]:
    """Entries read off from lo to hi, for deterministic tie-breaking."""
    return tuple(a[i] for i in range(lo, hi + 1))
