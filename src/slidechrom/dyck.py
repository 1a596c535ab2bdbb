"""Partial Dyck paths, the graphs they carve out of the diagonal strip,
and per-vertex color bounds.

A path in P(n, r) runs from (0, r) to (n+r, n+r) by unit N and E steps,
staying weakly above y = x.  Vertices of the derived graph are 1..n.
Edge and bound tests reduce to the heights of the east steps: the k-th
east step sits at height r + (number of N steps before it).  The graph
depends only on the path's shape, n and each vertex's last neighbour,
so a scan builds and validates one graph per shape (dyck_graph).
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from operator import index
from typing import Iterator

# ASCII digits only: \d would also read other scripts' digits
_LITERAL = re.compile(r"^([NE]*)@([0-9]+),([0-9]+)$")


class PartialDyckPath:
    """Immutable N/E step word with its (n, r) frame."""

    __slots__ = ("n", "r", "steps", "_heights")

    def __init__(self, steps: str, n: int, r: int):
        _check_size(n, r)
        if set(steps) - {"N", "E"}:
            raise ValueError(f"bad step characters in {steps!r}")
        if steps.count("N") != n or steps.count("E") != n + r:
            raise ValueError(
                f"need {n} N steps and {n + r} E steps, got {steps!r}"
            )
        x, y = 0, r
        for s in steps:
            if s == "E":
                x += 1
            else:
                y += 1
            if y < x:
                raise ValueError(f"path {steps!r} dips below the diagonal")
        heights = []
        seen_n = 0
        for s in steps:
            if s == "N":
                seen_n += 1
            else:
                heights.append(r + seen_n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_heights", tuple(heights))

    def __setattr__(self, name, value):
        raise AttributeError("PartialDyckPath is immutable")

    @classmethod
    def parse(cls, literal: str) -> "PartialDyckPath":
        """Parse "WORD@n,r" (e.g. "ENEENENEE@3,3")."""
        m = _LITERAL.match(literal.strip())
        if not m:
            raise ValueError(f"bad path literal {literal!r}, want WORD@n,r")
        return cls(m.group(1), int(m.group(2)), int(m.group(3)))

    @property
    def literal(self) -> str:
        return f"{self.steps}@{self.n},{self.r}"

    def east_heights(self) -> tuple[int, ...]:
        """Height of the k-th east step, k = 1..n+r (1-indexed via [k-1])."""
        return self._heights

    def __eq__(self, other):
        if not isinstance(other, PartialDyckPath):
            return NotImplemented
        return (self.n, self.r, self.steps) == (other.n, other.r, other.steps)

    def __hash__(self):
        return hash((self.n, self.r, self.steps))

    def __repr__(self):
        return f"PartialDyckPath({self.literal!r})"

    def to_json(self) -> dict:
        return {"steps": self.steps, "n": self.n, "r": self.r}


class DyckGraph:
    """Graph on vertices 1..n whose edges satisfy the interval property:
    {i,j} an edge forces {i',j'} for all i <= i' < j' <= j.

    The constructor checks it locally: an edge {i,j} with j > i + 1 must
    come with {i,j-1} and {i+1,j}.  By induction on j - i that gives
    every {i',j'} inside [i, j], and the interval property gives the two.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        es = frozenset(tuple(e) for e in edges)
        for i, j in es:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge ({i},{j}) for n={n}")
        for i, j in es:
            # index() refuses a non-integer end with TypeError
            if index(j) - index(i) > 1:
                for a, b in ((i, j - 1), (i + 1, j)):
                    if (a, b) not in es:
                        raise ValueError(
                            f"interval property fails: ({i},{j}) present, ({a},{b}) missing"
                        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)

    def __setattr__(self, name, value):
        raise AttributeError("DyckGraph is immutable")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other):
        if not isinstance(other, DyckGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"DyckGraph(n={self.n}, edges={self.sorted_edges()})"

    def dot(self) -> str:
        lines = ["graph G {"]
        for v in range(1, self.n + 1):
            lines.append(f"  {v};")
        for i, j in self.sorted_edges():
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        return "\n".join(lines)


def dyck_graph(path: PartialDyckPath) -> DyckGraph:
    """Edge {i,j} (i<j) iff the unit square in column i+r, row j+r lies
    below the path, i.e. east step i+r has height >= j+r.

    So i's neighbours above it are i+1..last(i), with last(i) the least
    of n and that height less r (i itself if it has none), and the graph
    depends on n and those last neighbours alone: the path's shape.
    Paths of one shape share one validated graph from _shape_graph."""
    n, r = path.n, path.r
    h = path.east_heights()
    return _shape_graph(n, tuple(max(i, min(n, h[i + r - 1] - r)) for i in range(1, n + 1)))


# A scan of P(n, r) meets at most Catalan(n) shapes, and n = 0..8 have
# 2,056 between them, so a scan never fills this memo.
@lru_cache(maxsize=4096)
def _shape_graph(n: int, last: tuple[int, ...]) -> DyckGraph:
    """The graph on 1..n in which vertex i's neighbours above it are
    i+1..last[i-1]."""
    return DyckGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, last[i - 1] + 1)])


def restriction_map(path: PartialDyckPath) -> tuple[int, ...]:
    """Largest color allowed at each vertex: rho(i) is the largest j <= r
    whose column-j square in row i+r sits above the path (0 if none)."""
    n, r = path.n, path.r
    h = path.east_heights()
    rho = []
    for i in range(1, n + 1):
        best = 0
        for j in range(1, r + 1):
            if h[j - 1] < i + r:
                best = j
        rho.append(best)
    return tuple(rho)


def enumerate_paths(n: int, r: int) -> Iterator[PartialDyckPath]:
    """All of P(n, r) in lexicographic step-word order with E < N.

    The walk is iterative, so the word length is not bounded by the
    recursion limit.  Each word is completed greedily, E wherever one is
    allowed (the step stays at or above the line y = x + 1), and the next
    word changes the last E that can become an N and completes again.
    """
    _check_size(n, r)
    word: list[str] = []
    x, y, top = 0, r, n + r  # the walk ends at (top, top)
    while True:
        while len(word) < top + n:
            if x < top and y > x:
                word.append("E")
                x += 1
            else:
                word.append("N")
                y += 1
        yield PartialDyckPath("".join(word), n, r)
        while word:
            if word.pop() == "N":
                y -= 1
                continue
            x -= 1
            if y < top:
                word.append("N")
                y += 1
                break
        else:
            return


def scan_paths(n: int, r_max: int) -> Iterator[PartialDyckPath]:
    """All paths with n north steps and r <= r_max in scan order: r
    ascending, then step words lexicographic, which is also the order of
    their literals.  The size is checked here, before anything is yielded."""
    _check_size(n, r_max)
    return itertools.chain.from_iterable(
        enumerate_paths(n, r) for r in range(r_max + 1)
    )


def count_paths(n: int, r: int) -> int:
    _check_size(n, r)
    total = math.comb(2 * n + r, n)
    bad = math.comb(2 * n + r, n - 1) if n >= 1 else 0
    return total - bad


def _check_size(n: int, r: int) -> None:
    if n < 0 or r < 0:
        raise ValueError(f"n and r must be >= 0, got n={n}, r={r}")
