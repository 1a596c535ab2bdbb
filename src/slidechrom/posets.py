"""Labeled posets, the orientation and labeling a permutation induces on
a graph, and the descent composition machinery that turns a linear order
with color bounds into a slide index.  The permutation route here is the
oracle the subset DP is checked against; the graph's acyclic orientations,
their posets and poset descents are second models that only the tests
run, so they live in tests/oracles.py.

Vertices are 1..n throughout.  A strict order is stored as a frozenset of
pairs (a, b) meaning a < b in the poset, and an acyclic orientation as the
frozenset of its arcs (a, b) meaning a -> b.  Permutations are tuples pi with
pi[k] = image of position k+1.
"""

from __future__ import annotations

from typing import Sequence

from .compositions import WeakComposition, Window
from .dyck import DyckGraph
from .tpoly import TPolynomial


class LabeledPoset:
    """Strict partial order on 1..n, optionally carrying a bijective
    labeling omega and per-vertex upper bounds rho."""

    __slots__ = ("n", "less", "omega", "rho")

    def __init__(self, n, less, omega=None, rho=None):
        rel = frozenset((int(a), int(b)) for a, b in less)
        above = [set() for _ in range(n + 1)]  # above[a]: every b with a < b
        for a, b in rel:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"relation ({a},{b}) outside 1..{n}")
            if a == b:
                raise ValueError(f"reflexive pair ({a},{b})")
            if (b, a) in rel:
                raise ValueError(f"antisymmetry fails on ({a},{b})")
            above[a].add(b)
        for a, b in rel:
            missing = above[b] - above[a]
            if missing:
                d = min(missing)
                raise ValueError(
                    f"relation not transitive: ({a},{b}),({b},{d}) without ({a},{d})"
                )
        self._label(n, rel, omega, rho)

    def _label(self, n, rel, omega, rho):
        # checks omega and rho and sets every field; rel is taken as a
        # strict order on 1..n
        if omega is not None:
            omega = tuple(omega)
            if sorted(omega) != list(range(1, n + 1)):
                raise ValueError("omega must be a bijection onto 1..n")
        if rho is not None:
            rho = tuple(rho)
            if len(rho) != n:
                raise ValueError("rho must assign a bound to every vertex")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "less", rel)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledPoset is immutable")

    @classmethod
    def chain(cls, pi: Sequence[int], omega=None, rho=None) -> "LabeledPoset":
        """Linear order pi[0] < pi[1] < ... as a poset.

        The order of a permutation of 1..n is irreflexive, antisymmetric
        and transitive by construction, so once pi is checked to be one,
        the general constructor's checks of the relation are skipped;
        omega and rho are checked as there.
        """
        n = len(pi)
        if sorted(pi) != list(range(1, n + 1)):
            raise ValueError(f"chain {tuple(pi)} is not a permutation of 1..{n}")
        self = object.__new__(cls)
        self._label(n, frozenset((pi[i], pi[j]) for i in range(n) for j in range(i + 1, n)), omega, rho)
        return self

    def is_less(self, a: int, b: int) -> bool:
        return (a, b) in self.less

    def __eq__(self, other):
        if not isinstance(other, LabeledPoset):
            return NotImplemented
        return (self.n, self.less, self.omega, self.rho) == (
            other.n,
            other.less,
            other.omega,
            other.rho,
        )

    def __repr__(self):
        return (
            f"LabeledPoset(n={self.n}, less={sorted(self.less)},"
            f" omega={self.omega}, rho={self.rho})"
        )


def incomparability_poset(graph: DyckGraph) -> LabeledPoset:
    """i < j in the poset iff i < j as integers and {i,j} is a non-edge.

    For interval graphs this relation is transitive; the constructor
    rejects anything else.
    """
    n = graph.n
    less = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in graph.edges
    }
    return LabeledPoset(n, less)


def orientation_from_perm(graph: DyckGraph, pi: Sequence[int]) -> frozenset:
    """Direct every edge from its later-in-pi endpoint to the earlier one.

    pi read backwards is a linear extension of the arcs, so the arc set
    is acyclic by construction and needs no check.
    """
    pos = {v: k for k, v in enumerate(pi)}
    return frozenset(
        (i, j) if pos[i] > pos[j] else (j, i) for i, j in graph.edges
    )


def omega_labeling(graph: DyckGraph, o: frozenset) -> tuple[int, ...]:
    """Label sources first, always the largest-numbered available vertex.

    Produces omega with: for every arc a -> b, omega(b) > omega(a); and
    the labeling is the one induced by any permutation yielding o.
    """
    n = graph.n
    indeg = [0] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in o:
        indeg[b] += 1
        out[a].append(b)
    remaining = set(range(1, n + 1))
    omega = [0] * n
    for label in range(1, n + 1):
        v = max(u for u in remaining if indeg[u] == 0)
        omega[v - 1] = label
        remaining.discard(v)
        for b in out[v]:
            indeg[b] -= 1
    return tuple(omega)


def graph_inversions(graph: DyckGraph, pi: Sequence[int]) -> int:
    """Edges {i,j}, i<j, whose endpoints appear out of order in pi."""
    pos = {v: k for k, v in enumerate(pi)}
    return sum(1 for i, j in graph.edges if pos[i] > pos[j])


def tightened_bounds(
    pi: Sequence[int], rho: Sequence[int], poset: LabeledPoset
) -> tuple[int, ...]:
    """Sharpest per-vertex bounds compatible with reading pi as a chain.

    Walking pi top-down: the last vertex keeps its bound; below a
    poset-descent the bound is min-carried, otherwise it drops by one.
    Returned tuple is indexed by vertex.
    """
    n = len(pi)
    if n == 0:
        return ()
    bar = [0] * n
    bar[pi[n - 1] - 1] = rho[pi[n - 1] - 1]
    for i in range(n - 2, -1, -1):
        v, nxt = pi[i], pi[i + 1]
        carried = bar[nxt - 1]
        if not poset.is_less(nxt, v):
            carried -= 1
        bar[v - 1] = min(carried, rho[v - 1])
    return tuple(bar)


def tightened_bounds_by_labels(
    pi: Sequence[int], rho: Sequence[int], omega: Sequence[int]
) -> tuple[int, ...]:
    """Same recursion driven by a labeling: the bound drops by one below
    a descent of omega(pi(.)), and is min-carried below an ascent."""
    n = len(pi)
    if n == 0:
        return ()
    bar = [0] * n
    bar[pi[n - 1] - 1] = rho[pi[n - 1] - 1]
    for i in range(n - 2, -1, -1):
        v, nxt = pi[i], pi[i + 1]
        carried = bar[nxt - 1]
        if omega[v - 1] > omega[nxt - 1]:
            carried -= 1
        bar[v - 1] = min(carried, rho[v - 1])
    return tuple(bar)


def _blocks_to_composition(
    pi: Sequence[int], bar: Sequence[int], is_break
) -> WeakComposition:
    n = len(pi)
    if n == 0:
        return WeakComposition()
    items = []
    start = 0
    for i in range(n):
        if i == n - 1 or is_break(i):
            size = i - start + 1
            items.append((bar[pi[start] - 1], size))
            start = i + 1
    indices = [idx for idx, _ in items]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise RuntimeError(f"block indices {indices} not strictly increasing")
    return WeakComposition.from_items(items)


def descent_composition(
    pi: Sequence[int], rho: Sequence[int], poset: LabeledPoset
) -> WeakComposition:
    """Block sizes of pi between poset-ascents, placed at the tightened
    bound of each block's first vertex."""
    bar = tightened_bounds(pi, rho, poset)
    return _blocks_to_composition(
        pi, bar, lambda i: not poset.is_less(pi[i + 1], pi[i])
    )


def descent_composition_by_labels(
    pi: Sequence[int], rho: Sequence[int], omega: Sequence[int]
) -> WeakComposition:
    bar = tightened_bounds_by_labels(pi, rho, omega)
    return _blocks_to_composition(
        pi, bar, lambda i: omega[pi[i] - 1] > omega[pi[i + 1] - 1]
    )


def partition_generating_function(
    poset: LabeledPoset, w: Window
) -> TPolynomial:
    """Sum of x_{f(1)}...x_{f(n)} over the (P, rho)-partitions f: the maps
    with w.lo <= f(v) <= min(rho(v), w.hi) and f(u) <= f(v) whenever
    u < v, strictly when omega(u) > omega(v).

    Requiring this on every relation rather than on covers only gives the
    same maps, since omega descends somewhere along any saturated chain
    from u up to such a v.  The walk colors the vertices in order of the
    size of their down-sets, which is a linear extension, and keeps the
    color counts in one list; one WeakComposition is built per distinct
    exponent at the end.
    """
    if poset.omega is None or poset.rho is None:
        raise ValueError("poset needs omega and rho labels")
    n, omega, rho = poset.n, poset.omega, poset.rho
    below: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    for u, v in poset.less:
        below[v].append((u, omega[u - 1] > omega[v - 1]))
    order = sorted(range(1, n + 1), key=lambda v: len(below[v]))
    found: dict[tuple[int, ...], int] = {}
    f = [0] * (n + 1)
    counts = [0] * (w.hi - w.lo + 1)  # counts[c - w.lo]: vertices colored c

    def rec(k: int):
        if k == n:
            e = tuple(counts)
            found[e] = found.get(e, 0) + 1
            return
        v = order[k]
        least = w.lo
        for u, strict in below[v]:
            if f[u] + strict > least:
                least = f[u] + strict
        for c in range(least, min(rho[v - 1], w.hi) + 1):
            f[v] = c
            counts[c - w.lo] += 1
            rec(k + 1)
            counts[c - w.lo] -= 1

    rec(0)
    return TPolynomial(w, {WeakComposition(e, w.lo): {0: m} for e, m in found.items()})
