"""Descent-weighted chromatic polynomials of Dyck graphs, computed two
independent ways: brute-force over bounded proper colorings, and as a
permutation sum of slide polynomials, evaluated by a dynamic program
over subsets.  Each route is a private core over (graph, rho) behind a
public function of the path.  The fundamental expansion of the
nonpositive-variable specialization is the same DP with rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .compositions import WeakComposition, Window
from .dyck import DyckGraph, PartialDyckPath, dyck_graph, restriction_map
from .slides import slide_polynomial
from .tpoly import TCoeff, TPolynomial, combine


def chromatic_brute(path: PartialDyckPath, w: Window) -> TPolynomial:
    """Sum of t^(descents) x_{f(1)}..x_{f(n)} over proper colorings f with
    w.lo <= f(i) <= min(rho(i), w.hi).  A descent is an edge {i,j}, i<j,
    with f(i) > f(j)."""
    return _brute(dyck_graph(path), restriction_map(path), w)


def _brute(graph: DyckGraph, rho: tuple[int, ...], w: Window) -> TPolynomial:
    """chromatic_brute on the graph with bounds rho.  The walk keeps the
    color counts of the colored vertices in one list, so a leaf keys its
    t-coefficient by that list as a tuple; one WeakComposition is built
    per distinct exponent at the end."""
    n = graph.n
    nbrs_before = {
        v: [u for u in range(1, v) if (u, v) in graph.edges]
        for v in range(1, n + 1)
    }
    found: dict[tuple[int, ...], TCoeff] = {}
    f = [0] * (n + 1)
    counts = [0] * (w.hi - w.lo + 1)  # counts[c - w.lo]: vertices colored c

    def rec(v: int, des: int):
        if v > n:
            tc = found.setdefault(tuple(counts), {})
            tc[des] = tc.get(des, 0) + 1
            return
        hi = min(rho[v - 1], w.hi)
        for c in range(w.lo, hi + 1):
            bump = 0
            ok = True
            for u in nbrs_before[v]:
                if f[u] == c:
                    ok = False
                    break
                if f[u] > c:
                    bump += 1
            if ok:
                f[v] = c
                counts[c - w.lo] += 1
                rec(v + 1, des + bump)
                counts[c - w.lo] -= 1
        return

    rec(1, 0)
    # counts span w and every count and t-entry is positive: canonical
    return TPolynomial._canonical(
        w, {WeakComposition(e, w.lo): tc for e, tc in found.items()}
    )


def slide_expansion(
    path: PartialDyckPath, lo: int | None = None
) -> dict[WeakComposition, TCoeff]:
    """Slide expansion of the chromatic polynomial: each slide index
    mapped to the sum of t^(graph inversions of pi) over the permutations
    pi whose descent composition it is.  With lo given, only the indices
    whose blocks all sit at lo or above."""
    return _slide_dp(dyck_graph(path), restriction_map(path), lo)


def _slide_dp(
    graph: DyckGraph, rho: tuple[int, ...], lo: int | None = None
) -> dict[WeakComposition, TCoeff]:
    """slide_expansion on the graph with bounds rho.

    A dynamic program over subsets (the transfer-matrix method) stands in
    for the loop over all n! permutations.  pi is built backwards from
    its last letter.  A state is (placed vertices as a bitmask, the front
    vertex, its tightened bound, the size of the block still open at the
    front, the closed blocks behind it) and holds the t-coefficient
    summed over the suffixes that reach it.  Prepending u to front v: if
    v < u in the incomparability poset (u is later and not adjacent to v)
    the open block grows and the bound becomes min(bound, rho(u));
    otherwise the open block closes at v's bound and the new bound is
    min(bound - 1, rho(u)).  Each placed neighbour with a smaller label
    than u adds one inversion.  States with equal keys merge their
    t-coefficients.  The permutation route (descent_composition,
    graph_inversions) stays in posets as the oracle the tests compare
    against.

    Both the coefficient and the closed blocks are plain ints.  The
    coefficient of t^d sits at bit slot * d (see _t_slot), so adding
    t^k times a coefficient is a shift and merging two states is one
    addition.  Each closed block is a field (index + n - 1, size), and
    the field of the front block sits in the lowest bits; it is packed
    only when a block closes.  Both are unpacked once per distinct index
    at the end, where the block indices are checked to increase strictly.

    With lo given, only the indices whose blocks all sit at lo or above
    are computed.  Bounds never increase as pi grows, so a state whose
    bound is below lo can only end below lo and is dropped.  Placing u
    caps the bound at rho(u), so one rho(u) < lo leaves nothing; otherwise
    only a block close from a state at bound lo goes below it.

    With rho = 0 the last block of pi sits at 0 and each block one below
    the block after it: the indices are the fundamental indices
    right-justified at 0 (see fundamental_expansion).
    """
    n = graph.n
    if n == 0:
        return {WeakComposition(): {0: 1}}
    if lo is not None and min(rho) < lo:
        return {}
    full = (1 << n) - 1
    # vertex v + 1 is bit v: above[v] holds the later vertices not
    # adjacent to v, lower_nbrs[u] the neighbours of u with smaller labels
    above = [full & ~((2 << v) - 1) for v in range(n)]
    lower_nbrs = [0] * n
    for i, j in graph.edges:
        above[i - 1] &= ~(1 << (j - 1))
        lower_nbrs[j - 1] |= 1 << (i - 1)
    slot = _t_slot(n)
    # bounds start at some rho(u) >= 0 and each of the at most n - 1
    # closes lowers them by at most one, so every block index lies in
    # [1 - n, max(rho)]; off shifts that range to start at 0
    off = n - 1
    size_bits = n.bit_length()
    block_bits = (max(rho) + off).bit_length() + size_bits
    size_mask = (1 << size_bits) - 1
    block_mask = (1 << block_bits) - 1

    def unpack_blocks(closed: int) -> list[tuple[int, int]]:
        blocks = []
        while closed:
            blocks.append((((closed & block_mask) >> size_bits) - off, closed & size_mask))
            closed >>= block_bits
        indices = [i for i, _ in blocks]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise RuntimeError(f"block indices {indices} not strictly increasing")
        return blocks

    # the front vertex is v, at bit v
    layer = {(1 << u, u, rho[u], 1, 0): 1 for u in range(n)}
    for _ in range(n - 1):
        nxt: dict[tuple, int] = {}
        get = nxt.get
        for (mask, v, bound, size, closed), tc in layer.items():
            up = above[v]
            free = full & ~mask
            if lo is not None and bound <= lo:
                free &= up  # a block closed here would end below lo
            while free:
                bit = free & -free
                free ^= bit
                u = bit.bit_length() - 1
                cap = rho[u]
                if up & bit:
                    key = (mask | bit, u, bound if bound < cap else cap, size + 1, closed)
                else:
                    closed_now = (closed << block_bits) | ((bound + off) << size_bits) | size
                    key = (mask | bit, u, bound - 1 if bound <= cap else cap, 1, closed_now)
                moved = tc << slot * (mask & lower_nbrs[u]).bit_count()
                nxt[key] = get(key, 0) + moved
        layer = nxt
    packed: dict[int, int] = {}
    for (_, _, bound, size, closed), tc in layer.items():
        closed = (closed << block_bits) | ((bound + off) << size_bits) | size
        packed[closed] = packed.get(closed, 0) + tc
    return {
        WeakComposition.from_items(unpack_blocks(closed)): _t_unpack(tc, slot)
        for closed, tc in packed.items()
    }


def _t_slot(n: int) -> int:
    """Bits per t-degree in _slide_dp's packed coefficients.  Each
    coefficient counts permutations of n letters, at most n! of them, so
    a slot of n!'s bit length never carries into the next degree."""
    return math.factorial(n).bit_length()


def _t_unpack(packed: int, slot: int) -> TCoeff:
    """The t-coefficient whose t^d entry is the slot-bit field at slot * d."""
    mask = (1 << slot) - 1
    tc: TCoeff = {}
    d = 0
    while packed:
        c = packed & mask
        if c:
            tc[d] = c
        packed >>= slot
        d += 1
    return tc


def chromatic_via_slides(
    path: PartialDyckPath, w: Window
) -> tuple[TPolynomial, dict[WeakComposition, TCoeff]]:
    """Permutation sum: t^(graph inversions of pi) times the slide
    polynomial of pi's descent composition.  Returns the polynomial on w
    and the slide expansion it was assembled from."""
    return _via_slides(dyck_graph(path), restriction_map(path), w)


def _via_slides(
    graph: DyckGraph, rho: tuple[int, ...], w: Window
) -> tuple[TPolynomial, dict[WeakComposition, TCoeff]]:
    """chromatic_via_slides on the graph with bounds rho.  The expansion
    is _slide_dp(graph, rho, lo=w.lo): it leaves out the indices with a
    block below w.lo, whose slide polynomials vanish on w because a slide
    only moves mass to smaller indices."""
    expansion = _slide_dp(graph, rho, w.lo)
    # combine drops zero entries, and every slide polynomial on w lies in w
    terms = combine(expansion, lambda rd: slide_polynomial(rd, w).terms.items())
    return TPolynomial._canonical(w, terms), expansion


@dataclass
class ChromaticReport:
    path: PartialDyckPath
    window: Window
    brute: TPolynomial
    via_slides: TPolynomial
    equal: bool
    nonnegative: bool
    mismatches: list[tuple[WeakComposition, TCoeff]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equal and self.nonnegative

    @cached_property
    def expansion(self) -> dict[WeakComposition, TCoeff]:
        """The full slide expansion of the path, indices that vanish on
        the window included; computed on first read."""
        return slide_expansion(self.path)


def compare_chromatic(path: PartialDyckPath, w: Window) -> ChromaticReport:
    """Run both routes on one graph and rho; report equality and positivity."""
    graph, rho = dyck_graph(path), restriction_map(path)
    brute = _brute(graph, rho, w)
    via, _ = _via_slides(graph, rho, w)
    # both are canonical, so equal terms mean equal polynomials
    equal = brute == via
    mismatches = []
    if not equal:
        mismatches = sorted(
            (brute - via).terms.items(), key=lambda it: (it[0].lo, it[0].entries)
        )
    nonneg = all(
        c >= 0 for tc in brute.terms.values() for c in tc.values()
    )
    return ChromaticReport(
        path=path,
        window=w,
        brute=brute,
        via_slides=via,
        equal=equal,
        nonnegative=nonneg,
        mismatches=mismatches,
    )


def fundamental_expansion(path: PartialDyckPath) -> dict[tuple[int, ...], TCoeff]:
    """Expansion of the all-nonpositive-color generating function into
    fundamental quasisymmetric polynomials: the backstable limit of the
    slide expansion, its flattened indices.  On colors <= 0 no rho(i) >= 0
    caps anything, so it is the slide expansion of the Dyck graph with
    rho = 0, whose indices are the fundamental ones right-justified at 0."""
    graph = dyck_graph(path)
    return {a.flatten(): tc for a, tc in _slide_dp(graph, (0,) * graph.n).items()}


def verify_fundamental_expansion(path: PartialDyckPath, m: int) -> bool:
    """Check the expansion against brute-force colorings in [1-m, 0].
    Both depend on the Dyck graph alone, so the verdict is kept per graph
    and m."""
    return _verdict(dyck_graph(path), m)


# A scan of P(n, r) meets at most Catalan(n) graphs and n = 1..8 have
# 2,055 between them, so no scan fills this cache.
@lru_cache(maxsize=4096)
def _verdict(graph: DyckGraph, m: int) -> bool:
    """Both chromatic routes of the graph with rho = 0 on [1-m, 0]."""
    zeros = (0,) * graph.n
    w = Window(1 - m, 0)
    return _brute(graph, zeros, w) == _via_slides(graph, zeros, w)[0]


def verify_backstable(path: PartialDyckPath, m: int) -> ChromaticReport:
    """Both chromatic routes over the widened window [1-m, r]."""
    return compare_chromatic(path, Window(1 - m, path.r))
