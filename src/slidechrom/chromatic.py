"""Descent-weighted chromatic polynomials of Dyck graphs, computed two
independent ways: as a sum over bounded proper colorings, and as a
permutation sum of slide polynomials, evaluated by a dynamic program
over subsets.  The coloring sum has two cores: a transfer-matrix count
(_count), which every verdict reads, and a brute force that visits every
coloring (_brute), which chromatic_brute reads and the tests check the
count against.  Each route is a private core over (graph, rho) behind a
public function of the path; the cores work on packed ints and are
compared as {int: int} dicts in one layout (_routes), and one converter
(_terms) turns them into WeakComposition terms at the public boundary,
one memoized object per exponent (_exponent).  What a route reads of a
graph alone is memoized per graph: the count's per-vertex steps
(_count_steps) and the DP's tables (_dp_tables).
Only the single-path commands build a ChromaticReport; sweeps read only
a verdict and decide it on the packed dicts (chromatic_verdict).  The
report is not lazy: the benchmark replaces its via_slides and dumps both
of its polynomials.  The fundamental expansion of the
nonpositive-variable specialization is the same DP with rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .compositions import WeakComposition, Window, digit_bits, packed_slides, unpack
from .dyck import DyckGraph, PartialDyckPath, dyck_graph, restriction_map
from .tpoly import TCoeff, TPolynomial


def chromatic_brute(path: PartialDyckPath, w: Window) -> TPolynomial:
    """Sum of t^(descents) x_{f(1)}..x_{f(n)} over proper colorings f with
    w.lo <= f(i) <= min(rho(i), w.hi).  A descent is an edge {i,j}, i<j,
    with f(i) > f(j)."""
    graph = dyck_graph(path)
    return _polynomial(_brute(graph, restriction_map(path), w), w, graph.n)


def _brute(graph: DyckGraph, rho: tuple[int, ...], w: Window) -> dict[int, int]:
    """chromatic_brute on the graph with bounds rho, packed as in _terms
    from w.lo.  The walk visits every proper coloring.  It keeps the
    color counts as one int in that layout, color w.lo in the low digit,
    so coloring a vertex c adds one unit at c's digit, and t^(descents)
    as the bit at slot * descents (_t_slot).  The last vertex is a loop
    in its parent's call, which adds that bit to the entry of each
    completed count."""
    n = graph.n
    if n == 0:
        return {0: 1}
    bits, slot = digit_bits(n), _t_slot(n)
    # vertex v + 1 is index v: its colors with their count units, a prefix
    # of the window's, and its neighbours with smaller labels
    units = [(c, 1 << bits * (c - w.lo)) for c in w.indices()]
    colors = [units[: max(0, rho[v] + 1 - w.lo)] for v in range(n)]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in graph.edges:
        nbrs[j - 1].append(i - 1)
    found: dict[int, int] = {}
    get = found.get
    f = [0] * n

    def rec(v: int, x: int, tp: int):
        # colors ascend, so above counts the neighbours' colors above c
        used = [f[u] for u in nbrs[v]]
        above = len(used)
        if v == n - 1:
            for c, unit in colors[v]:
                if c in used:
                    above -= used.count(c)
                else:
                    found[x + unit] = get(x + unit, 0) + (tp << slot * above)
            return
        for c, unit in colors[v]:
            if c in used:
                above -= used.count(c)
            else:
                f[v] = c
                rec(v + 1, x + unit, tp << slot * above)

    rec(0, 0, 1)
    return found


def _count(graph: DyckGraph, rho: tuple[int, ...], w: Window) -> dict[int, int]:
    """_brute's dict, counted by a transfer matrix instead of a walk.

    The vertices are colored 1..n in order.  A state is the tuple of
    colors of the active vertices, the earlier ones that still have a
    later neighbour, and holds {packed x: packed t-coefficient} summed
    over the colorings that reach it; colorings that agree on the active
    vertices merge.  The active vertices are an interval ending at j - 1
    and j's smaller neighbours are a suffix of the tuple (_count_steps,
    which checks both facts once per graph).  A vertex whose bound
    rho(j) lies below w.lo has no color, so then nothing is counted.
    Coloring j with c, allowed up to min(rho(j), w.hi) when no smaller
    neighbour has it, adds c's unit to x and shifts the coefficient by
    slot times the smaller neighbours colored above c, and the state
    drops the vertices with no neighbour after j.
    """
    steps = _count_steps(graph)
    if min(rho, default=w.lo) < w.lo:
        return {}
    bits, slot = digit_bits(graph.n), _t_slot(graph.n)
    layer: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for (k, drop), cap in zip(steps, rho):
        units = [(c, 1 << bits * (c - w.lo)) for c in range(w.lo, min(cap, w.hi) + 1)]
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for state, xs in layer.items():
            # colors ascend, so above counts the smaller neighbours' colors above c
            used = state[len(state) - k:]
            above = k
            for c, unit in units:
                if c in used:
                    above -= used.count(c)
                    continue
                key = (state + (c,))[drop:]
                shift = slot * above
                into = nxt.get(key)
                if into is None:
                    nxt[key] = {x + unit: tc << shift for x, tc in xs.items()}
                    continue
                get = into.get
                for x, tc in xs.items():
                    x += unit
                    into[x] = get(x, 0) + (tc << shift)
        layer = nxt
    return layer.get((), {})


@lru_cache(maxsize=4096)
def _count_steps(graph: DyckGraph) -> tuple[tuple[int, int], ...]:
    """What _count reads of the graph: for each vertex j = 1..n, how many
    smaller neighbours it has and how many vertices have their last
    neighbour at j, which leave the state once j is colored.

    In a Dyck graph the smaller neighbours of j are an interval ending at
    j - 1 and each vertex's last neighbour does not decrease with the
    vertex; both facts are checked here, once per graph."""
    n = graph.n
    # vertex j: how many smaller neighbours it has, the least of them (j
    # if none), and its last neighbour (j if none)
    lower, ends = [0] * (n + 1), [0] * (n + 1)
    least, last = list(range(n + 1)), list(range(n + 1))
    for i, j in graph.edges:
        lower[j] += 1
        if i < least[j]:
            least[j] = i
        if j > last[i]:
            last[i] = j
    for j in range(1, n + 1):
        if least[j] != j - lower[j]:
            raise RuntimeError(f"smaller neighbours of {j} are not an interval ending at {j - 1}")
        if last[j] < last[j - 1]:
            raise RuntimeError(f"last neighbour of {j} is below that of {j - 1}")
        ends[last[j]] += 1
    return tuple(zip(lower[1:], ends[1:]))


def slide_expansion(path: PartialDyckPath) -> dict[WeakComposition, TCoeff]:
    """Slide expansion of the chromatic polynomial: each slide index
    mapped to the sum of t^(graph inversions of pi) over the permutations
    pi whose descent composition it is.  The DP runs from 1 - n, which
    drops no index (_packed_dp)."""
    graph = dyck_graph(path)
    lo = 1 - graph.n
    return _terms(_packed_dp(graph, restriction_map(path), lo), lo, graph.n)


def _packed_dp(graph: DyckGraph, rho: tuple[int, ...], lo: int) -> dict[int, int]:
    """The slide expansion of the graph with bounds rho, only its indices
    whose blocks all sit at lo or above, packed as in _terms from lo:
    {packed index: packed coefficient}.

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
    addition.  The closed blocks are the packed index itself: a block
    of size s closed at bound b adds s at b's digit.  Every state checks
    that its closed blocks all sit above its bound, so the indices of pi's
    blocks increase strictly.

    Only the indices whose blocks all sit at lo or above are computed.
    Bounds never increase as pi grows and every close lowers the bound
    by at least one.  So a state whose bound, less need(placed, front),
    the fewest closes in any order of its free vertices, is below lo can
    only end below lo, and no such state is made, the first letters
    included; since need is 0 once every vertex is placed, no kept state
    sits below lo either.  need depends on the graph alone: _dp_tables
    keeps it per graph, 2^n * n bytes each, for up to 4,096 graphs.  One
    rho(u) < lo caps some bound below lo and leaves nothing.  lo = 1 - n
    drops nothing: bounds start at some rho(u) >= 0 and fall by at most
    one per close, and there are at most n - 1 closes.  Grouping the
    states by (placed, front), to look need up once per group, ran
    slower at n = 5 and 6.

    With rho = 0 the last block of pi sits at 0 and each block one below
    the block after it: the indices are the fundamental indices
    right-justified at 0 (see fundamental_expansion).
    """
    n = graph.n
    if n == 0:
        return {0: 1}
    if min(rho) < lo:
        return {}
    full = (1 << n) - 1
    above, lower_nbrs, need = _dp_tables(graph)
    moves = _moves(n)
    slot, bits = _t_slot(n), digit_bits(n)
    # every bound lies in [lo, max(rho)]; bound b is digit b - lo
    shift = [bits * k for k in range(max(rho) - lo + 1)]
    at_or_below = [(1 << s + bits) - 1 for s in shift]
    packed: dict[int, int] = {}
    # the front vertex is v, at bit v; the first letters pass the prune too
    layer = {(bit, u, rho[u], 1, 0): 1 for bit, u, off in moves[full] if rho[u] - need[off] >= lo}
    while layer:
        nxt: dict[tuple, int] = {}
        get = nxt.get
        for (mask, v, bound, size, closed), tc in layer.items():
            k = bound - lo
            if closed & at_or_below[k]:
                raise RuntimeError(f"block indices not strictly increasing: closed blocks "
                                   f"{unpack(closed, bits)} from {lo} reach bound {bound}")
            closed_now = closed | size << shift[k]
            free = full & ~mask
            if not free:
                packed[closed_now] = packed.get(closed_now, 0) + tc
                continue
            up = above[v]
            row = n * mask
            for bit, u, off in moves[free]:
                cap = rho[u]
                if up & bit:
                    b = bound if bound < cap else cap
                    if b - need[row + off] < lo:
                        continue
                    key = (mask | bit, u, b, size + 1, closed)
                else:
                    b = bound - 1 if bound <= cap else cap
                    if b - need[row + off] < lo:
                        continue
                    key = (mask | bit, u, b, 1, closed_now)
                moved = tc << slot * (mask & lower_nbrs[u]).bit_count()
                nxt[key] = get(key, 0) + moved
        layer = nxt
    return packed


def _t_slot(n: int) -> int:
    """Bits per t-degree in a packed coefficient: n!'s bit length.

    Packed equality of the two chromatic routes is polynomial equality
    only if no slot carries into the next degree, that is if every
    coefficient of x^b t^d stays at or below n!.  In _packed_dp a
    coefficient counts permutations of n letters.  In _brute and in
    _count it counts colorings with the one exponent b, at most the
    multinomial n! / prod(b_c!) <= n!.  In _via_slides each permutation
    pi lands in exactly one DP index (the DP conserves mass) and adds
    t^(inv pi) once per member of that index's slide set, whose members
    are distinct, so it adds at most 1 to any (b, d), and the sum is at
    most n! too.
    """
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


def _terms(packed: dict[int, int], lo: int, n: int) -> dict[WeakComposition, TCoeff]:
    """A packed {exponent: coefficient} dict of weight n as WeakComposition
    exponents with t-coefficients: exponent digits of
    compositions.digit_bits(n) bits, index lo in the low digit
    (compositions.pack), coefficients as in _t_slot.  Every chromatic
    route packs its result this way."""
    bits, slot = digit_bits(n), _t_slot(n)
    return {_exponent(x, bits, lo): _t_unpack(tc, slot) for x, tc in packed.items()}


@lru_cache(maxsize=8192)
def _exponent(x: int, bits: int, lo: int) -> WeakComposition:
    """The WeakComposition of packed exponent x: one immutable object per
    exponent, shared by every report that names it: the 5,346 terms
    that the reports of one 100-path window-verify list convert name
    246 exponents."""
    return WeakComposition(unpack(x, bits), lo)


def _polynomial(packed: dict[int, int], w: Window, n: int) -> TPolynomial:
    """The polynomial on w of a packed dict of weight n (_terms, from w.lo)."""
    # every exponent lies in w and every packed coefficient is positive
    return TPolynomial._canonical(w, _terms(packed, w.lo, n))


def chromatic_via_slides(
    path: PartialDyckPath, w: Window
) -> tuple[TPolynomial, dict[WeakComposition, TCoeff]]:
    """Permutation sum: t^(graph inversions of pi) times the slide
    polynomial of pi's descent composition.  Returns the polynomial on w
    and the slide expansion it was assembled from: the indices with no
    block below w.lo, whose slide polynomials vanish on w because a slide
    only moves mass to smaller indices."""
    graph = dyck_graph(path)
    dp = _packed_dp(graph, restriction_map(path), w.lo)
    return _polynomial(_via_slides(dp, w, graph.n), w, graph.n), _terms(dp, w.lo, graph.n)


def _via_slides(dp: dict[int, int], w: Window, n: int) -> dict[int, int]:
    """The slide sum on w of a packed expansion of weight n from w.lo
    (_packed_dp with lo=w.lo), packed the same way: each index's packed
    coefficient added once per member of its slide set (packed_slides),
    whose members share the index's layout."""
    bits, digits = digit_bits(n), len(w.indices())
    acc: dict[int, int] = {}
    get = acc.get
    for a, tc in dp.items():
        for x in packed_slides(a, digits, bits):
            acc[x] = get(x, 0) + tc
    return acc


@dataclass
class ChromaticReport:
    """Both chromatic routes of one path on one window.  brute holds the
    coloring sum, as the transfer-matrix count (_count) gives it; the
    field keeps its name for the benchmark's worker, which reads it."""

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


def _routes(graph: DyckGraph, rho: tuple[int, ...], w: Window) -> tuple[dict[int, int], dict[int, int]]:
    """Both chromatic routes of the graph with bounds rho on w, packed as
    in _terms from w.lo: the coloring count and the slide sum.  They are
    equal as dicts exactly when they are equal as polynomials (_t_slot)."""
    return _count(graph, rho, w), _via_slides(_packed_dp(graph, rho, w.lo), w, graph.n)


def chromatic_verdict(path: PartialDyckPath, w: Window) -> tuple[bool, bool]:
    """compare_chromatic(path, w)'s equal and nonnegative, decided on the
    packed dicts alone: no report, TPolynomial or WeakComposition is
    built.  A packed value >= 0 unpacks to t-coefficients >= 0."""
    packed, summed = _routes(dyck_graph(path), restriction_map(path), w)
    return packed == summed, all(tc >= 0 for tc in packed.values())


def compare_chromatic(path: PartialDyckPath, w: Window) -> ChromaticReport:
    """Run both routes on one graph and rho; report equality and positivity.
    The routes are compared packed (see _t_slot) and converted once."""
    graph = dyck_graph(path)
    packed, summed = _routes(graph, restriction_map(path), w)
    equal = packed == summed
    brute = _polynomial(packed, w, graph.n)
    mismatches = []
    if equal:
        via = TPolynomial._canonical(w, {e: dict(tc) for e, tc in brute.terms.items()})
    else:
        via = _polynomial(summed, w, graph.n)
        mismatches = sorted((brute - via).terms.items(), key=lambda it: (it[0].lo, it[0].entries))
    nonneg = all(tc >= 0 for tc in packed.values())
    return ChromaticReport(
        path=path, window=w, brute=brute, via_slides=via,
        equal=equal, nonnegative=nonneg, mismatches=mismatches,
    )


def fundamental_expansion(path: PartialDyckPath) -> dict[tuple[int, ...], TCoeff]:
    """Expansion of the all-nonpositive-color generating function into
    fundamental quasisymmetric polynomials: the backstable limit of the
    slide expansion, its flattened indices.  On colors <= 0 no rho(i) >= 0
    caps anything, so it is the slide expansion of the Dyck graph with
    rho = 0, whose indices are the fundamental ones right-justified at 0."""
    graph = dyck_graph(path)
    lo = 1 - graph.n
    expansion = _terms(_packed_dp(graph, (0,) * graph.n, lo), lo, graph.n)
    return {a.flatten(): tc for a, tc in expansion.items()}


def verify_fundamental_expansion(path: PartialDyckPath, m: int) -> bool:
    """Check the expansion against the coloring count on [1-m, 0].
    Both depend on the Dyck graph alone, so the verdict is kept per graph
    and m."""
    return _verdict(dyck_graph(path), m)


@lru_cache(maxsize=16)
def _moves(n: int) -> list[tuple[tuple[int, int, int], ...]]:
    """For each set of free vertices as a bitmask, the moves that place
    one of them: (1 << u, u, n * 2^u + u) for each free vertex u,
    ascending.  With placed the vertices outside the set, the last is
    the index of need(placed | 1 << u, u) in a need table of _dp_tables,
    less n * placed."""
    return [
        tuple((1 << u, u, n * (1 << u) + u) for u in range(n) if free >> u & 1)
        for free in range(1 << n)
    ]


# A scan of P(n, r) meets at most Catalan(n) graphs and n = 1..8 have
# 2,055 between them, so no per-graph cache here (_count_steps,
# _dp_tables, _verdict) fills.  A _dp_tables entry holds 2^n * n bytes:
# about 3 MB for every n = 8 graph.
@lru_cache(maxsize=4096)
def _dp_tables(graph: DyckGraph) -> tuple[tuple[int, ...], tuple[int, ...], bytes]:
    """What _packed_dp reads of the graph, vertex v + 1 as bit v:
    above[v], the later vertices not adjacent to v (v's successors in the
    incomparability poset); lower_nbrs[u], the neighbours of u with
    smaller labels; and need[n * mask + v], the fewest block closes in
    any ordering of the vertices outside mask prepended to front v in
    mask.

    need comes from one backward pass over the masks: need(full, v) = 0,
    and need(mask, v) is the least over free u of need(mask | u, u), plus
    one unless u is in above[v].  Every free u at the least value is kept
    in one bitmask, so each entry is one test against above[v]."""
    n = graph.n
    full = (1 << n) - 1
    above = [full & ~((2 << v) - 1) for v in range(n)]
    lower_nbrs = [0] * n
    for i, j in graph.edges:
        above[i - 1] &= ~(1 << (j - 1))
        lower_nbrs[j - 1] |= 1 << (i - 1)
    need = bytearray(n << n)
    moves = _moves(n)
    for mask in range(full - 1, 0, -1):
        least, best = n, 0
        row = n * mask
        for bit, _, off in moves[full & ~mask]:
            c = need[row + off]
            if c < least:
                least, best = c, bit
            elif c == least:
                best |= bit
        for v in range(n):
            need[row + v] = least if above[v] & best else least + 1
    return tuple(above), tuple(lower_nbrs), bytes(need)


@lru_cache(maxsize=4096)
def _verdict(graph: DyckGraph, m: int) -> bool:
    """Both chromatic routes of the graph with rho = 0 on [1-m, 0]."""
    packed, summed = _routes(graph, (0,) * graph.n, Window(1 - m, 0))
    return packed == summed


def verify_backstable(path: PartialDyckPath, m: int) -> ChromaticReport:
    """Both chromatic routes over the widened window [1-m, r]."""
    return compare_chromatic(path, Window(1 - m, path.r))
