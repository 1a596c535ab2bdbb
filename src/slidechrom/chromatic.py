"""Descent-weighted chromatic polynomials of Dyck graphs, computed two
independent ways: brute-force over bounded proper colorings, and as a
permutation sum of slide polynomials, evaluated by a dynamic program
over subsets.  Also the fundamental expansion of the nonpositive-variable
specialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .compositions import WeakComposition, Window
from .dyck import PartialDyckPath, dyck_graph, restriction_map
from .posets import incomparability_poset
from .slides import slide_polynomial
from .tpoly import TCoeff, TPolynomial, combine, t_add


def chromatic_brute(path: PartialDyckPath, w: Window) -> TPolynomial:
    """Sum of t^(descents) x_{f(1)}..x_{f(n)} over proper colorings f with
    w.lo <= f(i) <= min(rho(i), w.hi).

    A descent is an edge {i,j}, i<j, with f(i) > f(j).
    """
    graph = dyck_graph(path)
    rho = restriction_map(path)
    n = graph.n
    nbrs_before = {
        v: [u for u in range(1, v) if (u, v) in graph.edges]
        for v in range(1, n + 1)
    }
    terms: dict[WeakComposition, TCoeff] = {}
    f = [0] * (n + 1)

    def rec(v: int, des: int):
        if v > n:
            e = WeakComposition.from_values(f[1:])
            tc = terms.setdefault(e, {})
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
                rec(v + 1, des + bump)
        return

    rec(1, 0)
    return TPolynomial(w, terms)


def slide_expansion(
    path: PartialDyckPath, lo: int | None = None
) -> dict[WeakComposition, TCoeff]:
    """Slide expansion of the chromatic polynomial: each slide index
    mapped to the sum of t^(graph inversions of pi) over the permutations
    pi whose descent composition it is.

    A dynamic program over subsets (the transfer-matrix method) stands in
    for the loop over all n! permutations.  pi is built backwards from
    its last letter.  A state is (placed vertices as a bitmask, the front
    vertex, its tightened bound, the size of the block still open at the
    front, the closed blocks behind it as (index, size) pairs) and holds
    the t-coefficient summed over the suffixes that reach it.  Prepending
    u to front v: if v < u in the poset the open block grows and the
    bound becomes min(bound, rho(u)); otherwise the open block closes at
    v's bound and the new bound is min(bound - 1, rho(u)).  Each placed
    neighbour with a smaller label than u adds one inversion.  States
    with equal keys merge their t-coefficients.  The permutation route
    (descent_composition, graph_inversions) stays in posets as the oracle
    the tests compare against.

    With lo given, only the indices whose blocks all sit at lo or above
    are computed.  Bounds never increase as pi grows, so a state whose
    bound is below lo can only end below lo and is dropped.  Placing u
    caps the bound at rho(u), so one rho(u) < lo leaves nothing; otherwise
    only a block close from a state at bound lo goes below it.
    """
    graph = dyck_graph(path)
    rho = restriction_map(path)
    n = graph.n
    if n == 0:
        return {WeakComposition(): {0: 1}}
    if lo is not None and min(rho) < lo:
        return {}
    above = [0] * n  # above[v]: bitmask of the vertices over v in the poset
    lower_nbrs = [0] * n  # lower_nbrs[u]: bitmask of u's smaller neighbours
    for a, b in incomparability_poset(graph).less:
        above[a - 1] |= 1 << (b - 1)
    for i, j in graph.edges:
        lower_nbrs[j - 1] |= 1 << (i - 1)
    full = (1 << n) - 1
    # vertex v + 1 is bit v; closed blocks run left to right
    layer = {(1 << u, u, rho[u], 1, ()): {0: 1} for u in range(n)}
    for _ in range(n - 1):
        nxt: dict[tuple, TCoeff] = {}
        for (mask, v, bound, size, closed), tc in layer.items():
            closed_now = _close_block(bound, size, closed)
            up = above[v]
            free = full & ~mask
            if lo is not None and bound <= lo:
                free &= up  # a block closed here would end below lo
            for u in range(n):
                bit = 1 << u
                if not free & bit:
                    continue
                if up & bit:
                    key = (mask | bit, u, min(bound, rho[u]), size + 1, closed)
                else:
                    key = (mask | bit, u, min(bound - 1, rho[u]), 1, closed_now)
                d = (mask & lower_nbrs[u]).bit_count()
                cur = nxt.get(key)
                if cur is None:
                    nxt[key] = {k + d: c for k, c in tc.items()}
                else:
                    for k, c in tc.items():
                        cur[k + d] = cur.get(k + d, 0) + c
        layer = nxt
    expansion: dict[WeakComposition, TCoeff] = {}
    for (_, _, bound, size, closed), tc in layer.items():
        rd = WeakComposition.from_items(_close_block(bound, size, closed))
        expansion[rd] = t_add(expansion.get(rd, {}), tc)
    return expansion


def _close_block(index: int, size: int, closed: tuple) -> tuple:
    if closed and index >= closed[0][0]:
        indices = [index] + [i for i, _ in closed]
        raise RuntimeError(f"block indices {indices} not strictly increasing")
    return ((index, size),) + closed


def chromatic_via_slides(
    path: PartialDyckPath, w: Window
) -> tuple[TPolynomial, dict[WeakComposition, TCoeff]]:
    """Permutation sum: t^(graph inversions of pi) times the slide
    polynomial of pi's descent composition.  Returns the polynomial on w
    and the slide expansion it was assembled from.
    """
    expansion = slide_expansion(path)
    terms = combine(expansion, lambda rd: slide_polynomial(rd, w).terms.items())
    return TPolynomial(w, terms), expansion


@dataclass
class ChromaticReport:
    path: PartialDyckPath
    window: Window
    brute: TPolynomial
    via_slides: TPolynomial
    expansion: dict[WeakComposition, TCoeff]
    equal: bool
    nonnegative: bool
    mismatches: list[tuple[WeakComposition, TCoeff]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equal and self.nonnegative


def compare_chromatic(path: PartialDyckPath, w: Window) -> ChromaticReport:
    """Run both routes and report equality plus coefficient positivity."""
    brute = chromatic_brute(path, w)
    via, expansion = chromatic_via_slides(path, w)
    diff = brute - via
    mismatches = [
        (e, diff.terms[e]) for e in sorted(
            diff.terms, key=lambda e: (e.lo, e.entries)
        )
    ]
    nonneg = all(
        c >= 0 for tc in brute.terms.values() for c in tc.values()
    )
    return ChromaticReport(
        path=path,
        window=w,
        brute=brute,
        via_slides=via,
        expansion=expansion,
        equal=not mismatches,
        nonnegative=nonneg,
        mismatches=mismatches,
    )


def fundamental_expansion(
    path: PartialDyckPath,
) -> dict[tuple[int, ...], TCoeff]:
    """Expansion of the all-nonpositive-color generating function into
    fundamental quasisymmetric polynomials: the backstable limit of the
    slide expansion.

    Descent-composition blocks are the runs between poset ascents, so
    flatten(rdes(pi)) = transpose(comp_of_subset(Des(pi))) and each
    permutation contributes t^inv to the flattened slide index.
    """
    return combine(slide_expansion(path), lambda a: ((a.flatten(), {0: 1}),))


def verify_fundamental_expansion(path: PartialDyckPath, m: int) -> bool:
    """Check the expansion against brute-force colorings in [1-m, 0],
    where F_alpha is the slide polynomial of alpha right-justified at 0."""
    w = Window(1 - m, 0)
    total = combine(
        fundamental_expansion(path),
        lambda alpha: slide_polynomial(WeakComposition(alpha, 1 - len(alpha)), w).terms.items(),
    )
    return chromatic_brute(path, w).terms == total


def verify_backstable(path: PartialDyckPath, m: int) -> ChromaticReport:
    """Both chromatic routes over the widened window [1-m, r]."""
    return compare_chromatic(path, Window(1 - m, path.r))
