"""The subset dynamic program behind slide_expansion and
fundamental_expansion against the permutation sum it replaces, which
stays in posets as the oracle."""

import itertools
import math
import random

from oracles import comp_of_subset, poset_descents, transpose
from slidechrom import (
    PartialDyckPath,
    WeakComposition,
    Window,
    chromatic_brute,
    descent_composition,
    dyck_graph,
    enumerate_paths,
    expand_in_slides,
    fundamental_expansion,
    graph_inversions,
    incomparability_poset,
    restriction_map,
    slide_expansion,
)
from slidechrom.chromatic import _dp_tables, _packed_dp, _t_slot, _t_unpack, _terms
from slidechrom.compositions import digit_bits

SMALL = [p for n in range(6) for r in range(5) for p in enumerate_paths(n, r)]
# every 50th six-vertex path in scan order (r ascending, words lexicographic)
SIX = [p for r in range(7) for p in enumerate_paths(6, r)][::50]
# a few seven-vertex paths: the first key-negative one, one with rho
# constant at 3, one whose indices reach -5, and the complete graph with
# rho all 0, whose only index starts at 1 - n = -6
SEVEN = [
    PartialDyckPath.parse(lit)
    for lit in (
        "EENEENENEENEENENENE@7,5",
        "EEENENENENENENENE@7,3",
        "NEENNEENEEENENENE@7,3",
        "NNNNNNNEEEEEEE@7,0",
    )
]


def _random_path(rng, n, r):
    # a uniform shuffle of the steps, kept once it stays above the diagonal
    steps = ["N"] * n + ["E"] * (n + r)
    while True:
        rng.shuffle(steps)
        try:
            return PartialDyckPath("".join(steps), n, r)
        except ValueError:
            continue


def _permutations(path):
    graph = dyck_graph(path)
    poset = incomparability_poset(graph)
    for pi in itertools.permutations(range(1, graph.n + 1)):
        yield graph, poset, pi


def _bump(out, key, inv):
    tc = out.setdefault(key, {})
    tc[inv] = tc.get(inv, 0) + 1


def permutation_sum(path):
    rho = restriction_map(path)
    out = {}
    for graph, poset, pi in _permutations(path):
        _bump(out, descent_composition(pi, rho, poset), graph_inversions(graph, pi))
    return out


def permutation_fundamentals(path):
    out = {}
    for graph, poset, pi in _permutations(path):
        alpha = transpose(comp_of_subset(poset_descents(poset, pi), graph.n))
        _bump(out, alpha, graph_inversions(graph, pi))
    return out


def positive_part(expansion):
    return {a: tc for a, tc in expansion.items() if a.lo >= 1}


def flattened(expansion):
    # the backstable limit: indices flattened, coefficients of equal
    # flattenings summed
    flat = {}
    for a, tc in expansion.items():
        cur = flat.setdefault(a.flatten(), {})
        for d, c in tc.items():
            cur[d] = cur.get(d, 0) + c
    return flat


def pruned_expansion(p, lo):
    # slide_expansion(p) with the DP run from lo: only the indices whose
    # blocks all sit at lo or above
    return _terms(_packed_dp(dyck_graph(p), restriction_map(p), lo), lo, p.n)


def part_from(expansion, lo):
    # the indices with no block below lo; the empty index has no block
    return {a: tc for a, tc in expansion.items() if a.weight() == 0 or a.lo >= lo}


def test_small_paths_match_permutation_sum(permutation_rows):
    # lo = 1 is the theorem's window; lo = 1 - m the backstable windows
    # of verify_backstable, and lo = 2 a chromatic --window starting at 2
    assert len(SMALL) == 2870
    for p in SMALL:
        full = slide_expansion(p)
        # the permutation sum, from the session's shared rows
        summed = {}
        for _, rd, inv in permutation_rows(p):
            _bump(summed, rd, inv)
        assert full == summed, p.literal
        assert pruned_expansion(p, 1) == positive_part(full), p.literal
        for lo in (-1, 0, 2):
            assert pruned_expansion(p, lo) == part_from(full, lo), (p.literal, lo)
        # the packed core: each index packed from lo, digit_bits(n) bits
        # per entry, as compositions.pack lays it out
        graph, rho, bits, slot = dyck_graph(p), restriction_map(p), digit_bits(p.n), _t_slot(p.n)
        # lo = r and r + 1 leave the fewest states alive
        for lo in (1, -1, 0, 2, 1 - p.n, p.r, p.r + 1):
            dp = {x: _t_unpack(tc, slot) for x, tc in _packed_dp(graph, rho, lo).items()}
            assert dp == {a.packed(lo, bits): tc for a, tc in part_from(summed, lo).items()}, (p.literal, lo)


def _fewest_closes(poset, placed, front):
    # every ordering of the unplaced vertices prepended to front, each
    # pair (a, b) of neighbours in it a block close unless b < a
    free = [u for u in range(1, poset.n + 1) if u not in placed]
    return min(
        sum(not poset.is_less(b, a) for a, b in itertools.pairwise((*order, front)))
        for order in itertools.permutations(free)
    )


def test_fewest_closes_table_matches_every_ordering():
    graphs = {dyck_graph(p) for n in range(1, 6) for p in enumerate_paths(n, 0)}
    assert len(graphs) == 1 + 2 + 5 + 14 + 42
    entries = 0
    for graph in graphs:
        n, poset = graph.n, incomparability_poset(graph)
        above, lower_nbrs, need = _dp_tables(graph)
        assert len(need) == n << n
        for v in range(n):
            assert above[v] == sum(1 << u for u in range(n) if poset.is_less(v + 1, u + 1))
            assert lower_nbrs[v] == sum(1 << u for u in range(v) if (u + 1, v + 1) in graph.edges)
        for mask in range(1, 1 << n):
            placed = {u + 1 for u in range(n) if mask >> u & 1}
            for front in placed:
                assert need[n * mask + front - 1] == _fewest_closes(poset, placed, front), (
                    graph.sorted_edges(), sorted(placed), front)
                entries += 1
    # each graph has n * 2^(n - 1) (placed set, front) pairs
    assert entries == sum(g.n << g.n - 1 for g in graphs) == 3_877


def test_six_vertex_sample_matches_permutation_sum():
    assert len(SIX) == 468
    for p in SIX:
        full = slide_expansion(p)
        assert full == permutation_sum(p), p.literal
        assert pruned_expansion(p, 1) == positive_part(full), p.literal
        # the rho = 0 DP is the flattened slide expansion
        assert fundamental_expansion(p) == flattened(full), p.literal


def test_seven_vertex_paths_match_permutation_sum():
    for p in SEVEN:
        full = slide_expansion(p)
        assert full == permutation_sum(p), p.literal
        assert pruned_expansion(p, 1) == positive_part(full), p.literal
        assert fundamental_expansion(p) == flattened(full), p.literal
    assert min(a.lo for p in SEVEN for a in slide_expansion(p)) == -6


def test_slot_holds_n_factorial():
    # every packed coefficient counts at most n! permutations, so a slot
    # must hold n! at every degree without carrying into the next one
    for n in range(1, 13):
        slot = _t_slot(n)
        assert math.factorial(n) < 1 << slot, n
        packed = sum(math.factorial(n) << slot * d for d in (0, 1, 3))
        assert _t_unpack(packed, slot) == {0: math.factorial(n), 1: math.factorial(n), 3: math.factorial(n)}, n


def test_eight_vertex_complete_graph_is_one_mahonian_index():
    # rho is all 0 and every pair is an edge, so every block is a single
    # vertex, the bound drops by one per letter to 1 - n, and the t-weight
    # is the inversion number: [8]_t! at the index (1, ..., 1) from -7
    p = PartialDyckPath.parse("NNNNNNNNEEEEEEEE@8,0")
    mahonian = {0: 1}
    for k in range(2, 9):
        step = {}
        for d, c in mahonian.items():
            for j in range(k):
                step[d + j] = step.get(d + j, 0) + c
        mahonian = step
    assert slide_expansion(p) == {WeakComposition([1] * 8, -7): mahonian}
    assert pruned_expansion(p, -7) == slide_expansion(p)
    assert pruned_expansion(p, -6) == {}


def test_eight_vertex_sample():
    rng = random.Random(8)
    sample = [_random_path(rng, 8, r) for r in range(9) for _ in range(4)]
    for p in sample[::12]:
        assert slide_expansion(p) == permutation_sum(p), p.literal
    lows = set()
    for p in sample:
        full = slide_expansion(p)
        assert sum(c for tc in full.values() for c in tc.values()) == math.factorial(8), p.literal
        assert all(a.weight() == 8 for a in full), p.literal
        low = min(a.lo for a in full)
        assert low >= -7, p.literal
        # the prune compares raw bounds with lo, so it agrees with the
        # decoded indices only if the lowest one decodes correctly
        assert pruned_expansion(p, low) == full, p.literal
        assert pruned_expansion(p, low + 1) == {a: tc for a, tc in full.items() if a.lo > low}, p.literal
        lows.add(low)
    assert min(lows) == -7 and max(lows) >= -2


def test_slide_peel_matches_dp_on_extended_windows():
    # peeling the brute-force polynomial on [1 - m, r] recovers the DP's
    # indices with no part below 1 - m, also at nonpositive indices
    cases = 0
    for p in SMALL:
        if p.n > 4:
            continue
        for m in (0, 1, 2):
            w = Window(1 - m, p.r)
            got = expand_in_slides(chromatic_brute(p, w), w)
            assert got == pruned_expansion(p, 1 - m), (p.literal, m)
            cases += 1
    assert cases == 2478


def test_flattened_sum_is_fundamental_expansion():
    for p in SMALL:
        fundamental = fundamental_expansion(p)
        assert fundamental == permutation_fundamentals(p), p.literal
        # with rho = 0 nothing is lost in flattening: the DP's indices are
        # the fundamental ones right-justified at 0, so the verdict on
        # [1 - m, 0] checks exactly the expansion that qsym prints
        justified = {WeakComposition(alpha, 1 - len(alpha)): tc for alpha, tc in fundamental.items()}
        lo = 1 - p.n
        assert _terms(_packed_dp(dyck_graph(p), (0,) * p.n, lo), lo, p.n) == justified, p.literal


def test_empty_path():
    assert slide_expansion(PartialDyckPath("EE", 0, 2)) == {WeakComposition(): {0: 1}}
