"""The subset dynamic program behind slide_expansion against the
permutation sum it replaces, which stays in posets as the oracle."""

import itertools

from slidechrom import (
    PartialDyckPath,
    WeakComposition,
    Window,
    chromatic_brute,
    comp_of_subset,
    descent_composition,
    dyck_graph,
    enumerate_paths,
    expand_in_slides,
    fundamental_expansion,
    graph_inversions,
    incomparability_poset,
    poset_descents,
    restriction_map,
    slide_expansion,
    transpose,
)

SMALL = [p for n in range(6) for r in range(5) for p in enumerate_paths(n, r)]
# every 50th six-vertex path in scan order (r ascending, words lexicographic)
SIX = [p for r in range(7) for p in enumerate_paths(6, r)][::50]


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


def test_small_paths_match_permutation_sum():
    assert len(SMALL) == 2870
    for p in SMALL:
        full = slide_expansion(p)
        assert full == permutation_sum(p), p.literal
        assert slide_expansion(p, lo=1) == positive_part(full), p.literal


def test_six_vertex_sample_matches_permutation_sum():
    assert len(SIX) == 468
    for p in SIX:
        full = slide_expansion(p)
        assert full == permutation_sum(p), p.literal
        assert slide_expansion(p, lo=1) == positive_part(full), p.literal


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
            assert got == slide_expansion(p, lo=1 - m), (p.literal, m)
            cases += 1
    assert cases == 2478


def test_flattened_sum_is_fundamental_expansion():
    for p in SMALL:
        assert fundamental_expansion(p) == permutation_fundamentals(p), p.literal


def test_empty_path():
    assert slide_expansion(PartialDyckPath("EE", 0, 2)) == {WeakComposition(): {0: 1}}
