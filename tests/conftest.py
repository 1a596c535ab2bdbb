import functools
import itertools

import pytest

from slidechrom import (
    chromatic,
    descent_composition,
    dyck_graph,
    graph_inversions,
    incomparability_poset,
    restriction_map,
)


@pytest.fixture
def cold_graph_memos():
    """Empty chromatic.py's per-graph memos (the verdicts and the subset
    DP's tables), so a test that checks a theorem per path computes every
    graph itself, whatever ran before."""
    chromatic._verdict.cache_clear()
    chromatic._dp_tables.cache_clear()


@functools.cache
def _permutations(n):
    return list(itertools.permutations(range(1, n + 1)))


@functools.cache
def _permutation_rows(path):
    graph = dyck_graph(path)
    poset = incomparability_poset(graph)
    rho = restriction_map(path)
    shared = {}  # one object per distinct descent composition of the path
    rows = []
    for pi in _permutations(graph.n):
        rd = descent_composition(pi, rho, poset)
        rows.append((pi, shared.setdefault(rd, rd), graph_inversions(graph, pi)))
    return rows


@pytest.fixture(scope="session")
def permutation_rows():
    """Every permutation pi of a path's vertices, in itertools order, as
    (pi, descent composition, graph inversions), built once per session.
    Acceptance 9 and test_small_paths_match_permutation_sum both walk
    every path with n <= 5 and r <= 4 (260,479 permutations)."""
    return _permutation_rows
