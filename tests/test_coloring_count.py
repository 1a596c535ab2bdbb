"""The transfer-matrix coloring count that every chromatic verdict reads
(chromatic._count) against the brute force that visits every coloring
(chromatic._brute), which stays behind chromatic_brute as its oracle."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from slidechrom import PartialDyckPath, Window, dyck_graph, enumerate_paths, restriction_map
from slidechrom.chromatic import _brute, _count

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _agree(graph, rho, w):
    brute = _brute(graph, rho, w)
    assert _count(graph, rho, w) == brute, (graph, rho, w)
    return brute


def test_count_matches_brute_force_to_five_vertices():
    graphs = set()
    cases = 0
    for n in range(6):
        for r in range(6):
            for p in enumerate_paths(n, r):
                graph, rho = dyck_graph(p), restriction_map(p)
                _agree(graph, rho, Window(1, r))
                _agree(graph, rho, Window(-1, r))
                # hi below r cuts the top colors of some vertices
                _agree(graph, rho, Window(1, max(0, r - 2)))
                # [-2, r] on all of P(5, 3..5) would take 5 s of brute
                # force, so there only every 32nd path
                if n < 5 or r < 3 or cases % 32 == 0:
                    _agree(graph, rho, Window(-2, r))
                # with rho = 0 both sides depend on the graph alone
                if graph not in graphs:
                    graphs.add(graph)
                    _agree(graph, (0,) * n, Window(1 - n, 0))
                # the empty window, and lo above the least rho(i), leave
                # a vertex no color: nothing on either side once n >= 1
                for w in (Window(1, 0), Window(min(rho, default=0) + 1, r + 1)):
                    assert _agree(graph, rho, w) == ({} if n else {0: 1}), (p.literal, w)
                cases += 1
    # every path, and the 1 + 1 + 2 + 5 + 14 + 42 Dyck graphs among them
    assert cases == 5081 and len(graphs) == 65


def test_count_matches_brute_force_on_six_vertices():
    paths = [p for r in range(5) for p in enumerate_paths(6, r)]
    assert len(paths) == 7204
    for p in paths:
        _agree(dyck_graph(p), restriction_map(p), Window(1, p.r))


@st.composite
def dyck_paths(draw):
    # each step is drawn among the ones that keep the path completable
    # and weakly above the diagonal
    n, r = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    steps, x, y = [], 0, r
    while x < n + r or y < n + r:
        east = x < n + r and y > x
        if east and y < n + r:
            east = draw(st.booleans())
        steps.append("E" if east else "N")
        x, y = (x + 1, y) if east else (x, y + 1)
    return PartialDyckPath("".join(steps), n, r)


@PROPERTY
@given(dyck_paths(), st.integers(-2, 2), st.integers(0, 6), st.booleans())
def test_count_matches_brute_force_on_random_windows(p, lo, width, zero_rho):
    # at most six colors, with rho capped at 0 or at the path's bounds
    rho = (0,) * p.n if zero_rho else restriction_map(p)
    _agree(dyck_graph(p), rho, Window(lo, lo + width - 1))


@pytest.mark.parametrize("edges, msg", [
    # 1 -- 3 without 2 -- 3: the smaller neighbours of 3 skip 2
    ({(1, 3), (2, 4)}, "smaller neighbours of 3"),
    # 1's last neighbour is 4, 2's is 3: the state would lose 2 before 1
    ({(1, 4), (2, 3), (3, 4)}, "last neighbour of 2"),
])
def test_count_refuses_graphs_outside_its_interval_facts(edges, msg):
    # a DyckGraph cannot fail either fact, so these are plain stand-ins
    graph = SimpleNamespace(n=4, edges=frozenset(edges))
    with pytest.raises(RuntimeError, match=msg):
        _count(graph, (3,) * 4, Window(1, 3))
