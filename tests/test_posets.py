import itertools
from collections import Counter

import pytest

from slidechrom import (
    LabeledPoset,
    PartialDyckPath,
    TPolynomial,
    WeakComposition,
    Window,
    acyclic_orientations,
    descent_composition,
    descent_composition_by_labels,
    dyck_graph,
    enumerate_paths,
    graph_inversions,
    incomparability_poset,
    omega_labeling,
    orientation_from_perm,
    partition_generating_function,
    poset_descents,
    poset_of_orientation,
    restriction_map,
    slide_polynomial,
    tightened_bounds,
    tightened_bounds_by_labels,
)

SIX = PartialDyckPath.parse("ENEEENENEENNEENEE@6,5")
THREE = PartialDyckPath.parse("ENEENENEE@3,3")


# ------------------------------------------------------------------ posets


def test_poset_validation():
    with pytest.raises(ValueError):
        LabeledPoset(3, frozenset({(1, 1)}))  # irreflexive
    with pytest.raises(ValueError):
        LabeledPoset(3, frozenset({(1, 2), (2, 1)}))  # antisymmetric
    with pytest.raises(ValueError):
        LabeledPoset(3, frozenset({(1, 2), (2, 3)}))  # transitive closure missing
    with pytest.raises(ValueError, match=r"without \(1,4\)"):
        # 1 < 2 < 4 and 1 < 3 < 4, but not 1 < 4
        LabeledPoset(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)}))


def test_incomparability_poset():
    g = dyck_graph(THREE)
    P = incomparability_poset(g)
    # non-edges of path-graph 1-2-3: only {1,3}
    assert P.is_less(1, 3) and not P.is_less(3, 1)
    assert not P.is_less(1, 2) and not P.is_less(2, 3)


def test_chain_poset():
    C = LabeledPoset.chain((2, 1, 3))
    assert C.is_less(2, 1) and C.is_less(1, 3) and C.is_less(2, 3)


def test_chain_is_the_checked_poset():
    # chain skips the relation checks: it must build what the checking
    # constructor builds, and still refuse what that one refuses
    for n in range(5):
        for pi in itertools.permutations(range(1, n + 1)):
            less = {(pi[i], pi[j]) for i in range(n) for j in range(i + 1, n)}
            omega, rho = pi[::-1], tuple(range(n))
            assert LabeledPoset.chain(pi, omega, rho) == LabeledPoset(n, less, omega, rho)
            assert LabeledPoset.chain(pi) == LabeledPoset(n, less)
    for pi in ((1, 1), (1, 3), (0, 1), (2, 1, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            LabeledPoset.chain(pi)
    with pytest.raises(ValueError, match="omega"):
        LabeledPoset.chain((2, 1), omega=(1, 1))
    with pytest.raises(ValueError, match="rho"):
        LabeledPoset.chain((2, 1), rho=(1,))


# ------------------------------------------------------------ orientations


def test_orientation_from_perm():
    g = dyck_graph(THREE)
    o = orientation_from_perm(g, (2, 1, 3))
    # arc points to the vertex that appears earlier in pi
    assert sorted(o) == [(1, 2), (3, 2)]


def test_acyclic_orientations_of_the_triangle():
    # K3: 2^3 orientations, all but the two directed 3-cycles acyclic
    g = dyck_graph(PartialDyckPath.parse("NNNEEE@3,0"))
    edges = g.sorted_edges()
    assert edges == [(1, 2), (1, 3), (2, 3)]
    orientations = acyclic_orientations(g)
    assert len(orientations) == len(set(orientations)) == 6
    for o in orientations:
        # every edge oriented exactly once, and omega rises along every arc
        assert sorted((min(a, b), max(a, b)) for a, b in o) == edges
        om = omega_labeling(g, o)
        assert all(om[a - 1] < om[b - 1] for a, b in o)


def test_acyclic_orientation_count_three():
    # path graph on 3 vertices: 2^2 orientations, all acyclic
    g = dyck_graph(THREE)
    assert sum(1 for _ in acyclic_orientations(g)) == 4


def test_omega_labeling_six():
    pi = (6, 4, 5, 1, 2, 3)
    g = dyck_graph(SIX)
    o = orientation_from_perm(g, pi)
    om = omega_labeling(g, o)
    assert om == (6, 5, 1, 4, 2, 3)


def test_omega_labeling_is_bijection():
    g = dyck_graph(THREE)
    for o in acyclic_orientations(g):
        om = omega_labeling(g, o)
        assert sorted(om) == [1, 2, 3]


def test_graph_inversions():
    g = dyck_graph(THREE)
    assert graph_inversions(g, (1, 2, 3)) == 0
    assert graph_inversions(g, (2, 1, 3)) == 1
    assert graph_inversions(g, (3, 2, 1)) == 2  # pairs {2,1},{3,2}; {3,1} not an edge


def test_poset_descents():
    g = dyck_graph(THREE)
    P = incomparability_poset(g)
    assert poset_descents(P, (3, 2, 1)) == set()
    assert poset_descents(P, (3, 1, 2)) == {1}


# ----------------------------------------------------- bounds and descents


def test_tightened_bounds_worked():
    pi = (1, 2, 3, 4, 5)
    omega = (2, 3, 1, 5, 4)
    rho = (1, 4, 5, 6, 4)
    assert tightened_bounds_by_labels(pi, rho, omega) == (1, 2, 3, 3, 4)


def test_descent_composition_worked():
    pi = (1, 2, 3, 4, 5)
    omega = (2, 3, 1, 5, 4)
    rho = (1, 4, 5, 6, 4)
    rd = descent_composition_by_labels(pi, rho, omega)
    assert rd == WeakComposition((2, 0, 2, 1), 1)
    assert str(rd) == "2,0,2,1"


def test_descent_composition_strictly_increasing_indices():
    # block indices must strictly increase; exercised across all perms
    g = dyck_graph(SIX)
    P = incomparability_poset(g)
    rho = restriction_map(SIX)
    for pi in itertools.permutations(range(1, 7)):
        rd = descent_composition(pi, rho, P)
        assert rd.weight() == 6


def test_two_descent_forms_agree():
    for lit in ("ENEENENEE@3,3", "EENENENEE@3,3", "NENEENEE@3,2"):
        p = PartialDyckPath.parse(lit)
        g = dyck_graph(p)
        P = incomparability_poset(g)
        rho = restriction_map(p)
        for pi in itertools.permutations(range(1, 4)):
            o = orientation_from_perm(g, pi)
            om = omega_labeling(g, o)
            assert descent_composition(pi, rho, P) == descent_composition_by_labels(
                pi, rho, om
            )
            assert tightened_bounds(pi, rho, P) == tightened_bounds_by_labels(
                pi, rho, om
            )


# --------------------------------------------------------------- partitions


def test_partition_gf_chain_worked():
    pi = (1, 2, 3, 4, 5)
    omega = (2, 3, 1, 5, 4)
    rho = (1, 4, 5, 6, 4)
    chain = LabeledPoset.chain(pi, omega=omega, rho=rho)
    w = Window(1, 4)
    gf = partition_generating_function(chain, w)
    want = slide_polynomial(WeakComposition((2, 0, 2, 1), 1), w) + slide_polynomial(
        WeakComposition((1, 1, 2, 1), 1), w
    )
    assert gf == want


def test_partition_gf_empty_poset():
    empty = LabeledPoset(0, frozenset(), omega=(), rho=())
    gf = partition_generating_function(empty, Window(1, 3))
    assert gf.evaluate_all_ones() == {0: 1}


def test_partition_gf_respects_rho():
    # single vertex with rho cap 2 over [1,3]: x1 + x2 only
    P = LabeledPoset(1, frozenset(), omega=(1,), rho=(2,))
    gf = partition_generating_function(P, Window(1, 3))
    names = sorted(str(e) for e in gf.terms)
    assert names == ["0,1", "1"]


def _partition_gf_by_covers(P, w):
    # every map into the window, kept when f(v) <= rho(v) and f rises up
    # each cover u < v, strictly when omega(u) > omega(v)
    covers = [
        (a, b)
        for a, b in P.less
        if not any((a, c) in P.less and (c, b) in P.less for c in range(1, P.n + 1))
    ]
    found = Counter()
    for f in itertools.product(w.indices(), repeat=P.n):
        if any(f[v - 1] > P.rho[v - 1] for v in range(1, P.n + 1)):
            continue
        if any(
            f[a - 1] > f[b - 1]
            or (f[a - 1] == f[b - 1] and P.omega[a - 1] > P.omega[b - 1])
            for a, b in covers
        ):
            continue
        found[WeakComposition.from_values(f)] += 1
    return TPolynomial(w, {e: {0: m} for e, m in found.items()})


def test_partition_gf_matches_cover_definition():
    # the walk over all relations against a filter over every map, on the
    # acyclic-orientation posets of the paths with n <= 4 and r <= 2
    cases = 0
    for n in range(0, 5):
        for r in range(0, 3):
            for p in enumerate_paths(n, r):
                g = dyck_graph(p)
                rho = restriction_map(p)
                for o in acyclic_orientations(g):
                    P = poset_of_orientation(g, o, rho)
                    for w in (Window(1, r), Window(-1, r)):
                        assert partition_generating_function(P, w) == (
                            _partition_gf_by_covers(P, w)
                        ), (p.literal, sorted(o), w)
                        cases += 1
    assert cases == 3274
