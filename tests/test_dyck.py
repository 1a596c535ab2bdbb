import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from slidechrom import (
    DyckGraph,
    PartialDyckPath,
    count_paths,
    dyck_graph,
    enumerate_paths,
    restriction_map,
    scan_paths,
)

# the two worked path literals used throughout
SIX = "ENEEENENEENNEENEE@6,5"
THREE = "ENEENENEE@3,3"


def test_parse_round_trip():
    p = PartialDyckPath.parse(THREE)
    assert p.n == 3 and p.r == 3
    assert p.literal == THREE
    assert PartialDyckPath.parse(p.literal) == p


def test_parse_errors():
    for bad in (
        "EEE@3,0",          # step-count mismatch
        "ENEENENEE@3",      # malformed suffix
        "XNEENENEE@3,3",    # bad character
        "NNNEEE@3,0",       # dips below the diagonal at the end? (valid actually)
    ):
        if bad == "NNNEEE@3,0":
            PartialDyckPath.parse(bad)  # this one is fine
            continue
        with pytest.raises(ValueError):
            PartialDyckPath.parse(bad)


def test_parse_reads_ascii_digits_only():
    # \u0663 is ARABIC-INDIC DIGIT THREE, which int() would read as 3
    for bad in ("ENEENENEE@\u0663,3", "ENEENENEE@3,\u0663", "ENEENENEE@\uff13,3"):
        with pytest.raises(ValueError, match="bad path literal"):
            PartialDyckPath.parse(bad)
    # leading zeros are still read and normalised away
    assert PartialDyckPath.parse("ENEENENEE@03,003").literal == THREE


_ALPHABET = "NE@,0123456789 \t\n\u0663"  # \u0663: a non-ASCII digit
_VALID = [p.literal for n in range(4) for r in range(3) for p in enumerate_paths(n, r)]


@st.composite
def _edited_literals(draw):
    # a valid literal with up to two spans replaced by alphabet text
    text = draw(st.sampled_from(_VALID))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(_ALPHABET, max_size=2)) + text[i + draw(st.integers(0, 2)):]
    return text


_LITERALS = st.one_of(
    _edited_literals(),
    st.text(_ALPHABET, max_size=16),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_LITERALS)
def test_parse_rejects_or_round_trips(text):
    # any text either fails with ValueError or names a path its literal
    # parses back to
    try:
        p = PartialDyckPath.parse(text)
    except ValueError:
        return
    assert PartialDyckPath.parse(p.literal) == p


def test_weakly_above_enforced():
    # first step E from (0,0) goes below y=x when r=0
    with pytest.raises(ValueError):
        PartialDyckPath.parse("ENNE@2,0")
    PartialDyckPath.parse("NENE@2,0")


def test_heights_three():
    p = PartialDyckPath.parse(THREE)
    # east steps of E N EE N E N EE from (0,3): heights 3,4,4,5,6,6
    assert p.east_heights() == (3, 4, 4, 5, 6, 6)


def test_graph_three():
    g = dyck_graph(PartialDyckPath.parse(THREE))
    assert g.sorted_edges() == [(1, 2), (2, 3)]
    assert restriction_map(PartialDyckPath.parse(THREE)) == (1, 3, 3)


def test_graph_six():
    p = PartialDyckPath.parse(SIX)
    g = dyck_graph(p)
    assert g.sorted_edges() == [
        (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
    ]
    assert restriction_map(p) == (1, 4, 5, 5, 5, 5)


def test_edge_rule_matches_heights():
    for n, r in ((3, 2), (4, 1), (4, 3)):
        for p in enumerate_paths(n, r):
            g = dyck_graph(p)
            h = p.east_heights()
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert ((i, j) in g.edges) == (h[i + r - 1] >= j + r)


def test_graph_validation():
    with pytest.raises(ValueError):
        DyckGraph(3, frozenset({(1, 3)}))  # gap violates interval property
    with pytest.raises(ValueError):
        DyckGraph(2, frozenset({(2, 1)}))  # must be i < j
    with pytest.raises(TypeError):
        DyckGraph(2, frozenset({(1.0, 2.0)}))  # ends must be integers


def _interval_property(edges):
    # the definition written out: {i,j} forces every {a,b} with i <= a < b <= j
    return all(
        (a, b) in edges
        for i, j in edges
        for a in range(i, j + 1)
        for b in range(a + 1, j + 1)
    )


def _accepts(n, edges):
    try:
        DyckGraph(n, edges)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", range(6))
def test_local_interval_check_matches_the_definition(n):
    # every edge subset on n <= 5 vertices (1,024 of them at n = 5)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    accepted = 0
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            edges = frozenset(edges)
            assert _accepts(n, edges) == _interval_property(edges), sorted(edges)
            accepted += _interval_property(edges)
    # the edge sets with the interval property are counted by the Catalan numbers
    assert accepted == math.comb(2 * n, n) // (n + 1)


def test_interval_property():
    for p in itertools.chain(enumerate_paths(4, 2), scan_paths(6, 6)):
        assert _interval_property(dyck_graph(p).edges), p.literal


def test_restriction_values_in_range():
    for p in enumerate_paths(3, 3):
        rho = restriction_map(p)
        assert len(rho) == 3
        assert all(0 <= v <= 3 for v in rho)
        # rho is weakly increasing in the vertex
        assert all(rho[i] <= rho[i + 1] for i in range(2))


def test_count_matches_enumeration():
    for n in range(0, 5):
        for r in range(0, 4):
            assert count_paths(n, r) == sum(1 for _ in enumerate_paths(n, r))


def test_count_formula():
    # ballot-type count C(2n+r, n) - C(2n+r, n-1)
    assert count_paths(3, 3) == 48
    assert count_paths(6, 5) == math.comb(17, 6) - math.comb(17, 5)
    assert count_paths(0, 0) == 1
    assert count_paths(0, 4) == 1


def test_enumeration_is_lex_and_unique():
    lits = [p.steps for p in enumerate_paths(3, 2)]
    assert lits == sorted(lits)
    assert len(set(lits)) == len(lits)


def test_scan_paths_order():
    # r ascending, then literals in string order: the order sweeps report in
    for n in range(5):
        lits = [(p.r, p.literal) for p in scan_paths(n, 4)]
        assert lits == sorted(lits)
        assert len(lits) == sum(count_paths(n, r) for r in range(5))


@pytest.mark.parametrize("n, r_max", [(2, -1), (-1, 3)])
def test_scan_paths_checks_size_at_call(n, r_max):
    with pytest.raises(ValueError, match=f"got n={n}, r={r_max}"):
        scan_paths(n, r_max)


def test_r_zero_graph_is_complete_prefix_free():
    # with r=0 the first east step has height >= 1 always; n=1 gives no edges
    p, = list(enumerate_paths(1, 0))
    assert dyck_graph(p).sorted_edges() == []
    assert restriction_map(p) == (0,)


def test_json():
    p = PartialDyckPath.parse(THREE)
    assert p.to_json() == {"n": 3, "r": 3, "steps": "ENEENENEE"}
