"""Property tests of the value types that key the engine's lru_caches and
dicts: a WeakComposition, Window, PartialDyckPath or DyckGraph refuses
attribute assignment, and equal values built in different ways are equal
and hash equal.  A TPolynomial, whose terms are a dict, refuses
assignment and hashing alike."""

import pytest
from hypothesis import given, settings, strategies as st

from slidechrom import DyckGraph, PartialDyckPath, TPolynomial, WeakComposition, Window, dyck_graph, enumerate_paths

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
PATHS = [p for n in range(5) for r in range(3) for p in enumerate_paths(n, r)]
# an attribute the type stores, and one it has no slot for
ATTRIBUTES = st.sampled_from(["lo", "hi", "entries", "n", "r", "steps", "edges", "window", "terms", "extra"])


def _assert_same_key(a, b):
    assert a == b and hash(a) == hash(b)


@PROPERTY
@given(
    entries=st.lists(st.integers(0, 3), max_size=5),
    lo=st.integers(-3, 3),
    before=st.integers(0, 3),
    after=st.integers(0, 3),
    name=ATTRIBUTES,
)
def test_weak_composition_is_an_immutable_key(entries, lo, before, after, name):
    # zeros padded on either side shift no index: WeakComposition((0, 1, 0), 0)
    # and WeakComposition((1,), 1) are one composition
    a = WeakComposition(entries, lo)
    padded = WeakComposition([0] * before + entries + [0] * after, lo - before)
    items = WeakComposition.from_items((lo + j, v) for j, v in enumerate(entries))
    values = WeakComposition.from_values(lo + j for j, v in enumerate(entries) for _ in range(v))
    for b in (padded, items, values):
        _assert_same_key(a, b)
    with pytest.raises(AttributeError):
        setattr(a, name, 0)


def test_weak_composition_example_from_two_offsets():
    _assert_same_key(WeakComposition((0, 1, 0), 0), WeakComposition((1,), 1))


@PROPERTY
@given(lo=st.integers(-5, 5), width=st.integers(0, 6), cut=st.integers(0, 6), name=ATTRIBUTES)
def test_window_is_an_immutable_key(lo, width, cut, name):
    # [lo, hi] as itself and as the union of [lo, mid - 1] and [mid, hi],
    # either of which may be empty
    hi = lo + width - 1
    mid = lo + min(cut, width)
    w = Window(lo, hi)
    _assert_same_key(w, Window(lo, mid - 1).union(Window(mid, hi)))
    with pytest.raises(AttributeError):
        setattr(w, name, 0)


@PROPERTY
@given(path=st.sampled_from(PATHS), name=ATTRIBUTES)
def test_path_and_graph_are_immutable_keys(path, name):
    # a path parsed from its literal, padded or with a leading zero, and
    # built from its steps; its graph built from the path and from its
    # edges as reversed lists
    for literal in (path.literal, f" {path.literal} ", f"{path.steps}@0{path.n},{path.r}"):
        _assert_same_key(PartialDyckPath(path.steps, path.n, path.r), PartialDyckPath.parse(literal))
    g = dyck_graph(path)
    _assert_same_key(g, DyckGraph(path.n, [list(e) for e in reversed(g.sorted_edges())]))
    for value in (path, g):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


@PROPERTY
@given(
    entries=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    coef=st.integers(-3, 3),
    name=ATTRIBUTES,
)
def test_polynomial_refuses_hashing_and_assignment(entries, coef, name):
    # equal polynomials are not a key, since their terms dict can change
    p = TPolynomial(Window(1, 3), {WeakComposition(entries): {0: coef}})
    for use in (hash, lambda q: {q: None}, lambda q: {q}):
        with pytest.raises(TypeError):
            use(p)
    with pytest.raises(AttributeError):
        setattr(p, name, 0)
