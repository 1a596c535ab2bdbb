"""The key basis against Kohnert's rule (tests/kohnert.py), a second key
model that shares no code with keys.py or its Demazure recursion."""

import itertools

from kohnert import kohnert_polynomial

from slidechrom import WeakComposition, key_polynomial


def _indices(r, weight):
    # every weak composition of the weight on [1, r]
    return [a for a in itertools.product(range(weight + 1), repeat=r) if sum(a) == weight]


def test_small_kohnert_polynomials():
    # kappa_(0, 1) = x1 + x2, kappa_(0, 2) = x1^2 + x1 x2 + x2^2,
    # kappa_(1, 0, 1) = x1 x2 + x1 x3
    assert kohnert_polynomial((0, 1)) == {(1, 0): 1, (0, 1): 1}
    assert kohnert_polynomial((0, 2)) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert kohnert_polynomial((1, 0, 1)) == {(1, 1, 0): 1, (1, 0, 1): 1}


def test_key_polynomials_match_kohnert_diagrams():
    # every index of weight 1..5 on [1, r] for r <= 5, and of weight 6 on [1, 6]
    cases = [(a, r) for r in range(1, 6) for weight in range(1, 6) for a in _indices(r, weight)]
    cases += [(a, 6) for a in _indices(6, 6)]
    assert len(cases) == 456 + 462
    for a, r in cases:
        expected = {WeakComposition(e): {0: c} for e, c in kohnert_polynomial(a).items()}
        assert key_polynomial(WeakComposition(a), r).terms == expected, a
