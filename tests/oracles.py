"""The reference models the tests check the engine against, kept out of
the package since no command, demo or benchmark runs them: composition
transposes, acyclic orientations and their posets, poset descents,
chain-model slide polynomials and Demazure operators, with the small
constructors only they and the tests need.  They read the package's
value types and its poset and divided-difference code, but none of the
slide DP, the coloring count, the slide-set memo or the peels they are
compared with; tests/test_hygiene.py checks that."""

import itertools

from slidechrom import (
    LabeledPoset,
    TPolynomial,
    WeakComposition,
    divided_difference,
    omega_labeling,
    orientation_from_perm,
)


def contains(w, i):
    """Whether the window w admits the index i."""
    return w.lo <= i <= w.hi


def from_values(values):
    """Exponent vector of the monomial x_{v1}x_{v2}... (color counts)."""
    return WeakComposition.from_items((v, 1) for v in values)


def monomial(e, window, tc=None):
    """The polynomial tc * x^e on window, tc defaulting to 1."""
    return TPolynomial(window, {e: dict(tc) if tc is not None else {0: 1}})


def comp_of_subset(subset, n):
    """Strong composition of n with partial sums given by the subset of [n-1]."""
    s = sorted(set(subset))
    if n == 0:
        if s:
            raise ValueError("nonempty subset with n = 0")
        return ()
    if s and (s[0] < 1 or s[-1] > n - 1):
        raise ValueError(f"subset {s} not inside [1, {n - 1}]")
    prev = 0
    out = []
    for c in s + [n]:
        out.append(c - prev)
        prev = c
    return tuple(out)


def subset_of_comp(alpha):
    """Partial sums of alpha except the last (inverse of comp_of_subset)."""
    out, s = [], 0
    for p in alpha[:-1]:
        s += p
        out.append(s)
    return tuple(out)


def transpose(alpha):
    """Composition with complementary partial-sum set inside [n-1]."""
    n = sum(alpha)
    chosen = set(subset_of_comp(alpha))
    return comp_of_subset([i for i in range(1, n) if i not in chosen], n)


def acyclic_orientations(graph):
    """The distinct arc sets that the n! permutations induce, sorted.

    Every acyclic orientation has a linear extension, so these are
    exactly the acyclic orientations of the graph.
    """
    found = {
        orientation_from_perm(graph, pi)
        for pi in itertools.permutations(range(1, graph.n + 1))
    }
    return sorted(found, key=sorted)


def poset_of_orientation(graph, o, rho):
    """b < a for every arc a -> b, closed under transitivity with one
    pass per middle vertex (Warshall), labeled by omega_labeling and
    bounded by rho."""
    n = graph.n
    above = [set() for _ in range(n + 1)]  # above[x]: every y with x < y
    for a, b in o:
        above[b].add(a)
    for k in range(1, n + 1):
        for x in range(1, n + 1):
            if k in above[x]:
                above[x] |= above[k]
    less = {(x, y) for x in range(1, n + 1) for y in above[x]}
    return LabeledPoset(n, less, omega_labeling(graph, o), rho)


def poset_descents(poset, pi):
    """Positions i (1-based) with pi(i+1) < pi(i) in the poset."""
    return {
        i + 1
        for i in range(len(pi) - 1)
        if poset.is_less(pi[i + 1], pi[i])
    }


def slide_polynomial_by_chains(a, w):
    """Chain-model slide polynomial: one block per part of flatten(a),
    the block's values capped by the index the part occupies, weakly
    increasing inside blocks and strictly increasing across them.
    """
    parts = list(a.items())
    terms = {}

    def rec(block, taken, prev, strict):
        if block == len(parts):
            e = from_values(taken)
            tc = terms.setdefault(e, {})
            tc[0] = tc.get(0, 0) + 1
            return
        cap, size = parts[block]
        cap = min(cap, w.hi)

        def fill(k, lastv, first):
            if k == size:
                rec(block + 1, taken, lastv, True)
                return
            lo = max(w.lo, lastv + 1 if (first and strict) else lastv)
            if first and not taken:
                lo = w.lo
            for val in range(lo, cap + 1):
                taken.append(val)
                fill(k + 1, val, False)
                taken.pop()

        fill(0, prev, True)

    rec(0, [], w.lo - 1, False)
    return TPolynomial(w, terms)


def demazure_operator(p, i):
    """pi_i(p) = divided difference of x_i * p."""
    xi = monomial(WeakComposition.from_items([(i, 1)]), p.window)
    return divided_difference(xi * p, i)
