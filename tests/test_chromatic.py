import itertools
import json
import math

from slidechrom import chromatic
from slidechrom import (
    PartialDyckPath,
    TPolynomial,
    WeakComposition,
    Window,
    acyclic_orientations,
    chromatic_brute,
    chromatic_via_slides,
    compare_chromatic,
    dyck_graph,
    enumerate_paths,
    fundamental_expansion,
    partition_generating_function,
    poset_of_orientation,
    restriction_map,
    slide_expansion,
    slide_polynomial,
    verify_backstable,
    verify_fundamental_expansion,
)
from slidechrom.chromatic import chromatic_verdict
from slidechrom.compositions import digit_bits
from slidechrom.cli import _sweep_one, main

THREE = PartialDyckPath.parse("ENEENENEE@3,3")


def wc(entries, lo=1):
    return WeakComposition(tuple(entries), lo)


def test_displayed_three_vertex_expansion():
    rep = compare_chromatic(THREE, Window(1, 3))
    assert rep.equal and rep.nonnegative
    assert rep.expansion == {
        wc([1, 1, 1]): {0: 1, 1: 1},
        wc([2, 0, 1]): {1: 1},
        wc([1, 2], lo=0): {1: 1},
        wc([1, 1, 0, 1], lo=0): {1: 1},
        wc([1, 1, 1], lo=-1): {2: 1},
    }


def test_via_slides_returns_the_indices_that_survive_on_the_window():
    # the two indices reaching below 1 vanish on [1, 3] and are not built;
    # on [0, 3] only the one starting at -1 does
    _, exp = chromatic_via_slides(THREE, Window(1, 3))
    assert exp == {wc([1, 1, 1]): {0: 1, 1: 1}, wc([2, 0, 1]): {1: 1}}
    _, exp = chromatic_via_slides(THREE, Window(0, 3))
    assert exp == {a: tc for a, tc in slide_expansion(THREE).items() if a.lo >= 0}


def test_sweep_checks_build_only_the_window_indices(monkeypatch):
    calls = []
    full = chromatic._packed_dp

    def recording(graph, rho, lo):
        calls.append(lo)
        return full(graph, rho, lo)

    monkeypatch.setattr(chromatic, "_packed_dp", recording)
    p = PartialDyckPath.parse("ENEEENENEENNEENEE@6,5")
    assert _sweep_one(("theorem", p, 6))["ok"]
    assert calls == [1]
    calls.clear()
    assert _sweep_one(("backstable", p, 2))["ok"]
    assert calls == [-1]
    calls.clear()
    rep = compare_chromatic(p, Window(1, p.r))
    assert calls == [1]
    low = 1 - p.n  # slide_expansion's default lo
    assert rep.expansion == chromatic._terms(full(dyck_graph(p), restriction_map(p), low), low, p.n)
    assert calls == [1, low]
    assert rep.expansion is rep.expansion  # computed once
    assert calls == [1, low]


def test_compare_builds_the_graph_and_rho_once(monkeypatch):
    # both routes run on one Dyck graph and one restriction map
    counts = {"dyck_graph": 0, "restriction_map": 0}
    for name in counts:
        def counting(path, name=name, real=getattr(chromatic, name)):
            counts[name] += 1
            return real(path)

        monkeypatch.setattr(chromatic, name, counting)
    p = PartialDyckPath.parse("ENEEENENEENNEENEE@6,5")
    assert compare_chromatic(p, Window(1, p.r)).ok
    assert counts == {"dyck_graph": 1, "restriction_map": 1}
    assert verify_backstable(p, 2).ok
    assert counts == {"dyck_graph": 2, "restriction_map": 2}


def test_displayed_expansion_evaluates_to_descent_count():
    # setting every x to 1 counts proper colorings with <= 3 colors by descents
    poly, _ = chromatic_via_slides(THREE, Window(1, 3))
    assert poly.evaluate_all_ones() == {0: 1, 1: 3}


def test_brute_zero_when_no_colors():
    # r=0 leaves an empty positive window: no proper coloring of a vertex
    p, = list(enumerate_paths(1, 0))
    assert chromatic_brute(p, Window(1, 0)).is_zero()


def test_brute_counts_colorings():
    # edge {1,2} with rho=(2,2): exactly the colorings (1,2) and (2,1),
    # the latter carrying the lone descent
    p = PartialDyckPath.parse("EENNEE@2,2")
    assert dyck_graph(p).sorted_edges() == [(1, 2)]
    assert restriction_map(p) == (2, 2)
    poly = chromatic_brute(p, Window(1, 2))
    assert poly.evaluate_all_ones() == {0: 1, 1: 1}


def _colorings_by_product(p, w):
    # a third model: every map f from the vertices to w, kept when it is
    # proper and under rho, with its descents counted edge by edge
    g = dyck_graph(p)
    rho = restriction_map(p)
    terms = {}
    for f in itertools.product(w.indices(), repeat=g.n):
        if any(c > bound for c, bound in zip(f, rho)):
            continue
        if any(f[i - 1] == f[j - 1] for i, j in g.edges):
            continue
        des = sum(1 for i, j in g.edges if f[i - 1] > f[j - 1])
        tc = terms.setdefault(WeakComposition.from_values(f), {})
        tc[des] = tc.get(des, 0) + 1
    return terms


def test_brute_matches_product_enumeration():
    # [2, r + 1] starts above some rho(i) + 1 (rho(1) <= 1), leaving that
    # vertex no color
    cases = 0
    for n in range(5):
        for r in range(4):
            for p in enumerate_paths(n, r):
                for w in (Window(1, r), Window(-1, r), Window(1 - n, 0), Window(2, r + 1)):
                    assert chromatic_brute(p, w).terms == _colorings_by_product(p, w), (p.literal, w)
                    cases += 1
    assert cases == 4 * 450


def _assert_canonical(poly, w):
    # what the unchecked constructor trusts: the checked one changes nothing
    assert poly.window == w
    assert TPolynomial(w, poly.terms).terms == poly.terms
    for e, tc in poly.terms.items():
        assert tc and 0 not in tc.values()
        assert e.supported_in(w)


def test_engine_polynomials_are_canonical():
    for n in range(5):
        for r in range(4):
            for p in enumerate_paths(n, r):
                for w in (Window(1, r), Window(-1, r), Window(1 - n, 0)):
                    _assert_canonical(chromatic_brute(p, w), w)
                    poly, exp = chromatic_via_slides(p, w)
                    _assert_canonical(poly, w)
                    for a in exp:
                        _assert_canonical(slide_polynomial(a, w), w)


def _assert_mismatch_reported(capsys):
    rep = compare_chromatic(THREE, Window(1, 3))
    assert rep.equal is False
    diff = rep.brute - rep.via_slides
    assert diff.terms
    assert rep.mismatches == sorted(diff.terms.items(), key=lambda it: (it[0].lo, it[0].entries))
    code = main(["--json", "chromatic", THREE.literal, "--mode", "both"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "mismatch"
    assert doc["payload"]["equal"] is False and "mismatches" in doc["payload"]
    # the sweep decides on the packed routes and must see the fault too
    code = main(["--json", "sweep", "theorem", "3", "3", "--threads", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "mismatch"
    assert THREE.literal in doc["payload"]["failures"]


def test_mismatch_is_reported(monkeypatch, capsys):
    # the slide expansion with the coefficient of its least index doubled
    # breaks the theorem
    true_dp = chromatic._packed_dp

    def doubled(graph, rho, lo):
        dp = true_dp(graph, rho, lo)
        if not dp:  # a path whose rho reaches below lo, met in the sweep
            return dp
        least = min(dp)
        return {**dp, least: 2 * dp[least]}

    monkeypatch.setattr(chromatic, "_packed_dp", doubled)
    _assert_mismatch_reported(capsys)


def test_duplicated_slide_member_is_reported(monkeypatch, capsys):
    # one member of one slide set, the first nonempty one the slide sum
    # reads, listed twice: the packed sum adds its coefficient once more,
    # and packed equality must see it
    true_set = chromatic.packed_slides
    faulty = []

    def duplicated(x, digits, bits):
        members = true_set(x, digits, bits)
        if members and faulty in ([], [(x, digits, bits)]):
            faulty[:] = [(x, digits, bits)]
            return members + members[:1]
        return members

    monkeypatch.setattr(chromatic, "packed_slides", duplicated)
    _assert_mismatch_reported(capsys)
    assert len(faulty) == 1


def test_theorem_equality_small_sweep():
    for n in range(0, 4):
        for r in range(0, 4):
            for p in enumerate_paths(n, r):
                rep = compare_chromatic(p, Window(1, r))
                assert rep.ok, p.literal


def test_sweep_verdicts_match_the_reports():
    # sweeps decide on the packed dicts, reports on the converted polynomials
    for n in range(0, 5):
        for r in range(0, 4):
            for p in enumerate_paths(n, r):
                rep = compare_chromatic(p, Window(1, r))
                assert chromatic_verdict(p, Window(1, r)) == (rep.equal, rep.nonnegative)
                assert _sweep_one(("theorem", p, None))["ok"] is rep.ok, p.literal
                for m in (0, 1, 2):
                    ok = _sweep_one(("backstable", p, m))["ok"]
                    assert ok is verify_backstable(p, m).equal, (p.literal, m)


def test_sweep_theorem_builds_no_polynomial(monkeypatch, capsys):
    # one coloring count and one DP per path, no brute force, and nothing
    # converted
    calls = {"_count": 0, "_brute": 0, "_packed_dp": 0, "_polynomial": 0, "_terms": 0}
    for name in calls:
        def counted(*args, _real=getattr(chromatic, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(chromatic, name, counted)
    code = main(["--json", "sweep", "theorem", "4", "3", "--threads", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["payload"]["failures"] == []
    paths = doc["payload"]["paths"]
    assert calls == {"_count": paths, "_brute": 0, "_packed_dp": paths, "_polynomial": 0, "_terms": 0}


def test_orientation_partition_identity():
    # brute force equals the sum over acyclic orientations of the
    # ascent-weighted partition generating functions
    for n in range(1, 4):
        for r in range(0, 3):
            w = Window(1, r)
            for p in enumerate_paths(n, r):
                g = dyck_graph(p)
                rho = restriction_map(p)
                total = TPolynomial.zero(w)
                for o in acyclic_orientations(g):
                    P = poset_of_orientation(g, o, rho)
                    gf = partition_generating_function(P, w)
                    # an ascent arc a -> b, a < b, forces a descent on every coloring
                    total = total + gf.scaled({sum(a < b for a, b in o): 1})
                assert chromatic_brute(p, w) == total, p.literal


def test_backstable_windows():
    for m in (1, 2):
        for n in range(0, 4):
            for r in range(0, 3):
                for p in enumerate_paths(n, r):
                    assert verify_backstable(p, m).equal, (p.literal, m)


def test_fundamental_expansion_three():
    expected = {
        (1, 1, 1): {0: 1, 1: 2, 2: 1},
        (1, 2): {1: 1},
        (2, 1): {1: 1},
    }
    exp = fundamental_expansion(THREE)
    assert exp == expected
    # every call hands out fresh coefficients
    exp[(1, 1, 1)][0] += 5
    del exp[(1, 2)]
    assert fundamental_expansion(THREE) == expected


def test_fundamental_expansion_weights():
    # t-coefficients over all alpha sum to n! (one term per permutation)
    for p in enumerate_paths(3, 2):
        exp = fundamental_expansion(p)
        assert sum(c for tc in exp.values() for c in tc.values()) == 6


def test_brute_force_on_nonpositive_windows_depends_on_the_graph_alone():
    # rho >= 0 caps no color on [1 - m, 0]; verify_fundamental_expansion
    # keeps one verdict per graph and m on the strength of this
    seen = {}
    for n in range(1, 5):
        for r in range(0, 4):
            for p in enumerate_paths(n, r):
                g = dyck_graph(p)
                for m in range(1, n + 1):
                    poly = chromatic_brute(p, Window(1 - m, 0))
                    assert seen.setdefault((g, m), poly) == poly, (p.literal, m)
    # every graph on 1..4 vertices, each with m = 1..n
    assert len(seen) == 1 * 1 + 2 * 2 + 5 * 3 + 14 * 4


def test_verify_fundamental_truncations(cold_graph_memos):
    for n in range(1, 4):
        for r in range(0, 3):
            for p in enumerate_paths(n, r):
                assert verify_fundamental_expansion(p, n), p.literal


def test_expansion_keys_are_descent_compositions():
    # every slide index that appears has weight n and support above -n
    p = PartialDyckPath.parse("ENEEENENEENNEENEE@6,5")
    for a in slide_expansion(p):
        assert a.weight() == 6
        assert a.lo >= 1 - 6


def test_slot_holds_n_factorial_in_both_routes():
    # the edgeless graph with rho = 0 has every coloring of [1 - n, 0]
    # proper and none with a descent, so x_(1-n)..x_0 counts all n! bijections:
    # the largest coefficient a slot must hold, compared packed
    for n in range(1, 8):
        p = PartialDyckPath.parse("NE" * n + f"@{n},0")
        graph, zeros, w = dyck_graph(p), restriction_map(p), Window(1 - n, 0)
        assert not graph.edges and zeros == (0,) * n
        ones = sum(1 << digit_bits(n) * k for k in range(n))
        brute = chromatic._brute(graph, zeros, w)
        assert brute[ones] == math.factorial(n) < 1 << chromatic._t_slot(n)
        assert chromatic._count(graph, zeros, w) == brute
        assert chromatic._via_slides(chromatic._packed_dp(graph, zeros, w.lo), w, n) == brute
        rep = compare_chromatic(p, w)
        assert rep.equal and rep.brute == rep.via_slides
        assert rep.brute.terms[wc([1] * n, 1 - n)] == {0: math.factorial(n)}
        assert verify_fundamental_expansion(p, n)


def test_empty_path_window_and_m():
    # n = 0 is the one empty coloring; the empty window has no coloring
    # of a vertex; m = 0 leaves verify_backstable the theorem's window
    empty = PartialDyckPath("EE", 0, 2)
    for w in (Window(1, 2), Window(-1, 2), Window(1, 0)):
        rep = compare_chromatic(empty, w)
        assert rep.ok and rep.brute.terms == rep.via_slides.terms == {WeakComposition(): {0: 1}}
    for m in (0, 1, 2):
        assert verify_fundamental_expansion(empty, m)
        assert verify_backstable(empty, m).ok
    for n in range(1, 4):
        for r in range(3):
            for p in enumerate_paths(n, r):
                rep = compare_chromatic(p, Window(1, 0))
                assert rep.ok and rep.brute.is_zero() and rep.via_slides.is_zero(), p.literal
                assert verify_fundamental_expansion(p, 0), p.literal
                rep = verify_backstable(p, 0)
                assert rep.window == Window(1, r) and rep.ok, p.literal
                assert rep.brute == compare_chromatic(p, Window(1, r)).brute, p.literal
