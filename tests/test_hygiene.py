"""Source hygiene of the package, checked with the standard library's ast
module: no module of the package, its tests or its demos imports a name it
never uses, every name in __all__ resolves and has a use outside the
tests, and every definition is referenced somewhere in the repository and
used outside the tests; the models only tests run live in tests/oracles.py,
which reaches none of the engine they are checked against, and each of
them is imported by a test.  Importing the package and its CLI loads none of
concurrent.futures, multiprocessing and pickle, and a sweep's fan-out
on two workers loads neither of the first two; only that fan-out forks
or counts cores, and the CLI keeps no module-level state.  The benchmark's
tracer finds every name it wraps, only the slide-set memo runs the
slide walk, no peel reads that memo on a window's digits, only
compositions.digit_bits turns a weight into a digit width, and the
coloring count, with every helper it calls, and the Kohnert key model
reach none of the code they are checked against.  Every memo of the
package has a finite size, keys._KEY_CACHE being the one known
exception, and cold_graph_memos empties every per-shape and per-graph
memo."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import slidechrom

PACKAGE = Path(slidechrom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# bench/ stays out: its tracer imports slidechrom only for the side effects
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_all_names_resolve():
    # the package root is the only module with an __all__
    missing = [n for n in slidechrom.__all__ if not hasattr(slidechrom, n)]
    assert not missing, f"slidechrom.__all__ names missing attributes: {missing}"


def _definitions(tree):
    # top-level functions and classes, and the non-dunder methods of classes,
    # each with its qualified name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _references(tree):
    yield from _uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
            if node.asname:
                yield node.asname


def test_every_definition_is_referenced():
    # a definition's references to itself, such as a recursive call, do not count
    referenced = Counter()
    for top in ("src", "tests", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            referenced.update(_references(ast.parse(path.read_text(), filename=str(path))))
    unreferenced = sorted(
        f"{path.name}:{node.name}"
        for path in PACKAGE.glob("*.py")
        for _, node in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if referenced[node.name] == list(_references(node)).count(node.name)
    )
    assert not unreferenced, f"definitions nothing references: {unreferenced}"


def _trace_targets(tree):
    # bench/tracer.py wraps functions it finds by strings such as
    # "TPolynomial.scaled", so each part of a dotted-name string is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                yield from node.value.split(".")


def _uses_outside_tests():
    # an import is no use here, since the package root re-exports nearly
    # every public name, so __init__.py is left out; bench/tracer.py's
    # strings count
    used = Counter()
    for top in ("src", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(_uses(tree))
            if top == "bench":
                used.update(_trace_targets(tree))
    return used


def test_test_only_definitions_are_oracles():
    # a definition that only tests use is an oracle, and oracles live in
    # tests/oracles.py; a definition's uses of itself do not count
    used = _uses_outside_tests()
    test_only = sorted(
        name
        for path in PACKAGE.glob("*.py")
        for name, node in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if used[node.name] == list(_uses(node)).count(node.name)
    )
    assert not test_only, f"definitions only tests use: {test_only}"


def test_every_public_name_has_a_use_outside_the_tests():
    # a name in __all__ that only tests use would ship an oracle again
    used = _uses_outside_tests()
    defined = {
        node.name: node
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    test_only = sorted(
        name for name in slidechrom.__all__
        if used[name] == list(_uses(defined[name])).count(name)
    )
    assert not test_only, f"public names only tests use: {test_only}"


def test_every_oracle_is_imported_by_a_test():
    path = ROOT / "tests" / "oracles.py"
    oracles = {
        node.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
    }
    imported = set()
    for test in (ROOT / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(test.read_text(), filename=str(test))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                imported.update(alias.name for alias in node.names)
    assert oracles <= imported, f"oracles no test imports: {sorted(oracles - imported)}"


def test_oracles_stay_independent_of_the_engine():
    # tests/oracles.py holds the second models the engine is checked
    # against, so it may not reach the subset DP, the coloring count, the
    # slide-set memo or the peels
    path = ROOT / "tests" / "oracles.py"
    names = set(_references(ast.parse(path.read_text(), filename=str(path))))
    engine = {"_packed_dp", "_count", "packed_slides", "slide_set", "slide_terms", "peel", "expand", "_key_terms"}
    assert not names & engine, f"oracles.py uses engine names: {sorted(names & engine)}"


def test_poset_oracle_stays_independent_of_the_engine():
    # posets.py is the oracle the subset DP, the slide sets and the peel
    # are checked against, so it may not reach any of them
    path = PACKAGE / "posets.py"
    names = set(_references(ast.parse(path.read_text(), filename=str(path))))
    engine = {"slide_expansion", "slide_set", "peel", "combine"}
    assert not names & engine, f"posets.py uses engine names: {sorted(names & engine)}"


def test_slide_walk_feeds_only_the_slide_set_memo():
    # every layer reads slide sets from one memo, compositions.packed_slides;
    # any other use of the walk, an import included, would start a second
    users = sorted(
        f"{path.name}:{getattr(node, 'name', type(node).__name__)}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if "slide_walk" in set(_references(node))
    )
    assert users == ["compositions.py:packed_slides"], users


def test_one_width_rule_for_packed_exponents():
    # every layer takes its digit width from compositions.digit_bits; the
    # other bit lengths size n! (_t_slot) or count the digits of a packed
    # int (the peel's grade, slide_terms' index), so a width picked inline
    # anywhere else would let two layers disagree on one packed int
    users = sorted(
        f"{path.name}:{getattr(node, 'name', type(node).__name__)}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if "bit_length" in set(_uses(node))
    )
    assert users == [
        "chromatic.py:_t_slot",
        "compositions.py:digit_bits",
        "compositions.py:slide_terms",
        "tpoly.py:peel",
    ], users


def test_only_the_window_cuts_read_the_slide_set_memo_on_window_digits():
    # both slide peels read slide sets through compositions.slide_terms, on
    # each index's own digits; slide_set and chromatic._via_slides pass a
    # window's digits, since they must cut off indices past its top.  Any
    # other reader, an import included, could tie a peel to the window's width
    users = sorted(
        f"{path.name}:{getattr(node, 'name', type(node).__name__)}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if "packed_slides" in set(_references(node))
    )
    assert users == [
        "chromatic.py:ImportFrom",
        "chromatic.py:_via_slides",
        "compositions.py:slide_set",
        "compositions.py:slide_terms",
    ], users


def test_slide_dp_stays_independent_of_the_poset_oracle():
    # tests/test_slide_dp.py checks the subset DP in chromatic.py against
    # the permutation sum in posets.py, so chromatic.py may not import it
    path = PACKAGE / "chromatic.py"
    sources = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            sources.add((node.module or "").split(".")[-1])
            sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            sources.update(alias.name.split(".")[-1] for alias in node.names)
    assert "posets" not in sources, "chromatic.py imports from posets"


def test_coloring_count_stays_independent_of_its_oracles():
    # tests/test_coloring_count.py checks chromatic._count against the
    # brute force, and every verdict sets it against the DP's slide sum,
    # so neither the count nor any chromatic.py function it calls, its
    # per-graph table included, may reach either of them, the DP's
    # tables or the poset oracle
    def top_level(name):
        path = PACKAGE / name
        return ast.parse(path.read_text(), filename=str(path)).body

    functions = {node.name: node for node in top_level("chromatic.py") if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_count"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(set(_references(functions[name])) & set(functions))
    assert {"_count", "_count_steps"} <= reached, sorted(reached)
    banned = {"_brute", "_packed_dp", "_via_slides", "_dp_tables", "_moves", "packed_slides", "posets"}
    banned |= {node.name for node in top_level("posets.py") if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = sorted(
        f"{name}:{ref}" for name in reached for ref in set(_references(functions[name])) & banned
    )
    assert not used, f"chromatic._count reaches {used}"


def _memos(tree):
    # every functools.cache or functools.lru_cache in a module, as (name,
    # the call that sizes it, or the bare reference when none does)
    local = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = local.get(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        else:
            continue
        if name in ("cache", "lru_cache"):
            yield name, calls.get(id(node), node)


def _bounded(name, memo):
    # an lru_cache called with an int maxsize, by keyword or first argument
    if name != "lru_cache" or not isinstance(memo, ast.Call):
        return False
    sizes = [kw.value for kw in memo.keywords if kw.arg == "maxsize"] + memo.args[:1]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


# keys._KEY_CACHE, the key monomials, is a plain dict that lives as long
# as the process; scoping or bounding it is ROADMAP item 6
UNBOUNDED_STORES = ["keys.py:_KEY_CACHE"]


def test_every_cache_is_bounded_and_the_graph_memos_go_cold(request):
    # no memo in the package may grow without bound, and cold_graph_memos
    # empties every per-shape or per-graph memo of dyck and chromatic
    unbounded, stores = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        unbounded += [f"{path.name}:{ast.unparse(m)}" for name, m in _memos(tree) if not _bounded(name, m)]
        # a module-level dict, list or set is a store that nothing bounds
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(value, (ast.Dict, ast.List, ast.Set))
                or isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set")
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stores += [f"{path.name}:{ast.unparse(t)}" for t in targets]
    assert not unbounded, f"memos without a finite maxsize: {unbounded}"
    assert stores == UNBOUNDED_STORES, stores
    memos = {
        f"{module.__name__}.{name}": memo
        for module in vars(slidechrom).values() if isinstance(module, type(slidechrom))
        for name, memo in vars(module).items()
        if callable(getattr(memo, "cache_info", None)) and memo.__module__ == module.__name__
    }
    assert all(memo.cache_info().maxsize is not None for memo in memos.values())
    # fill every memo of both modules, then run the fixture
    p = slidechrom.PartialDyckPath.parse("ENEEENENEENNEENEE@6,5")
    assert slidechrom.verify_backstable(p, 2).ok and slidechrom.verify_fundamental_expansion(p, 2)
    # _moves is keyed by n alone and holds no graph, so it may stay warm
    graph_memos = {
        name: memo for name, memo in memos.items()
        if name.split(".")[1] in ("dyck", "chromatic") and name != "slidechrom.chromatic._moves"
    }
    assert len(graph_memos) == 5 and all(m.cache_info().currsize for m in graph_memos.values()), graph_memos
    request.getfixturevalue("cold_graph_memos")
    warm = sorted(name for name, memo in graph_memos.items() if memo.cache_info().currsize)
    assert not warm, f"cold_graph_memos leaves {warm} warm"


def test_kohnert_model_imports_nothing_from_the_package():
    # tests/kohnert.py is the key basis's second model; it stays a second
    # model only while it shares no code with the package
    path = ROOT / "tests" / "kohnert.py"
    imported = set(_imported_names(ast.parse(path.read_text(), filename=str(path))))
    assert not imported, f"kohnert.py imports {sorted(imported)}"


def test_import_leaves_the_process_pool_unloaded():
    # sweeps fan out by bare fork, and only a fan-out that forks imports
    # pickle, so no command's start-up pays for loading either
    code = (
        "import sys, slidechrom, slidechrom.cli\n"
        "print(sorted({'concurrent.futures', 'multiprocessing', 'pickle'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_fans_out_without_a_process_pool():
    # the fan-out forks bare workers; a small chunk and two cores make
    # sweep theorem 3 2 (47 paths) fork both even on a one-core host
    code = (
        "import io, os, sys, contextlib, slidechrom.cli as cli\n"
        "os.cpu_count = lambda: 2\n"
        "cli._CHUNK = 4\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--json', 'sweep', 'theorem', '3', '2', '--threads', '2'])\n"
        "print(code, sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"


def test_only_the_fan_out_forks_or_counts_cores():
    # cli._fan_out alone picks a sweep's worker count and its serial
    # loop, so no second one can grow beside it; a string such as
    # hasattr(os, "fork")'s counts as a use
    users = sorted(
        f"{path.name}:{getattr(node, 'name', type(node).__name__)}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if {"fork", "cpu_count"} & (set(_references(node)) | set(_trace_targets(node)))
    )
    assert users == ["cli.py:_fan_out"], users


def test_cli_keeps_no_module_level_state():
    # each sweep builds its own row cache and hands it to its workers; a
    # module-level cache would outlive the sweep, so every module-level
    # binding in cli.py is a constant
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))]
    state = [ast.unparse(node) for node in bound if not isinstance(node.value, ast.Constant)]
    assert bound and not state, state


def test_retired_cli_plumbing_stays_gone():
    # _refusal checks every argument once, and the fan-out sends results
    # and exceptions back as pickle; _check_m, marshal and the
    # module-level row cache were their second paths
    retired = {"_check_m", "marshal", "_SWEEP_CACHE"}
    names = set()
    for path in PACKAGE.glob("*.py"):
        names.update(_references(ast.parse(path.read_text(), filename=str(path))))
    assert not names & retired, sorted(names & retired)


def test_bench_tracer_resolves_every_target():
    # bench/tracer.py wraps package functions and reads keys._KEY_CACHE
    # and slide_polynomial.cache_info by name; one it cannot find fails
    # every item of a traced benchmark run
    code = "import tracer; print(tracer.install().unresolved)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
