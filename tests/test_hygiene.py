"""Source hygiene of the package, checked with the standard library's ast
module: no module of the package, its tests or its demos imports a name it
never uses, every name in __all__ resolves, and every definition is
referenced somewhere in the repository, and only the oracles are referenced
from tests alone.  Importing the package and its
CLI, or running a sweep on two workers, loads neither concurrent.futures
nor multiprocessing, the benchmark's
tracer finds every name it wraps, only the slide-set memo runs the
slide walk, no peel reads that memo on a window's digits, only
compositions.digit_bits turns a weight into a digit width, and the
coloring count and the Kohnert key model reach none of the code they
are checked against."""

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


# The reference models that tests compare the engine against.  Nothing in
# src, demos or bench uses them; every other definition that only tests
# use is dead code that its own test keeps alive.
ORACLES = (
    "Window.contains",
    "transpose",
    "demazure_operator",
    "acyclic_orientations",
    "poset_of_orientation",
    "poset_descents",
    "slide_polynomial_by_chains",
)


def _trace_targets(tree):
    # bench/tracer.py wraps functions it finds by strings such as
    # "TPolynomial.scaled", so each part of a dotted-name string is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                yield from node.value.split(".")


def test_test_only_definitions_are_oracles():
    # an import is no use here, since the package root re-exports nearly
    # every public name; a definition's uses of itself do not count either
    used = Counter()
    for top in ("src", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(_uses(tree))
            if top == "bench":
                used.update(_trace_targets(tree))
    test_only = sorted(
        name
        for path in PACKAGE.glob("*.py")
        for name, node in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if used[node.name] == list(_uses(node)).count(node.name)
    )
    assert test_only == sorted(ORACLES), f"definitions only tests use: {test_only}"


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
    # so the count may reach neither, nor the poset oracle
    def top_level(name):
        path = PACKAGE / name
        return ast.parse(path.read_text(), filename=str(path)).body

    count, = (node for node in top_level("chromatic.py") if getattr(node, "name", None) == "_count")
    banned = {"_brute", "_packed_dp", "_via_slides", "packed_slides", "posets"}
    banned |= {node.name for node in top_level("posets.py") if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = sorted(set(_references(count)) & banned)
    assert not used, f"chromatic._count uses {used}"


def test_kohnert_model_imports_nothing_from_the_package():
    # tests/kohnert.py is the key basis's second model; it stays a second
    # model only while it shares no code with the package
    path = ROOT / "tests" / "kohnert.py"
    imported = set(_imported_names(ast.parse(path.read_text(), filename=str(path))))
    assert not imported, f"kohnert.py imports {sorted(imported)}"


def test_import_leaves_the_process_pool_unloaded():
    # the package imports no process pool, so no command's start-up
    # pays for loading one
    code = "import sys, slidechrom, slidechrom.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_fans_out_without_a_process_pool():
    # sweep workers are bare forks; a small chunk and two cores make
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


def test_bench_tracer_resolves_every_target():
    # bench/tracer.py wraps package functions and reads keys._KEY_CACHE
    # and slide_polynomial.cache_info by name; one it cannot find fails
    # every item of a traced benchmark run
    code = "import tracer; print(tracer.install().unresolved)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
