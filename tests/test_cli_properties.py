"""Property test of the CLI's exit codes: every argv drawn from the
parser's grammar, malformed path literals and polynomial files included,
ends in exit code 0, 1 or 2 or in argparse's SystemExit(2), and never in
any other exception."""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from slidechrom import enumerate_paths
from slidechrom.cli import main

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

LITERALS = [p.literal for n in range(4) for r in range(4) for p in enumerate_paths(n, r)]
MALFORMED = [
    "EEE@3,0",  # step-count mismatch
    "ENNE@2,0",  # dips below the diagonal
    "ENEENENEE@3",
    "XNEENENEE@3,3",
    "ENEENENEE@٣,3",  # ARABIC-INDIC DIGIT THREE
    "ENEENENEE@03,3",  # leading zero, still read
    "",
    "@",
    "-x",  # read as an option
]
COMMANDS = ("graph", "chromatic", "slides", "rdes", "backstable", "qsym", "keys", "sweep", "paths")
SIZES = st.integers(-1, 3)
SMALL = st.integers(-3, 4)

X1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": 0, "coef": "1"}]}
X1X2 = {
    "exp": {"lo": 1, "entries": [1, 1]},
    "t": [{"deg": 0, "coef": 2}, {"deg": 1, "coef": "-1"}],
}
POLYNOMIAL_FILES = {
    "x1.json": json.dumps({"window": [1, 3], "terms": [X1]}),
    "x1_low.json": json.dumps({"window": [-3, 3], "terms": [X1]}),
    "x1x2.json": json.dumps({"window": [0, 4], "terms": [X1X2]}),
    "coef_underscore.json": json.dumps(
        {"window": [1, 3], "terms": [{**X1, "t": [{"deg": 0, "coef": "1_0"}]}]}
    ),
    "coef_arabic.json": json.dumps(
        {"window": [1, 3], "terms": [{**X1, "t": [{"deg": 0, "coef": "٧"}]}]}
    ),
    "terms_not_a_list.json": json.dumps({"window": [1, 1], "terms": 5}),
    "not_json.json": "{",
    "empty.json": "",
}


@pytest.fixture(scope="module")
def poly_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("polys")
    for name, text in POLYNOMIAL_FILES.items():
        (d / name).write_text(text)
    return [str(d / name) for name in POLYNOMIAL_FILES] + [str(d / "missing.json")]


@st.composite
def argvs(draw, files):
    """One argv of the parser's grammar; one in ten then loses its last
    token or gains an unknown option."""

    def flag():
        return draw(st.booleans())

    command = draw(st.sampled_from(COMMANDS))
    if command == "slides":
        argv = [command, draw(st.sampled_from(files))]
    elif command == "sweep":
        mode = draw(st.sampled_from(("theorem", "backstable", "corollary", "keys")))
        argv = [command, mode, str(draw(SIZES)), str(draw(SIZES))]
    elif command == "paths":
        argv = [command, str(draw(SIZES)), str(draw(SIZES))]
    else:
        argv = [command, draw(st.sampled_from(LITERALS + MALFORMED))]
    if command == "chromatic" and flag():
        argv += ["--mode", draw(st.sampled_from(("brute", "theorem", "both")))]
    if command in ("chromatic", "slides") and flag():
        argv += ["--window", str(draw(SMALL)), str(draw(SMALL))]
    if command in ("backstable", "qsym", "sweep") and flag():
        argv += ["--m", str(draw(SMALL))]
    if command == "sweep" and flag():
        argv += ["--threads", str(draw(st.sampled_from((-1, 0, 1))))]
    if command == "paths" and flag():
        argv += ["--list"]
    if command not in ("graph", "paths") and flag():
        argv += ["--force"]
    if flag():
        argv = ["--json", *argv]
    off_grammar = draw(st.integers(0, 19))
    if off_grammar == 0:
        argv = argv[:-1]
    elif off_grammar == 1:
        argv = [*argv, "--no-such-option"]
    return argv


@PROPERTY
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(poly_files, data):
    argv = data.draw(argvs(poly_files), label="argv")
    out = io.StringIO()
    # --threads 0 and the default mean one worker per core; with one core
    # no example starts a process pool (test_cli.py covers the pool)
    with (
        mock.patch("os.cpu_count", return_value=1),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error
            return
    assert code in (0, 1, 2), argv
    if argv[0] == "--json":
        doc = json.loads(out.getvalue())
        assert {"ok": 0, "mismatch": 1, "error": 2}[doc["status"]] == code, argv
