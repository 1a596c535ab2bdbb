"""Property tests of the CLI's exit codes: every argv drawn from the
parser's grammar, malformed path literals and polynomial files included,
ends in exit code 0, 1 or 2 or in argparse's SystemExit(2), and every
polynomial document given to slides in exit code 0 or 2, a malformed one
always in status error and exit code 2; never in any other exception."""

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
    if command != "graph" and flag():
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
    # no example forks a sweep worker (test_cli.py covers the fan-out)
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


# a digit string past the interpreter's limit on int <-> str conversion
HUGE_DIGITS = "9" * 5000
WINDOW_ENDS = st.one_of(st.integers(-3, 4), st.integers(-(10**20), 10**20))
# weight <= 3 near the window [-3, 4], so every valid document peels fast
EXPONENTS = st.fixed_dictionaries(
    {"lo": st.integers(-3, 4), "entries": st.lists(st.integers(0, 1), max_size=3)}
)
VALID_COEFS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**200), 10**200),
    st.integers(-(10**40), 10**40).map(str),
)
T_LISTS = st.lists(
    st.fixed_dictionaries({"deg": st.integers(0, 4), "coef": VALID_COEFS}),
    unique_by=lambda x: x["deg"],
    min_size=1,
    max_size=3,
)
ODD_VALUES = [None, True, 1.5, "1", "x", [], {}, [1], [1.0, 3], [True, 3], "1e3", " 1", -1, 2**70]
# the odd values that are valid in a slot: an empty terms or t list, an
# int lo (an exponent with no nonzero entry fits any window) and an
# entries list of ints
VALID_IN = {"terms": [[]], "t": [[]], "lo": [-1, 2**70], "entries": [[], [1]]}


def odd(slot):
    """The odd values that are invalid in the given slot."""
    return st.sampled_from([v for v in ODD_VALUES if v not in VALID_IN.get(slot, [])])


@st.composite
def polynomial_documents(draw):
    """The flaw drawn and the text of a polynomial document: flaw 0 may
    load or not, and every other flaw puts in something no valid document
    has: a wrong type, a repeated exponent or t-degree, a negative
    t-degree, a huge coefficient, an odd window or broken JSON."""
    doc = {
        "window": [draw(WINDOW_ENDS), draw(WINDOW_ENDS)],
        "terms": draw(
            st.lists(
                st.fixed_dictionaries({"exp": EXPONENTS, "t": T_LISTS}),
                # one key per monomial, however many zeros pad it
                unique_by=lambda x: tuple(x["exp"]["lo"] + i for i, e in enumerate(x["exp"]["entries"]) if e),
                min_size=1,
                max_size=4,
            )
        ),
    }
    if draw(st.booleans()):
        # fit the window to the terms, so that most of these load
        ends = [(e["exp"]["lo"], e["exp"]["lo"] + len(e["exp"]["entries"]) - 1) for e in doc["terms"]]
        doc["window"] = [min((a for a, _ in ends), default=1), max((b for _, b in ends), default=0)]
    terms = doc["terms"]
    # flaw 0, a document with no deliberate flaw, is drawn about half the time
    flaw = draw(st.one_of(st.just(0), st.integers(1, 11)))
    if flaw == 1:
        key = draw(st.sampled_from(["window", "terms"]))
        doc[key] = draw(odd(key))
    elif flaw == 2 and terms:
        i, key = draw(st.integers(0, len(terms) - 1)), draw(st.sampled_from([None, "exp", "t"]))
        if key is None:
            terms[i] = draw(odd(key))
        else:
            terms[i][key] = draw(odd(key))
    elif flaw == 3 and terms:
        exp, key = draw(st.sampled_from(terms))["exp"], draw(st.sampled_from(["lo", "entries"]))
        exp[key] = draw(odd(key))
    elif flaw == 4 and terms:
        # the same exponent again, maybe padded with zeros
        exp = draw(st.sampled_from(terms))["exp"]
        pad = draw(st.integers(0, 2))
        again = {"lo": exp["lo"] - pad, "entries": [0] * pad + exp["entries"]}
        terms.append({"exp": again, "t": [{"deg": 0, "coef": 1}]})
    elif flaw == 5 and terms:
        t = draw(st.sampled_from(terms))["t"]
        t.append({"deg": t[0]["deg"], "coef": draw(VALID_COEFS)})
    elif flaw == 6 and terms:
        # "HUGE" becomes an int literal past the conversion limit below,
        # where json.loads fails
        t = draw(st.sampled_from(terms))["t"]
        t.append({"deg": 5, "coef": draw(st.sampled_from([HUGE_DIGITS, "-" + HUGE_DIGITS, "HUGE"]))})
    elif flaw == 7 and terms:
        draw(st.sampled_from(terms))["t"].append(draw(odd(None)))
    elif flaw == 8:
        doc = draw(st.sampled_from([[], "polynomial", 3, None, "HUGE"]))
    elif flaw == 11 and terms:
        # t^-1 is a Laurent term, not in Z[t]
        draw(st.sampled_from(terms))["t"].append({"deg": -1, "coef": draw(VALID_COEFS)})
    text = json.dumps(doc).replace('"HUGE"', HUGE_DIGITS)
    if flaw == 9:
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif flaw == 10:
        text = text.replace("[", "{", 1)
    return flaw, text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document=polynomial_documents(), window=st.one_of(st.none(), st.tuples(SMALL, SMALL)))
def test_every_polynomial_document_ends_in_ok_or_error(document, window):
    flaw, text = document
    argv = ["--json", "slides", "-"]
    if window is not None:
        argv += ["--window", str(window[0]), str(window[1])]
    out = io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main(argv)
    doc = json.loads(out.getvalue())
    allowed = (("ok", 0), ("error", 2)) if flaw == 0 else (("error", 2),)
    assert (doc["status"], code) in allowed, (flaw, text[:200], window)
