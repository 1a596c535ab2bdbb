import hashlib
import itertools
import json
import math
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time

import pytest

from slidechrom import (
    NegativeRecord, WeakComposition, chromatic, cli, keys, search_negative_records,
)
from slidechrom.cli import main
from slidechrom.dyck import scan_paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


# ----------------------------------------------------------------- graph


def test_graph_three(capsys):
    code, doc = run_json(capsys, "graph", "ENEENENEE@3,3")
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["edges"] == [[1, 2], [2, 3]]
    assert doc["payload"]["rho"] == [1, 3, 3]


def test_graph_six(capsys):
    code, doc = run_json(capsys, "graph", "ENEEENENEENNEENEE@6,5")
    assert code == 0
    assert doc["payload"]["rho"] == [1, 4, 5, 5, 5, 5]
    assert doc["payload"]["edges"] == [
        [1, 2], [1, 3], [2, 3], [3, 4], [3, 5], [4, 5], [5, 6],
    ]


def test_graph_malformed(capsys):
    code, out = run(capsys, "graph", "EEE@3,0")
    assert code == 2
    assert "error" in out


def test_graph_rejects_non_ascii_digits(capsys):
    # \u0663 is ARABIC-INDIC DIGIT THREE, which int() would read as 3
    code, doc = run_json(capsys, "graph", "ENEENENEE@\u0663,3")
    assert code == 2 and doc["status"] == "error"
    assert "bad path literal" in doc["payload"]["error"]


def test_graph_human_contains_dot(capsys):
    code, out = run(capsys, "graph", "ENEENENEE@3,3")
    assert code == 0
    assert "graph G {" in out and "1 -- 2;" in out


# -------------------------------------------------------------- chromatic


def test_chromatic_both_ok(capsys):
    code, doc = run_json(capsys, "chromatic", "ENEENENEE@3,3")
    assert code == 0
    pl = doc["payload"]
    assert pl["equal"] is True and pl["nonnegative"] is True
    assert len(pl["expansion"]) == 5


def test_chromatic_brute_r0(capsys):
    code, doc = run_json(capsys, "chromatic", "NE@1,0", "--mode", "brute")
    assert code == 0
    assert doc["payload"]["polynomial"]["terms"] == []


def test_chromatic_six_vertices_both(capsys):
    code, doc = run_json(capsys, "chromatic", "ENEEENENEENNEENEE@6,5")
    assert code == 0
    assert doc["payload"]["equal"] is True
    assert doc["payload"]["nonnegative"] is True


def test_chromatic_window_flag(capsys):
    code, doc = run_json(
        capsys, "chromatic", "ENEENENEE@3,3", "--window", "0", "3"
    )
    assert code == 0 and doc["payload"]["window"] == [0, 3]
    assert doc["payload"]["equal"] is True


# ------------------------------------------------------------------ slides


def test_slides_round_trip(tmp_path, capsys):
    code, doc = run_json(
        capsys, "chromatic", "ENEENENEE@3,3", "--mode", "theorem"
    )
    poly = doc["payload"]["polynomial"]
    fp = tmp_path / "poly.json"
    fp.write_text(json.dumps(poly))
    code, doc = run_json(capsys, "slides", str(fp))
    assert code == 0
    got = {
        tuple(item["index"]["entries"]): item["t"]
        for item in doc["payload"]["expansion"]
    }
    assert got == {
        (1, 1, 1): [{"coef": "1", "deg": 0}, {"coef": "1", "deg": 1}],
        (2, 0, 1): [{"coef": "1", "deg": 1}],
    }


def test_slides_bad_file(capsys):
    code, out = run(capsys, "slides", "/nonexistent/poly.json")
    assert code == 2


def _slides_error(tmp_path, capsys, doc):
    fp = tmp_path / "poly.json"
    fp.write_text(json.dumps(doc))
    code, out = run_json(capsys, "slides", str(fp))
    assert code == 2 and out["status"] == "error"
    return out["payload"]["error"]


def test_slides_duplicate_exponent_is_error(tmp_path, capsys):
    x1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": 0, "coef": "1"}]}
    msg = _slides_error(tmp_path, capsys, {"window": [1, 1], "terms": [x1, x1]})
    assert "duplicate exponent" in msg


def test_slides_malformed_terms_is_error(tmp_path, capsys):
    msg = _slides_error(tmp_path, capsys, {"window": [1, 1], "terms": 5})
    assert "terms" in msg


def test_slides_negative_t_degree_is_error(tmp_path, capsys):
    # t^-1 is a Laurent term, not in Z[t]
    x1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": -1, "coef": "1"}]}
    msg = _slides_error(tmp_path, capsys, {"window": [1, 1], "terms": [x1]})
    assert msg == "negative t-degree -1 at exponent 1"


def test_slides_non_decimal_coefficient_is_error(tmp_path, capsys):
    # int() would read "1_0" as 10
    x1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": 0, "coef": "1_0"}]}
    msg = _slides_error(tmp_path, capsys, {"window": [1, 1], "terms": [x1]})
    assert "t entry" in msg


# ---------------------------------------------------------------- others


def test_rdes_row_count(capsys):
    code, doc = run_json(capsys, "rdes", "ENEENENEE@3,3")
    assert code == 0
    assert len(doc["payload"]["rows"]) == 6
    for row in doc["payload"]["rows"]:
        assert sum(
            v for v in row["rdes"]["entries"]
        ) == 3


@pytest.mark.parametrize("command", ["chromatic", "rdes", "keys", "backstable", "qsym"])
def test_refuses_large_n(capsys, command):
    code, doc = run_json(capsys, command, "NENENENENENENE@7,0")
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"] == {"error": "refusing n=7 > 6 without --force"}


def test_force_allows_large_n(capsys):
    # r = 0 leaves no positive color: the polynomial on [1, 0] and the
    # key expansion are zero, while the slide expansion is not
    code, doc = run_json(capsys, "chromatic", "NENENENENENENE@7,0", "--force")
    assert code == 0 and doc["payload"]["equal"] is True
    assert doc["payload"]["polynomial"]["terms"] == [] and doc["payload"]["expansion"]
    code, doc = run_json(capsys, "keys", "NENENENENENENE@7,0", "--force")
    assert code == 0 and doc["payload"]["expansion"] == []
    # the nonpositive columns carry the colors
    code, doc = run_json(
        capsys, "backstable", "NENENENENENENE@7,0", "--m", "2", "--force"
    )
    assert code == 0 and doc["payload"]["equal"] is True
    assert doc["payload"]["window"] == [-1, 0] and doc["payload"]["polynomial"]["terms"]
    code, doc = run_json(capsys, "qsym", "NENENENENENENE@7,0", "--m", "2", "--force")
    assert code == 0 and doc["payload"]["verified"] is True


@pytest.mark.parametrize("command", ["chromatic", "keys"])
def test_force_leaves_six_vertices_unchanged(capsys, command):
    plain = run(capsys, "--json", command, "EENEENENEENEENENE@6,5")
    forced = run(capsys, "--json", command, "EENEENENEENEENENE@6,5", "--force")
    assert plain == forced and plain[0] == 0


@pytest.mark.parametrize(
    "argv, r",
    [
        # up to 30^6 colorings to walk
        (["chromatic", "E" * 30 + "NE" * 6 + "@6,30", "--mode", "brute"], 30),
        (["keys", "EEEEEEENE@1,7"], 7),
        (["backstable", "EEEEEEENE@1,7", "--m", "1"], 7),
        # about 4.6 million paths
        (["sweep", "keys", "2", "300", "--threads", "1"], 300),
        (["sweep", "theorem", "1", "7", "--threads", "1"], 7),
    ],
)
def test_refuses_large_r(capsys, argv, r):
    # refused before any work, however cheap the run would be
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"] == {"error": f"refusing r={r} > 6 without --force"}


def test_force_allows_large_r(capsys):
    code, doc = run_json(capsys, "sweep", "theorem", "1", "7", "--threads", "1", "--force")
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["paths"] == 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8
    code, doc = run_json(capsys, "chromatic", "EEEEEEENE@1,7", "--force")
    assert code == 0 and doc["payload"]["equal"] is True


@pytest.mark.parametrize(
    "argv, m",
    [
        (["qsym", "ENE@1,1"], 3000),
        (["backstable", "ENE@1,1"], 3000),
        (["sweep", "corollary", "1", "1", "--threads", "1"], 3000),
        (["qsym", "ENE@1,1"], 7),
    ],
)
def test_refuses_wide_m(capsys, argv, m):
    # every extra column widens the brute force and the slide sets;
    # refused before any work
    code, doc = run_json(capsys, *argv, "--m", str(m))
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"] == {"error": f"refusing --m {m} > 6 without --force"}


@pytest.mark.parametrize("window", [("-100000", "3"), ("-6", "3"), ("1", "10")])
def test_chromatic_refuses_wide_window(capsys, window):
    # more than r + 6 = 9 indices; the brute force alone would never end
    code, doc = run_json(capsys, "chromatic", "ENEENENEE@3,3", "--window", *window)
    assert code == 2 and doc["status"] == "error"
    assert "> r + 6 indices without --force" in doc["payload"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["qsym", "ENE@1,1", "--m", "6"],
        ["backstable", "ENE@1,1", "--m", "6"],
        ["sweep", "corollary", "1", "1", "--m", "6", "--threads", "1"],
        ["chromatic", "ENEENENEE@3,3", "--window", "-5", "3"],
        ["chromatic", "ENEENENEE@3,3"],
        ["backstable", "ENEENENEE@3,3"],
        ["sweep", "corollary", "3", "1", "--threads", "1"],
    ],
)
def test_accepts_m_and_window_at_the_bound(capsys, argv):
    # --m 6, r + 6 window indices and every default window run
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ["qsym", "ENE@1,1", "--m", "7"],
        ["backstable", "ENE@1,1", "--m", "7"],
        ["sweep", "corollary", "1", "1", "--m", "7", "--threads", "1"],
        ["chromatic", "ENE@1,1", "--window", "-7", "1"],
    ],
)
def test_force_allows_wide_m_and_window(capsys, argv):
    code, doc = run_json(capsys, *argv, "--force")
    assert code == 0 and doc["status"] == "ok"


def test_force_allows_a_window_deeper_than_the_recursion_limit(capsys):
    # the slide sets of [-1499, 1] are walked with a depth bounded by the weight
    argv = ("qsym", "ENE@1,1", "--m", "1500")
    assert run_json(capsys, *argv)[0] == 2
    code, doc = run_json(capsys, *argv, "--force")
    assert code == 0 and doc["payload"]["verified"] is True


def _x1_file(tmp_path, lo):
    fp = tmp_path / "x1.json"
    x1 = {"exp": {"lo": 1, "entries": [1]}, "t": [{"deg": 0, "coef": "1"}]}
    fp.write_text(json.dumps({"window": [lo, 3], "terms": [x1]}))
    return str(fp)


@pytest.mark.parametrize(
    "lo, window",
    [(-1500, ()), (1, ("--window", "-1500", "3")), (-6, ()), (1, ("--window", "-6", "3"))],
)
def test_slides_refuses_wide_window(tmp_path, capsys, lo, window):
    # r is taken to be the window's hi, so r + 6 indices reach down to -5
    fp = _x1_file(tmp_path, lo)
    code, doc = run_json(capsys, "slides", fp, *window)
    assert code == 2 and doc["status"] == "error"
    assert "> r + 6 indices without --force" in doc["payload"]["error"]
    code, doc = run_json(capsys, "slides", fp, *window, "--force")
    assert code == 0 and doc["status"] == "ok"
    # x_1 = S(1 at 1) - S(1 at 0) on any window reaching below 1
    assert [(e["index"]["lo"], e["t"][0]["coef"]) for e in doc["payload"]["expansion"]] == [
        (0, "-1"),
        (1, "1"),
    ]


def test_slides_refuses_a_window_past_six(tmp_path, capsys):
    # r is the window's hi; [1, 10^20] would build slide sets 10^20 digits wide
    fp = _x1_file(tmp_path, 1)
    for hi in ("7", str(10**20)):
        code, doc = run_json(capsys, "slides", fp, "--window", "1", hi)
        assert code == 2 and doc["payload"] == {"error": f"refusing r={hi} > 6 without --force"}
    code, doc = run_json(capsys, "slides", fp, "--window", "1", "7", "--force")
    assert code == 0 and doc["payload"]["window"] == [1, 7]


def test_slides_accepts_window_at_the_bound(tmp_path, capsys):
    code, doc = run_json(capsys, "slides", _x1_file(tmp_path, -5))
    assert code == 0 and doc["payload"]["window"] == [-5, 3]


def test_slides_on_a_window_of_ten_billion_indices_fits_one_gib(tmp_path):
    # the slide peel reads each slide set on its index's own digits and
    # grades only the digits its terms reach, so x1 on [1, 10^10] costs no
    # more than on [1, 3]; a grade over the window's width once needed two
    # 1.25 GB ints and ended in "out of memory"
    def one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["--json", "slides", _x1_file(tmp_path, 1), "--window", "1", "10000000000", "--force"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "slidechrom", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=one_gib,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_out_of_memory_is_an_error_not_a_mismatch(tmp_path, capsys, monkeypatch):
    # exit 1 means a mismatch; a --force run too large for memory is exit 2
    def exhausted(p, w):
        raise MemoryError

    monkeypatch.setattr(cli, "expand_in_slides", exhausted)
    fp = _x1_file(tmp_path, 1)
    code, doc = run_json(capsys, "slides", fp, "--window", "1", "100000000", "--force")
    assert code == 2
    assert doc == {"status": "error", "command": "slides", "payload": {"error": "out of memory"}}
    code, out = run(capsys, "slides", fp)
    assert code == 2 and out == "error: out of memory\nstatus: error\n"


def test_backstable(capsys):
    code, doc = run_json(capsys, "backstable", "ENEENENEE@3,3", "--m", "1")
    assert code == 0 and doc["payload"]["equal"] is True
    assert doc["payload"]["window"] == [0, 3]


@pytest.mark.parametrize("m", ["0", "-1", "-9"])
def test_backstable_rejects_m_below_one(capsys, m):
    code, doc = run_json(capsys, "backstable", "ENEENENEE@3,3", "--m", m)
    assert code == 2 and doc["status"] == "error"
    assert "--m must be >= 1" in doc["payload"]["error"]


def test_qsym_verify(capsys):
    code, doc = run_json(capsys, "qsym", "ENEENENEE@3,3", "--m", "3")
    assert code == 0 and doc["payload"]["verified"] is True
    alphas = [tuple(item["alpha"]) for item in doc["payload"]["expansion"]]
    assert (1, 1, 1) in alphas


def test_qsym_rejects_m_below_one(capsys):
    code, doc = run_json(capsys, "qsym", "ENEENENEE@3,3", "--m", "0")
    assert code == 2 and doc["status"] == "error"
    assert "verified" not in doc["payload"]


def test_keys_positive_path(capsys):
    code, doc = run_json(capsys, "keys", "ENEENENEE@3,3")
    assert code == 0
    assert doc["payload"]["key_positive"] is True
    assert doc["payload"]["negatives"] == []


def test_keys_negative_path_still_exits_zero(capsys):
    # a pinned counterexample: negatives are findings, not failures
    code, doc = run_json(capsys, "keys", "EENEENENEENEENENE@6,5")
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["key_positive"] is False
    negs = {
        tuple(item["index"]["entries"]) for item in doc["payload"]["negatives"]
    }
    assert negs == {(1, 3, 0, 2), (1, 4, 0, 1)}


def test_paths_count(capsys):
    code, doc = run_json(capsys, "paths", "3", "3")
    assert code == 0 and doc["payload"]["count"] == 48


def test_paths_list(capsys):
    code, doc = run_json(capsys, "paths", "2", "1", "--list")
    assert code == 0
    lits = doc["payload"]["paths"]
    assert len(lits) == doc["payload"]["count"]
    assert all(lit.endswith("@2,1") for lit in lits)


def test_paths_list_longer_than_the_recursion_limit(capsys):
    code, doc = run_json(capsys, "paths", "1", "1500", "--list", "--force")
    lits = doc["payload"]["paths"]
    assert code == 0 and len(lits) == doc["payload"]["count"] == 1501
    assert lits[0] == "E" * 1500 + "NE@1,1500"
    assert lits[-1] == "N" + "E" * 1501 + "@1,1500"


@pytest.mark.parametrize("n, r", [("7", "1"), ("1", "7")])
def test_paths_list_needs_force_past_six(capsys, n, r):
    # a list has count entries, which grow past an interactive run as
    # n or r passes six; the count itself is a closed form, never refused
    code, doc = run_json(capsys, "paths", n, r, "--list")
    assert code == 2 and doc["status"] == "error"
    assert "without --force" in doc["payload"]["error"]
    code, doc = run_json(capsys, "paths", n, r, "--list", "--force")
    assert code == 0 and len(doc["payload"]["paths"]) == doc["payload"]["count"]
    code, doc = run_json(capsys, "paths", "30", "30")
    assert code == 0 and doc["payload"]["count"] == 342083970650885005051344


def test_paths_refuses_a_count_it_cannot_print(capsys, monkeypatch):
    # |P(10^7, 0)| has about six million digits, past the interpreter's
    # default limit of 4300 on int to str, and takes minutes to build, so
    # it is refused before the count is built
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    for extra in ((), ("--list", "--force")):
        start = time.monotonic()
        code, out = run(capsys, "paths", "10000000", "0", *extra)
        assert time.monotonic() - start < 1
        assert code == 2 and out == (
            "error: |P(10000000,0)| can have up to 6020601 digits, more than the "
            "4300 that sys.get_int_max_str_digits() allows to print\nstatus: error\n"
        )
    # the Catalan number C_7000 has 4209 digits
    code, doc = run_json(capsys, "paths", "7000", "0")
    assert code == 0 and doc["payload"]["count"] == math.comb(14000, 7000) // 7001


@pytest.mark.parametrize("n, r", [("-1", "2"), ("2", "-1")])
def test_paths_rejects_negative_size(capsys, n, r):
    code, doc = run_json(capsys, "paths", n, r)
    assert code == 2 and doc["status"] == "error"
    assert "must be >= 0" in doc["payload"]["error"]


@pytest.mark.parametrize(
    "mode, n, r", [("keys", "2", "-1"), ("theorem", "0", "-1"), ("keys", "-1", "3")]
)
def test_sweep_rejects_negative_size(capsys, mode, n, r):
    code, doc = run_json(capsys, "sweep", mode, n, r, "--threads", "1")
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["error"] == f"n and r must be >= 0, got n={n}, r={r}"


# ------------------------------------------------------------------- sweep


def test_sweep_rejects_negative_threads(capsys):
    code, doc = run_json(capsys, "sweep", "theorem", "2", "2", "--threads", "-1")
    assert code == 2 and doc["status"] == "error"
    assert "--threads" in doc["payload"]["error"]


def test_sweep_fan_out_is_bounded_by_cores_and_chunks(capsys, monkeypatch):
    # the fan-out forks every worker at once, so a huge --threads must not
    # reach os.fork; count the forks of sweep theorem 4 3 (311 paths, five
    # chunks of 64) and of sweep theorem 2 2 (16 paths, one chunk)
    forks = []

    def counting_fork(real=os.fork):
        # an unbounded fan-out fails here, before it forks too many
        assert len(forks) < 16, "the fan-out forked past its bound"
        forks.append(None)
        return real()

    def sweep(n, threads):
        before = len(forks)
        assert run(capsys, "--json", "sweep", "theorem", n, r_max[n], "--threads", threads) == (0, want[n])
        return len(forks) - before

    r_max = {"4": "3", "2": "2"}
    want = {n: run(capsys, "--json", "sweep", "theorem", n, r, "--threads", "1")[1] for n, r in r_max.items()}
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [sweep("4", threads) for threads in ("100000", "0", "2", "1")] == [2, 2, 2, 0]
    # one chunk, or one core, needs no fan-out
    assert sweep("2", "100000") == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert sweep("4", "100000") == 0
    # more cores than chunks: one worker per chunk
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli, "_CHUNK", 128)
    assert sweep("4", "0") == 3
    _assert_no_children()


def _assert_no_children():
    # every worker was reaped, so this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("chunk", [1, 4, 64])
@pytest.mark.parametrize("threads", ["2", "3"])
def test_sweep_fan_out_deals_chunks_back_in_scan_order(capsys, monkeypatch, chunk, threads):
    # 311 paths: whole and partial chunks, and workers with unequal shares
    _, want = run(capsys, "--json", "sweep", "theorem", "4", "3", "--threads", "1")
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out = run(capsys, "--json", "sweep", "theorem", "4", "3", "--threads", threads)
    assert (code, out) == (0, want)
    _assert_no_children()


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_sweep_worker_that_dies_ends_in_error(capsys, monkeypatch, death):
    # the first path's worker dies; the other worker would sleep for a
    # minute, so the test ends quickly only if the parent kills it
    parent = os.getpid()
    first = next(scan_paths(3, 2)).literal

    def dying(mode, m, rows, path):
        assert os.getpid() != parent, "the stub ran in the parent"
        if path.literal != first:
            time.sleep(60)
            os._exit(0)
        elif death == "exit":
            os._exit(3)
        else:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "_sweep_one", dying)
    monkeypatch.setattr(cli, "_CHUNK", 4)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    start = time.monotonic()
    code, doc = run_json(capsys, "sweep", "theorem", "3", "2", "--threads", "2")
    assert time.monotonic() - start < 30
    assert code == 2 and doc["status"] == "error"
    want = "exited with status 3" if death == "exit" else f"was killed by signal {signal.SIGKILL.value}"
    assert doc["payload"]["error"] == f"sweep worker 0 {want}"
    _assert_no_children()


@pytest.mark.parametrize("exc", [ValueError, MemoryError])
def test_sweep_worker_exceptions_end_as_in_the_serial_loop(capsys, monkeypatch, exc):
    # every path past the first chunk raises, each with its own message, so
    # the document names the path the serial loop reaches first: worker 1
    # fails in chunk 1 and worker 0 only in chunk 2
    def failing(mode, m, rows, path):
        if path.literal not in head:
            raise exc(path.literal)
        return real(mode, m, rows, path)

    real = cli._sweep_one
    head = {p.literal for p in itertools.islice(scan_paths(3, 2), 4)}
    monkeypatch.setattr(cli, "_sweep_one", failing)
    monkeypatch.setattr(cli, "_CHUNK", 4)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, want = run(capsys, "--json", "sweep", "theorem", "3", "2", "--threads", "1")
    assert code == 2
    assert run(capsys, "--json", "sweep", "theorem", "3", "2", "--threads", "2") == (code, want)
    doc = json.loads(want)
    assert doc["status"] == "error"
    fifth = list(scan_paths(3, 2))[4].literal
    assert doc["payload"]["error"] == ("out of memory" if exc is MemoryError else fifth)
    _assert_no_children()


def test_sweep_without_fork_runs_the_serial_loop(capsys, monkeypatch):
    _, want = run(capsys, "--json", "sweep", "theorem", "4", "3", "--threads", "1")
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(capsys, "--json", "sweep", "theorem", "4", "3", "--threads", "2") == (0, want)


def test_sweep_theorem_small(capsys):
    code, doc = run_json(capsys, "sweep", "theorem", "2", "2", "--threads", "1")
    assert code == 0
    assert doc["payload"]["failures"] == []
    assert doc["payload"]["paths"] == 2 + 5 + 9


def test_sweep_refuses_large_n(capsys):
    code, out = run(capsys, "sweep", "theorem", "7", "0")
    assert code == 2
    assert "--force" in out


@pytest.mark.parametrize("mode", ["corollary", "backstable"])
def test_sweep_rejects_m_below_one(capsys, mode):
    code, doc = run_json(
        capsys, "sweep", mode, "2", "1", "--m", "0", "--threads", "1"
    )
    assert code == 2 and doc["status"] == "error"
    assert "--m must be >= 1" in doc["payload"]["error"]


@pytest.mark.parametrize("mode", ["theorem", "keys"])
@pytest.mark.parametrize("m", ["0", "5", "9"])
def test_sweep_rejects_m_where_the_mode_reads_none(capsys, mode, m):
    # neither mode reads --m, so a value is an error, forced or not, and
    # never a size refusal
    for force in ((), ("--force",)):
        code, doc = run_json(capsys, "sweep", mode, "2", "2", "--m", m, "--threads", "1", *force)
        assert code == 2 and doc["status"] == "error"
        assert "backstable and corollary" in doc["payload"]["error"]


def test_sweep_corollary(capsys):
    code, doc = run_json(
        capsys, "sweep", "corollary", "2", "2", "--m", "2", "--threads", "1"
    )
    assert code == 0 and doc["payload"]["failures"] == []


def test_sweep_corollary_keeps_one_entry_per_graph(capsys, cold_graph_memos):
    # the 2,044 paths of P(5, r <= 4) span the 42 Dyck graphs on 5 vertices
    code, doc = run_json(capsys, "sweep", "corollary", "5", "4", "--threads", "1")
    assert code == 0 and doc["payload"]["paths"] == 2044
    assert chromatic._verdict.cache_info().currsize == 42


def test_sweep_corollary_default_m_is_at_least_one(capsys):
    # m defaults to n, which would be the empty window at n = 0
    code, doc = run_json(capsys, "sweep", "corollary", "0", "0", "--threads", "1")
    assert code == 0 and doc["payload"]["m"] == 1


def test_sweep_json_deterministic_across_threads(capsys):
    _, out1 = run(capsys, "--json", "sweep", "theorem", "2", "2", "--threads", "1")
    _, out2 = run(capsys, "--json", "sweep", "theorem", "2", "2", "--threads", "3")
    assert out1 == out2


def test_sweep_keys_finds_nothing_tiny(capsys):
    code, doc = run_json(capsys, "sweep", "keys", "2", "2", "--threads", "1")
    assert code == 0
    assert doc["payload"]["findings"] == []


def test_sweep_keys_shares_its_row_cache_across_widths(capsys):
    # n = 3 packs at 2 bits and n = 4 and 5 at 3, so caches keyed on the
    # packed index alone would hand n = 4 and 5 entries built for n = 3;
    # each sweep starts its own row cache, while keys._KEY_CACHE outlives it
    def sweep(n, fresh=False):
        if fresh:
            keys._KEY_CACHE.clear()
        return run(capsys, "--json", "sweep", "keys", str(n), str(n), "--threads", "1")

    alone = {n: sweep(n, fresh=True) for n in (4, 5)}
    sweep(3, fresh=True)
    assert sweep(4) == alone[4]
    assert sweep(5) == alone[5]


def test_sweep_keys_matches_library_search(capsys):
    # both scan drivers find the one key-negative path with n = 5, r <= 5
    code, doc = run_json(capsys, "sweep", "keys", "5", "5", "--threads", "2")
    recs = search_negative_records(5, 5)
    assert recs == [
        NegativeRecord("EENEENENEENEENE@5,5", WeakComposition((1, 3, 0, 1), 1), ((2, -1),))
    ]
    assert code == 0
    assert doc["payload"]["findings"] == [
        {
            "path": rec.path,
            "findings": [
                {
                    "composition": rec.composition.to_json(),
                    "composition_str": str(rec.composition),
                    "t": rec.to_json()["coefficient"],
                }
            ],
        }
        for rec in recs
    ]


# ---------------------------------------------------------- golden bytes


# sha256 of the --json stdout; a sweep's document does not depend on
# --threads (see test_sweep_json_deterministic_across_threads)
GOLDEN_JSON = [
    pytest.param(
        ["sweep", "theorem", "4", "3", "--threads", "1"],
        "00974795a444f404c4c65bd72a2938b48a8e55b9afffb3a635714e961ca87bd4",
        id="sweep-theorem",
    ),
    pytest.param(
        ["sweep", "backstable", "4", "3", "--threads", "1"],
        "75ce150379f80f9ea0ad04ef45ebd2635c62bcb2cf3211aca466d8397a744f4d",
        id="sweep-backstable",
    ),
    pytest.param(
        ["chromatic", "ENEEENENEENNEENEE@6,5", "--mode", "both"],
        "4e8b66ea6eb0bbd3ef9123197eaca8eaa7250db8ff26432c20a326e7eb4040bd",
        id="chromatic-both",
    ),
    pytest.param(
        ["chromatic", "ENEENENEE@3,3", "--mode", "theorem", "--window", "-2", "3"],
        "d7a8e6436d77cfe81c00132df90f471c06b5e47d9f55f56987a153236d4a08fa",
        id="chromatic-theorem-window",
    ),
    pytest.param(
        ["backstable", "ENEENENEE@3,3", "--m", "2"],
        "c5b3119ec2237b083a142b99b4e96410040a30290ae93f5dc8ec17d40cefae92",
        id="backstable",
    ),
    pytest.param(
        ["sweep", "corollary", "4", "3", "--threads", "1"],
        "310dd16715d8821f75c512a1c17328837d337125dbc56279dddc370aae236197",
        id="sweep-corollary",
    ),
    pytest.param(
        ["qsym", "ENEENENEE@3,3", "--m", "3"],
        "945337795bc839f008c2c836ac4f446821a5087d8086ba734f51233a6183db3d",
        id="qsym-verified",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_JSON)
def test_json_stdout_is_byte_identical(capsys, argv, digest):
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
