"""Command-line front end.

Every computation in the library is reachable from here.  Output is
human-readable by default (weak compositions in bar notation); --json
switches to one deterministic JSON document per invocation, with the
polynomial schema shared with :mod:`slidechrom.tpoly`.

Every argument is checked once, by _refusal, before a command runs.
Sweeps run through _fan_out, which forks up to --threads workers (default
one per core) over the paths in dyck.scan_paths order and puts the results
back in that order, so the thread count never changes the output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .chromatic import (
    chromatic_brute,
    chromatic_verdict,
    chromatic_via_slides,
    compare_chromatic,
    fundamental_expansion,
    slide_expansion,
    verify_backstable,
    verify_fundamental_expansion,
)
from .compositions import Window
from .dyck import PartialDyckPath, count_paths, dyck_graph, enumerate_paths, restriction_map, scan_paths
from .keys import is_key_positive, key_expansion_of_chromatic, negative_records
from .posets import (
    descent_composition,
    graph_inversions,
    incomparability_poset,
    omega_labeling,
    orientation_from_perm,
    tightened_bounds,
)
from .slides import expand_in_slides
from .tpoly import TPolynomial, t_is_nonnegative, t_str, t_to_json


@dataclass
class CommandResult:
    status: str  # ok | mismatch | error
    payload: dict
    # human-readable lines, ignored under --json
    lines: list[str]

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "mismatch": 1}.get(self.status, 2)


def _expansion_json(exp) -> list[dict]:
    order = sorted(exp, key=lambda e: (e.lo, e.entries))
    return [{"index": a.to_json(), "t": t_to_json(exp[a])} for a in order]


def _expansion_lines(exp, indent: str = "  ") -> list[str]:
    order = sorted(exp, key=lambda e: (e.lo, e.entries))
    width = max((len(str(a)) for a in order), default=0)
    return [f"{indent}{str(a):<{width}}  {t_str(exp[a])}" for a in order]


def _refusal(args) -> CommandResult | None:
    """Check a command's arguments once, before it runs, and put the
    parsed path in args.path.  Returns the error result of a run too
    large to start without --force, or None; a bad argument raises
    ValueError.  The size rules skip slides, which checks its window once
    the file is read, and a paths count, which is a closed form."""
    command, m = args.command, getattr(args, "m", None)
    if command == "sweep" and m is not None and args.mode in ("theorem", "keys"):
        raise ValueError(f"sweep {args.mode} reads no --m; only backstable and corollary do")
    if command in ("sweep", "paths"):
        n, r = args.n, args.r
    elif command != "slides":
        args.path = PartialDyckPath.parse(args.path)
        n, r = args.path.n, args.path.r
    if not (getattr(args, "force", True) or command == "slides" or command == "paths" and not args.list):
        refused = _size_refusal(n, r, m, getattr(args, "window", None))
        if refused:
            return refused
    if command == "paths" and min(n, r) >= 0:
        # |P(n, r)| <= C(2n + r, n) <= 2^(2n + r), and 0.30103 > log10(2);
        # a limit of 0, or an interpreter without one, lets any int print
        digits = (2 * n + r) * 30103 // 100000 + 1
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if 0 < limit < digits:
            raise ValueError(
                f"|P({n},{r})| can have up to {digits} digits, more than the "
                f"{limit} that sys.get_int_max_str_digits() allows to print"
            )
    if getattr(args, "threads", None) is not None and args.threads < 0:
        raise ValueError(f"--threads must be >= 0, got {args.threads}")
    if m is not None and m < 1:
        raise ValueError(f"--m must be >= 1, got {m}")
    return None


def _size_refusal(n: int, r: int, m: int | None, window) -> CommandResult | None:
    """Past six vertices or six colors a command's work outgrows an
    interactive run: rdes lists n! permutations, chromatic --mode brute
    walks up to r^n colorings, the coloring count behind every other
    verdict keeps one state per coloring of the vertices that still have
    a later neighbour, up to r^(n-1), the subset DP up to 2^n
    placed-vertex sets, sweep repeats the count and the DP for each of
    its paths, whose number grows with r as well as n, and the slide sets
    of a window grow with its width.  Every extra color column multiplies
    the colorings and the slide sets too, so --m above 6 and a window of
    more than r + 6 indices are refused as well; the default windows
    never are."""
    if n > 6:
        msg = f"refusing n={n} > 6 without --force"
    elif r > 6:
        msg = f"refusing r={r} > 6 without --force"
    elif m is not None and m > 6:
        msg = f"refusing --m {m} > 6 without --force"
    elif window is not None and window[1] - window[0] + 1 > r + 6:
        lo, hi = window
        msg = f"refusing --window {lo} {hi}: {hi - lo + 1} > r + 6 indices without --force"
    else:
        return None
    return CommandResult("error", {"error": msg}, [msg])


def _window(args, default: Window) -> Window:
    if args.window is None:
        return default
    lo, hi = args.window
    return Window(lo, hi)


# ---------------------------------------------------------------- commands


def cmd_graph(args) -> CommandResult:
    path = args.path
    g = dyck_graph(path)
    rho = restriction_map(path)
    payload = {
        "path": path.to_json(),
        "edges": [list(e) for e in g.sorted_edges()],
        "rho": list(rho),
        "dot": g.dot(),
    }
    lines = [
        f"path  {path.literal}",
        f"edges {' '.join(f'{i}{j}' if j < 10 else f'({i},{j})' for i, j in g.sorted_edges()) or '(none)'}",
        f"rho   ({', '.join(map(str, rho)) or ''})",
        "",
        g.dot(),
    ]
    return CommandResult("ok", payload, lines)


def cmd_chromatic(args) -> CommandResult:
    path = args.path
    w = _window(args, Window(1, path.r))
    payload: dict = {"path": path.to_json(), "window": [w.lo, w.hi], "mode": args.mode}
    lines = [f"path   {path.literal}", f"window [{w.lo}, {w.hi}]"]
    status = "ok"
    if args.mode == "brute":
        poly = chromatic_brute(path, w)
        payload["polynomial"] = poly.to_json_dict()
        lines += ["", str(poly)]
    elif args.mode == "theorem":
        poly, _ = chromatic_via_slides(path, w)
        exp = slide_expansion(path)  # the full expansion, as --mode both prints
        payload["polynomial"] = poly.to_json_dict()
        payload["expansion"] = _expansion_json(exp)
        lines += ["", "slide expansion:", *_expansion_lines(exp), "", str(poly)]
    else:
        rep = compare_chromatic(path, w)
        payload["polynomial"] = rep.brute.to_json_dict()
        payload["expansion"] = _expansion_json(rep.expansion)
        payload["equal"] = rep.equal
        payload["nonnegative"] = rep.nonnegative
        if not rep.ok:
            status = "mismatch"
            payload["mismatches"] = _expansion_json(dict(rep.mismatches))
        lines += [
            "",
            "slide expansion:",
            *_expansion_lines(rep.expansion),
            "",
            f"brute == theorem: {'yes' if rep.equal else 'NO'}",
            f"coefficients in N[t]: {'yes' if rep.nonnegative else 'NO'}",
        ]
    return CommandResult(status, payload, lines)


def cmd_slides(args) -> CommandResult:
    raw = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
    poly = TPolynomial.loads(raw)
    w = _window(args, poly.window)
    # the polynomial has no path, so r is taken to be the window's hi
    refused = None if args.force else _size_refusal(0, w.hi, None, w)
    if refused:
        return refused
    if w != poly.window:
        poly = poly.with_window(w)
    exp = expand_in_slides(poly, w)
    payload = {
        "window": [w.lo, w.hi],
        "expansion": _expansion_json(exp),
        "nonnegative": all(t_is_nonnegative(tc) for tc in exp.values()),
    }
    lines = ["slide expansion:", *_expansion_lines(exp)]
    return CommandResult("ok", payload, lines)


def cmd_rdes(args) -> CommandResult:
    path = args.path
    g = dyck_graph(path)
    rho = restriction_map(path)
    poset = incomparability_poset(g)
    rows = []
    for pi in itertools.permutations(range(1, g.n + 1)):
        o = orientation_from_perm(g, pi)
        om = omega_labeling(g, o)
        bb = tightened_bounds(pi, rho, poset)
        rd = descent_composition(pi, rho, poset)
        rows.append(
            {
                "pi": list(pi),
                "omega": [om[v - 1] for v in pi],
                "barrho": list(bb),
                "rdes": rd.to_json(),
                "rdes_str": str(rd),
                "inv": graph_inversions(g, pi),
            }
        )
    payload = {"path": path.to_json(), "rows": rows}
    lines = [f"path {path.literal}", ""]
    head = f"{'pi':<{2 * g.n}}  {'omega∘pi':<{2 * g.n}}  {'barrho':<{2 * g.n}}  inv  rdes"
    lines.append(head)
    for row in rows:
        lines.append(
            f"{''.join(map(str, row['pi'])):<{2 * g.n}}  "
            f"{''.join(map(str, row['omega'])):<{2 * g.n}}  "
            f"{','.join(map(str, row['barrho'])):<{2 * g.n}}  "
            f"{row['inv']:<3}  {row['rdes_str']}"
        )
    return CommandResult("ok", payload, lines)


def cmd_backstable(args) -> CommandResult:
    path = args.path
    rep = verify_backstable(path, args.m)
    payload = {
        "path": path.to_json(),
        "m": args.m,
        "window": [rep.window.lo, rep.window.hi],
        "equal": rep.equal,
        "polynomial": rep.brute.to_json_dict(),
        "expansion": _expansion_json(rep.expansion),
    }
    status = "ok" if rep.equal else "mismatch"
    lines = [
        f"path   {path.literal}",
        f"window [{rep.window.lo}, {rep.window.hi}]  (m = {args.m})",
        "",
        "slide expansion (backstable indices kept):",
        *_expansion_lines(rep.expansion),
        "",
        f"brute == theorem over the extended window: {'yes' if rep.equal else 'NO'}",
    ]
    return CommandResult(status, payload, lines)


def cmd_qsym(args) -> CommandResult:
    path = args.path
    exp = fundamental_expansion(path)
    order = sorted(exp)
    payload: dict = {
        "path": path.to_json(),
        "expansion": [
            {"alpha": list(al), "t": t_to_json(exp[al])} for al in order
        ],
    }
    width = max((len(",".join(map(str, al))) for al in order), default=0) + 2
    lines = [f"path {path.literal}", "", "fundamental expansion (negative alphabet):"]
    lines += [
        f"  {'(' + ','.join(map(str, al)) + ')':<{width}}  {t_str(exp[al])}"
        for al in order
    ]
    status = "ok"
    if args.m is not None:
        good = verify_fundamental_expansion(path, args.m)
        payload["m"] = args.m
        payload["verified"] = good
        lines += ["", f"truncation to {args.m} variables matches brute force: "
                  f"{'yes' if good else 'NO'}"]
        if not good:
            status = "mismatch"
    return CommandResult(status, payload, lines)


def cmd_keys(args) -> CommandResult:
    path = args.path
    exp = key_expansion_of_chromatic(path)
    positive = is_key_positive(exp)
    negatives = {
        b: tc for b, tc in exp.items() if not t_is_nonnegative(tc)
    }
    payload = {
        "path": path.to_json(),
        "expansion": _expansion_json(exp),
        "key_positive": positive,
        "negatives": _expansion_json(negatives),
    }
    lines = [f"path {path.literal}", "", "key expansion over [1, r]:"]
    lines += _expansion_lines(exp)
    lines += ["", f"key positive: {'yes' if positive else 'NO — negative coefficients above'}"]
    # negatives are findings, not failures
    return CommandResult("ok", payload, lines)


def cmd_paths(args) -> CommandResult:
    total = count_paths(args.n, args.r)
    payload: dict = {"n": args.n, "r": args.r, "count": total}
    lines = [f"|P({args.n},{args.r})| = {total}"]
    if args.list:
        lits = [p.literal for p in enumerate_paths(args.n, args.r)]
        payload["paths"] = lits
        lines += lits
    return CommandResult("ok", payload, lines)


# ---------------------------------------------------------------- sweep

# tasks per chunk, the unit _fan_out deals to its workers
_CHUNK = 64


def _sweep_one(mode: str, m: int, rows: dict, path: PartialDyckPath) -> dict:
    """One path's result; rows is the sweep's key-to-slide row cache."""
    # theorem and backstable decide on the packed routes and build no report
    if mode == "theorem":
        equal, nonnegative = chromatic_verdict(path, Window(1, path.r))
        return {"path": path.literal, "ok": equal and nonnegative}
    if mode == "backstable":
        equal, _ = chromatic_verdict(path, Window(1 - m, path.r))
        return {"path": path.literal, "ok": equal}
    if mode == "corollary":
        return {"path": path.literal, "ok": verify_fundamental_expansion(path, m)}
    if mode == "keys":
        recs = [
            {
                "composition": rec.composition.to_json(),
                "composition_str": str(rec.composition),
                "t": t_to_json(dict(rec.coefficient)),
            }
            for rec in negative_records(path, rows)
        ]
        return {"path": path.literal, "ok": True, "findings": recs}
    raise ValueError(mode)


def _fan_out(fn, tasks: list, threads: int | None) -> list:
    """[fn(t) for t in tasks], computed by up to `threads` forked
    children (None or 0: one per core), never more than the cores or the
    chunks; one worker, one chunk or a platform without os.fork runs the
    serial loop in this process.

    The tasks are cut into chunks of _CHUNK, and child k of W runs chunks
    k, k + W, k + 2W, ... in order.  It inherits fn and the tasks, so
    nothing is pickled on the way in, and it writes its results back
    pickled over its own pipe.  The parent reads and reaps each child in
    turn and deals the chunks back into task order.  A bare fork is safe
    only because the CLI never starts a thread.

    A child stops at its first exception and sends it back; the parent
    raises the one from the earliest chunk, which is the exception the
    serial loop raises.  A child that dies or exits nonzero raises
    ChildProcessError.  On any error the parent kills and reaps the
    children still running, so none outlives the call."""
    chunks = [tasks[i:i + _CHUNK] for i in range(0, len(tasks), _CHUNK)]
    cores = os.cpu_count() or 1
    workers = min(threads or cores, cores, len(chunks))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    import pickle

    pipes: list = []
    pids: list = []  # None once reaped
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, chunks[k::workers], pipes, w)
            finally:
                os.close(w)  # in the parent only: _work ends the child
            pids.append(pid)
        outs = []
        for k, pid in enumerate(pids):
            blob = pipes[k].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids[k] = None
            if status < 0:
                raise ChildProcessError(f"sweep worker {k} was killed by signal {-status}")
            if status:
                raise ChildProcessError(f"sweep worker {k} exited with status {status}")
            outs.append(pickle.loads(blob))
    finally:
        for pipe in pipes:
            pipe.close()
        live = [pid for pid in pids if pid is not None]
        if live:
            from signal import SIGKILL

            for pid in live:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    # child k failed in chunk k + (chunks it finished)·workers
    failed = [(k + len(done) * workers, err) for k, (done, err) in enumerate(outs) if err is not None]
    if failed:
        raise min(failed)[1]
    return [d for i in range(len(chunks)) for d in outs[i % workers][0][i // workers]]


def _work(fn, chunks: list, pipes: list, w: int) -> None:
    """A forked child of _fan_out: run the chunks, write the pickled
    (results per finished chunk, exception or None) to the pipe end w,
    and end the process without returning, flushing or running exit
    handlers."""
    import pickle

    status = 1
    try:
        for pipe in pipes:
            pipe.close()  # the read ends are the parent's
        done, err = [], None
        try:
            for chunk in chunks:
                done.append([fn(t) for t in chunk])
        except BaseException as exc:
            err = exc
        with open(w, "wb") as out:
            out.write(pickle.dumps((done, err)))
        status = 0
    finally:
        os._exit(status)


def cmd_sweep(args) -> CommandResult:
    mode = args.mode
    m = args.m if args.m is not None else (2 if mode == "backstable" else max(args.n, 1))
    # the sweep's key-to-slide row cache, keyed by (width, packed key
    # index) (see keys.key_expansion_of_chromatic), at most
    # C(n + r_max - 1, r_max - 1) rows; their key monomials stay in keys'
    # memo and their slide sets in compositions.packed_slides.  A forked
    # worker starts from it as it stands at the fork and fills its own copy
    one = functools.partial(_sweep_one, mode, m, {})
    results = _fan_out(one, list(scan_paths(args.n, args.r)), args.threads)
    failures = [d for d in results if not d["ok"]]
    findings = [d for d in results if d.get("findings")]
    payload: dict = {
        "mode": mode,
        "n": args.n,
        "r_max": args.r,
        "paths": len(results),
        "failures": [d["path"] for d in failures],
        "results": results,
    }
    if mode in ("backstable", "corollary"):
        payload["m"] = m
    lines = []
    for d in results:
        if mode == "keys":
            tag = f"finding ({len(d['findings'])})" if d.get("findings") else "ok"
        else:
            tag = "ok" if d["ok"] else "FAIL"
        lines.append(f"{d['path']:<40} {tag}")
    if mode == "keys":
        bad = sum(len(d["findings"]) for d in findings)
        payload["findings"] = [
            {"path": d["path"], "findings": d["findings"]} for d in findings
        ]
        lines.append(
            f"-- {len(results)} paths, {len(findings)} with negative key "
            f"coefficients ({bad} records)"
        )
        status = "ok"  # negatives are findings, not failures
    else:
        lines.append(f"-- {len(results)} paths, {len(failures)} failures")
        status = "ok" if not failures else "mismatch"
    return CommandResult(status, payload, lines)


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slidechrom",
        description="chromatic polynomials of Dyck graphs in the slide basis",
    )
    ap.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_window(p):
        p.add_argument(
            "--window", nargs=2, type=int, metavar=("LO", "HI"), default=None
        )

    def add_force(p):
        p.add_argument(
            "--force", action="store_true",
            help="allow n > 6, r > 6, --m > 6 and a --window of more than r + 6 indices",
        )

    p = sub.add_parser("graph", help="edges, restriction map and DOT for a path")
    p.add_argument("path", help='path literal, e.g. "ENEENENEE@3,3"')
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("chromatic", help="chromatic polynomial of a path's graph")
    p.add_argument("path")
    p.add_argument("--mode", choices=("brute", "theorem", "both"), default="both")
    add_window(p)
    add_force(p)
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("slides", help="expand a polynomial file in slide polynomials")
    p.add_argument("file", help="polynomial JSON file, or - for stdin")
    add_window(p)
    add_force(p)
    p.set_defaults(func=cmd_slides)

    p = sub.add_parser("rdes", help="per-permutation descent composition table")
    p.add_argument("path")
    add_force(p)
    p.set_defaults(func=cmd_rdes)

    p = sub.add_parser("backstable", help="verify the truncation identity for a path")
    p.add_argument("path")
    p.add_argument("--m", type=int, default=2, help="extra nonpositive columns")
    add_force(p)
    p.set_defaults(func=cmd_backstable)

    p = sub.add_parser("qsym", help="fundamental expansion on the negative alphabet")
    p.add_argument("path")
    p.add_argument("--m", type=int, default=None, help="verify truncation to m variables")
    add_force(p)
    p.set_defaults(func=cmd_qsym)

    p = sub.add_parser("keys", help="key expansion of the chromatic polynomial")
    p.add_argument("path")
    add_force(p)
    p.set_defaults(func=cmd_keys)

    p = sub.add_parser("sweep", help="verify a statement over all paths with given n, r <= R")
    p.add_argument("mode", choices=("theorem", "backstable", "corollary", "keys"))
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes, at most one per core and per path (default or 0: cores)")
    add_force(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("paths", help="count (or list) partial Dyck paths")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--list", action="store_true")
    add_force(p)
    p.set_defaults(func=cmd_paths)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _refusal(args) or args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        result = CommandResult("error", {"error": str(exc)}, [f"error: {exc}"])
    except MemoryError:
        # a --force run too large for memory is an error, not a mismatch
        msg = "out of memory"
        result = CommandResult("error", {"error": msg}, [f"error: {msg}"])
    doc = {"status": result.status, "command": args.command, "payload": result.payload}
    if args.json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in result.lines:
            sys.stdout.write(line + "\n")
        if result.status != "ok":
            sys.stdout.write(f"status: {result.status}\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
