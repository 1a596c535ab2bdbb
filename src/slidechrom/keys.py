"""Demazure key polynomials, exact expansion of polynomials in the key
basis, and the search for expansion coefficients with negative entries.

Key polynomials live in x_1..x_r.  The expansion solves the change of
basis exactly over the integers and certifies itself by reducing the
input to zero; a nonzero remainder raises, so a wrong answer cannot be
returned silently.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .chromatic import slide_expansion
from .compositions import WeakComposition, Window, lex_key
from .dyck import PartialDyckPath, enumerate_paths
from .slides import slide_polynomial
from .tpoly import TCoeff, TPolynomial, t_add, t_is_nonnegative, t_neg, t_scale

_KEY_CACHE: dict[tuple[int, ...], dict[WeakComposition, int]] = {}


def divided_difference(p: TPolynomial, i: int) -> TPolynomial:
    """(p - p with x_i, x_{i+1} swapped) / (x_i - x_{i+1}), exactly.

    Computed term by term from the telescoping identity, so no division
    ever happens.
    """
    if not (p.window.lo <= i and i + 1 <= p.window.hi):
        raise ValueError(f"variables x{i}, x{i + 1} outside window {p.window}")
    terms: dict[WeakComposition, TCoeff] = {}

    def bump(e: WeakComposition, tc: TCoeff):
        cur = t_add(terms.get(e, {}), tc)
        if cur:
            terms[e] = cur
        else:
            terms.pop(e, None)

    for e, tc in p.terms.items():
        a, b = e[i], e[i + 1]
        if a == b:
            continue
        rest = WeakComposition.from_items(
            (k, v) for k, v in e.items() if k not in (i, i + 1)
        )
        neg = a < b
        if neg:
            a, b = b, a
        for m in range(a - b):
            pair = WeakComposition.from_items(
                [(i, b + m), (i + 1, a - 1 - m)]
            )
            bump(rest.added(pair), t_neg(tc) if neg else tc)
    return TPolynomial(p.window, terms)


def demazure_operator(p: TPolynomial, i: int) -> TPolynomial:
    """pi_i(p) = divided difference of x_i * p."""
    xi = TPolynomial.monomial(WeakComposition.from_items([(i, 1)]), p.window)
    return divided_difference(xi * p, i)


def key_polynomial(a: WeakComposition, r: int) -> TPolynomial:
    """Demazure key polynomial for a composition supported in [1, r].

    Weakly decreasing exponents give the bare monomial; otherwise the
    smallest ascent is unswapped through the Demazure operator.  Results
    are memoized on the composition alone (padding with zeros on the
    right never changes the polynomial).
    """
    if a.weight() and (a.lo < 1 or a.hi > r):
        raise ValueError(f"support of {a} outside [1, {r}]")
    w = Window(1, r)
    vec = tuple(a[i] for i in range(1, r + 1))
    terms = _key_terms(vec)
    return TPolynomial(w, terms)


def _key_terms(vec: tuple[int, ...]) -> dict[WeakComposition, TCoeff]:
    trimmed = vec
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    cached = _KEY_CACHE.get(trimmed)
    if cached is not None:
        return {e: {0: c} for e, c in cached.items()}
    r = len(vec)
    ascent = next(
        (i for i in range(r - 1) if vec[i] < vec[i + 1]), None
    )
    if ascent is None:
        e = WeakComposition(vec, 1)
        result = {e: 1}
    else:
        swapped = list(vec)
        swapped[ascent], swapped[ascent + 1] = (
            swapped[ascent + 1],
            swapped[ascent],
        )
        inner = TPolynomial(
            Window(1, r), _key_terms(tuple(swapped))
        )
        outer = demazure_operator(inner, ascent + 1)
        result = {e: tc[0] for e, tc in outer.terms.items()}
    _KEY_CACHE[trimmed] = result
    return {e: {0: c} for e, c in result.items()}


class KeyExpansionError(RuntimeError):
    """The peel could not certify an exact expansion; indicates a bug."""


def _grade(e: WeakComposition, r: int) -> int:
    # strictly increases whenever a unit of exponent moves to a smaller index
    return sum((r + 1 - i) * v for i, v in e.items())


def expand_in_keys(
    p: TPolynomial, r: int
) -> dict[WeakComposition, TCoeff]:
    """Write p (exponents inside [1, r]) as a Z[t]-combination of keys.

    Peels the (grade, lex)-smallest exponent each round; the final
    zero remainder certifies that the returned coefficients are exactly
    the unique key-basis coordinates of p.
    """
    for e in p.terms:
        if e.weight() and (e.lo < 1 or e.hi > r):
            raise ValueError(f"exponent {e} outside [1, {r}]")
    rem = {e: dict(tc) for e, tc in p.terms.items()}
    out: dict[WeakComposition, TCoeff] = {}
    guard = 0
    limit = 1000 + 50 * max(1, len(rem)) * (r + 2)
    while rem:
        guard += 1
        if guard > limit:
            raise KeyExpansionError("expansion failed to terminate")
        m = min(rem, key=lambda e: (_grade(e, r), lex_key(e, 1, r)))
        c = rem.pop(m)
        out[m] = t_add(out.get(m, {}), c)
        for e, kc in _key_terms(tuple(m[i] for i in range(1, r + 1))).items():
            if e == m:
                continue
            delta = t_scale(c, -kc[0])
            cur = t_add(rem.get(e, {}), delta)
            if cur:
                rem[e] = cur
            else:
                rem.pop(e, None)
    return out


def is_key_positive(expansion: dict[WeakComposition, TCoeff]) -> bool:
    return all(t_is_nonnegative(tc) for tc in expansion.values())


@dataclass(frozen=True)
class NegativeRecord:
    """A key-basis coefficient with a negative entry somewhere in t."""

    path: str
    composition: WeakComposition
    coefficient: tuple[tuple[int, int], ...]  # sorted (t-degree, value)

    def coeff_dict(self) -> TCoeff:
        return dict(self.coefficient)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "composition": self.composition.to_json(),
            "coefficient": [
                {"deg": d, "coef": str(c)} for d, c in self.coefficient
            ],
        }

    @classmethod
    def from_json(cls, d: dict) -> "NegativeRecord":
        return cls(
            path=d["path"],
            composition=WeakComposition.from_json(d["composition"]),
            coefficient=tuple(
                (x["deg"], int(x["coef"])) for x in d["coefficient"]
            ),
        )


def key_expansion_of_chromatic(
    path: PartialDyckPath,
    _slide_key_cache: dict | None = None,
) -> dict[WeakComposition, TCoeff]:
    """Key-basis coordinates of the slide-sum chromatic polynomial.

    Goes through the slide expansion, never the assembled polynomial,
    and a per-slide key expansion cache, which keeps sweeps over many
    paths cheap.
    """
    r = path.r
    w = Window(1, r)
    slide_exp = slide_expansion(path)
    cache = _slide_key_cache if _slide_key_cache is not None else {}
    total: dict[WeakComposition, TCoeff] = {}
    for a, tc in slide_exp.items():
        if a.weight() and (a.lo < 1 or a.hi > r):
            # vanishes on the positive window
            continue
        kk = (a, r)
        if kk not in cache:
            cache[kk] = expand_in_keys(slide_polynomial(a, w), r)
        for b, coeff in cache[kk].items():
            add = {}
            for d, c in tc.items():
                for d2, c2 in coeff.items():
                    add[d + d2] = add.get(d + d2, 0) + c * c2
            cur = t_add(total.get(b, {}), add)
            if cur:
                total[b] = cur
            else:
                total.pop(b, None)
    return total


def search_negative_records(
    n: int,
    r_max: int,
    stop_after: int | None = None,
    progress=None,
) -> list[NegativeRecord]:
    """Scan every path with the given n and r <= r_max in deterministic
    order (r ascending, step words lexicographic) and record every key
    coefficient of the chromatic polynomial with a negative entry.

    stop_after caps the number of offending paths before returning early.
    """
    records: list[NegativeRecord] = []
    bad_paths = 0
    cache: dict = {}
    for r in range(r_max + 1):
        for path in enumerate_paths(n, r):
            exp = key_expansion_of_chromatic(path, cache)
            found = False
            for b in sorted(exp, key=lambda e: (e.lo, e.entries)):
                tc = exp[b]
                if not t_is_nonnegative(tc):
                    found = True
                    records.append(
                        NegativeRecord(
                            path=path.literal,
                            composition=b,
                            coefficient=tuple(sorted(tc.items())),
                        )
                    )
            if found:
                bad_paths += 1
                if stop_after is not None and bad_paths >= stop_after:
                    return records
            if progress is not None:
                progress(path)
    return records


def fixtures_dir() -> Path:
    env = os.environ.get("SLIDECHROM_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


def load_negative_fixtures(directory: Path | None = None) -> list[NegativeRecord]:
    d = directory if directory is not None else fixtures_dir()
    out: list[NegativeRecord] = []
    if not d.is_dir():
        return out
    for fp in sorted(d.glob("*.json")):
        data = json.loads(fp.read_text())
        for item in data.get("records", []):
            out.append(NegativeRecord.from_json(item))
    return out


def save_negative_fixtures(
    records: list[NegativeRecord], filename: str, directory: Path | None = None
) -> Path:
    d = directory if directory is not None else fixtures_dir()
    d.mkdir(parents=True, exist_ok=True)
    fp = d / filename
    fp.write_text(
        json.dumps(
            {"records": [rec.to_json() for rec in records]},
            indent=1,
            sort_keys=True,
        )
    )
    return fp
