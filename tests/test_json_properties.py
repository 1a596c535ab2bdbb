"""Property tests of the JSON loaders: polynomial documents and negative
records round-trip through their text, every polynomial the constructor
accepts does too (it refuses t-entries that are not ints), and a
document that repeats an exponent or a t-degree is refused, however the
repeat is written."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from slidechrom import NegativeRecord, TPolynomial, WeakComposition, Window, enumerate_paths

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
WINDOWS = (Window(-2, 0), Window(-1, 1), Window(1, 3), Window(1, 0))
# weight <= 2 on each window, the zero exponent included
POOLS = {
    w: [
        WeakComposition(e, w.lo)
        for e in itertools.product(range(3), repeat=w.hi - w.lo + 1)
        if sum(e) <= 2
    ]
    for w in WINDOWS
}
# small and big coefficients of either sign: big ones must survive as text
COEFS = st.one_of(st.integers(-5, 5), st.integers(-(10**30), 10**30)).filter(bool)
T_COEFFS = st.dictionaries(st.integers(0, 4), COEFS, min_size=1, max_size=3)
# every exponent of the pools, so that some fall outside a drawn window
EXPONENTS = sorted({e for pool in POOLS.values() for e in pool}, key=lambda e: (e.lo, e.entries))
PATHS = [p.literal for n in range(4) for r in range(3) for p in enumerate_paths(n, r)]


@st.composite
def polynomials(draw):
    w = draw(st.sampled_from(WINDOWS))
    exps = draw(st.lists(st.sampled_from(POOLS[w]), unique=True, max_size=5))
    return TPolynomial(w, {e: draw(T_COEFFS) for e in exps})


@st.composite
def padded(draw, e):
    """e's JSON written with extra zeros on either side; it reads back as e."""
    before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return {"lo": e.lo - before, "entries": [0] * before + list(e.entries) + [0] * after}


@st.composite
def negative_records(draw):
    coefficient = draw(T_COEFFS)
    d = draw(st.sampled_from(sorted(coefficient)))
    coefficient[d] = -abs(coefficient[d])  # at least one negative entry
    return NegativeRecord(
        path=draw(st.sampled_from(PATHS)),
        composition=draw(st.sampled_from(POOLS[Window(1, 3)])),
        coefficient=tuple(sorted(coefficient.items())),
    )


@PROPERTY
@given(polynomials())
def test_polynomial_text_round_trips(p):
    text = p.dumps()
    back = TPolynomial.loads(text)
    assert back == p and back.window == p.window
    assert back.dumps() == text



# t-degrees and coefficients that are not ints: a bool is an int
# subclass, and 1.0 == 1 hashes as 1, so neither may slip through
NOT_INTS = st.sampled_from([0.5, 1.5, 0.0, 1.0, True, False])


@PROPERTY
@given(
    st.sampled_from(WINDOWS),
    st.dictionaries(
        st.sampled_from(EXPONENTS),
        st.dictionaries(
            st.one_of(st.integers(-2, 4), NOT_INTS),
            st.one_of(st.just(0), COEFS, NOT_INTS),
            max_size=3,
        ),
        max_size=4,
    ),
)
def test_every_polynomial_the_constructor_accepts_round_trips(w, terms):
    try:
        p = TPolynomial(w, terms)
    except ValueError:
        # only a t-entry that is not an int, a negative t-degree or a
        # nonzero term outside w is refused
        entries = [x for tc in terms.values() for item in tc.items() for x in item]
        assert any(type(x) is not int for x in entries) or any(
            tc and min(tc) < 0 for tc in terms.values()
        ) or any(
            any(tc.values()) and not e.supported_in(w) for e, tc in terms.items()
        ), (w, terms)
        return
    text = p.dumps()
    back = TPolynomial.loads(text)
    assert back == p and back.window == p.window
    assert back.dumps() == text


@PROPERTY
@given(polynomials().filter(lambda p: p.terms), st.data())
def test_repeated_exponent_is_refused(p, data):
    doc = p.to_json_dict()
    terms = doc["terms"]
    e = WeakComposition.from_json(data.draw(st.sampled_from(terms))["exp"])
    again = {"exp": data.draw(padded(e)), "t": data.draw(st.lists(st.fixed_dictionaries(
        {"deg": st.integers(0, 4), "coef": COEFS.map(str)}), unique_by=lambda x: x["deg"], max_size=2))}
    terms.insert(data.draw(st.integers(0, len(terms))), again)
    with pytest.raises(ValueError, match="duplicate exponent"):
        TPolynomial.from_json_dict(json.loads(json.dumps(doc)))


@PROPERTY
@given(polynomials().filter(lambda p: p.terms), st.data())
def test_repeated_t_degree_is_refused(p, data):
    doc = p.to_json_dict()
    t = data.draw(st.sampled_from(doc["terms"]))["t"]
    deg = data.draw(st.sampled_from(t))["deg"]
    # the repeat is refused whatever it holds, a zero coefficient included
    coef = data.draw(st.one_of(st.just("0"), COEFS.map(str), COEFS))
    t.insert(data.draw(st.integers(0, len(t))), {"deg": deg, "coef": coef})
    with pytest.raises(ValueError, match="duplicate t-degree"):
        TPolynomial.from_json_dict(json.loads(json.dumps(doc)))


@PROPERTY
@given(negative_records())
def test_negative_record_text_round_trips(rec):
    text = json.dumps(rec.to_json(), sort_keys=True)
    back = NegativeRecord.from_json(json.loads(text))
    assert back == rec
    assert json.dumps(back.to_json(), sort_keys=True) == text


@PROPERTY
@given(negative_records(), st.data())
def test_negative_record_repeated_t_degree_is_refused(rec, data):
    doc = rec.to_json()
    t = doc["coefficient"]
    deg = data.draw(st.sampled_from(t))["deg"]
    t.insert(data.draw(st.integers(0, len(t))), {"deg": deg, "coef": data.draw(COEFS.map(str))})
    with pytest.raises(ValueError, match="duplicate t-degree"):
        NegativeRecord.from_json(json.loads(json.dumps(doc)))
