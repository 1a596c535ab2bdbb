"""The packed layout has one width rule, compositions.digit_bits, and
every layer calls it.  A packed int names an index only together with
its width, so any width at least the rule's is as good as the rule's own
as long as every layer agrees on it.  Widening the rule everywhere at
once must therefore change no result; a layer that picked its width
some other way would then disagree with the others, and its results
would change or fail to certify."""

import sys

import pytest

from slidechrom import (
    chromatic_brute,
    compare_chromatic,
    expand_in_keys,
    expand_in_slides,
    fundamental_expansion,
    key_expansion_of_chromatic,
    key_polynomial,
    scan_paths,
)
from slidechrom.chromatic import chromatic_verdict
from slidechrom.compositions import WeakComposition, Window, digit_bits

PATHS = list(scan_paths(5, 5))
SAMPLE = PATHS[::40]
# key indices of weight 5 on [1, 4], combined with t-coefficients
KEYS = [((2, 0, 3), {0: 1}), ((1, 2, 0, 2), {1: 2}), ((0, 4, 1), {0: -1, 2: 3})]


def _outputs():
    cache: dict = {}
    keyed = [key_expansion_of_chromatic(p, cache) for p in PATHS]
    verdicts = [chromatic_verdict(p, Window(-1, p.r)) for p in PATHS]
    sampled = []
    for p in SAMPLE:
        w = Window(-1, p.r)
        brute = compare_chromatic(p, w).brute
        walked = chromatic_brute(p, w).dumps()
        sampled.append((brute.dumps(), walked, expand_in_slides(brute, w), fundamental_expansion(p)))
    combined = None
    for entries, tc in KEYS:
        term = key_polynomial(WeakComposition(entries), 4).scaled(tc)
        combined = term if combined is None else combined + term
    return keyed, verdicts, sampled, expand_in_keys(combined, 4)


@pytest.fixture(scope="module")
def natural():
    return _outputs()


def test_natural_outputs_are_sound(natural):
    keyed, verdicts, _, in_keys = natural
    assert len(PATHS) == 3682 and any(keyed)
    assert all(equal and nonnegative for equal, nonnegative in verdicts)
    assert in_keys == {WeakComposition(e): tc for e, tc in KEYS}


@pytest.mark.parametrize("spare", [1, 3])
def test_wider_digits_change_no_result(natural, monkeypatch, spare):
    # rebind every module attribute that is digit_bits, the way
    # bench/tracer.py rebinds the functions it wraps
    rebound = set()
    for name, module in list(sys.modules.items()):
        if name == "slidechrom" or name.startswith("slidechrom."):
            for key, value in list(vars(module).items()):
                if value is digit_bits:
                    monkeypatch.setattr(module, key, lambda weight: digit_bits(weight) + spare)
                    rebound.add(name)
    assert {"slidechrom.compositions", "slidechrom.tpoly", "slidechrom.chromatic", "slidechrom.keys"} <= rebound
    assert _outputs() == natural
