"""cli._json_text against json.dumps(doc, indent=2), its reference."""

import enum
import json
import random
import tracemalloc
import types

import pytest

from qadic import cli


def reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def assert_same(doc):
    """The two renderings are equal; else name the first offset where they
    differ (pytest's own diff of long strings takes minutes)."""
    got, expected = cli._json_text(doc), reference(doc)
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        pytest.fail(f"differs at offset {at}: got {got[at - 20:at + 20]!r}, expected {expected[at - 20:at + 20]!r}")


class Colour(enum.IntEnum):
    RED = 1


STRINGS = ("", "a", "ä", "日本", "\U0001f600", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\ud800", "\udfff x", "</script>")
SCALAR_TYPES = {str, int, bool, type(None)}


def _scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.randrange(-10, 10)
    if kind == 2:
        return rng.choice((-1, 1)) * rng.randrange(2**64, 2**200)
    if kind == 3:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 4:
        return rng.randrange(16)
    if kind == 5 and rng.random() < 0.2:
        return rng.choice((1.5, -0.0, 1e300, Colour.RED))
    return rng.randrange(-(10**30), 10**30)


def _value(rng, depth=0):
    kind = rng.randrange(10)
    if kind < 4:
        return _scalar(rng)
    if kind < 8 or depth > 1:
        return [_scalar(rng) for _ in range(rng.choice((0, 1, 2, 5, 40)))]
    if kind == 8:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {rng.choice(STRINGS): _value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _doc(rng):
    if rng.random() < 0.05:
        return rng.choice(([], [1, [2]], 7, "x", None, {1: 2}, {"a": {}}, {"a": []}))
    return {rng.choice(STRINGS) + str(i): _value(rng) for i in range(rng.randrange(6))}


def _flat(doc) -> bool:
    """The shapes the fast path takes, written out apart from cli._json_text."""
    if type(doc) is not dict or any(type(key) is not str for key in doc):
        return False
    for value in doc.values():
        if type(value) is list:
            if any(type(x) not in SCALAR_TYPES for x in value):
                return False
        elif type(value) not in SCALAR_TYPES:
            return False
    return True


@pytest.fixture
def indent_calls(monkeypatch):
    """json.dumps as cli sees it, counting the calls with an indent."""
    calls = []

    def dumps(obj, **kwargs):
        if "indent" in kwargs:
            calls.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
    return calls


def test_seeded_docs_match_json_dumps(indent_calls):
    rng = random.Random(20261019)
    flat = 0
    for _ in range(12_000):
        doc = _doc(rng)
        indent_calls.clear()
        assert_same(doc)
        assert len(indent_calls) == (0 if _flat(doc) else 1), doc
        flat += _flat(doc)
    assert 6_000 < flat < 11_000


@pytest.mark.parametrize("doc", [
    {}, {"a": []}, {"a": {}}, {"a": [[]]}, {"a": [{}]}, {"": None}, {"a": [True, 1, False, 0]},
    {"a": [Colour.RED]}, {"a": Colour.RED}, {"a": 1.0}, {"a": [1, 2.5]}, {"a": -(2**70), "b": [2**64 + 1, -3]},
    {"ключ": "знач", "\ud83d": ["\udc00", "é"]}, {"a": (1, 2)}, {1: "a"}, [1, 2], "text", 3,
])
def test_edge_docs_match_json_dumps(doc):
    assert_same(doc)


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4095, 4096, 4097])
def test_lists_at_the_slice_edges(n):
    rng = random.Random(n)
    items = [rng.choice((rng.randrange(-99, 2**65), True, None, "sé")) for _ in range(n)]
    doc = {"head": 1, "items": items, "tail": []}
    assert_same(doc)


@pytest.mark.parametrize("doc", [{"b": 10**5000}, {"b": [1] * 3000 + [10**5000]}])
def test_int_past_the_str_limit_raises_as_json_dumps_does(doc, int_str_limit):
    int_str_limit(4300)
    with pytest.raises(ValueError) as expected:
        reference(doc)
    with pytest.raises(ValueError) as got:
        cli._json_text(doc)
    assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


def _peak(render, doc) -> int:
    tracemalloc.start()
    try:
        render(doc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_list_peaks_below_half_of_json_dumps():
    rng = random.Random(5)
    doc = {"preperiod": [1, 0], "period": [rng.randrange(2) for _ in range(50_000)]}
    assert_same(doc)
    assert _peak(cli._json_text, doc) < _peak(reference, doc) / 2
