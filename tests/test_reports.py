"""The report encoder, whole and in pieces, against the json module it
replaces."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hellykit.reports import dumps, iterencode


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# non-ASCII, control, quote and backslash characters, mixed with plain ones
TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7féλ\u2028\U0001f600'),
               max_size=6)
SCALARS = (st.booleans() | st.none() | TEXT
           | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 3.0, -2.0,
                              1e16, 123456789.0]))


class Gen(list):
    """A list that `fresh` hands to the encoder as a generator; json.dumps
    writes it as the list it is."""


def fresh(o):
    """o with each Gen turned into a one-shot generator of its items."""
    if isinstance(o, Gen):
        return (fresh(x) for x in o)
    if isinstance(o, list):
        return [fresh(x) for x in o]
    if isinstance(o, tuple):
        return tuple(fresh(x) for x in o)
    if isinstance(o, dict):
        return {k: fresh(v) for k, v in o.items()}
    return o


TREES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(Gen)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


def nested(depth):
    """A tree `depth` containers deep, alternating lists and dicts, with
    bools, None and empty containers at every level."""
    node = [True, False, None, {}, [], -0.0]
    for level in range(depth):
        if level % 2:
            node = [level, node, {"t": True, "n": None}, [False, None]]
        else:
            node = {"kéy": node, "f": False, "e": [], "d": {}}
    return node


# derandomized and without an example database, so a tier-1 run is
# reproducible and leaves no files behind
PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(TREES)
@example(nested(7))
@example([True, False, None, 1, 0, 1.0, -0.0, 1e300, 5e-324, 2 ** 100])
@example({"t": True, "f": False, "n": None, "i": 1, "z": 0})
@example(Gen([Gen(), [Gen([1, (2,)])], {"g": Gen([Gen(), 0.5])}]))
def test_dumps_matches_json(obj):
    # a generator is read once, so each encoding gets its own
    assert "".join(iterencode(fresh(obj))) == dumps(fresh(obj)) == reference(obj)


SHARED = (1, (2, "x"), [])
# equal and hashing alike, but encoded differently: a memo by value would
# write the first one's text for all of them
LOOKALIKES = [tuple([1]), tuple([True]), tuple([1.0]), tuple([0]),
              tuple([False]), tuple([-0.0])]
# more than 64 containers, empty ones among them: one piece per item
LONG = [[i, "x"] if i % 5 == 0 else {"k": (i,)} if i % 5 == 1 else
        {} if i % 5 == 2 else [] if i % 5 == 3 else (i, None) for i in range(70)]


@pytest.mark.parametrize("obj", [
    {"a": SHARED, "b": [SHARED, {"c": SHARED}], "d": (SHARED, SHARED)},
    LOOKALIKES, {"x": LOOKALIKES, "y": [LOOKALIKES, (LOOKALIKES,)]},
    LONG, {"a": LONG}, {"a": {"b": {"c": LONG}}}, {"a": [{"b": LONG}]},
    {"a": [LONG, LONG]}, {"a": list(range(70)), "b": [1.5] * 70},
    Gen(LONG), {"a": Gen(LONG), "b": Gen(range(70)), "c": Gen(["x"] * 70)},
    {"a": [Gen(LONG)], "b": (Gen(LOOKALIKES),)}, Gen(), {"a": Gen()},
    [Gen(), (Gen(),), {"e": Gen()}],
], ids=["shared-tuple", "lookalikes", "nested-lookalikes", "long-depth-0",
        "long-depth-1", "long-depth-3", "long-in-list", "long-twice",
        "long-flat", "gen-long", "gen-long-flat", "gen-nested", "gen-empty",
        "gen-empty-depth-1", "gen-empty-joined"])
def test_pieces_match_json(obj):
    assert "".join(iterencode(fresh(obj))) == reference(obj)


def test_long_lists_stream_per_item():
    # the pieces of {"a": LONG}: its key, its 70 items, the "]" and "}" that
    # close them, and the final newline
    assert len(list(iterencode({"a": LONG}))) == 74


def test_generators_stream_per_item():
    # like a long list, a generator gives one piece per item, however few
    # or flat: its key, its 3 items, the "]" and "}", the final newline
    assert len(list(iterencode({"a": (x for x in "xyz")}))) == 7
    assert list(iterencode(x for x in ())) == ["[]", "\n"]


def test_fresh_tuples_from_a_generator():
    # each tuple is built, encoded and dropped before the next is built, so
    # CPython hands a later one the same id; a memo by id that did not hold
    # its tuples would write an earlier tuple's text for it
    def tuples():
        for i in range(200):
            yield (i, "x" * (i % 3), None)

    assert len({id(t) for t in tuples()}) < 200  # ids are reused
    items = [[i, "x" * (i % 3), None] for i in range(200)]
    assert "".join(iterencode(tuples())) == reference(items)
    assert dumps({"a": tuples()}) == reference({"a": items})


@pytest.mark.parametrize("obj", [
    (1, (2, "x")), {"t": (True, None)}, [], {}, "", 0, -0.0,
    float("nan"), [float("inf"), float("-inf")],
])
def test_tuples_and_non_finite(obj):
    assert dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"x": {1, 2}}, [object()]])
def test_unserializable_raises_type_error(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        list(iterencode({"a": obj}))


@pytest.mark.parametrize("obj", [
    Gen([{1, 2}]), Gen([1, Gen([frozenset()])]), [Gen([{1}])], (Gen([{1}]),),
    Gen([map(str, [1])]), map(str, [1]), iter([1]), range(2),
])
def test_only_generators_are_arrays(obj):
    # a set inside a generator still raises, and other iterables are not
    # arrays: only types.GeneratorType is
    with pytest.raises(TypeError):
        dumps(fresh(obj))
    with pytest.raises(TypeError):
        list(iterencode({"a": fresh(obj)}))


@pytest.mark.parametrize("obj", [{1: "a"}, {"x": {True: 1}}, [{None: 0}]])
def test_non_str_keys_raise_type_error(obj):
    # json would write these keys as strings; reports never have them
    with pytest.raises(TypeError):
        dumps(obj)
