from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.io import atomic_write_json, json_chunks, read_json


def one_line(value) -> str:
    return json.dumps(value, ensure_ascii=False)


def canonical(value) -> str:
    """The canonical layout built from ``json.dumps`` of each top-level item:
    a non-empty list or object holds one item per line, indented two
    spaces; an object's key is written as ``json.dumps`` converts a key."""
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join("  " + one_line(item) for item in value) + "\n]"
    if isinstance(value, dict) and value:
        entries = (
            f"  {one_line(key if isinstance(key, str) else one_line(key))}: {one_line(item)}"
            for key, item in value.items()
        )
        return "{\n" + ",\n".join(entries) + "\n}"
    return one_line(value)


# the characters that could break a line-per-record layout or its escaping:
# brackets, commas, quotes, backslashes, line breaks, control characters
# and text outside ASCII
TRICKY = st.text(st.sampled_from('{}[],:" \\\n\r\t\x00\x1f\x7fé→漢😀a0'), max_size=8)
STRINGS = st.one_of(TRICKY, st.text(max_size=8))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True), STRINGS,
)
# every key kind json.dumps takes, NaN and the infinities among the floats
KEYS = st.one_of(STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
RECORDS = st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        # lists of flat dicts, with an empty dict among them now and then
        st.lists(st.one_of(RECORDS, RECORDS, st.just({})), max_size=4),
        st.lists(st.dictionaries(KEYS, children, min_size=1, max_size=3), max_size=3),
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_chunks_join_to_the_canonical_layout(value):
    text = "".join(json_chunks(value))
    assert text == canonical(value)
    assert one_line(json.loads(text)) == one_line(json.loads(one_line(value)))


@settings(max_examples=100, deadline=None)
@given(st.lists(JSON_VALUES, min_size=1, max_size=6))
def test_a_top_level_list_comes_one_chunk_per_item(values):
    chunks = json_chunks(values)
    assert "".join(chunks) == canonical(values)
    assert len(chunks) == len(values) + 1 and chunks[-1] == "\n]"


def test_layouts_of_nested_values():
    assert "".join(json_chunks({"center_distance": {4: 0.5}, 5.5: [1, {}], True: None, "x": math.nan})) == (
        '{\n  "center_distance": {"4": 0.5},\n  "5.5": [1, {}],\n  "true": null,\n  "x": NaN\n}'
    )
    assert "".join(json_chunks([{"b": "},\n  {"}, (1, (2,)), "é"])) == (
        '[\n  {"b": "},\\n  {"},\n  [1, [2]],\n  "é"\n]'
    )
    for value in ([], {}, (), "x", 1.5, None):
        assert json_chunks(value) == [one_line(value)]


def test_deep_nesting_and_many_items():
    deep = [1]
    for depth in range(40):
        deep = {"d": [deep, depth, {"e": [depth]}]}
    many = [{"id": i, "l": [i, str(i)], "m": {"n": i / 7}} for i in range(700)]
    for value in (deep, many, [deep, many]):
        assert "".join(json_chunks(value)) == canonical(value)


def test_errors_match_json_dumps():
    cyclic = [1]
    cyclic.append({"a": cyclic})
    with pytest.raises(ValueError, match="Circular reference detected"):
        json_chunks(cyclic)
    for value in ([{"a": object()}], {"a": [1, {2}]}, {(1, 2): [0]}, [{(1, 2): 0}]):
        with pytest.raises(TypeError) as ours:
            json_chunks(value)
        with pytest.raises(TypeError) as theirs:
            one_line(value)
        assert str(ours.value) == str(theirs.value)


def test_atomic_write_json_writes_utf8_with_a_final_newline(tmp_path):
    value = {"name": "café", "rows": [{"a": 1.5, "b": [True, None]}, {"c": "x"}]}
    atomic_write_json(tmp_path / "v.json", value)
    assert (tmp_path / "v.json").read_bytes() == (canonical(value) + "\n").encode("utf-8")
    assert read_json(tmp_path / "v.json") == value


def test_a_value_the_encoder_refuses_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "v.json"
    atomic_write_json(path, [{"kept": True}])
    before = path.read_bytes()
    cyclic = {"a": [1]}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        atomic_write_json(path, [cyclic])
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        atomic_write_json(path, [{"a": {1, 2}}])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]
