from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame import io
from refgame.io import atomic_write_json, json_chunks


def indented(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


# the characters that could confuse a writer which splits encoded text:
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
def test_chunks_join_to_indented_json_dumps(value):
    assert "".join(json_chunks(value)) == indented(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(JSON_VALUES, min_size=1, max_size=6))
def test_a_top_level_list_comes_one_chunk_per_item(values):
    chunks = json_chunks(values)
    assert "".join(chunks) == indented(values)
    if not all(type(v) in (str, int, float, bool, type(None)) for v in values):
        assert len(chunks) == len(values) + 1


def test_layouts_of_nested_values():
    values = [
        {"center_distance": {4: 0.5, 5.5: 0.75, True: 1, None: [1, {}]}, "x": math.nan},
        [{"a": 1}, {}, {"b": "},\n  {"}],
        [{"a": [{"b": [[]], "c": -math.inf}], "d": {"e": {}}}, {"f": "é\n"}],
        [[{"a": 1, "b": 2}, {"c": 3}], [[1, 2], [], [3]]],
        ([1, (2, 3)], {"t": (4,)}),
    ]
    for value in values:
        assert "".join(json_chunks(value)) == indented(value)


def test_deep_nesting_and_many_items():
    deep = [1]
    for depth in range(40):
        deep = {"d": [deep, depth, {"e": [depth]}]}
    many = [{"id": i, "l": [i, str(i)], "m": {"n": i / 7}} for i in range(700)]
    for value in (deep, many, [deep, many]):
        assert "".join(json_chunks(value)) == indented(value)


def test_errors_match_json_dumps():
    cyclic = [1]
    cyclic.append({"a": cyclic})
    with pytest.raises(ValueError, match="Circular reference detected"):
        json_chunks(cyclic)
    for value in ([{"a": object()}], {"a": [1, {2}]}, {(1, 2): [0]}, [{(1, 2): 0}]):
        with pytest.raises(TypeError) as ours:
            json_chunks(value)
        with pytest.raises(TypeError) as theirs:
            indented(value)
        assert str(ours.value) == str(theirs.value)


def test_without_the_c_encoder_falls_back_to_json_dumps(monkeypatch):
    value = [{"a": [1, 2], "b": {"c": None}}, {"d": "é"}]
    monkeypatch.setattr(io, "c_make_encoder", None)
    assert json_chunks(value) == [indented(value)]


def test_atomic_write_json_writes_utf8_with_a_final_newline(tmp_path):
    value = {"name": "café", "rows": [{"a": 1.5, "b": [True, None]}, {"c": "x"}]}
    atomic_write_json(tmp_path / "v.json", value)
    assert (tmp_path / "v.json").read_bytes() == (indented(value) + "\n").encode("utf-8")
