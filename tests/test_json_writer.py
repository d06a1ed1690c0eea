"""The CLI's JSON writers write the bytes of ``json.dumps(payload,
indent=2, allow_nan=False)``: ``_json_text`` for the payloads ``analyze``
and ``list-presets`` give it and for any nesting of JSON values in which
only dicts hold containers, ``_json_rows`` for rows of scalars under
column names, such as sweep rows, and ``_reproduce_json`` for the
``reproduce`` document of tables of golden-cell texts."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vla_roofline.cli import _json_text
from vla_roofline.commands import _CELL_COLUMNS, _json_rows, _reproduce_json

# Text that a naive row splitter, escaper or template could get wrong:
# quotes, backslashes, braces, a row boundary as text, raw newlines, control
# characters, a line separator, non-ASCII and astral characters, and
# printf-style format markers.
TRICKY = ['"', "\\", "{", "}", "},\n  {", "}, {", "\n", "\r\n", "\x00",
          "\x1f", "\x7f", "\u2028", "\u00e9", "\u00a0", "\U0001f916", ": ",
          ",", "%", "%s", "%%", "%(a)s"]
STRINGS = st.one_of(st.text(max_size=8),
                    st.lists(st.sampled_from(TRICKY), max_size=4).map("".join))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e308, -1e308, 0.1, 2.675]))
INTS = st.one_of(st.integers(), st.sampled_from([2 ** 53 + 1, -2 ** 64,
                                                 10 ** 30]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS)
KEYS = st.one_of(STRINGS, st.sampled_from(["model", "e2e_latency_ms"]))

# One strategy per payload shape a command gives ``_json_text``.
RECORDS = st.dictionaries(KEYS, SCALARS, max_size=8)
PRESET_NAMES = st.fixed_dictionaries({group: st.lists(STRINGS, max_size=3)
                                      for group in ("models", "components",
                                                    "hardware", "networks")})
# Any nesting in which only dicts hold containers, empty ones included.
TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(SCALARS, max_size=4), st.dictionaries(KEYS, children,
                                                   max_size=4)),
    max_leaves=12)
PAYLOADS = st.one_of(RECORDS, PRESET_NAMES, TREES)


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert _json_text(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": {}}, {"a": []}, {"a": {"b": []}, "c": [1]},
    -0.0, 5e-324, 1e16, 1e308, 2 ** 53 + 1, True, None, "},\n  {",
    {"models": [], "hardware": ["b100", "thor"]},
])
def test_writer_matches_json_dumps_on_edge_cases(payload):
    assert _json_text(payload) == _dumps(payload)


def _row_args(dicts: list[dict]) -> tuple[list, list]:
    """``_json_rows``'s arguments for a non-empty list of dicts with the
    same keys, in the first dict's key order."""
    names = list(dicts[0])
    return names, [[row[name] for name in names] for row in dicts]


def _dumps_rows(names, rows, depth: int) -> str:
    """The rows as dicts, as ``json.dumps(indent=2)`` writes them ``depth``
    levels deep: every line but the first indented by ``depth`` more
    levels."""
    dicts = [dict(zip(names, row)) for row in rows]
    return _dumps(dicts).replace("\n", "\n" + "  " * depth)


@st.composite
def named_rows(draw):
    names = draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
    width = len(names)
    return names, draw(st.lists(st.lists(SCALARS, min_size=width,
                                         max_size=width), max_size=5))


@settings(max_examples=300, deadline=None)
@given(named_rows(), st.integers(min_value=0, max_value=3))
def test_row_writer_matches_json_dumps(table, depth):
    """``sweep`` writes its rows with ``_json_rows`` at depth 0, and
    ``reproduce`` each table's cells at depth 2."""
    names, rows = table
    assert _json_rows(names, rows, depth) == _dumps_rows(names, rows, depth)


@pytest.mark.parametrize("rows", [
    [{"a": 1}], [{"a": "},\n  {", "b": 1}, {"a": "}", "b": "{"}],
    [{"a": None, "b": -0.0}, {"a": 1e308, "b": "\u2028"}],
    [{"%s": "%s", "%": 100, "%(a)s": "%%"}, {"%s": "\n", "%": 1.5,
                                            "%(a)s": None}],
])
def test_row_writer_matches_json_dumps_on_edge_cases(rows):
    assert _json_rows(*_row_args(rows)) == _dumps(rows)


@pytest.mark.parametrize("rows", [
    [[1, [1, 2]]], [[{"a": 1, "b": 2}, "x"]], [["x"], ["y", "z"]],
    [[math.nan, 1]], [[1, math.inf]], [[1.0, 2.0], [3.0, -math.inf]],
], ids=["list", "dict", "short-row", "nan", "inf", "-inf-second-row"])
def test_row_writer_rejects_values_that_are_not_one_finite_scalar(rows):
    with pytest.raises(ValueError):
        _json_rows(["a", "b"], rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: {"e2e_latency_ms": x},
    lambda x: [1.0, x],
    lambda x: {"models": [1.0, x]},
], ids=["scalar", "record", "list", "nested"])
def test_writer_rejects_non_finite_numbers(bad, wrap):
    with pytest.raises(ValueError):
        _json_text(wrap(bad))


# A ``reproduce`` table: a name, a verdict and rows of cell texts, one per
# column of ``_CELL_COLUMNS``, no rows included.
TABLES = st.lists(st.tuples(
    STRINGS, st.booleans(),
    st.lists(st.tuples(*[STRINGS] * len(_CELL_COLUMNS)), max_size=4)),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(TABLES)
def test_reproduce_document_matches_json_dumps(tables):
    payload = [{"table": name, "passed": passed,
                "cells": [dict(zip(_CELL_COLUMNS, row)) for row in rows]}
               for name, passed, rows in tables]
    assert _reproduce_json(tables) == _dumps(payload)


@pytest.mark.parametrize("bad", [None, 1, 1.5, True, b"x", ["x"]],
                         ids=["none", "int", "float", "bool", "bytes", "list"])
def test_reproduce_document_refuses_a_cell_value_that_is_not_text(bad):
    """Every cell field goes through the string encoder, so anything but a
    ``str`` raises rather than being written as some other JSON value."""
    row = ["x"] * len(_CELL_COLUMNS)
    for column in range(len(_CELL_COLUMNS)):
        cells = [tuple(row[:column] + [bad] + row[column + 1:])]
        with pytest.raises(TypeError):
            _reproduce_json([("%s", True, [tuple(row)]), ("T1", False, cells)])
