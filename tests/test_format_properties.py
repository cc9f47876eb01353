"""Property-based tests for the file parsers on adversarial text: every
rejection is a FormatError that names a line or a key, never another
exception type, and every accepted input round-trips through its writer."""

from __future__ import annotations

import json
import re
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from listpacking import Graph  # noqa: E402
from listpacking.formats import (  # noqa: E402
    FormatError,
    format_edge_lists,
    format_graph,
    format_packing,
    format_vertex_lists,
    parse_edge_lists,
    parse_graph,
    parse_packing,
    parse_vertex_lists,
)

NAMES_A_LINE = re.compile(r"\bline \d+")
NAMES_A_KEY = re.compile(r"\bkeys? ['\"]")

# Whitespace and line breaks that str.split / str.splitlines treat specially.
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\u3000", "\xa0"]
BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\n\n"]
# Numerals int() accepts or nearly accepts, and a few it never does.
NUMERALS = [
    "0", "1", "2", "3", "4", "5", "-1", "-0", "01", "+2", "1_0", " 3", "\u0661",
    "\u00b2", "1.0", "1e3", "9" * 5000, "99999999999999999999", "", "x", "\x00",
]
DIMACS_TOKENS = ["p", "edge", "e", "c", "P", "col", "E"] + NUMERALS


def _rejection_names_a_line_or_key(exc: FormatError) -> bool:
    message = str(exc)
    return bool(NAMES_A_LINE.search(message) or NAMES_A_KEY.search(message))


junk_lines = st.lists(st.sampled_from(DIMACS_TOKENS), max_size=5).flatmap(
    lambda tokens: st.sampled_from(SPACES).map(lambda space: space.join(tokens))
) | st.text(max_size=12)


@st.composite
def dimacs_texts(draw):
    """A well-formed DIMACS graph on at most 5 vertices, then up to four
    line edits (insert, replace, delete or duplicate a line), joined by one
    kind of line break."""
    n = draw(st.integers(0, 5))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "duplicate")))
        if edit == "insert" or not lines:
            lines.insert(at, draw(junk_lines))
        elif edit == "replace":
            lines[min(at, len(lines) - 1)] = draw(junk_lines)
        elif edit == "delete":
            del lines[min(at, len(lines) - 1)]
        else:
            lines.insert(at, lines[min(at, len(lines) - 1)])
    return draw(st.sampled_from(BREAKS)).join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dimacs_texts())
@example("")
@example("c only a comment\n")
@example("p edge 3 2\ne 1 2\n")
@example("p edge 99999999999 0\n")
@example("p edge 2 1\ne 1 \u0662\n")
def test_parse_graph_rejects_only_with_a_named_line(text):
    try:
        g = parse_graph(text)
    except FormatError as exc:
        assert NAMES_A_LINE.search(str(exc)), str(exc)
    else:
        assert parse_graph(format_graph(g)) == g


JSON_KEYS = [
    "1", "2", "3", "4", "0", "01", "+1", " 1", "1 ", "1_0", "-1", "\u0661", "", "a",
    "1-2", "1-3", "2-3", "2-1", "1-2-3", "-", "01-2", "1-", "9" * 400, "a'b", "\udc80",
]
json_leaves = (
    st.integers(-3, 10)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=8,
)
# Text spliced into a document: numbers past int()'s digit limit, deep
# nesting, a byte-order mark, bare words json accepts, a stray brace.
SPLICES = [
    "9" * 5000, "-" + "9" * 5000, "[" * 5000, "[" * 5000 + "]" * 5000, "\ufeff",
    "NaN", "Infinity", "[1e400]", "}", ",", '"',
]


@st.composite
def json_documents(draw, keys):
    """An object text from (key, value) members, duplicates allowed, each
    value usually a color array; sometimes a bare top-level value instead,
    and sometimes a splice of raw text at a random offset."""
    if draw(st.integers(0, 9)) == 0:
        text = json.dumps(draw(json_values))
    else:
        color_arrays = st.lists(st.integers(-2, 8) | st.booleans() | st.floats(0, 3), max_size=5)
        members = draw(st.lists(st.tuples(keys, color_arrays | json_values), max_size=6))
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLICES) | st.text(max_size=3)) + text[at:]
    return draw(st.sampled_from(["", " ", "\n\n"])) + text


SMALL_GRAPHS = [
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
    Graph.from_edges(3, [(1, 2), (2, 3)]),
    Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)]),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_documents(st.sampled_from(JSON_KEYS)), st.sampled_from(SMALL_GRAPHS))
@example('{"1": [1], "1": [2]}', SMALL_GRAPHS[1])
@example("[" * 50000, SMALL_GRAPHS[1])
@example('{"1": [' + "9" * 5000 + "]}", SMALL_GRAPHS[1])
@example("\n\n[1]", SMALL_GRAPHS[1])
def test_parse_vertex_lists_rejects_only_with_a_named_line_or_key(text, g):
    try:
        lists = parse_vertex_lists(text, g)
    except FormatError as exc:
        assert _rejection_names_a_line_or_key(exc), str(exc)
    else:
        assert parse_vertex_lists(format_vertex_lists(lists), g) == lists


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_documents(st.sampled_from(JSON_KEYS)), st.sampled_from(SMALL_GRAPHS))
@example('{"1-2": [1], "2-3": [2]}', SMALL_GRAPHS[2])
@example('{"1-2": [' + "9" * 5000 + "]}", Graph.from_edges(2, [(1, 2)]))
def test_parse_edge_lists_rejects_only_with_a_named_line_or_key(text, g):
    try:
        lists = parse_edge_lists(text, g)
    except FormatError as exc:
        assert _rejection_names_a_line_or_key(exc), str(exc)
    else:
        assert parse_edge_lists(format_edge_lists(lists), g) == lists


@st.composite
def packing_documents(draw):
    """A packing object of k rows over n vertices, then the values of 'k' or
    'colorings' or the key set edited; or any other object document."""
    n = draw(st.integers(1, 4))
    if draw(st.integers(0, 4)) == 0:
        return n, draw(json_documents(st.sampled_from(["k", "colorings", "K", "rows", ""])))
    k = draw(st.integers(1, 3))
    rows = [draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)) for _ in range(k)]
    obj = {"k": k, "colorings": rows}
    edit = draw(st.sampled_from(("none", "k", "colorings", "row", "entry", "keys")))
    if edit == "k":
        obj["k"] = draw(json_values)
    elif edit == "colorings":
        obj["colorings"] = draw(json_values)
    elif edit == "row":
        rows[draw(st.integers(0, k - 1))] = draw(json_values)
    elif edit == "entry":
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] = draw(json_values)
    elif edit == "keys":
        obj[draw(st.sampled_from(["extra", "k ", ""]))] = 1
        if draw(st.booleans()):
            del obj["k"]
    return n, json.dumps(obj)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packing_documents())
@example((2, '{"k": ' + "9" * 5000 + ', "colorings": []}'))
@example((1, '{"k": 1, "colorings": [[1]], "k": 1}'))
def test_parse_packing_rejects_only_with_a_named_line_or_key(instance):
    n, text = instance
    try:
        packing = parse_packing(text, n)
    except FormatError as exc:
        assert _rejection_names_a_line_or_key(exc), str(exc)
    else:
        assert parse_packing(format_packing(packing), n) == packing
