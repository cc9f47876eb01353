"""File formats: DIMACS-style graph files, JSON list files (vertex- or
edge-keyed), JSON packing files and scan certificates.  Parsers reject
malformed input with the offending line or key named; writers round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .coloring import ListAssignment, Packing
from .galvin import EdgeColoring
from .graphs import Edge, Graph


class FormatError(ValueError):
    pass


def parse_graph(text: str) -> Graph:
    """DIMACS-style: optional `c` comment lines, one `p edge <n> <e>` line,
    then `e <u> <v>` lines with 1-based vertex ids, all numbers in canonical
    decimal form.  Lines end at "\n" alone, as the JSON messages count them."""
    n: int | None = None
    declared_edges = problem_line = 0
    edges: list[Edge] = []
    seen: set[Edge] = set()
    lines = text.split("\n")
    if not lines[-1]:  # a final newline ends the last line, it starts none
        lines.pop()
    for num, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise FormatError(f"line {num}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(f"line {num}: expected 'p edge <n> <e>'")
            try:
                n, declared_edges = _natural(fields[2]), _natural(fields[3])
            except ValueError as exc:
                raise FormatError(f"line {num}: count {exc}") from None
            problem_line = num
        elif fields[0] == "e":
            if n is None:
                raise FormatError(f"line {num}: edge before the problem line")
            if len(fields) != 3:
                raise FormatError(f"line {num}: expected 'e <u> <v>'")
            try:
                u, v = _natural(fields[1]), _natural(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {num}: endpoint {exc}") from None
            if u == v:
                raise FormatError(f"line {num}: loop edge ({u},{v}) rejected")
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {num}: endpoint out of range 1..{n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise FormatError(f"line {num}: duplicate edge ({u},{v})")
            seen.add(e)
            edges.append(e)
        else:
            raise FormatError(f"line {num}: unrecognized line {line!r}")
    if n is None:
        raise FormatError(f"line {len(lines) + 1}: missing problem line 'p edge <n> <e>'")
    if len(edges) != declared_edges:
        raise FormatError(
            f"line {problem_line}: declared {declared_edges} edges but found {len(edges)}"
        )
    return Graph.from_edges(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _load_json_object(text: str, what: str) -> dict:
    def reject_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FormatError(f"duplicate key {key!r} in {what}")
            obj[key] = value
        return obj

    def read_int(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            line = _line_of(text, text.find(digits))
            raise FormatError(f"{what}: line {line}: integer too long") from None

    # The line where the top-level value starts, counting lines as json does.
    start = _line_of(text, len(text) - len(text.lstrip(" \t\n\r")))
    try:
        data = json.loads(text, object_pairs_hook=reject_duplicates, parse_int=read_int)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what}: line {start}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise FormatError(f"{what}: line {start}: expected a JSON object")
    return data


def _check_color_array(key: str, value: object) -> frozenset[int]:
    if not isinstance(value, list) or not value:
        raise FormatError(f"key {key!r}: expected a nonempty array of colors")
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in value):
        raise FormatError(f"key {key!r}: colors must be positive integers")
    if len(set(value)) != len(value):
        raise FormatError(f"key {key!r}: duplicate colors")
    return frozenset(value)


def _natural(text: str) -> int:
    """Read `text` as a natural number.  Only the canonical decimal form is
    accepted -- ASCII digits, no leading zero -- so that each number has one
    spelling; int() alone would also take a sign, whitespace, `_` separators,
    leading zeros and non-ASCII digits.  The ValueError says what is wrong."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"{text!r} is not in canonical decimal form")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValueError("has too many digits") from None


def _vertex_id(text: str, key: str) -> int:
    """Read `text`, part or all of `key`, as a vertex id, so that no two keys
    name the same vertex."""
    try:
        return _natural(text)
    except ValueError as exc:
        raise FormatError(f"key {key!r}: vertex id {exc}") from None


def parse_vertex_lists(text: str, g: Graph) -> ListAssignment:
    """JSON object mapping vertex id (canonical decimal string) -> array of
    colors, covering every vertex exactly once."""
    data = _load_json_object(text, "lists file")
    lists: dict[int, frozenset[int]] = {}
    for key, value in data.items():
        v = _vertex_id(key, key)
        if not (1 <= v <= g.n):
            raise FormatError(f"key {key!r}: vertex out of range 1..{g.n}")
        lists[v] = _check_color_array(key, value)
    if len(lists) < g.n:
        missing = next(v for v in g.vertices() if v not in lists)
        raise FormatError(f"key '{missing}' is missing: no list for vertex {missing}")
    return ListAssignment(lists)


def _lists_object(ell: ListAssignment) -> dict[str, list[int]]:
    return {str(v): sorted(ell[v]) for v in sorted(ell.domain())}


def format_vertex_lists(ell: ListAssignment) -> str:
    return json.dumps(_lists_object(ell), indent=2) + "\n"


def format_certificate(fields: dict) -> str:
    """A chi-list or chi-star certificate: `fields` in order as a JSON object,
    each list assignment in it written as a lists file writes it."""
    return json.dumps(fields, indent=2, default=_lists_object) + "\n"


def parse_inputs(graph_path, lists_path) -> tuple[Graph, ListAssignment]:
    """Read and validate a graph file plus its vertex lists file."""
    g = parse_graph(Path(graph_path).read_text())
    return g, parse_vertex_lists(Path(lists_path).read_text(), g)


def parse_edge_lists(text: str, g: Graph) -> dict[Edge, frozenset[int]]:
    """JSON object mapping "u-v" (u < v, both canonical decimal) -> array of
    colors, covering every edge exactly once."""
    data = _load_json_object(text, "edge lists file")
    lists: dict[Edge, frozenset[int]] = {}
    for key, value in data.items():
        parts = key.split("-")
        if len(parts) != 2:
            raise FormatError(f"key {key!r}: expected 'u-v'")
        u, v = _vertex_id(parts[0], key), _vertex_id(parts[1], key)
        if not u < v:
            raise FormatError(f"key {key!r}: expected 'u-v' with u < v")
        if not g.has_edge(u, v):
            raise FormatError(f"key {key!r}: not an edge of the graph")
        lists[(u, v)] = _check_color_array(key, value)
    # Every key names a distinct edge of g, so a short count means a gap.
    if len(lists) < len(g.edges):
        u, v = next(e for e in g.edges if e not in lists)
        raise FormatError(f"key '{u}-{v}' is missing: no list for edge {u}-{v}")
    return lists


def format_edge_lists(edge_lists: dict[Edge, frozenset[int]]) -> str:
    obj = {f"{u}-{v}": sorted(cs) for (u, v), cs in sorted(edge_lists.items())}
    return json.dumps(obj, indent=2) + "\n"


def format_edge_coloring(ec: EdgeColoring) -> str:
    obj = {f"{u}-{v}": c for (u, v), c in sorted(ec.colors.items())}
    return json.dumps(obj, indent=2) + "\n"


def parse_packing(text: str, n: int) -> Packing:
    """JSON object { "k": size, "colorings": k arrays of n positive entries };
    entry [j][i] is the color of vertex i+1 in coloring j+1."""
    data = _load_json_object(text, "packing file")
    if set(data) != {"k", "colorings"}:
        raise FormatError("packing file needs exactly the keys 'k' and 'colorings'")
    k, rows = data["k"], data["colorings"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise FormatError("key 'k': must be a positive integer")
    if not isinstance(rows, list) or len(rows) != k:
        raise FormatError(f"key 'colorings': must be an array of {k} arrays")
    for j, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"key 'colorings': coloring {j} must have exactly {n} entries")
        if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in row):
            raise FormatError(f"key 'colorings': coloring {j}: entries must be positive integers")
    return Packing(tuple({i + 1: row[i] for i in range(n)} for row in rows))


def format_packing(packing: Packing) -> str:
    n = len(packing.rows[0])
    obj = {
        "k": packing.size,
        "colorings": [[row[i + 1] for i in range(n)] for row in packing.rows],
    }
    return json.dumps(obj, indent=2) + "\n"
