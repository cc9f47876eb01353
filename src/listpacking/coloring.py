"""List assignments, colorings, packings, and their verification.

A packing of size k is k colorings that disagree at every vertex pairwise; it
is proper when every member is a proper list coloring.  One checker,
`is_proper_packing`, states each of these checks once; `is_proper_coloring`
is that checker run on the packing of one row.  The lift/extract pair
realizes the correspondence between packings of G and colorings of G box K_k:
lists are copied along the second coordinate, and the j-th slice of a product
coloring becomes the j-th member of the packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, cartesian_product, complete_graph, product_id

Coloring = dict[int, int]

NOT_IN_LIST = "not-in-list"
NOT_PROPER = "not-proper"
NOT_DISJOINT = "not-disjoint"


@dataclass(frozen=True)
class ListAssignment:
    """Map vertex -> nonempty set of positive integer colors."""

    lists: dict[int, frozenset[int]]

    @classmethod
    def from_dict(cls, raw) -> "ListAssignment":
        lists: dict[int, frozenset[int]] = {}
        for v, colors in raw.items():
            cs = frozenset(colors)
            if not cs:
                raise ValueError(f"empty color list at vertex {v}")
            if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in cs):
                raise ValueError(f"colors must be positive integers at vertex {v}")
            lists[v] = cs
        return cls(lists)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def domain(self) -> set[int]:
        return set(self.lists)

    def is_k_assignment(self, k: int) -> bool:
        return all(len(cs) == k for cs in self.lists.values())

    def uniform_size(self) -> int | None:
        sizes = {len(cs) for cs in self.lists.values()}
        return sizes.pop() if len(sizes) == 1 else None


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple[int, ...]  # (v,) or (u, v)
    indices: tuple[int, ...] = ()  # 1-based coloring indices involved


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations) -> "VerifyReport":
        vs = tuple(violations)
        return cls(not vs, vs)


_PASSED = VerifyReport(True, ())  # frozen, so every passing check shares it


@dataclass(frozen=True)
class Packing:
    """An ordered tuple of colorings; order matters only for reporting."""

    rows: tuple[Coloring, ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def _require_domains(g: Graph, ell: ListAssignment, f: Coloring | None = None) -> set[int]:
    """Raise unless ell, and f when given, cover exactly g's vertices;
    return the vertex set."""
    verts = set(g.vertices())
    if ell.lists.keys() != verts:
        raise ValueError("list assignment domain does not match the vertex set")
    if f is not None and set(f) != verts:
        raise ValueError("coloring domain does not match the vertex set")
    return verts


def is_proper_coloring(g: Graph, ell: ListAssignment, f: Coloring) -> VerifyReport:
    """Check list membership at every vertex and properness at every edge:
    the packing check of the one row f, reported without coloring indices."""
    _require_domains(g, ell, f)
    report = is_proper_packing(g, ell, Packing((f,)))
    if report.ok:
        return report
    return VerifyReport.from_violations(Violation(x.kind, x.where) for x in report.violations)


def is_proper_packing(g: Graph, ell: ListAssignment, packing: Packing) -> VerifyReport:
    """Check that every row is a proper list coloring and that rows are
    pairwise distinct at every vertex.  One read of each column records
    where it leaves the list or repeats a color; violations are named only
    there, and at the edges of the rows that repeat a color."""
    domain = _require_domains(g, ell)
    rows = packing.rows
    for idx, row in enumerate(rows, start=1):
        if row.keys() != domain:
            raise ValueError(f"coloring {idx} domain does not match the vertex set")
    lists, k = ell.lists, len(rows)
    off_list: list[int] = []
    repeats: list[tuple[int, list[int]]] = []
    for v in g.vertices():
        col = [row[v] for row in rows]
        if not lists[v].issuperset(col):
            off_list.append(v)
        if len(set(col)) != k:
            repeats.append((v, col))
    violations: list[Violation] = []
    for idx, row in enumerate(rows, start=1):
        for v in off_list:
            if row[v] not in lists[v]:
                violations.append(Violation(NOT_IN_LIST, (v,), (idx,)))
        if len(set(row.values())) != len(row):  # an injective row has no improper edge
            for u, v in g.edges:
                if row[u] == row[v]:
                    violations.append(Violation(NOT_PROPER, (u, v), (idx,)))
    for v, col in repeats:
        for i, j in combinations(range(k), 2):
            if col[i] == col[j]:
                violations.append(Violation(NOT_DISJOINT, (v,), (i + 1, j + 1)))
    return VerifyReport.from_violations(violations) if violations else _PASSED


def lift_lists(g: Graph, ell: ListAssignment, k: int) -> tuple[Graph, ListAssignment]:
    """Return H = g box K_k together with the lifted assignment that gives the
    product vertex (i, j) the list of vertex i, for every j."""
    if k < 1:
        raise ValueError(f"packing size must be positive, got {k}")
    _require_domains(g, ell)
    h = cartesian_product(g, complete_graph(k))
    lifted = {
        product_id(i, j, k): ell[i] for i in g.vertices() for j in range(1, k + 1)
    }
    return h, ListAssignment(lifted)


def extract_packing(g: Graph, k: int, f_h: Coloring) -> Packing:
    """Slice a coloring of g box K_k into the packing whose j-th row colors
    vertex i with the color of product vertex (i, j).  Pure reindexing; no
    properness or disjointness validation happens here."""
    if k < 1:
        raise ValueError(f"packing size must be positive, got {k}")
    expected = {product_id(i, j, k) for i in g.vertices() for j in range(1, k + 1)}
    if set(f_h) != expected:
        raise ValueError("coloring does not cover the product vertex set")
    rows = tuple(
        {i: f_h[product_id(i, j, k)] for i in g.vertices()} for j in range(1, k + 1)
    )
    return Packing(rows)
