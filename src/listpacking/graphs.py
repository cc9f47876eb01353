"""Immutable simple graphs and the constructions everything else builds on:
complete graphs, complete bipartite graphs, Cartesian products, line graphs,
and bipartitions with odd-cycle witnesses.

A graph is its vertex count n and its sorted edge tuple, on the vertices
1..n.  Product coordinates come from `product_coords`; line-graph vertices
follow the base graph's sorted edge order.  All constructors are
deterministic: identical inputs give identical graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

Vertex = int
Edge = tuple[int, int]


class NotBipartiteError(ValueError):
    """Raised when a bipartition is requested for a graph with an odd cycle.

    The offending cycle is available as ``.cycle`` (a vertex sequence of odd
    length whose consecutive pairs, and closing pair, are edges).
    """

    def __init__(self, cycle: list[int]):
        super().__init__(f"graph is not bipartite: odd cycle {cycle}")
        self.cycle = cycle


def edge(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) order."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with a sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edge_list) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen: set[Edge] = set()
        edges: list[Edge] = []
        for u, v in edge_list:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) rejected")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            e = edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge ({u},{v}) rejected")
            seen.add(e)
            edges.append(e)
        edges.sort()  # input order, not hash order: presorted input sorts in linear time
        return cls(n, tuple(edges))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u - 1].append(v)
            nbrs[v - 1].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 < v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self._adjacency[v - 1]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self._edge_set


@dataclass(frozen=True)
class Bipartition:
    X: frozenset[int]
    Y: frozenset[int]

    def split_edge(self, e: Edge) -> tuple[int, int]:
        """Return the endpoints of e as (X-side vertex, Y-side vertex)."""
        u, v = e
        if u in self.X and v in self.Y:
            return u, v
        if v in self.X and u in self.Y:
            return v, u
        raise ValueError(f"edge {e} does not cross the bipartition")


def product_id(i: int, j: int, width: int) -> int:
    """Vertex id of the product vertex (i, j) when the right factor has
    `width` vertices; the inverse of product_coords."""
    return (i - 1) * width + j


def product_coords(vid: int, width: int) -> tuple[int, int]:
    i, j = divmod(vid - 1, width)
    return i + 1, j + 1


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least one vertex, got n={n}")
    # combinations reuses its pool's int objects: one per vertex id, not per edge.
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def complete_bipartite(n: int, m: int) -> tuple[Graph, Bipartition]:
    """K_{n,m} with X = 1..n and Y = n+1..n+m."""
    if n < 1 or m < 1:
        raise ValueError(f"both sides must be nonempty, got ({n},{m})")
    # One int object per vertex id, shared by its edges and its side.
    ids = list(range(1, n + m + 1))
    xs, ys = ids[:n], ids[n:]
    return Graph.from_edges(n + m, product(xs, ys)), Bipartition(frozenset(xs), frozenset(ys))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Vertices are pairs (i, j), numbered (i-1)*|V(h)| + j; (i,j) ~ (i',j')
    iff the pairs agree in one coordinate and are adjacent in the other."""
    if g.n < 1 or h.n < 1:
        raise ValueError("both factors must be nonempty")
    w = h.n
    edges: list[Edge] = []
    for i in g.vertices():
        for a, b in h.edges:
            edges.append(edge(product_id(i, a, w), product_id(i, b, w)))
    for a, b in g.edges:
        for j in h.vertices():
            edges.append(edge(product_id(a, j, w), product_id(b, j, w)))
    return Graph.from_edges(g.n * h.n, edges)


def line_graph(g: Graph) -> Graph:
    """Vertex v is the edge g.edges[v - 1], in sorted edge order; two
    edge-vertices are adjacent when the edges share an endpoint."""
    if not g.edges:
        raise ValueError("line graph of an edgeless graph is undefined here")
    base = g.edges
    edges: list[Edge] = []
    for a, b in combinations(range(len(base)), 2):
        ea, eb = base[a], base[b]
        if ea[0] in eb or ea[1] in eb:
            edges.append((a + 1, b + 1))
    return Graph.from_edges(len(base), edges)


def bipartition(g: Graph) -> Bipartition:
    """2-color g by BFS; raise NotBipartiteError with an odd-cycle witness
    if impossible.  Isolated vertices land in X."""
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in g.vertices():
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    raise NotBipartiteError(_odd_cycle(parent, v, w))
    x = frozenset(v for v in g.vertices() if color[v] == 0)
    return Bipartition(x, frozenset(g.vertices()) - x)


def _odd_cycle(parent: dict[int, int | None], v: int, w: int) -> list[int]:
    # Walk both BFS ancestries to their first common vertex; the two partial
    # paths plus the edge vw close an odd cycle.
    def ancestry(u: int) -> list[int]:
        path = [u]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])  # type: ignore[arg-type]
        return path

    pv, pw = ancestry(v), ancestry(w)
    common = set(pv) & set(pw)
    iv = next(i for i, u in enumerate(pv) if u in common)
    iw = next(i for i, u in enumerate(pw) if u in common)
    if pv[iv] != pw[iw]:
        raise RuntimeError("internal error: the two BFS ancestries meet at different vertices")
    return pv[: iv + 1] + pw[:iw][::-1]
