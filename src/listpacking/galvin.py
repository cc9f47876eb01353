"""Kernel-based list edge coloring of simple bipartite graphs.

This is Galvin's method, made concrete.  Fix a proper edge coloring of the
bipartite graph with max-degree many colors (the "base" coloring), and read
strict vertex preferences off it: X-side vertices prefer incident edges of
HIGHER base color, Y-side vertices prefer LOWER base color.  Then color
greedily, one list color per round: the edges still wanting the current color
form a pool, a stable matching of the pool (computed by deferred acceptance)
gets the color, and everyone else deletes it from their list.  The stable
matching is exactly a kernel of the pool under those preferences, which is
why an edge loses a color only when a dominating neighbor got colored -- so
lists of size at least the maximum degree never run dry.

Cost: each edge is oriented into (X-vertex, Y-vertex, base color), and each
X-vertex's preference order is sorted, once per engine run.  The color ->
wanting-edges index is built once per run of consecutive edges with equal
lists, not once per edge: in `pack_complete` every edge at x_i carries x_i's
list, so that is once per X-vertex.  Walking the colors upward, a round scans
its color's bucket for the pool, runs deferred acceptance along the
proposers' fixed orders (skipping edges outside the pool), and checks the
kernel in O(|pool|).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from .graphs import Bipartition, Edge, Graph

EdgeListAssignment = dict[Edge, frozenset[int]]


@dataclass(frozen=True)
class EdgeColoring:
    colors: dict[Edge, int]
    palette_size: int


@dataclass(frozen=True)
class PreferenceSystem:
    """Preferences induced by a proper base edge coloring: X wants high base
    colors, Y wants low.  Properness makes every vertex's ranking strict."""

    base: EdgeColoring
    bipartition: Bipartition

    def color(self, e: Edge) -> int:
        return self.base.colors[e]

    @cached_property
    def oriented(self) -> dict[Edge, tuple[int, int, int]]:
        """e -> (X-side vertex, Y-side vertex, base color of e)."""
        split = self.bipartition.split_edge
        return {e: (*split(e), c) for e, c in self.base.colors.items()}

    @cached_property
    def order(self) -> dict[int, tuple[tuple[int, int, Edge], ...]]:
        """x -> x's edges as (base color, y, edge), best (highest) first."""
        order: dict[int, list[tuple[int, int, Edge]]] = {}
        for e, (x, y, c) in self.oriented.items():
            order.setdefault(x, []).append((c, y, e))
        return {x: tuple(sorted(lst, reverse=True)) for x, lst in order.items()}


@dataclass(frozen=True)
class RoundTrace:
    color: int
    pool: tuple[Edge, ...]
    matched: tuple[Edge, ...]


@dataclass
class GalvinTrace:
    rounds: list[RoundTrace] = field(default_factory=list)
    deletions: dict[Edge, int] = field(default_factory=dict)


def _check_bipartition(g: Graph, bip: Bipartition) -> None:
    if bip.X | bip.Y != frozenset(g.vertices()) or bip.X & bip.Y:
        raise ValueError("bipartition does not partition the vertex set")
    for e in g.edges:
        bip.split_edge(e)  # raises if the edge stays inside one side


def edge_color_bipartite(g: Graph, bip: Bipartition) -> EdgeColoring:
    """Proper edge coloring with exactly max-degree many colors.

    Complete bipartite graphs get the closed form
    c(x_i, y_j) = ((i + j - 2) mod max(n, m)) + 1; anything else is built by
    inserting edges one at a time and swapping a two-color alternating path
    when the endpoints have no free color in common.
    """
    _check_bipartition(g, bip)
    delta = g.max_degree()
    xs, ys = sorted(bip.X), sorted(bip.Y)
    if len(g.edges) == len(xs) * len(ys) and g.edges:
        index_x = {v: i for i, v in enumerate(xs, start=1)}
        index_y = {v: j for j, v in enumerate(ys, start=1)}
        colors = {}
        for e in g.edges:
            x, y = bip.split_edge(e)
            colors[e] = (index_x[x] + index_y[y] - 2) % delta + 1
        return EdgeColoring(colors, delta)
    return _edge_color_augmenting(g, delta)


def _edge_color_augmenting(g: Graph, delta: int) -> EdgeColoring:
    colors: dict[Edge, int] = {}
    # at[v][c] = the neighbor joined to v by the c-colored edge
    at: dict[int, dict[int, int]] = {v: {} for v in g.vertices()}

    def set_color(u: int, v: int, c: int) -> None:
        colors[(u, v) if u < v else (v, u)] = c
        at[u][c] = v
        at[v][c] = u

    for u, v in g.edges:
        free_u = [c for c in range(1, delta + 1) if c not in at[u]]
        free_v = [c for c in range(1, delta + 1) if c not in at[v]]
        common = sorted(set(free_u) & set(free_v))
        if common:
            set_color(u, v, common[0])
            continue
        a, b = free_u[0], free_v[0]
        # Flip the maximal a/b alternating path starting at v; it cannot end
        # at u, so afterwards a is free at both endpoints.  Clear every path
        # entry before re-inserting: consecutive path edges share vertices,
        # and an interleaved update would delete freshly written entries.
        z, want = v, a
        path: list[tuple[int, int, int]] = []
        while want in at[z]:
            nxt = at[z][want]
            path.append((z, nxt, want))
            z = nxt
            want = b if want == a else a
        assert z != u, "alternating path closed on the insertion endpoint"
        for p, q, old in path:
            del at[p][old]
            del at[q][old]
        for p, q, old in path:
            set_color(p, q, b if old == a else a)
        set_color(u, v, a)
    return EdgeColoring(colors, delta)


def stable_matching(pool, prefs: PreferenceSystem) -> set[Edge]:
    """Deferred acceptance on a nonempty set of edges: X-side vertices propose
    along their pool edges in decreasing base color, a Y-side vertex holds the
    lowest-color proposal seen so far.

    The result is a matching M absorbing the rest of the pool: every unmatched
    pool edge xy shares x with a matched edge of higher base color or shares y
    with a matched edge of lower base color.
    """
    members = set(pool)
    if not members:
        raise ValueError("stable matching of an empty edge pool is undefined")
    oriented, order = prefs.oriented, prefs.order
    # proposals[x] = x's pool edges as (base color, y, edge), best first:
    # x's fixed order, filtered by pool membership as x proposes.
    proposals = {
        x: (t for t in order[x] if t[2] in members)
        for x in sorted({oriented[e][0] for e in members})
    }
    # The X-optimal stable matching does not depend on the proposal order,
    # so a FIFO queue of free proposers suffices.
    free = deque(proposals)
    held: dict[int, tuple[int, int, Edge]] = {}  # y -> (base color, x, edge)
    while free:
        x = free.popleft()
        proposal = next(proposals[x], None)
        if proposal is None:
            continue  # exhausted every pool edge; stays unmatched
        c, y, e = proposal
        if y not in held:
            held[y] = (c, x, e)
        elif c < held[y][0]:
            free.append(held[y][1])
            held[y] = (c, x, e)
        else:
            free.append(x)
    return {e for _, _, e in held.values()}


def kernel_check(pool, prefs: PreferenceSystem, matching) -> bool:
    """Test of the stable_matching postcondition in one pass over the pool:
    the matching lies inside the pool, is vertex-disjoint, and absorbs every
    other pool edge xy by a matched edge at x of higher base color or a
    matched edge at y of lower base color."""
    pool = set(pool)
    m = set(matching)
    if not m <= pool:
        return False
    oriented = prefs.oriented
    # matched_at_x[x] / matched_at_y[y] = the base color of the one matched
    # edge at that vertex; it decides absorption there.
    matched_at_x: dict[int, int] = {}
    matched_at_y: dict[int, int] = {}
    for e in m:
        x, y, c = oriented[e]
        if x in matched_at_x or y in matched_at_y:
            return False  # two matched edges share a vertex
        matched_at_x[x] = matched_at_y[y] = c
    for e in pool - m:
        x, y, c = oriented[e]
        # Base colors are positive, so the defaults never absorb.
        if matched_at_x.get(x, 0) <= c and matched_at_y.get(y, c) >= c:
            return False
    return True


def list_edge_color(
    g: Graph, bip: Bipartition, edge_lists: dict[Edge, frozenset[int]]
) -> EdgeColoring:
    coloring, _ = list_edge_color_trace(g, bip, edge_lists)
    return coloring


def list_edge_color_trace(
    g: Graph, bip: Bipartition, edge_lists: dict[Edge, frozenset[int]]
) -> tuple[EdgeColoring, GalvinTrace]:
    """Color every edge from its own list, provided every list has at least
    max-degree many colors.  Returns the coloring plus a per-round trace
    (pool, matching, deletion counters) for auditing.

    Each round picks the globally smallest color alpha still wanted, commits
    a stable matching of the alpha-wanting edges, and deletes alpha from the
    unmatched ones.  Every matching is re-checked with kernel_check before
    colors are committed.
    """
    _check_bipartition(g, bip)
    if set(edge_lists) != set(g.edges):
        raise ValueError("edge list domain does not match the edge set")
    delta = g.max_degree()
    for e, colors in edge_lists.items():
        if len(colors) < delta:
            raise ValueError(
                f"list at edge {e} has {len(colors)} colors, need at least {delta}"
            )
    base = edge_color_bipartite(g, bip)
    prefs = PreferenceSystem(base, bip)
    # wanting[c] = the edges whose lists hold c, in sorted edge order.  Each
    # round empties its own color's bucket, so walking the colors upward
    # visits exactly the rounds of "smallest color still wanted".  g.edges
    # is sorted, so indexing each run of consecutive edges with equal lists
    # at once keeps every bucket sorted.
    wanting: dict[int, list[Edge]] = {}
    size: dict[Edge, int] = {}  # |L(e)|, the deletions that would run e dry
    for colors, group in groupby(g.edges, key=edge_lists.__getitem__):
        run = list(group)
        for c in colors:
            wanting.setdefault(c, []).extend(run)
        size.update(dict.fromkeys(run, len(colors)))
    result: dict[Edge, int] = {}
    deletions = dict.fromkeys(g.edges, 0)
    trace = GalvinTrace(deletions=deletions)
    for alpha in sorted(wanting):
        pool = [e for e in wanting[alpha] if e not in result]
        if not pool:
            continue
        matched = stable_matching(pool, prefs)
        if not kernel_check(pool, prefs, matched):
            raise RuntimeError("internal error: round matching is not a kernel")
        for e in matched:
            result[e] = alpha
        for e in pool:
            if e not in matched:
                d = deletions[e] + 1
                deletions[e] = d
                if d == size[e]:
                    raise RuntimeError(f"internal error: list at {e} ran dry")
        trace.rounds.append(RoundTrace(alpha, tuple(pool), tuple(sorted(matched))))
    if len(result) != len(g.edges):
        raise RuntimeError("internal error: rounds ended with edges uncolored")
    problems = verify_edge_coloring(g, result, edge_lists)
    if problems:
        raise RuntimeError("internal error: " + "; ".join(problems))
    return EdgeColoring(result, max(result.values(), default=0)), trace


def verify_edge_coloring(
    g: Graph,
    colors: dict[Edge, int],
    edge_lists: dict[Edge, frozenset[int]] | None = None,
) -> list[str]:
    """Independent checker: totality, properness at every vertex, and (when
    lists are given) pointwise list membership.  Returns problem strings."""
    problems = []
    if set(colors) != set(g.edges):
        problems.append("coloring does not cover the edge set exactly")
        return problems
    for v in g.vertices():
        seen: dict[int, Edge] = {}
        for w in g.neighbors(v):
            e = (v, w) if v < w else (w, v)
            c = colors[e]
            if c in seen:
                problems.append(f"edges {seen[c]} and {e} share color {c} at vertex {v}")
            seen[c] = e
    if edge_lists is not None:
        for e, c in colors.items():
            if c not in edge_lists[e]:
                problems.append(f"edge {e} colored {c} outside its list")
    return problems
