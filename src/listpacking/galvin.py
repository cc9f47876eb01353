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

Cost: once per graph and bipartition, the base coloring is built, each edge
gets an id (its place in sorted edge order), is oriented into (X-vertex,
Y-vertex, base color) in id-indexed lists, and each X-vertex's edge ids are
sorted into its preference order, which is checked there to be a strict
order of that vertex's edge ids.  These depend on nothing else, so the last
pair's tables are kept for the next run: for K_{300,300} they hold about
27 MiB, the graph included, after the run returns.  Every run still checks
the edge lists, builds its color index, calls the round functions and
verifies the coloring.  The color index holds groups: an X-vertex's edge ids
with one list, kept in that vertex's preference order as a live list of the
uncolored ones.  A round's proposers are its color's live groups, except
that an X-vertex with several groups wanting the color gets their ids merged
best first, which only a list per edge brings about.  Both round functions
get the pool as those proposer sequences alone, so no round builds its pool:
the matching walks the sequences, reading the rest off the id-indexed lists,
and the kernel check reads each sequence only up to the proposer's matched
edge, the ids it proposed along, since the order absorbs those behind it at
x.  Neither round function allocates anything sized by the vertex count, so
a round costs O(proposals made), even when the graph has far more vertices
than the pool has edges.  Each round is recorded as (color, matched ids):
the trace rebuilds pools off the lists and the final coloring, sorts
matchings and decodes ids to edges only when its rounds are read, and counts
deletions only when they are read, so a caller that drops the trace pays
for none of it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, groupby
from operator import gt

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

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edge id -> edge: ids follow sorted edge order, the order of g.edges."""
        return tuple(sorted(self.base.colors))

    @cached_property
    def index(self) -> dict[Edge, int]:
        """Edge -> edge id."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def oriented(self) -> tuple[list[int], list[int], list[int]]:
        """Per edge id: its X-side end, its Y-side end and its base color."""
        ends = [self.bipartition.split_edge(e) for e in self.edges]
        colors = [self.base.colors[e] for e in self.edges]
        return [x for x, _ in ends], [y for _, y in ends], colors

    @cached_property
    def order_ids(self) -> dict[int, tuple[int, ...]]:
        """x -> the ids of x's edges, best (highest base color) first.

        Every proposer sequence a round sees is cut from these tuples, so
        they are checked once here: each id is an edge id, has X-end x, and
        the base colors fall strictly along x's tuple, as a proper base
        coloring gives x's edges distinct colors."""
        x_end, _, colors = self.oriented
        edge_ids = range(len(self.edges))
        order: dict[int, list[int]] = {}
        for i, x in zip(self.index.values(), x_end):  # reuse index's ints
            if i not in edge_ids:
                raise RuntimeError("internal error: round pool holds an id outside the edge ids")
            order.setdefault(x, []).append(i)
        order_ids: dict[int, tuple[int, ...]] = {}
        for x, ids in order.items():
            ids.sort(key=colors.__getitem__, reverse=True)
            ranks = [colors[i] for i in ids]
            if any(x_end[i] != x for i in ids) or not all(map(gt, ranks, ranks[1:])):
                raise RuntimeError(f"internal error: X-vertex {x}'s base colors are not distinct")
            order_ids[x] = tuple(ids)
        return order_ids

    @cached_property
    def order(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """x -> x's edges as (base color, y, edge id), best first: order_ids
        spelled out, built on first read.  The engine never reads it."""
        _, y_end, colors = self.oriented
        return {
            x: tuple([(colors[i], y_end[i], i) for i in ids]) for x, ids in self.order_ids.items()
        }


@dataclass(frozen=True, slots=True)
class RoundTrace:
    """One round's color, pool and sorted matching as ids, decoded when read."""

    color: int
    pool_ids: tuple[int, ...]
    matched_ids: tuple[int, ...]
    edges: tuple[Edge, ...] = field(repr=False)

    @property
    def pool(self) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in self.pool_ids)

    @property
    def matched(self) -> tuple[Edge, ...]:
        return tuple(self.edges[i] for i in self.matched_ids)


@dataclass
class GalvinTrace:
    """Each round as the engine recorded it, (color, matched ids), and per
    edge id its list and its color.  `rounds` and `deletions` are built on
    first read."""

    records: list[tuple[int, tuple[int, ...]]] = field(repr=False)
    edges: tuple[Edge, ...] = field(repr=False)
    lists: list[frozenset[int]] = field(repr=False)
    colors: list[int] = field(repr=False)

    @cached_property
    def rounds(self) -> list[RoundTrace]:
        """The rounds with their pools rebuilt: edge i wants color a, and is
        in round a's pool, exactly while a lies in its list and is not
        above its own color."""
        pools: dict[int, list[int]] = {c: [] for c, _ in self.records}
        for i, (colors, own) in enumerate(zip(self.lists, self.colors)):
            for c in colors:
                if c <= own:
                    pools[c].append(i)
        return [
            RoundTrace(c, tuple(pools[c]), tuple(sorted(m)), self.edges) for c, m in self.records
        ]

    @cached_property
    def deletions(self) -> dict[Edge, int]:
        """Edge -> the colors it deleted.  An edge is in the pool, and
        unmatched, at each color of its list below its own."""
        ranked = {colors: sorted(colors) for colors in set(self.lists)}
        return {
            e: bisect_left(ranked[colors], c)
            for e, colors, c in zip(self.edges, self.lists, self.colors)
        }


def edge_color_bipartite(g: Graph, bip: Bipartition) -> EdgeColoring:
    """Proper edge coloring with exactly max-degree many colors.

    Complete bipartite graphs get the closed form
    c(x_i, y_j) = ((i + j - 2) mod max(n, m)) + 1; anything else is built by
    inserting edges one at a time and swapping a two-color alternating path
    when the endpoints have no free color in common.
    """
    if bip.X | bip.Y != frozenset(g.vertices()) or bip.X & bip.Y:
        raise ValueError("bipartition does not partition the vertex set")
    for e in g.edges:
        bip.split_edge(e)  # raises if the edge stays inside one side
    delta = g.max_degree()
    if len(g.edges) == len(bip.X) * len(bip.Y) and g.edges:
        # 0-based rank of each vertex on its own side.  The form is symmetric
        # in the two ends, so the checked edges need not be split again.
        rank = {v: i for side in (bip.X, bip.Y) for i, v in enumerate(sorted(side))}
        colors = {e: (rank[e[0]] + rank[e[1]]) % delta + 1 for e in g.edges}
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

    palette = range(1, delta + 1)
    for u, v in g.edges:
        at_u, at_v = at[u], at[v]
        if common := next((c for c in palette if c not in at_u and c not in at_v), 0):
            set_color(u, v, common)
            continue
        a, b = (next(c for c in palette if c not in taken) for taken in (at_u, at_v))
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
        if z == u:
            raise RuntimeError("internal error: alternating path closed on the insertion endpoint")
        for p, q, old in path:
            del at[p][old]
            del at[q][old]
        for p, q, old in path:
            set_color(p, q, b if old == a else a)
        set_color(u, v, a)
    return EdgeColoring(colors, delta)


class _CheckedPool:
    """A round's pool as `proposals`: one nonempty sequence per X-vertex of
    the pool, holding that vertex's pool ids in strictly decreasing base
    color, best first.  Iterating it, or taking its length, runs over those
    ids.  Only the engine and `_checked_pool` build one, and each keeps this
    order: the engine's live lists are filtered from `order_ids`, whose order
    is checked where it is built, and only lose ids; it sorts the ids it
    merges; `_checked_pool` sorts a public pool."""

    __slots__ = ("proposals",)

    def __init__(self, proposals: list[list[int]]) -> None:
        self.proposals = proposals

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.proposals)

    def __len__(self) -> int:
        return sum(map(len, self.proposals))


def _pool_ids(pool, prefs: PreferenceSystem) -> frozenset[int]:
    """The pool's ids as a set, range-checked."""
    ids = frozenset(pool)
    if not all(map(range(len(prefs.edges)).__contains__, ids)):
        raise ValueError(f"pool holds an edge id outside 0..{len(prefs.edges) - 1}")
    return ids


def _checked_pool(pool, prefs: PreferenceSystem) -> _CheckedPool:
    """A tuple or set pool in the engine's form: its ids once each,
    range-checked, grouped by proposer and sorted best first."""
    ids = _pool_ids(pool, prefs)
    x_end, _, base_color = prefs.oriented
    proposals: dict[int, list[int]] = {}
    for i in sorted(ids, key=base_color.__getitem__, reverse=True):
        proposals.setdefault(x_end[i], []).append(i)
    return _CheckedPool(list(proposals.values()))


def stable_matching(pool, prefs: PreferenceSystem) -> set[int]:
    """Deferred acceptance on a nonempty pool of edge ids: X-side vertices
    propose along their pool edges in decreasing base color, a Y-side vertex
    holds the lowest-color proposal seen so far.  Returns the matched ids.

    The result is a matching M absorbing the rest of the pool: every unmatched
    pool edge xy shares x with a matched edge of higher base color or shares y
    with a matched edge of lower base color.

    Each proposer walks its own sequence of the pool's `proposals`, already
    best first, so no pool id is hashed or looked up.  Proposers take turns
    and a displaced one resumes at once: the order of proposals does not
    change the X-optimal result (McVitie and Wilson 1971) as long as
    preferences are strict, which a proper base coloring ensures."""
    if type(pool) is not _CheckedPool:
        pool = _checked_pool(pool, prefs)
    if not pool.proposals:
        raise ValueError("stable matching of an empty edge pool is undefined")
    _, y_end, base_color = prefs.oriented
    # y -> (base color, edge id, the holder's proposals not yet made)
    held: dict[int, tuple[int, int, Iterator[int]]] = {}
    for proposals in map(iter, pool.proposals):
        # x proposes until some y holds it or its pool edges run out; a holder
        # it displaces takes over from where that holder stopped.
        while (i := next(proposals, None)) is not None:
            y, c = y_end[i], base_color[i]
            if y not in held:
                held[y] = (c, i, proposals)
                break
            if c < held[y][0]:
                held[y], proposals = (c, i, proposals), held[y][2]
    return {i for _, i, _ in held.values()}


def kernel_check(pool, prefs: PreferenceSystem, matching) -> bool:
    """Test of the stable_matching postcondition on a pool of edge ids: the
    matching (ids too) lies inside the pool, is vertex-disjoint, and absorbs
    every other pool edge xy by a matched edge at x of higher base color or
    a matched edge at y of lower base color.

    It reads only the pool edges ahead of each match.  A proposer's sequence
    falls strictly in base color, so the edges behind x's matched edge are
    absorbed at x by it, and those ahead of it, or all of x's edges when x
    has none, must be absorbed at y.  The matched ids found in their
    proposers' sequences must number |m|, which proves m lies in the pool."""
    if type(pool) is not _CheckedPool:
        pool = _checked_pool(pool, prefs)
    m = set(matching)
    if not all(map(range(len(prefs.edges)).__contains__, m)):
        return False  # an id outside the edge ids lies in no pool
    x_end, y_end, base_color = prefs.oriented
    # matched_at_x[x] = the id of the one matched edge at x; matched_at_y[y]
    # = its base color, which decides absorption at y.  Both hold |m| keys,
    # so a round allocates nothing sized by the vertex count.
    matched_at_x: dict[int, int] = {}
    matched_at_y: dict[int, int] = {}
    for i in m:
        x, y = x_end[i], y_end[i]
        if x in matched_at_x or y in matched_at_y:
            return False  # two matched edges share a vertex
        matched_at_x[x] = i
        matched_at_y[y] = base_color[i]
    at_y, pop = matched_at_y.get, matched_at_x.pop
    found = 0  # the matched ids met in their proposers' sequences
    for ids in pool.proposals:
        # Popped, so a pool naming x twice cannot count x's match twice.
        i = pop(x_end[ids[0]], None)
        ahead = ids
        if i is not None:
            try:
                ahead = ids[: ids.index(i)]
            except ValueError:
                return False  # x's matched edge is not in the pool
            found += 1
        for j in ahead:
            c = base_color[j]
            # Base colors are positive, and no other edge at y has the color
            # c, so the default c marks a y that absorbs nothing.
            if at_y(y_end[j], c) >= c:
                return False
    return found == len(m)


@lru_cache(maxsize=1)
def _preferences(g: Graph, bip: Bipartition) -> PreferenceSystem:
    """The base coloring and the preference tables read off it.  They depend
    on (g, bip) alone, so runs on equal inputs share one instance and build
    its tables (cached properties) once.  A bad bipartition raises on every
    call, since lru_cache stores no exception."""
    return PreferenceSystem(edge_color_bipartite(g, bip), bip)


def list_edge_color(g: Graph, bip: Bipartition, edge_lists: EdgeListAssignment) -> EdgeColoring:
    coloring, _ = list_edge_color_trace(g, bip, edge_lists)
    return coloring


def list_edge_color_trace(
    g: Graph, bip: Bipartition, edge_lists: EdgeListAssignment
) -> tuple[EdgeColoring, GalvinTrace]:
    """Color every edge from its own list, provided every list has at least
    max-degree many colors.  Returns the coloring plus a per-round trace
    (pool, matching) and each edge's deletion count for auditing.

    Each round picks the globally smallest color alpha still wanted, commits
    a stable matching of the alpha-wanting edges, re-checked by kernel_check,
    and deletes alpha from the unmatched ones."""
    prefs = _preferences(g, bip)  # checks bip before any list is read
    if edge_lists.keys() != g._edge_set:
        raise ValueError("edge list domain does not match the edge set")
    delta = g.max_degree()
    for e, colors in edge_lists.items():
        if len(colors) < delta:
            raise ValueError(f"list at edge {e} has {len(colors)} colors, need at least {delta}")
    edges = prefs.edges
    x_end, _, base_color = prefs.oriented
    order_ids = prefs.order_ids  # range- and order-checked once per graph
    lists = [*map(edge_lists.__getitem__, edges)]  # id -> its list
    # Groups: an X-vertex's ids with one list, kept best first as a live list
    # of the uncolored ones.  wanting[c] = the live lists of the groups whose
    # list holds c, one per X-vertex; merging[c] = per X-vertex with several
    # such groups, their live lists, to be merged best first each round.
    groups_at: dict[int, dict[frozenset[int], list[int]]] = {}
    wanting: dict[int, list[list[int]]] = {}
    merging: dict[int, list[list[list[int]]]] = {}
    for x, ids in order_ids.items():
        groups = groups_at[x] = {}
        for colors, run in groupby(ids, lists.__getitem__):
            groups.setdefault(colors, []).extend(run)  # index's ints: one object per id
        if len(groups) == 1:  # one list at x, as in pack_complete: about 4% of a call
            [(colors, live)] = groups.items()
            for c in colors:
                wanting.setdefault(c, []).append(live)
            continue
        by_color: dict[int, list[list[int]]] = {}
        for colors, live in groups.items():
            for c in colors:
                by_color.setdefault(c, []).append(live)
        for c, lives in by_color.items():
            if len(lives) == 1:
                wanting.setdefault(c, []).append(lives[0])
            else:
                merging.setdefault(c, []).append(lives)
    color: list[int | None] = [None] * len(edges)
    records: list[tuple[int, tuple[int, ...]]] = []
    for alpha in sorted(wanting.keys() | merging.keys()):
        # One sequence per proposer, best first: the pool needs no set.
        proposals = [live for live in wanting.pop(alpha, ()) if live]
        for lives in merging.pop(alpha, ()):
            merged = sorted(chain.from_iterable(lives), key=base_color.__getitem__, reverse=True)
            if merged:
                proposals.append(merged)
        if not proposals:
            continue
        pool = _CheckedPool(proposals)
        matched = stable_matching(pool, prefs)
        if not kernel_check(pool, prefs, matched):
            raise RuntimeError("internal error: round matching is not a kernel")
        for i in matched:
            color[i] = alpha
            groups_at[x_end[i]][lists[i]].remove(i)
        records.append((alpha, tuple(matched)))
    if None in color:
        e = edges[color.index(None)]
        raise RuntimeError(f"internal error: list at {e} ran dry: {len(edge_lists[e])} colors")
    result = dict(zip(edges, color))
    if problems := verify_edge_coloring(g, result, edge_lists):
        raise RuntimeError("internal error: " + "; ".join(problems))
    return EdgeColoring(result, max(color, default=0)), GalvinTrace(records, edges, lists, color)


def verify_edge_coloring(
    g: Graph, colors: dict[Edge, int], edge_lists: EdgeListAssignment | None = None
) -> list[str]:
    """Independent checker: totality, properness at every vertex, and (when
    lists are given) pointwise list membership.  Returns problem strings."""
    if colors.keys() != g._edge_set:
        return ["coloring does not cover the edge set exactly"]
    problems = []
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
