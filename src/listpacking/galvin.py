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
sorted into its preference order, whose base colors are checked there to fall
strictly.  These depend on nothing else, so the last pair's tables are kept
for the next run: for K_{300,300} they hold about 23 MiB, the graph included,
after a pack_complete run returns.  Every run still reads the edge lists, builds its color
index and calls the round functions.  It reads each edge's list once, by id,
and checks the lists off that read: their number against the edge count, each
id's list for presence, and each group's list, not each edge's, for its size;
only a run that fails reads them again, to name its fault.  The color index
holds groups: an X-vertex's edge ids with one list, kept in that vertex's
preference order as a live list of the uncolored ones, and an id-indexed list
of each id's group, which a matched id leaves by one lookup.  A round's pool
has one form: a list of proposer lists, one per X-vertex, each nonempty and
strictly falling in base color.  They are its color's live groups, except that
an X-vertex with several groups wanting the color gets their ids merged best
first, which only a list per edge brings about.  The engine keeps that form,
as the live lists are cut from the checked order and only lose ids, and a
merge is sorted; the round functions trust it, so no round builds or checks
its pool.  The matching walks the lists, reading the rest off the id-indexed
lists, and the kernel check range-tests each matched id before reading its
ends, then walks each list once, up to the proposer's matched edge: the ids it
proposed along, since the order absorbs those behind it at x.  Neither round
function allocates anything sized by the vertex count, so a round costs
O(proposals made), even when the graph has far more vertices than the pool has
edges.  Each round is recorded as (color, the set of matched ids the matching
returned), with no copy: the trace rebuilds pools off the lists and the final
coloring, sorts matchings and decodes ids to edges only when its rounds are
read, and counts deletions only when they are read, so a caller that drops the
trace pays for none of it.  Each coloring a public entry point hands out is
checked once, by a checker that shares nothing with the rounds:
`list_edge_color` runs `verify_edge_coloring` on it, and pack_complete, which
runs the engine itself, checks the packing it reads off the coloring instead.
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

        Every proposer list a round sees is cut from these tuples, so their
        order is checked once here: the base colors fall strictly along x's
        tuple, as a proper base coloring gives x's edges distinct colors."""
        x_end, _, colors = self.oriented
        order: dict[int, list[int]] = {}
        for i, x in zip(self.index.values(), x_end):  # reuse index's ints
            order.setdefault(x, []).append(i)
        order_ids: dict[int, tuple[int, ...]] = {}
        for x, ids in order.items():
            ids.sort(key=colors.__getitem__, reverse=True)
            ranks = [colors[i] for i in ids]
            if not all(map(gt, ranks, ranks[1:])):
                raise RuntimeError(f"internal error: X-vertex {x}'s base colors are not distinct")
            order_ids[x] = tuple(ids)
        return order_ids


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
    """Each round as the engine recorded it, (color, set of matched ids),
    and per edge id its list and its color.  `rounds` and `deletions` are built on
    first read."""

    records: list[tuple[int, set[int]]] = field(repr=False)
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


def stable_matching(pool: list[list[int]], prefs: PreferenceSystem) -> set[int]:
    """Deferred acceptance on a nonempty pool of edge ids: X-side vertices
    propose along their pool edges in decreasing base color, a Y-side vertex
    holds the lowest-color proposal seen so far.  Returns the matched ids.

    The result is a matching M absorbing the rest of the pool: every unmatched
    pool edge xy shares x with a matched edge of higher base color or shares y
    with a matched edge of lower base color.

    The pool is the engine's round pool, trusted as it comes: one nonempty
    list per X-vertex, its pool ids in strictly falling base color, which
    `list_edge_color_trace` guarantees.  Each proposer walks its own list,
    already best first, so no pool id is hashed or looked up.  Proposers
    take turns and a displaced one resumes at once: the order of proposals
    does not change the X-optimal result (McVitie and Wilson 1971) as long
    as preferences are strict, which a proper base coloring ensures."""
    if not pool:
        raise ValueError("stable matching of an empty edge pool is undefined")
    _, y_end, base_color = prefs.oriented
    # y -> (base color, edge id, the holder's proposals not yet made)
    held: dict[int, tuple[int, int, Iterator[int]]] = {}
    for proposals in map(iter, pool):
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


def kernel_check(pool: list[list[int]], prefs: PreferenceSystem, matching) -> bool:
    """Test of the stable_matching postcondition on a pool of edge ids: the
    matching (ids too) lies inside the pool, is vertex-disjoint, and absorbs
    every other pool edge xy by a matched edge at x of higher base color or
    a matched edge at y of lower base color.

    The pool is trusted as `stable_matching` trusts it, in the form that
    `list_edge_color_trace` guarantees; the matching is not.  It reads only
    the pool edges ahead of each match.  A proposer's list falls strictly in
    base color, so the edges behind x's matched edge are absorbed at x by
    it, and those ahead of it, or all of x's edges when x has none, must be
    absorbed at y.  The matched ids found in their proposers' lists must
    number |m|, which proves m lies in the pool."""
    m = set(matching)
    edge_ids = range(len(prefs.edges))
    x_end, y_end, base_color = prefs.oriented
    # matched_at_x[x] = the id of the one matched edge at x; matched_at_y[y]
    # = its base color, which decides absorption at y.  Both hold |m| keys,
    # so a round allocates nothing sized by the vertex count.
    matched_at_x: dict[int, int] = {}
    matched_at_y: dict[int, int] = {}
    for i in m:
        if type(i) is not int or i not in edge_ids:
            return False  # in no pool; the type first, as 1.0 in a range is True
        x, y = x_end[i], y_end[i]
        if x in matched_at_x or y in matched_at_y:
            return False  # two matched edges share a vertex
        matched_at_x[x] = i
        matched_at_y[y] = base_color[i]
    at_y, pop = matched_at_y.get, matched_at_x.pop
    found = 0  # the matched ids met in their proposers' lists
    for ids in pool:
        # Popped, so a pool naming x twice cannot count x's match twice.  A
        # match missing from x's list goes uncounted, failing the end.
        i = pop(x_end[ids[0]], None)
        for j in ids:
            if j == i:
                found += 1
                break
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
    """`list_edge_color_trace`'s coloring, checked by `verify_edge_coloring`:
    the one check of a coloring that this function hands out."""
    coloring, _ = list_edge_color_trace(g, bip, edge_lists)
    if problems := verify_edge_coloring(g, coloring.colors, edge_lists):
        raise RuntimeError("internal error: " + "; ".join(problems))
    return coloring


def _reject(edges: tuple[Edge, ...], edge_lists: EdgeListAssignment, delta: int) -> None:
    """Raise the error for edge lists that failed the engine's quick checks:
    the domain first, then the first short list in the lists' own order."""
    if edge_lists.keys() != set(edges):
        raise ValueError("edge list domain does not match the edge set")
    for e, colors in edge_lists.items():
        if len(colors) < delta:
            raise ValueError(f"list at edge {e} has {len(colors)} colors, need at least {delta}")
    raise RuntimeError("internal error: edge lists rejected without a fault")


def list_edge_color_trace(
    g: Graph, bip: Bipartition, edge_lists: EdgeListAssignment
) -> tuple[EdgeColoring, GalvinTrace]:
    """Color every edge from its own list, provided every list has at least
    max-degree many colors.  Returns the coloring plus a per-round trace
    (pool, matching) and each edge's deletion count for auditing.

    Each round picks the globally smallest color alpha still wanted, commits
    a stable matching of the alpha-wanting edges, re-checked by kernel_check,
    and deletes alpha from the unmatched ones.

    Each edge's list is read once, by id.  The domain is checked off that
    read (as many lists as edges, none missing) and the sizes once per
    X-vertex and list; a failure scans `edge_lists` again, in its own
    order, and names the domain first, else the first short list.  Lists
    are read with `.get`, so a dict subclass's `__missing__` never runs.

    The engine checks each X-vertex's order once per graph, each round's
    matching with kernel_check, and that no list ran dry.  It leaves the
    finished coloring to its callers: `list_edge_color` verifies it with
    `verify_edge_coloring`, and pack_complete checks the packing it reads
    off it with `is_proper_packing`."""
    prefs = _preferences(g, bip)  # checks bip before any list is read
    edges = prefs.edges
    # .get, so that a dict subclass's __missing__ neither answers nor adds a key.
    lists = [*map(edge_lists.get, edges)]  # id -> its list, None if missing
    delta = g.max_degree()
    if len(edge_lists) != len(edges):
        _reject(edges, edge_lists, delta)
    by_base_color = prefs.oriented[2].__getitem__
    # Groups: an X-vertex's ids with one list, kept best first as a live list
    # of the uncolored ones; live[i] = id i's live list.  wanting[c] = the
    # live lists of the groups whose list holds c, one per X-vertex;
    # merging[c] = per X-vertex with several such groups, their live lists,
    # to be merged best first each round.
    live: list[list[int] | None] = [None] * len(edges)
    wanting: dict[int, list[list[int]]] = {}
    merging: dict[int, list[list[list[int]]]] = {}
    for ids in prefs.order_ids.values():  # order-checked once per graph
        groups: dict[frozenset[int] | None, list[int]] = {}
        for colors, run in groupby(ids, lists.__getitem__):
            groups.setdefault(colors, []).extend(run)  # index's ints: one object per id
        for colors, group in groups.items():
            if colors is None or len(colors) < delta:
                _reject(edges, edge_lists, delta)
            for i in group:
                live[i] = group
        if len(groups) == 1:  # one list at x, as in pack_complete: ~7% of a pack-tight call
            [(colors, group)] = groups.items()
            for c in colors:
                wanting.setdefault(c, []).append(group)
            continue
        by_color: dict[int, list[list[int]]] = {}
        for colors, group in groups.items():
            for c in colors:
                by_color.setdefault(c, []).append(group)
        for c, lives in by_color.items():
            if len(lives) == 1:
                wanting.setdefault(c, []).append(lives[0])
            else:
                merging.setdefault(c, []).append(lives)
    color: list[int | None] = [None] * len(edges)
    records: list[tuple[int, set[int]]] = []
    for alpha in sorted(wanting.keys() | merging.keys()):
        # One list per proposer, best first: the pool needs no set.
        proposals = [*filter(None, wanting.pop(alpha, ()))]
        if merging:
            for lives in merging.pop(alpha, ()):
                merged = sorted(chain.from_iterable(lives), key=by_base_color, reverse=True)
                if merged:
                    proposals.append(merged)
        if not proposals:
            continue
        matched = stable_matching(proposals, prefs)
        if not kernel_check(proposals, prefs, matched):
            raise RuntimeError("internal error: round matching is not a kernel")
        for i in matched:
            color[i] = alpha
            live[i].remove(i)
        records.append((alpha, matched))
    if None in color:
        e = edges[color.index(None)]
        raise RuntimeError(f"internal error: list at {e} ran dry: {len(edge_lists[e])} colors")
    coloring = EdgeColoring(dict(zip(edges, color)), max(color, default=0))
    return coloring, GalvinTrace(records, edges, lists, color)


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
