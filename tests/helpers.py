"""Shared test utilities: naive generators and oracles kept deliberately
independent of the library's own search paths."""

from __future__ import annotations

from collections import Counter, deque
from functools import cache
from itertools import combinations, permutations
from pathlib import Path

from listpacking import (
    NOT_DISJOINT,
    NOT_IN_LIST,
    NOT_PROPER,
    Edge,
    Graph,
    ListAssignment,
    Packing,
    VerifyReport,
    Violation,
)
from listpacking.coloring import _require_domains
from listpacking.galvin import EdgeColoring, PreferenceSystem, _edge_color_augmenting, _pool_ids
from listpacking.search import (
    _canonical_lists,
    _decode_tuple,
    _meet,
    _movers,
    _reader,
    _stabilizer,
    _tuple_masks,
)

ROOT = Path(__file__).resolve().parent.parent


def all_graphs_up_to_iso(max_n: int) -> list[Graph]:
    """Every isomorphism-distinct graph on 1..max_n vertices, by brute force:
    enumerate all edge subsets and keep one per canonical (min-over-
    permutations) edge set."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        pool = list(combinations(range(1, n + 1), 2))
        seen: set[tuple] = set()
        for bits in range(2 ** len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            key = min(
                tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
                for p in permutations(range(1, n + 1))
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(Graph.from_edges(n, edges))
    return out


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def long_path_instance(n=3000):
    """A path far longer than Python's recursion limit, with 3-lists from 5
    colors that admit a packing of size 3."""
    triples = list(combinations(range(1, 6), 3))
    ell = ListAssignment({v: frozenset(triples[v % len(triples)]) for v in range(1, n + 1)})
    return path_graph(n), ell


def orbit_count(n: int, k: int) -> int:
    """Number of k-assignments of n vertices up to color renaming, counted
    without enumerating any: an orbit is fixed by how many colors lie in
    exactly the lists of S, for each nonempty vertex set S, and every vertex
    must see k colors in all.  Dynamic programming over the sets S, keyed by
    the per-vertex totals so far."""
    totals = Counter({(0,) * n: 1})
    for mask in range(1, 2**n):
        step: Counter[tuple[int, ...]] = Counter()
        for sums, ways in totals.items():
            a = 0
            while True:
                grown = tuple(s + a * (mask >> i & 1) for i, s in enumerate(sums))
                if max(grown) > k:
                    break
                step[grown] += ways
                a += 1
        totals = step
    return totals[(k,) * n]


def burnside_count(n: int, k: int, group) -> int:
    """Number of k-assignments of n vertices up to color renaming and the
    vertex permutations of `group` (tuples p, p[i] the image of vertex i+1),
    by Burnside's lemma: the mean over p of the renaming classes p fixes."""
    fixed = sum(_fixed_classes(p, k) for p in group)
    assert len(group[0]) == n and fixed % len(group) == 0
    return fixed // len(group)


@cache
def _fixed_classes(p: tuple[int, ...], k: int) -> int:
    """Renaming classes of k-assignments that the vertex permutation p
    fixes.  A class is the vector of counts a_S of orbit_count, and p fixes
    it exactly when a_S is constant on p's orbits of vertex sets S: the
    same dynamic programming, over those orbits in place of single sets."""
    n = len(p)
    seen: set[int] = set()
    totals = Counter({(0,) * n: 1})
    for mask in range(1, 2**n):
        if mask in seen:
            continue
        orbit = [mask]
        while True:
            image = sum(1 << p[i] for i in range(n) if orbit[-1] >> i & 1)
            if image == mask:
                break
            orbit.append(image)
        seen.update(orbit)
        weight = [sum(s >> i & 1 for s in orbit) for i in range(n)]
        step: Counter[tuple[int, ...]] = Counter()
        for sums, ways in totals.items():
            a = 0
            while True:
                grown = tuple(s + a * w for s, w in zip(sums, weight))
                if max(grown) > k:
                    break
                step[grown] += ways
                a += 1
        totals = step
    return totals[(k,) * n]


def konig_pack(n: int, lists: ListAssignment, m: int) -> Packing:
    """A packing of size m of an m-assignment of K_n, n <= m, by Konig's
    edge-coloring theorem in place of Galvin's: m-edge-color the vertex-color
    incidence graph B, where v ~ c iff c is in L(v), and give v in row j the
    color whose edge at v got color j.  Properness at v makes the rows
    disjoint at v; properness at c makes each row injective.  Every color
    lies in at most n <= m lists, so B has max degree m."""
    palette = sorted(set().union(*(lists[v] for v in range(1, n + 1))))
    vertex = {c: n + k for k, c in enumerate(palette, start=1)}
    incidence = [(v, vertex[c]) for v in range(1, n + 1) for c in lists[v]]
    ec = _edge_color_augmenting(Graph.from_edges(n + len(palette), incidence), m)
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    for (v, c), j in ec.colors.items():
        rows[j - 1][v] = palette[c - n - 1]
    return Packing(tuple(rows))


def reference_edge_color_augmenting(g: Graph, delta: int) -> EdgeColoring:
    """`galvin._edge_color_augmenting` in its earlier shape, kept as its
    oracle: each edge lists every free color at both ends, intersects the
    two lists and sorts them, and takes the smallest common color, or else
    flips the alternating path of the smallest free colors a at u and b at v."""
    colors: dict[Edge, int] = {}
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


def reference_stable_matching(pool, prefs: PreferenceSystem) -> set[int]:
    """`galvin.stable_matching` in its earlier shape, kept as its oracle:
    deferred acceptance with a FIFO queue of free proposers, X-vertices in
    sorted order first, a rejected or displaced proposer going to the back."""
    members = _pool_ids(pool, prefs)
    if not members:
        raise ValueError("stable matching of an empty edge pool is undefined")
    x_end, order = prefs.oriented[0], prefs.order
    proposals = {
        x: (t for t in order[x] if t[2] in members)
        for x in sorted({x_end[i] for i in members})
    }
    free = deque(proposals)
    held: dict[int, tuple[int, int, int]] = {}  # y -> (base color, x, edge id)
    while free:
        x = free.popleft()
        proposal = next(proposals[x], None)
        if proposal is None:
            continue  # exhausted every pool edge; stays unmatched
        c, y, i = proposal
        if y not in held:
            held[y] = (c, x, i)
        elif c < held[y][0]:
            free.append(held[y][1])
            held[y] = (c, x, i)
        else:
            free.append(x)
    return {i for _, _, i in held.values()}


def reference_kernel_check(pool, prefs: PreferenceSystem, matching) -> bool:
    """`galvin.kernel_check` in its earlier shape, kept as its oracle: the
    matched base colors in vertex-keyed dicts, and the pool edges outside the
    matching taken as a set difference."""
    pool = _pool_ids(pool, prefs)
    m = set(matching)
    if not m <= pool:
        return False
    x_end, y_end, base_color = prefs.oriented
    matched_at_x: dict[int, int] = {}
    matched_at_y: dict[int, int] = {}
    for i in m:
        x, y = x_end[i], y_end[i]
        if x in matched_at_x or y in matched_at_y:
            return False  # two matched edges share a vertex
        matched_at_x[x] = matched_at_y[y] = base_color[i]
    for i in pool - m:
        c = base_color[i]
        # Base colors are positive, so the defaults never absorb.
        if matched_at_x.get(x_end[i], 0) <= c and matched_at_y.get(y_end[i], c) >= c:
            return False
    return True


def reference_order(prefs: PreferenceSystem) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """`PreferenceSystem.order` as it was built before it was derived from
    `order_ids`: x -> x's edges as (base color, y, edge id), sorted highest
    first, X-vertices in the order of their first edge id."""
    order: dict[int, list[tuple[int, int, int]]] = {}
    for i, (x, y, c) in enumerate(zip(*prefs.oriented)):
        order.setdefault(x, []).append((c, y, i))
    return {x: tuple(sorted(lst, reverse=True)) for x, lst in order.items()}


def _row_violations(g: Graph, ell: ListAssignment, f, indices: tuple[int, ...] = ()):
    """List membership at every vertex, then properness at every edge, of a
    coloring whose domains are already checked.  An injective coloring has
    no improper edge, so its edges are not read."""
    lists = ell.lists
    for v in g.vertices():
        if f[v] not in lists[v]:
            yield Violation(NOT_IN_LIST, (v,), indices)
    if len(set(f.values())) == len(f):
        return
    for u, v in g.edges:
        if f[u] == f[v]:
            yield Violation(NOT_PROPER, (u, v), indices)


def enumerated_packing_report(g: Graph, ell: ListAssignment, packing: Packing) -> VerifyReport:
    """The reference for `is_proper_packing`, sharing none of its violation
    checks: every row's violations, then the coinciding row pairs at every
    vertex, all enumerated."""
    _require_domains(g, ell)
    verts = g.vertices()
    domain = set(verts)
    rows = packing.rows
    for idx, row in enumerate(rows, start=1):
        if row.keys() != domain:
            raise ValueError(f"coloring {idx} domain does not match the vertex set")
    violations: list[Violation] = []
    for idx, row in enumerate(rows, start=1):
        violations.extend(_row_violations(g, ell, row, (idx,)))
    k = len(rows)
    for v in verts:
        col = [row[v] for row in rows]
        if len(set(col)) == k:
            continue
        for i in range(k):
            for j in range(i + 1, k):
                if col[i] == col[j]:
                    violations.append(Violation(NOT_DISJOINT, (v,), (i + 1, j + 1)))
    return VerifyReport.from_violations(violations)


def reference_packing_search(g: Graph, colors, ranks, k: int, ticker):
    """The packing backtracker in its earlier shape, kept as the oracle for
    `search._packing_search`: the same vertex order, tuple order and node
    spending, with each vertex's domain read by position, its neighbours
    filtered by `w > v` at every node and a flag for a wiped-out domain.
    The rows of the first packing found, or None."""
    if g.n == 0:
        return tuple({} for _ in range(k))
    domains = [()] + [_tuple_masks(r, k) for r in ranks]
    chosen = [0] * (g.n + 1)
    options = [() for _ in range(g.n + 1)]
    pos = [0] * (g.n + 1)
    saved: list[list] = [[] for _ in range(g.n + 1)]
    v = 1
    options[v] = domains[v]
    while True:
        if chosen[v]:  # the current tuple failed: take it back
            for w, old in saved[v]:
                domains[w] = old
            chosen[v] = 0
        if pos[v] == len(options[v]):
            v -= 1
            if v == 0:
                return None
            continue
        p = options[v][pos[v]]
        pos[v] += 1
        ticker.spend()
        chosen[v] = p
        saved[v] = []
        wiped = False
        for w in g.neighbors(v):
            if w > v:
                kept = [q for q in domains[w] if not p & q]
                saved[v].append((w, domains[w]))
                domains[w] = kept
                if not kept:
                    wiped = True
                    break
        if wiped:
            continue
        if v == g.n:
            break
        v += 1
        options[v] = domains[v]
        pos[v] = 0
    rows: tuple[dict[int, int], ...] = tuple({} for _ in range(k))
    for v in g.vertices():
        _decode_tuple(chosen[v], v, colors, rows)
    return rows


def reference_iter_canonical(n: int, k: int, group=None):
    """`search._iter_canonical` in its earlier shape, kept as its oracle: a
    recursive generator, one frame per list, passing each assignment up
    through `yield from`, with the same candidates, symmetry test and
    weights."""
    group = tuple(group or (tuple(range(n)),))
    symmetric = len(group) > 1
    width = n * k
    all_colors = [(1 << width) - 1]
    movers = _movers(n, group)
    if symmetric:
        own = [None] + [_reader(tuple(range(j + 1))) for j in range(1, n)]
        inter = all_colors * (1 << n)
        sizes = [0] * (1 << n)
    prefix: list[tuple[int, ...]] = []

    def walk(blocks: list[int]):
        i = len(prefix)
        node, low, high = movers[i + 1], 1 << i, 2 << i
        for mask in _canonical_lists(blocks, k):
            equal = 0
            if symmetric:
                sizes[low:high] = [(meet & mask).bit_count() for meet in inter[:low]]
                if node:
                    equal = _stabilizer(sizes, node, own, 1)
                    if equal is None:
                        continue
            prefix.append(tuple(width - b for b in range(width - 1, -1, -1) if mask >> b & 1))
            if i + 1 == n:
                yield tuple(prefix), len(group) // (1 + equal)
            else:
                if symmetric:
                    inter[low:high] = [meet & mask for meet in inter[:low]]
                yield from walk(_meet(blocks, mask))
            prefix.pop()

    try:
        if n == 0:
            yield (), 1
        else:
            yield from walk(all_colors)
    finally:
        del walk  # walk refers to itself
