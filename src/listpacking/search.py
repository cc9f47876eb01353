"""Exhaustive oracles for tiny graphs: backtracking list packing, canonical
enumeration of k-assignments up to color renaming, and exact chromatic /
list-chromatic / list-packing numbers with certificates.  A list coloring is
a packing of size 1, so one backtracker serves both.

Everything here is deliberately dumb and deterministic: fixed vertex order,
sorted color order, no heuristics.  "absent" always means a completed search;
running out of budget is a distinct outcome, never a wrong answer.

The packing search encodes each ordered k-tuple of colors as an int bitmask
of its (coordinate, color) pairs, so that two tuples clash in some coordinate
exactly when their masks intersect; the masks of a list are built once and
memoized.

The packing scans are warm-started: consecutive canonical assignments mostly
share every list but the last, so the scan keeps the last packing it found
on vertices 1..n-1 and re-fits vertex n alone, by a row-color matching that
spends one search node.  Only when that fails does a cold search run, and
only a cold search may report a packing absent.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations

from .coloring import (
    Coloring,
    ListAssignment,
    Packing,
    _require_domains,
    is_proper_coloring,
    is_proper_packing,
)
from .graphs import Graph
from .packing import pack_via_product

FOUND = "found"
ABSENT = "absent"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000
    time_limit: float = 60.0  # seconds

    def __post_init__(self):
        # Negated, so that nan fails too; inf passes and means "no bound".
        if not self.node_limit >= 1 or not self.time_limit > 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Tri-state outcome; `witness` is a Coloring, Packing, or ListAssignment
    depending on the operation."""

    status: str
    witness: object = None
    nodes: int = 0


@dataclass(frozen=True)
class ChiListResult:
    value: int
    lower_witness: ListAssignment | None  # uncolorable (value-1)-assignment


@dataclass(frozen=True)
class ChiStarResult:
    value: int
    lower_witness: ListAssignment | None  # unpackable (value-1)-assignment
    upper_evidence: int  # canonical value-assignments scanned, all packable


class SearchExhaustedError(RuntimeError):
    """Budget ran out before the question was decided."""


class BoundExceededError(RuntimeError):
    """The value provably exceeds the requested bound; `witness` is a bad
    assignment at the bound itself."""

    def __init__(self, bound: int, witness: ListAssignment | None):
        super().__init__(f"value exceeds the requested bound {bound}")
        self.bound = bound
        self.witness = witness


class _BudgetHit(Exception):
    pass


class _Ticker:
    """Node/time accounting for one search task: a single solve, or a whole
    scan whose inner solves all draw on the same allowance."""

    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _BudgetHit
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise _BudgetHit


def solve_list_coloring(
    g: Graph, ell: ListAssignment, budget: SearchBudget | None = None
) -> SearchResult:
    """Backtracking search for a proper list coloring, vertices in input
    order, colors in sorted order, forward checking on neighbor domains."""
    if not all(ell.lists.values()):
        raise ValueError("every list needs at least k=1 colors")
    return _solve_list_coloring(g, ell, _Ticker(budget or SearchBudget()))


def _solve_list_coloring(g: Graph, ell: ListAssignment, ticker: _Ticker) -> SearchResult:
    """solve_list_coloring on a given ticker, as the packing search at k = 1
    (a list coloring is a packing of size 1); `nodes` is the ticker's total."""
    _require_domains(g, ell)
    try:
        rows = _packing_search(g, *_rank_colors(g, ell), 1, ticker)
    except _BudgetHit:
        return SearchResult(EXHAUSTED, nodes=ticker.nodes)
    if rows is None:
        return SearchResult(ABSENT, nodes=ticker.nodes)
    assert is_proper_coloring(g, ell, rows[0]).ok
    return SearchResult(FOUND, witness=rows[0], nodes=ticker.nodes)


def solve_packing(
    g: Graph, ell: ListAssignment, k: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Backtracking search for a proper packing of size k: each vertex gets an
    ordered k-tuple of distinct colors from its list, adjacent vertices must
    differ in every coordinate.

    A packing's first row is already a proper list coloring, so the same
    search at k = 1, if it comes back absent, settles the question up front;
    that shortcut is what keeps clique instances with identical lists fast.
    """
    if k < 1:
        raise ValueError(f"packing size must be positive, got {k}")
    _require_domains(g, ell)
    if any(len(ell[v]) < k for v in g.vertices()):
        raise ValueError(f"every list needs at least k={k} colors")
    return _solve_packing(g, ell, k, _Ticker(budget or SearchBudget()))


def _solve_packing(g: Graph, ell: ListAssignment, k: int, ticker: _Ticker) -> SearchResult:
    """solve_packing on a given ticker, lists already checked; `nodes` is
    the ticker's total."""
    colors, ranks = _rank_colors(g, ell)
    try:
        if _packing_search(g, colors, ranks, 1, ticker) is None:
            return SearchResult(ABSENT, nodes=ticker.nodes)
        rows = _packing_search(g, colors, ranks, k, ticker)
    except _BudgetHit:
        return SearchResult(EXHAUSTED, nodes=ticker.nodes)
    if rows is None:
        return SearchResult(ABSENT, nodes=ticker.nodes)
    packing = Packing(rows)
    assert is_proper_packing(g, ell, packing).ok
    return SearchResult(FOUND, witness=packing, nodes=ticker.nodes)


@lru_cache(maxsize=1024)
def _tuple_masks(ranks: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The ordered k-tuples of distinct colors from a list, given as its
    sorted color ranks, in permutations order, each encoded as the bitmask
    with bit r*k + j set for rank r in coordinate j."""
    return tuple(
        sum(1 << (r * k + j) for j, r in enumerate(p)) for p in permutations(ranks, k)
    )


def _rank_colors(g: Graph, ell: ListAssignment) -> tuple[list[int], list[tuple[int, ...]]]:
    """The instance's colors in sorted order, and each vertex's list, in
    vertex order, as the sorted ranks of its colors among them."""
    lists = [ell[v] for v in g.vertices()]
    colors = sorted(set().union(*lists))
    rank = {c: r for r, c in enumerate(colors)}
    return colors, [tuple(sorted(map(rank.__getitem__, cs))) for cs in lists]


def _packing_search(
    g: Graph, colors: list[int], ranks: list[tuple[int, ...]], k: int, ticker: _Ticker
) -> tuple[Coloring, ...] | None:
    """Forward-checking search over ordered k-tuples, on the lists as
    `_rank_colors` numbers them.  A tuple is a bitmask of its (coordinate,
    color) pairs, colors numbered by rank so masks stay k*|colors| bits wide
    whatever the color values; two tuples may sit on adjacent vertices
    exactly when their masks are disjoint.  Masks are never 0, so 0 in
    `chosen` marks a vertex without a tuple."""
    if g.n == 0:
        return tuple({} for _ in range(k))
    domains: list[Sequence[int]] = [()] + [_tuple_masks(r, k) for r in ranks]
    chosen = [0] * (g.n + 1)
    # Depth-first with an explicit stack: per vertex, its domain on arrival,
    # the next tuple to try, and the neighbor domains its current tuple
    # replaced.  Vertices go in order 1..n, so at vertex v exactly 1..v
    # hold tuples and the unplaced neighbors are those above v.
    options: list[Sequence[int]] = [() for _ in range(g.n + 1)]
    pos = [0] * (g.n + 1)
    saved: list[list[tuple[int, Sequence[int]]]] = [[] for _ in range(g.n + 1)]
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
    rows: tuple[Coloring, ...] = tuple({} for _ in range(k))
    for v in g.vertices():
        _decode_tuple(chosen[v], v, colors, rows)
    return rows


def _decode_tuple(mask: int, v: int, colors: Sequence[int], rows: tuple[Coloring, ...]) -> None:
    """Write the k-tuple that `mask` encodes, colors by rank in `colors`,
    into the rows as vertex v's entries."""
    k = len(rows)
    while mask:
        bit = (mask & -mask).bit_length() - 1
        rows[bit % k][v] = colors[bit // k]
        mask &= mask - 1


def solve_packing_via_lift(
    g: Graph, ell: ListAssignment, k: int, budget: SearchBudget | None = None
) -> SearchResult:
    """The other route to the same answer: list-color the lifted product
    with `solve_list_coloring` and slice, through `pack_via_product`.  Must
    agree with solve_packing on every instance."""
    solved: list[SearchResult] = []

    def solver(h: Graph, lifted: ListAssignment) -> Coloring | None:
        solved.append(solve_list_coloring(h, lifted, budget))
        return solved[0].witness  # None unless found

    packing = pack_via_product(g, ell, k, solver)
    return solved[0] if packing is None else replace(solved[0], witness=packing)


# ---------------------------------------------------------------------------
# Canonical enumeration of k-assignments up to color renaming.
#
# Lists are scanned in vertex order and colors in sorted order; an assignment
# is canonical when no injective color relabeling makes its flattened form
# lexicographically smaller.  Every newly seen color is then the smallest
# unused positive integer, so fresh colors never exceed n*k, which is what
# makes "for every k-assignment" finitely checkable.
#
# The canonicity test is incremental, as in orderly generation (McKay 1998,
# "Isomorph-free exhaustive generation").  Call two colors of a canonical
# prefix equivalent when they appear in exactly the same lists.  The
# relabelings that map the prefix to itself are exactly the permutations
# inside these color classes, and no relabeling maps it to anything smaller.
# So the smallest image of a next list t takes, in every class C, the
# |t & C| smallest colors of C, and its fresh colors to the next unused
# integers.  The extended prefix is canonical exactly when t & C is already
# that initial segment of C for every class.  Accepting t splits each class
# into its part inside t and its part outside, and t's fresh colors form one
# new class.
# ---------------------------------------------------------------------------


def _candidate_lists(mx: int, k: int) -> list[tuple[int, ...]]:
    """Sorted k-lists that can follow a prefix using colors 1..mx: any seen
    colors plus a run of fresh ones mx+1, mx+2, ..."""
    out = []
    for fresh in range(k + 1):
        tail = tuple(range(mx + 1, mx + 1 + fresh))
        for head in combinations(range(1, mx + 1), k - fresh):
            out.append(head + tail)
    out.sort()
    return out


def _iter_canonical(n: int, k: int):
    """All canonical k-assignments over vertices 1..n, lazily, in
    lexicographic order of their flattened forms."""
    prefix: list[tuple[int, ...]] = []

    def walk(mx: int, classes: list[list[int]]):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        # A list meets every class in an initial segment exactly when it
        # holds the predecessor, within its class, of each color it holds.
        before = {c: cls[i - 1] for cls in classes for i, c in enumerate(cls) if i}
        for cand in _candidate_lists(mx, k):
            members = set(cand)
            if any(before[c] not in members for c in cand if c in before):
                continue
            refined = [
                part
                for cls in classes
                for part in (
                    [c for c in cls if c in members],
                    [c for c in cls if c not in members],
                )
                if part
            ]
            fresh = [c for c in cand if c > mx]
            if fresh:
                refined.append(fresh)
            prefix.append(cand)
            yield from walk(max(mx, cand[-1]), refined)
            prefix.pop()

    yield from walk(0, [])


def enumerate_canonical_assignments(g: Graph, k: int):
    """Yield one representative per color-renaming class of k-assignments."""
    if k < 1:
        raise ValueError(f"list size must be positive, got {k}")
    for lists in _iter_canonical(g.n, k):
        yield ListAssignment({v: frozenset(lists[v - 1]) for v in g.vertices()})


@dataclass(frozen=True)
class _Scan:
    """One pass over the canonical k-assignments: `bad` is the first one the
    solver found no solution for (None when every one has one), `scanned`
    counts the assignments handed to the solver, and `stalled` is the
    exhaustion message when the budget ran out first."""

    bad: ListAssignment | None
    scanned: int
    stalled: str | None = None


def _scan(g: Graph, k: int, decide, ticker: _Ticker) -> _Scan:
    """Run `decide` on each canonical k-assignment of g, in enumeration
    order, until one comes back absent.  `decide` spends from `ticker`,
    whose deadline is also checked before each assignment.  The packing
    scans pass the warm-started `_packing_decider`: a re-fit of the last
    vertex, one node each, with a cold `_solve_packing` on a miss."""
    scanned = 0
    for ell in enumerate_canonical_assignments(g, k):
        if time.monotonic() > ticker.deadline:
            return _Scan(None, scanned, f"budget exhausted scanning {k}-assignments")
        scanned += 1
        result = decide(ell)
        if result.status == EXHAUSTED:
            return _Scan(None, scanned, f"budget exhausted on a {k}-assignment")
        if result.status == ABSENT:
            return _Scan(ell, scanned)
    return _Scan(None, scanned)


def _refit_last_vertex(
    g: Graph, ell: ListAssignment, rows: tuple[Coloring, ...], ticker: _Ticker
) -> tuple[Coloring, ...] | None:
    """Keep a packing's rows on vertices 1..n-1, provided they lie in ell's
    lists, and give vertex n k distinct colors of L(n), one per row, row j
    avoiding the row-j colors of n's neighbours: a system of distinct
    representatives of rows by colors.  It is the first ordered k-tuple of
    L(n), over the same tuple masks and in the same order as the cold
    search, that misses the neighbours' (row, color) bits.  None when the
    kept rows leave the lists or no tuple fits; a re-fit spends one node."""
    n, lists = g.n, ell.lists
    for v in range(1, n):
        if not lists[v].issuperset([row[v] for row in rows]):
            return None
    ticker.spend()
    k = len(rows)
    colors = sorted(lists[n])
    rank = {c: r for r, c in enumerate(colors)}
    nbrs = g.neighbors(n)
    taken = 0
    for j, row in enumerate(rows):
        for w in nbrs:
            r = rank.get(row[w])
            if r is not None:
                taken |= 1 << (r * k + j)
    for mask in _tuple_masks(tuple(range(len(colors))), k):
        if not mask & taken:
            refit = tuple(dict(row) for row in rows)
            _decode_tuple(mask, n, colors, refit)
            return refit
    return None


def _packing_decider(g: Graph, k: int, ticker: _Ticker):
    """The `decide` of a packing scan.  Consecutive canonical assignments
    mostly differ in the last list only, so before any cold solve the last
    packing found is re-fitted at vertex n.  Only the cold _solve_packing
    may return absent, which keeps the scan's first absent assignment."""
    previous: tuple[Coloring, ...] | None = None

    def decide(ell: ListAssignment) -> SearchResult:
        nonlocal previous
        if previous is not None:
            try:
                rows = _refit_last_vertex(g, ell, previous, ticker)
            except _BudgetHit:
                return SearchResult(EXHAUSTED, nodes=ticker.nodes)
            if rows is not None:
                packing = Packing(rows)
                assert is_proper_packing(g, ell, packing).ok
                previous = rows
                return SearchResult(FOUND, witness=packing, nodes=ticker.nodes)
        result = _solve_packing(g, ell, k, ticker)
        if result.status == FOUND:
            previous = result.witness.rows
        return result

    return decide


def find_bad_assignment(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> SearchResult:
    """First canonical k-assignment (in enumeration order) admitting no
    proper packing of size k, or absent when every one packs.  The budget
    bounds the whole scan."""
    ticker = _Ticker(budget or SearchBudget())
    scan = _scan(g, k, _packing_decider(g, k, ticker), ticker)
    if scan.stalled:
        return SearchResult(EXHAUSTED, nodes=ticker.nodes)
    status = ABSENT if scan.bad is None else FOUND
    return SearchResult(status, witness=scan.bad, nodes=ticker.nodes)


MAX_CHI_VERTICES = 20


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Least t admitting a proper coloring from constant lists 1..t, so 0
    on the graph without vertices.  The budget bounds all the searches
    together."""
    if g.n > MAX_CHI_VERTICES:
        raise ValueError(f"graph too large for exact search: {g.n} vertices")
    if g.n == 0:
        return 0
    ticker = _Ticker(budget or SearchBudget())
    for t in range(1, g.n + 1):
        ell = ListAssignment({v: frozenset(range(1, t + 1)) for v in g.vertices()})
        result = _solve_list_coloring(g, ell, ticker)
        if result.status == EXHAUSTED:
            raise SearchExhaustedError(f"budget exhausted deciding {t}-colorability")
        if result.status == FOUND:
            return t
    raise AssertionError("unreachable: n colors always suffice")


def coloring_number(g: Graph) -> int:
    """1 + degeneracy.  Greedy coloring along a reversed min-degree
    elimination order never sees this many forbidden colors, so every
    k-assignment with k >= coloring_number(g) is colorable.

    The elimination keeps the live vertices in buckets by current degree
    (Matula and Beck 1983), so it runs in O(n + m): removing a vertex of
    minimum degree d leaves no live vertex below degree d - 1."""
    degree = [0] + [g.degree(v) for v in g.vertices()]
    alive = [False] + [True] * g.n
    buckets: list[set[int]] = [set() for _ in range(g.max_degree() + 1)]
    for v in g.vertices():
        buckets[degree[v]].add(v)
    worst = d = 0
    for _ in g.vertices():
        d = max(d - 1, 0)
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        worst = max(worst, d)
        alive[v] = False
        for w in g.neighbors(v):
            if alive[w]:
                buckets[degree[w]].remove(w)
                degree[w] -= 1
                buckets[degree[w]].add(w)
    return worst + 1


def list_chromatic_number(
    g: Graph, k_max: int, budget: SearchBudget | None = None
) -> ChiListResult:
    """Least k <= k_max such that every k-assignment is colorable, with the
    bad (k-1)-assignment that certifies minimality.

    The scan over canonical assignments runs only for k below the greedy
    bound; at k >= coloring_number(g) colorability is certain without it.
    The budget bounds all the scans together.
    """
    ticker = _Ticker(budget or SearchBudget())
    greedy = coloring_number(g)
    witness: ListAssignment | None = None
    for k in range(1, k_max + 1):
        if k >= greedy:
            return ChiListResult(k, witness)
        scan = _scan(g, k, lambda ell: _solve_list_coloring(g, ell, ticker), ticker)
        if scan.stalled:
            raise SearchExhaustedError(scan.stalled)
        if scan.bad is None:
            return ChiListResult(k, witness)
        witness = scan.bad
    raise BoundExceededError(k_max, witness)


MAX_CHI_STAR_VERTICES = 4


def list_packing_number(
    g: Graph, k_max: int, budget: SearchBudget | None = None
) -> ChiStarResult:
    """Least k <= k_max such that every canonical k-assignment admits a
    proper packing of size k, by full enumeration at every level.  The
    budget bounds all the scans together."""
    if g.n > MAX_CHI_STAR_VERTICES:
        raise ValueError(f"graph too large for exact packing scans: {g.n} vertices")
    ticker = _Ticker(budget or SearchBudget())
    witness: ListAssignment | None = None
    for k in range(1, k_max + 1):
        scan = _scan(g, k, _packing_decider(g, k, ticker), ticker)
        if scan.stalled:
            raise SearchExhaustedError(scan.stalled)
        if scan.bad is None:
            return ChiStarResult(k, witness, scan.scanned)
        witness = scan.bad
    raise BoundExceededError(k_max, witness)
