"""Exhaustive oracles for tiny graphs: backtracking list packing, canonical
enumeration of k-assignments up to color renaming, and exact chromatic /
list-chromatic / list-packing numbers with certificates.  A list coloring is
a packing of size 1, so one backtracker serves both.

The list-packing scans also quotient by Aut(G): the same walk yields the
lex-least assignment of each class under automorphisms and color renaming,
prunes a prefix that an automorphism fixing its vertices maps to something
smaller, and weighs each by the renaming classes it stands for, |Aut(G)|
over its stabilizer (332 assignments for 4079 on K_4 at k = 4).  It never
builds an image's canonical form: it compares the sizes of the
intersections of the lists, read in an order in which the larger reading
is the lex-smaller form, through one itemgetter per image prefix.

Everything here is deliberately dumb and deterministic: fixed vertex order,
sorted color order, no heuristics.  "absent" always means a completed search;
running out of budget is a distinct outcome, never a wrong answer.

The packing search indexes the ordered k-tuples of colors from each list in
permutations order and holds a vertex's domain as one int over those indices.
A list's table, built once and memoized, keeps per (coordinate, color) bit
the hit mask of the tuples that hold it, so placing a tuple narrows a
neighbour's domain by the OR of k hit masks and one AND, whatever the
domain's size.  The hit masks are built whole, never tuple by tuple, once
per list size and k: every list of m colors renames those of the positions
0..m-1.  A tuple's own bits are decoded from its index when first tried.

Every scan is warm-started, the list-chromatic one included (it is the
packing scan at k = 1): consecutive canonical assignments mostly share every
list but the last, so the scan keeps the last packing it found on vertices
1..n-1 and re-fits vertex n alone, by a row-color matching that spends one
search node.  What that matching needs of the kept rows, the colors of n's
neighbours per row and whether the rows lie in lists 1..n-1, is computed
once per prefix of lists and rows, not per assignment.  Only when the
re-fit fails does a cold search run, and only a cold search may report a
packing absent.  Every packing, re-fitted or cold, gets the full
`is_proper_packing` check.

Running out of budget has one route out.  The internals return plain
values (a packing or None, a bad assignment or None) and raise when their
ticker runs dry; each public entry converts that once: `solve_packing` and
`find_bad_assignment` report EXHAUSTED, and the exact numbers raise
`SearchExhaustedError` naming the level they were deciding.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress, permutations, product, zip_longest
from math import perm
from operator import itemgetter

from .coloring import (
    Coloring,
    ListAssignment,
    Packing,
    _require_domains,
    is_proper_packing,
)
from .graphs import Graph

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
    # Color-renaming classes of value-assignments covered, all packable: the
    # scan runs one assignment per automorphism class, counted by class size.
    upper_evidence: int


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
    """Backtracking search for a proper list coloring: the packing search at
    k = 1, whose one row is the coloring."""
    result = solve_packing(g, ell, 1, budget)
    if result.status != FOUND:
        return result
    return replace(result, witness=result.witness.rows[0])


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
    if min(map(len, ell.lists.values()), default=k) < k:
        raise ValueError(f"every list needs at least k={k} colors")
    ticker = _Ticker(budget or SearchBudget())
    try:
        packing = _solve_packing(g, ell, k, ticker)
    except _BudgetHit:
        return SearchResult(EXHAUSTED, nodes=ticker.nodes)
    return SearchResult(ABSENT if packing is None else FOUND, packing, ticker.nodes)


def _solve_packing(g: Graph, ell: ListAssignment, k: int, ticker: _Ticker) -> Packing | None:
    """solve_packing on a given ticker, lists already checked: the packing,
    or None when there is none.  Raises _BudgetHit when the ticker runs out."""
    colors, ranks = _rank_colors(g, ell)
    later = [()] + [ns[bisect_right(ns, v) :] for v, ns in enumerate(g._adjacency, 1)]
    chosen = _packing_search(later, ranks, 1, ticker)
    if chosen is not None and k > 1:
        chosen = _packing_search(later, ranks, k, ticker)
    if chosen is None:
        return None
    rows: tuple[Coloring, ...] = tuple({} for _ in range(k))
    for v in g.vertices():
        _write_tuple(chosen[v], v, colors, rows)
    return _verified(g, ell, rows)


def _verified(g: Graph, ell: ListAssignment, rows: tuple[Coloring, ...]) -> Packing:
    """Packing(rows), after the full check; failing it is an internal error."""
    packing = Packing(rows)
    report = is_proper_packing(g, ell, packing)
    if not report.ok:
        raise RuntimeError(f"internal error: packing failed verification: {report.violations}")
    return packing


class _Tuples(dict):
    """The ordered k-tuples of distinct colors from a list, by their index
    in permutations order, each as its k bits: `bits[p*k + j]` for the
    list's color at position p in coordinate j.  A tuple is decoded when
    first asked for, and kept: renamed from the same tuple of `positions`,
    the table of the positions 0..m-1 themselves, or in that table, whose
    `positions` is None, worked out from its index."""

    __slots__ = ("bits", "k", "positions")

    def __init__(self, bits: list[int], k: int, positions: _Tuples | None):
        super().__init__()
        self.bits, self.k, self.positions = bits, k, positions

    def __missing__(self, index: int) -> tuple[int, ...]:
        if self.positions is not None:
            found = tuple(map(self.bits.__getitem__, self.positions[index]))
        else:
            k, rest = self.k, index
            left = list(range(len(self.bits) // k))
            decoded = []
            for j in range(k):
                # The tuples that share their first j positions come in
                # equal blocks, one per next position, in the order of those left.
                block, rest = divmod(rest, perm(len(left) - 1, k - j - 1))
                decoded.append(left.pop(block) * k + j)
            found = tuple(decoded)
        self[index] = found
        return found


@lru_cache(maxsize=1024)
def _tuple_table(ranks: tuple[int, ...], k: int) -> tuple[int, _Tuples, defaultdict[int, int]]:
    """The ordered k-tuples of distinct colors from a list, given as its
    sorted color ranks, indexed 0, 1, ... in permutations order: the mask
    of all their indices, their bits as `_Tuples`, bit r*k + j for rank r
    in coordinate j, and per bit the hit mask of the tuples that hold it,
    tuple i at bit i, 0 for a bit no tuple holds (looking one up stores
    that 0).  Only the table of the positions 0..m-1 themselves builds its
    hit masks; every list of m colors renames them."""
    m = len(ranks)
    bits = [r * k + j for r in ranks for j in range(k)]
    if ranks[-1] == m - 1:  # the ranks are the positions 0..m-1 themselves
        hits = defaultdict(int, zip(bits, _position_hits(m, k)))
        return (1 << perm(m, k)) - 1, _Tuples(bits, k, None), hits
    full, positions, hits = _tuple_table(tuple(range(m)), k)
    # The positions' masks come first in `hits`, in position order; lookups
    # only ever add zeros after them.
    return full, _Tuples(bits, k, positions), defaultdict(int, zip(bits, hits.values()))


def _position_hits(m: int, k: int) -> list[int]:
    """The hit masks of the ordered k-tuples of positions 0..m-1, in
    permutations order, position p in coordinate j at index p*k + j.

    They are built block by block, never tuple by tuple.  In permutations
    order the tuples fall into m equal blocks by their first position a,
    and block a lists the (k-1)-tuples of the other m-1 positions in their
    own permutations order, position p renumbered p - (p > a).  So in a
    later coordinate, position p's mask is the shorter tuples' mask of
    p - 1 in every block before block p and that of p in every block after
    it: from length 1 up, a few operations on whole masks per position and
    coordinate."""
    # At each length, position p in coordinate j has its mask at p*length + j.
    hits = [1 << p for p in range(m - k + 1)]
    for length in range(2, k + 1):
        width, shorter = m - k + length, length - 1
        block = perm(width - 1, shorter)
        longer: list[int] = []
        previous = [0] * shorter  # position p - 1's shorter masks, in every block
        for p in range(width):
            before, after = (1 << p * block) - 1, -1 << (p + 1) * block
            mine = [_tile(h, width, block) for h in hits[p * shorter : (p + 1) * shorter]]
            longer.append(((1 << block) - 1) << p * block)
            longer += [x & before | y & after for x, y in zip_longest(previous, mine, fillvalue=0)]
            previous = mine
        hits = longer
    return hits


def _tile(mask: int, count: int, block: int) -> int:
    """`mask`, which fits in `block` bits, copied into each of `count`
    consecutive blocks of that many bits, by doubling."""
    tiled, copies = mask, 1
    while copies < count:
        tiled |= tiled << copies * block
        copies *= 2
    return tiled & (1 << count * block) - 1


def _rank_colors(g: Graph, ell: ListAssignment) -> tuple[list[int], list[tuple[int, ...]]]:
    """The instance's colors in sorted order, and each vertex's list, in
    vertex order, as the sorted ranks of its colors among them; each
    distinct list is ranked once."""
    lists = list(map(ell.lists.__getitem__, g.vertices()))
    distinct = dict.fromkeys(lists)
    colors = sorted(set().union(*distinct))
    rank = {c: r for r, c in enumerate(colors)}.__getitem__
    for cs in distinct:
        distinct[cs] = tuple(sorted(map(rank, cs)))
    return colors, list(map(distinct.__getitem__, lists))


def _packing_search(
    later: list[tuple[int, ...]], ranks: list[tuple[int, ...]], k: int, ticker: _Ticker
) -> list[tuple[int, ...]] | None:
    """Forward-checking search over ordered k-tuples, on the lists as
    `_rank_colors` numbers them, with `later[v]` the neighbours of vertex v
    above v: the bits of the tuple chosen for each vertex v, at index v, as
    `_tuple_table` gives them, or None.  A domain is an int over the
    indices of its list's tuples; placing a tuple strikes from each later
    neighbour's domain the tuples that share one of its k (coordinate,
    color) bits, the OR of that neighbour's hit masks at those bits, so
    narrowing costs k lookups and one AND whatever the domain's size.  A
    vertex tries its domain's tuples lowest index first, which is
    permutations order."""
    n = len(ranks)
    chosen: list[tuple[int, ...]] = [()] * (n + 1)
    if n == 0:
        return chosen
    tables = [(0, {}, {})] + [_tuple_table(r, k) for r in ranks]
    domains = [t[0] for t in tables]
    tuples = [t[1] for t in tables]
    hits = [t[2] for t in tables]
    # Depth-first with an explicit stack: per vertex, the tuples of its
    # domain on arrival it has yet to try, and the (neighbour, old domain)
    # pairs its current tuple replaced, put back before it tries the next.
    # Vertices go in order 1..n, so at vertex v, 1..v hold tuples and
    # later[v] are unplaced.
    untried = [0] * (n + 1)
    saved: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    spend = ticker.spend
    v = 1
    untried[v] = domains[v]
    while True:
        undo = saved[v]
        if undo:
            for w, old in undo:
                domains[w] = old
            undo.clear()
        rest = untried[v]
        if not rest:
            v -= 1
            if v == 0:
                return None
            continue
        low = rest & -rest
        untried[v] = rest ^ low
        p = tuples[v][low.bit_length() - 1]
        spend()
        for w in later[v]:
            hit = hits[w]
            kill = 0
            for b in p:
                kill |= hit[b]
            old = domains[w]
            kept = old & ~kill
            if not kept:
                break
            undo.append((w, old))
            domains[w] = kept
        else:
            chosen[v] = p
            if v == n:
                break
            v += 1
            untried[v] = domains[v]
    return chosen


def _write_tuple(
    bits: Sequence[int], v: int, colors: Sequence[int], rows: tuple[Coloring, ...]
) -> None:
    """Write the k-tuple whose bits are `bits`, colors by rank in `colors`,
    into the rows as vertex v's entries."""
    k = len(rows)
    for row, b in zip(rows, bits):
        row[v] = colors[b // k]


# ---------------------------------------------------------------------------
# Canonical enumeration of k-assignments up to color renaming and, for the
# chi-star scans, up to a group of vertex permutations as well.
#
# Lists are scanned in vertex order and colors in sorted order; an assignment
# is canonical when no injective color relabeling makes its flattened form
# lexicographically smaller.  Every newly seen color is then the smallest
# unused positive integer, so fresh colors never exceed n*k, which is what
# makes "for every k-assignment" finitely checkable.
#
# The canonical lists are generated directly, as in orderly generation (Read
# 1978; McKay 1998, "Isomorph-free exhaustive generation").  Call two colors
# of a canonical prefix equivalent when they appear in exactly the same
# lists; the unseen colors form one more class.  The relabelings that map
# the prefix to itself are exactly the permutations inside these classes,
# and no relabeling maps it to anything smaller.  So the smallest image of
# a next list t takes, in every class C, the |t & C| smallest colors of C,
# and the extended prefix is canonical exactly when t & C is already that
# initial segment of C for every class.  The canonical next lists are thus
# one per way of spreading k colors over the classes.  Accepting t splits
# each class into its part inside t and its part outside.
#
# A group of vertex permutations (Aut(G) in the scans) merges renaming
# classes further, and the walk keeps the lex-least canonical member of each
# merged class.  A permutation s that maps positions 1..i onto themselves
# sends a prefix P to the prefix whose list j is P's list s(j); the first i
# lists of any extension go the same way, and the canonical form of a list
# sequence restricted to its first i lists is the canonical form of those
# lists.  So if some such s gives a canonical image smaller than P, no
# extension of P is lex-least and the walk prunes P.
#
# Canonical forms are compared without building them, through the
# intersection sizes I(S), the number of colors common to the lists at the
# positions in S: an invariant compared first, as in McKay and Piperno,
# "Practical graph isomorphism, II" (2014).  Read I by depth j, the largest
# position in S, and within a depth by the other positions 1, 2, ..., j-1
# in turn, a set holding the position first: the order of the color classes
# after lists 1..j-1.  Canonical list j takes a_T colors from the class of
# the colors in exactly the lists T, and I({j} + T) is the sum of a_U over
# the U containing T, all of which come no later.  So once the lower depths
# tie, depth j compares as canonical list j does, the larger reading being
# the smaller list.  Depth 1 always reads (k) and is skipped.  The image
# under s reads I(s(S)), so the walk keeps the prefix's sizes up to date,
# 2^(j-1) ANDs for list j, and reads an image's depth j with one
# `itemgetter` per image prefix s(1..j).  These readers form a prefix tree,
# built once per group, and one depth decides a whole subtree unless it
# ties.  A two-list canonical form depends only on the overlap, so prefixes
# of length <= 2 are not tested, except as leaves.  A leaf is tested
# against the whole group: the number of s whose image reads the same as
# the leaf is the order of its stabilizer, and the leaf stands for
# |group| / |stabilizer| renaming classes.
#
# Lists and classes are bitmasks, color c at bit n*k - c, so that each class
# is a run of bits and of two k-lists the larger mask is the smaller sorted
# tuple, and sizes are indexed by S, position j at bit j - 1.
# ---------------------------------------------------------------------------


def _canonical_lists(blocks: list[int], k: int) -> list[int]:
    """The k-lists that keep a canonical prefix canonical, smallest first:
    for every way of spreading k over the prefix's color classes `blocks`,
    the first colors of each, which are its highest bits."""
    partial = [(0, 0)]  # (mask, colors taken)
    for block in blocks:
        size, top = block.bit_count(), block.bit_length()
        partial = [
            (mask | ((1 << c) - 1) << (top - c), taken + c)
            for mask, taken in partial
            for c in range(min(size, k - taken) + 1)
        ]
    return sorted((mask for mask, taken in partial if taken == k), reverse=True)


def _automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Aut(g), identity first, each as the tuple p with p[v-1] + 1 the image
    of vertex v; by trying all n! vertex permutations, so only for the
    vertex counts the packing scans allow."""
    return tuple(
        p
        for p in permutations(range(g.n))
        if all(g.has_edge(p[u - 1] + 1, p[v - 1] + 1) for u, v in g.edges)
    )


def _meet(blocks: list[int], mask: int) -> list[int]:
    """The color classes `blocks` split by the list `mask`, in order: each
    class it cuts becomes its part inside the list, then its part outside."""
    refined = []
    for block in blocks:
        inside = block & mask
        if inside and inside != block:
            refined += (inside, block ^ inside)
        else:
            refined.append(block)
    return refined


def _reader(image: tuple[int, ...]) -> itemgetter:
    """The reader of depth j = len(image) - 1, counted from 0 like positions,
    of the image whose list t is the prefix's list image[t]: off the
    prefix's sizes, those of list image[j] with each subset of image[:j],
    in the order above."""
    *head, last = image
    subsets = product((1, 0), repeat=len(head))
    return itemgetter(*(sum(1 << t for t in compress(head, b)) | 1 << last for b in subsets))


@lru_cache(maxsize=64)
def _movers(n: int, group: tuple[tuple[int, ...], ...]) -> tuple[tuple, ...]:
    """Per prefix length i, the distinct non-identity restrictions to 0..i-1
    of the permutations in `group` that map 0..i-1 onto itself, all of them
    at i = n and none at other i <= 2, as a prefix tree of their readers
    from depth 1: a node is a tuple of (reader, child) pairs, a leaf ()."""

    def trie(perms: list[tuple[int, ...]], j: int) -> tuple:
        heads = dict.fromkeys(p[: j + 1] for p in perms if len(p) > j)
        return tuple(
            (_reader(h), trie([p for p in perms if p[: j + 1] == h], j + 1)) for h in heads
        )

    return tuple(
        trie(list(dict.fromkeys(p[:i] for p in group if all(t < i for t in p[:i])))[1:], 1)
        if i > 2 or i == n
        else ()
        for i in range(n + 1)
    )


def _stabilizer(sizes: list[int], node: tuple, own: list, j: int) -> int | None:
    """Compare the prefix's reading at depth j, by its own reader `own[j]`,
    and then deeper, with that of its image under each permutation in the
    prefix-tree node `node`.  None when some image reads larger, so is
    smaller, else the number of images that read the same."""
    mine = own[j](sizes)
    equal = 0
    for read, child in node:
        image = read(sizes)
        if image > mine:
            return None
        if image == mine:
            if not child:
                equal += 1
                continue
            below = _stabilizer(sizes, child, own, j + 1)
            if below is None:
                return None
            equal += below
    return equal


def _iter_canonical(n: int, k: int, group: Sequence[tuple[int, ...]] | None = None):
    """The lex-least canonical k-assignment over vertices 1..n of every
    class under color renaming and the vertex permutations of `group` (a
    group, identity first, in `_automorphisms` form; None for the trivial
    group), lazily, in lexicographic order of their flattened forms.  Each
    comes with the number of color-renaming classes its class holds.  The
    walk is depth-first on an explicit stack, as in `_packing_search`: entry
    i holds the color classes lists 0..i-1 leave and an iterator over the
    canonical candidates for list i."""
    group = tuple(group or (tuple(range(n)),))
    symmetric = len(group) > 1
    width = n * k
    all_colors = [(1 << width) - 1]
    if symmetric:  # the trivial group reads none of this 2^n state
        movers = _movers(n, group)
        own = [None] + [_reader(tuple(range(j + 1))) for j in range(1, n)]
        # The AND of the prefix's lists at each position set, and its size.
        inter = all_colors * (1 << n)
        sizes = [0] * (1 << n)
    if n == 0:
        yield (), 1
        return
    prefix: list[tuple[int, ...]] = []  # [:i] holds lists 0..i-1 while list i is tried
    stack = [(all_colors, iter(_canonical_lists(all_colors, k)))]
    while stack:
        i = len(stack) - 1
        blocks, candidates = stack[i]
        if symmetric:
            node, low, high = movers[i + 1], 1 << i, 2 << i
        for mask in candidates:
            equal = 0
            if symmetric:
                sizes[low:high] = [(meet & mask).bit_count() for meet in inter[:low]]
                if node:
                    equal = _stabilizer(sizes, node, own, 1)
                    if equal is None:
                        continue
            colors, rest = [], mask  # color c at bit width - c, highest bit first
            while rest:
                top = rest.bit_length()
                colors.append(width + 1 - top)
                rest ^= 1 << top - 1
            prefix[i:] = [tuple(colors)]
            if i + 1 < n:
                if symmetric:
                    inter[low:high] = [meet & mask for meet in inter[:low]]
                blocks = _meet(blocks, mask)
                stack.append((blocks, iter(_canonical_lists(blocks, k))))
                break
            yield tuple(prefix), len(group) // (1 + equal)
        else:
            stack.pop()


def enumerate_canonical_assignments(g: Graph, k: int):
    """Yield one representative per color-renaming class of k-assignments."""
    if k < 1:
        raise ValueError(f"list size must be positive, got {k}")
    for lists, _ in _iter_canonical(g.n, k):
        yield ListAssignment({v: frozenset(lists[v - 1]) for v in g.vertices()})


def _scan(
    g: Graph, k: int, size: int, ticker: _Ticker, group: Sequence[tuple[int, ...]] | None = None
) -> tuple[ListAssignment | None, int]:
    """Of the lex-least canonical k-assignments, one per class under color
    renaming and `group` (see `_iter_canonical`), the first in enumeration
    order with no packing of the given size (1 for list colorings), or None;
    and the color-renaming classes the assignments tried stand for.  Packability
    is invariant under both, so the first bad one is the same as without
    `group`.  Consecutive assignments mostly differ in the last list only,
    so the last packing found is re-fitted in place at vertex n first; what
    the re-fit reads of the rows on 1..n-1 (`_refit_state`) is recomputed
    only when lists 1..n-1 change or a cold `_solve_packing`, the only
    search that may find no packing, replaces the rows.  Every packing gets
    the full `is_proper_packing` check.  Raises SearchExhaustedError when
    `ticker` runs out, its deadline checked before each assignment too."""
    n, scanned = g.n, 0
    rows: tuple[Coloring, ...] | None = None  # the last packing found
    head: tuple | None = None  # the lists 1..n-1 that `used` was computed for
    used: dict[int, int] | None = None
    for lists, orbit in _iter_canonical(n, k, group):
        if time.monotonic() > ticker.deadline:
            raise SearchExhaustedError(f"budget exhausted scanning {k}-assignments")
        scanned += orbit
        ell = ListAssignment({v: frozenset(lists[v - 1]) for v in g.vertices()})
        try:
            if rows is not None:
                if lists[:-1] != head:
                    head, used = lists[:-1], _refit_state(g, ell, rows)
                if used is None or not _refit_last_vertex(rows, n, lists[-1], used, ticker):
                    rows = None
            if rows is not None:
                _verified(g, ell, rows)
            else:
                packing = _solve_packing(g, ell, size, ticker)
                if packing is None:
                    return ell, scanned
                rows, head = packing.rows, None
        except _BudgetHit:
            raise SearchExhaustedError(f"budget exhausted on a {k}-assignment") from None
    return None, scanned


def _refit_state(
    g: Graph, ell: ListAssignment, rows: tuple[Coloring, ...]
) -> dict[int, int] | None:
    """What a re-fit of vertex n keeps from a packing's rows on vertices
    1..n-1: per color, the rows in which some neighbour of n has it, row j
    at bit j.  None when those rows leave ell's lists."""
    lists, n = ell.lists, g.n
    for v in range(1, n):
        if not lists[v].issuperset([row[v] for row in rows]):
            return None
    used: dict[int, int] = {}
    for j, row in enumerate(rows):
        for w in g.neighbors(n):
            used[row[w]] = used.get(row[w], 0) | 1 << j
    return used


def _refit_last_vertex(
    rows: tuple[Coloring, ...],
    n: int,
    colors: tuple[int, ...],
    used: dict[int, int],
    ticker: _Ticker,
) -> bool:
    """Give vertex n, in place, k distinct colors of its sorted list
    `colors`, one per row, row j avoiding the colors `used` in row j by n's
    neighbours: a system of distinct representatives of rows by colors.  It
    is the first ordered k-tuple of the list, in the same table and order
    as the cold search, with colors ranked by position in the list, that
    holds none of the neighbours' (row, color) bits: the lowest index the
    hit masks at those bits leave.  False when none does; a re-fit spends
    one node."""
    ticker.spend()
    k = len(rows)
    free, tuples, hits = _tuple_table(tuple(range(len(colors))), k)
    taken = 0
    for r, c in enumerate(colors):
        taken |= used.get(c, 0) << r * k
    while taken:
        low = taken & -taken
        free &= ~hits[low.bit_length() - 1]
        taken ^= low
    if not free:
        return False
    _write_tuple(tuples[(free & -free).bit_length() - 1], n, colors, rows)
    return True


def find_bad_assignment(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> SearchResult:
    """First canonical k-assignment (in enumeration order) admitting no
    proper packing of size k, or absent when every one packs.  The budget
    bounds the whole scan."""
    if k < 1:
        raise ValueError(f"list size must be positive, got {k}")
    ticker = _Ticker(budget or SearchBudget())
    try:
        bad, _ = _scan(g, k, k, ticker)
    except SearchExhaustedError:
        return SearchResult(EXHAUSTED, nodes=ticker.nodes)
    return SearchResult(ABSENT if bad is None else FOUND, bad, ticker.nodes)


MAX_CHI_VERTICES = 20


def chromatic_number(
    g: Graph, budget: SearchBudget | None = None, *, ticker: _Ticker | None = None
) -> int:
    """Least t admitting a proper coloring from constant lists 1..t, so 0
    on the graph without vertices.  The budget bounds all the searches
    together; a `ticker` passed in its place is shared with other calls."""
    if g.n > MAX_CHI_VERTICES:
        raise ValueError(f"graph too large for exact search: {g.n} vertices")
    if g.n == 0:
        return 0
    ticker = ticker or _Ticker(budget or SearchBudget())
    for t in range(1, g.n + 1):
        ell = ListAssignment({v: frozenset(range(1, t + 1)) for v in g.vertices()})
        try:
            if _solve_packing(g, ell, 1, ticker) is not None:
                return t
        except _BudgetHit:
            raise SearchExhaustedError(f"budget exhausted deciding {t}-colorability") from None
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
    g: Graph, k_max: int, budget: SearchBudget | None = None, *, ticker: _Ticker | None = None
) -> ChiListResult:
    """Least k <= k_max such that every k-assignment is colorable, with the
    bad (k-1)-assignment that certifies minimality.

    The scan over canonical assignments runs only for k below the greedy
    bound; at k >= coloring_number(g) colorability is certain without it.
    The budget bounds all the scans together; a `ticker` passed in its
    place is shared with other calls.
    """
    if k_max < 1:  # no k <= k_max to scan, so a negative would have no witness
        raise ValueError(f"the bound k_max must be at least 1, got {k_max}")
    ticker = ticker or _Ticker(budget or SearchBudget())
    greedy = coloring_number(g)
    witness: ListAssignment | None = None
    for k in range(1, k_max + 1):
        if k >= greedy:
            return ChiListResult(k, witness)
        bad, _ = _scan(g, k, 1, ticker)
        if bad is None:
            return ChiListResult(k, witness)
        witness = bad
    raise BoundExceededError(k_max, witness)


MAX_CHI_STAR_VERTICES = 4


def list_packing_number(
    g: Graph, k_max: int, budget: SearchBudget | None = None, *, ticker: _Ticker | None = None
) -> ChiStarResult:
    """Least k <= k_max such that every canonical k-assignment admits a
    proper packing of size k, by a full scan at every level up to Aut(g):
    one assignment per class under color renaming and automorphisms, which
    stands for every renaming class in it.  The budget bounds all the scans
    together; a `ticker` passed in its place is shared with other calls."""
    if k_max < 1:  # no k <= k_max to scan, so a negative would have no witness
        raise ValueError(f"the bound k_max must be at least 1, got {k_max}")
    if g.n > MAX_CHI_STAR_VERTICES:
        raise ValueError(f"graph too large for exact packing scans: {g.n} vertices")
    ticker = ticker or _Ticker(budget or SearchBudget())
    group = _automorphisms(g)
    witness: ListAssignment | None = None
    for k in range(1, k_max + 1):
        bad, scanned = _scan(g, k, k, ticker, group)
        if bad is None:
            return ChiStarResult(k, witness, scanned)
        witness = bad
    raise BoundExceededError(k_max, witness)
