"""Checkers the benchmark applies to the program's outputs.

They are written from the definitions alone and share no code with
`listpacking`: plain dicts, sets and tuples in, problem strings or plain
values out.  A checker returns an empty list when the output is correct.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product


def packing_problems(vertices, edges, lists, rows, k) -> list[str]:
    """Problems with `rows` as a proper packing of size k.

    Each row must color every vertex from its list with the two ends of every
    edge colored apart; each vertex's column must hold k distinct colors, so
    that when k equals the list size the column is a permutation of the list.
    """
    vertices = list(vertices)
    problems = []
    if len(rows) != k:
        return [f"packing has {len(rows)} rows, expected {k}"]
    for j, row in enumerate(rows, start=1):
        if set(row) != set(vertices):
            problems.append(f"row {j} does not color exactly the vertex set")
            continue
        for v in vertices:
            if row[v] not in lists[v]:
                problems.append(f"row {j} colors vertex {v} with {row[v]}, not in its list")
        for u, v in edges:
            if row[u] == row[v]:
                problems.append(f"row {j} colors both ends of edge ({u},{v}) with {row[u]}")
    if problems:
        return problems
    for v in vertices:
        column = [row[v] for row in rows]
        if len(set(column)) != k:
            problems.append(f"column of vertex {v} repeats a color: {column}")
        elif k == len(lists[v]) and set(column) != set(lists[v]):
            problems.append(f"column of vertex {v} is not a permutation of its list")
    return problems


def galvin_round_problems(edge_lists, colors, rounds, deletions) -> list[str]:
    """Problems with a Galvin round trace.

    `rounds` is a sequence of (color, pool, matched).  Every matched set must
    be a matching inside its pool whose edges end up with the round's color,
    and every edge must lose at most |L(e)| - 1 colors, the headroom of at
    least one that Galvin's argument guarantees.  Deletions are recounted
    here from the pools and compared with the trace's own counters.
    """
    problems = []
    recount = dict.fromkeys(edge_lists, 0)
    for index, (color, pool, matched) in enumerate(rounds, start=1):
        pool_set, matched_set = set(pool), set(matched)
        if not matched_set:
            problems.append(f"round {index} matched no edge")
        if not matched_set <= pool_set:
            problems.append(f"round {index} matched edges outside its pool")
        ends = [v for e in matched_set for v in e]
        if len(ends) != len(set(ends)):
            problems.append(f"round {index} matched set is not a matching")
        for e in matched_set:
            if colors.get(e) != color:
                problems.append(f"round {index} matched {e} but it is colored {colors.get(e)}")
        for e in pool_set - matched_set:
            recount[e] += 1
    if recount != deletions:
        problems.append("trace deletion counters differ from the recount over the pools")
    for e, lost in recount.items():
        if lost > len(edge_lists[e]) - 1:
            problems.append(f"edge {e} lost {lost} of {len(edge_lists[e])} colors")
    return problems


def orbit_count(n: int, k: int) -> int:
    """Number of k-assignments of n vertices up to renaming colors.

    An orbit is fixed by how many colors each nonempty vertex set S holds in
    common and nowhere else: a nonnegative vector (a_S) with the sum of a_S
    over the sets containing v equal to k at every vertex v.
    """
    subsets = [s for size in range(1, n + 1) for s in combinations(range(n), size)]

    @lru_cache(maxsize=None)
    def count(index: int, need: tuple[int, ...]) -> int:
        if index == len(subsets):
            return int(not any(need))
        s = subsets[index]
        total, left = 0, list(need)
        while True:
            total += count(index + 1, tuple(left))
            if any(left[v] == 0 for v in s):
                return total
            for v in s:
                left[v] -= 1

    return count(0, (k,) * n)


def naive_orbit_count(n: int, k: int) -> int:
    """The same count by brute force, for tiny n and k only: every
    k-assignment over colors 1..n*k, reduced to its smallest image under all
    permutations of those colors."""
    colors = range(1, n * k + 1)
    relabelings = list(permutations(colors))
    seen = set()
    for lists in product(combinations(colors, k), repeat=n):
        seen.add(
            min(
                tuple(tuple(sorted(p[c - 1] for c in lst)) for lst in lists)
                for p in relabelings
            )
        )
    return len(seen)


def find_packing(vertices, edges, lists, k):
    """A proper packing of size k as a tuple of row dicts, or None.

    Backtracking over ordered k-tuples of distinct list colors, one per
    vertex, most constrained vertex first with forward checking; components
    are solved apart, and each component's first vertex is pinned to its
    sorted tuple, since permuting the rows of a packing gives another.
    """
    vertices = list(vertices)
    adjacent = {v: set() for v in vertices}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    chosen: dict = {}
    for component in _components(vertices, adjacent):
        domains = {v: list(permutations(sorted(lists[v]), k)) for v in component}
        first = max(component, key=lambda v: (len(adjacent[v]), -v))
        domains[first] = list(combinations(sorted(lists[first]), k))
        if not _extend(domains, adjacent, chosen):
            return None
    return tuple({v: chosen[v][j] for v in vertices} for j in range(k))


def _components(vertices, adjacent):
    unseen = set(vertices)
    for root in vertices:
        if root not in unseen:
            continue
        unseen.discard(root)
        component, stack = [root], [root]
        while stack:
            for w in adjacent[stack.pop()]:
                if w in unseen:
                    unseen.discard(w)
                    component.append(w)
                    stack.append(w)
        yield component


def _extend(domains, adjacent, chosen) -> bool:
    open_vertices = [v for v in domains if v not in chosen]
    if not open_vertices:
        return True
    v = min(open_vertices, key=lambda u: (len(domains[u]), -len(adjacent[u]), u))
    for p in domains[v]:
        chosen[v] = p
        saved = []
        for w in adjacent[v]:
            if w in domains and w not in chosen:
                saved.append((w, domains[w]))
                domains[w] = [q for q in domains[w] if all(a != b for a, b in zip(p, q))]
                if not domains[w]:
                    break
        else:
            if _extend(domains, adjacent, chosen):
                return True
        for w, old in saved:
            domains[w] = old
        del chosen[v]
    return False
