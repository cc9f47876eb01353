"""Constructive proper list packings of complete graphs.

Any m-assignment of K_n with m >= n admits a proper packing of size m, and
the construction here produces one: list-edge-color K_{n,m} with the kernel
engine, edge x_i y_j taking the list of v_i -- its max degree is exactly m,
so lists of size m suffice -- and read row j off the edges at y_j.  The
proof's identity, not a runtime step, says why: K_n box K_m is the line
graph of K_{n,m}, so that edge coloring is a proper coloring of the lifted
product, sliced into m pairwise-disjoint colorings.  By the same identity
the packing is checked once, by `is_proper_packing`, and the edge coloring
is not checked apart: row j is proper exactly when the edges at y_j have
distinct colors, column i is disjoint exactly when those at x_i do, and
list membership is one fact on both sides.  `solve_packing_via_lift` runs
that reduction on any graph, with an exhaustive coloring search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, repeat

from .coloring import (
    ListAssignment,
    Packing,
    extract_packing,
    is_proper_coloring,  # noqa: F401 -- bench/tracing.py looks it up on this module
    is_proper_packing,
    lift_lists,
)
from . import galvin
from .graphs import Graph, complete_bipartite, complete_graph
from .search import FOUND, SearchBudget, SearchResult, _verified, solve_list_coloring


# K_n and K_{n,m} depend on the shape alone.  Reusing the last shape's graphs
# also lets the Galvin engine find its tables, cached on (graph, bipartition).
_complete_graph = lru_cache(maxsize=1)(complete_graph)
_complete_bipartite = lru_cache(maxsize=1)(complete_bipartite)


class UnsupportedRegimeError(ValueError):
    """Packing size below the vertex count: the construction does not apply."""


@dataclass(frozen=True)
class PackRequest:
    n: int
    lists: ListAssignment
    m: int


def pack_complete(req: PackRequest) -> Packing:
    """Build a verified proper packing of size m for an m-assignment of K_n.

    Raises UnsupportedRegimeError when m < n and ValueError when the lists
    are not uniformly of size m.  `is_proper_packing`, the one check of the
    result, runs before returning; a failure there would be an internal
    error, never a return value.
    """
    n, m, lists = req.n, req.m, req.lists
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    g = _complete_graph(n)
    if lists.domain() != set(g.vertices()):
        raise ValueError("list assignment domain does not match K_n")
    if not lists.is_k_assignment(m):
        raise ValueError(f"every list must have exactly m={m} colors")
    if m < n:
        raise UnsupportedRegimeError(
            f"packing size m={m} below n={n}: the construction needs m >= n"
        )
    knm, bip = _complete_bipartite(n, m)
    # Edge x_i y_j is knm.edges[(i - 1) * m + (j - 1)], in sorted edge order,
    # and takes L(v_i).
    edge_lists = dict(
        zip(knm.edges, chain.from_iterable(repeat(lists[i], m) for i in g.vertices()))
    )
    # Looked up on the module at call time: bench/tracing.py wraps that
    # attribute, and a name imported here would hide every round from it.
    _, trace = galvin.list_edge_color_trace(knm, bip, edge_lists)
    # trace.colors is indexed by edge id: ids j, j + m, ... are the edges at y_{j+1}.
    packing = Packing(tuple(dict(zip(g.vertices(), trace.colors[j::m])) for j in range(m)))
    report = is_proper_packing(g, lists, packing)
    if not report.ok:
        raise RuntimeError(f"internal error: packing failed verification: {report.violations}")
    return packing


def solve_packing_via_lift(
    g: Graph, ell: ListAssignment, k: int, budget: SearchBudget | None = None
) -> SearchResult:
    """A second exact route to `solve_packing`'s answer, the paper's
    reduction: `solve_list_coloring` on the lifted product g box K_k, its
    coloring sliced into a packing.  Returns that search's result with the
    packing as witness when found; raises ValueError as solve_packing does."""
    h, lifted = lift_lists(g, ell, k)
    if any(len(ell[v]) < k for v in g.vertices()):
        raise ValueError(f"every list needs at least k={k} colors")
    result = solve_list_coloring(h, lifted, budget)
    if result.status != FOUND:
        return result
    packing = _verified(g, ell, extract_packing(g, k, result.witness).rows)
    return replace(result, witness=packing)
