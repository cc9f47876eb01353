"""Constructive proper list packings of complete graphs.

Any m-assignment of K_n with m >= n admits a proper packing of size m, and
the construction here produces one: list-edge-color K_{n,m} with the kernel
engine, edge x_i y_j taking the list of v_i -- its max degree is exactly m,
so lists of size m suffice -- and read row j off the edges at y_j.  The
proof's identity, not a runtime step, says why: K_n box K_m is the line
graph of K_{n,m}, so that edge coloring is a proper coloring of the lifted
product, sliced into m pairwise-disjoint colorings.  `solve_packing_via_lift`
runs that reduction on any graph, with an exhaustive coloring search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .coloring import (
    ListAssignment,
    Packing,
    extract_packing,
    is_proper_coloring,  # noqa: F401 -- bench/tracing.py looks it up on this module
    is_proper_packing,
    lift_lists,
)
from .galvin import list_edge_color
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
    are not uniformly of size m.  The verifier runs before returning; a
    failure there would be an internal error, never a return value.
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
    edge_lists = {e: lists[e[0]] for e in knm.edges}  # edge x_i y_j takes L(v_i)
    ec = list_edge_color(knm, bip, edge_lists)
    packing = Packing(
        tuple({i: ec.colors[(i, n + j)] for i in g.vertices()} for j in range(1, m + 1))
    )
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
