"""Proper list packings of complete graphs, built constructively through
kernel-based list edge coloring, with exhaustive oracles for tiny graphs."""

from .coloring import (
    NOT_DISJOINT,
    NOT_IN_LIST,
    NOT_PROPER,
    Coloring,
    ListAssignment,
    Packing,
    VerifyReport,
    Violation,
    extract_packing,
    is_proper_coloring,
    is_proper_packing,
    lift_lists,
)
from .galvin import (
    EdgeColoring,
    PreferenceSystem,
    edge_color_bipartite,
    kernel_check,
    list_edge_color,
    list_edge_color_trace,
    stable_matching,
    verify_edge_coloring,
)
from .graphs import (
    Bipartition,
    Edge,
    Graph,
    NotBipartiteError,
    bipartition,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    line_graph,
    product_coords,
    product_id,
)
from .packing import (
    PackRequest,
    UnsupportedRegimeError,
    pack_complete,
    solve_packing_via_lift,
)
from .search import (
    ABSENT,
    EXHAUSTED,
    FOUND,
    BoundExceededError,
    ChiListResult,
    ChiStarResult,
    SearchBudget,
    SearchExhaustedError,
    SearchResult,
    chromatic_number,
    coloring_number,
    enumerate_canonical_assignments,
    find_bad_assignment,
    list_chromatic_number,
    list_packing_number,
    solve_list_coloring,
    solve_packing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
