#!/usr/bin/env python3
"""Walk through the packing pipeline on one concrete instance.

We take K_4 and give every vertex a list of 5 colors (5 >= 4, so the
construction applies), then watch the four stages:

  1. lift the lists onto the product K_4 box K_5
  2. read that product as the line graph of the bipartite K_{4,5}
  3. list-edge-color K_{4,5} with the kernel engine
  4. read coloring f_j off the edges at y_j: 5 pairwise-disjoint colorings

Stages 1 and 2 are the proof's justification; pack_complete runs only 3 and 4.

Piped into a reader that exits early, it stops with exit 1 and no traceback.
"""

import os
import random
import sys

from listpacking import (
    ListAssignment,
    PackRequest,
    complete_bipartite,
    complete_graph,
    is_proper_packing,
    lift_lists,
    line_graph,
    list_edge_color,
    pack_complete,
    product_id,
)


def main() -> None:
    n, m = 4, 5
    rng = random.Random(0)
    g = complete_graph(n)
    lists = ListAssignment(
        {v: frozenset(rng.sample(range(1, 3 * m + 1), m)) for v in g.vertices()}
    )

    print(f"K_{n} with a random {m}-assignment:")
    for v in g.vertices():
        print(f"  L({v}) = {sorted(lists[v])}")

    # Stage 1: the lift copies each vertex list along the second coordinate.
    h, lifted = lift_lists(g, lists, m)
    print(f"\nlifted product has {h.n} vertices and {len(h.edges)} edges")
    print(f"  list at (1,1): {sorted(lifted[product_id(1, 1, m)])}")
    print(f"  list at (1,5): {sorted(lifted[product_id(1, 5, m)])}  (same: constant along j)")

    # Stage 2: the product IS the line graph of K_{n,m} -- identical edge sets.
    # Line-graph vertex v is the edge knm.edges[v - 1] = x_i y_j, where
    # (i, j) = product_coords(v, m) is the same vertex in the product.
    knm, bip = complete_bipartite(n, m)
    lg = line_graph(knm)
    print(f"\nline graph of K_{{{n},{m}}} equals the product: {lg.edges == h.edges}")

    # Stage 3: color the edges of K_{n,m}; edge x_i y_j only accepts L(v_i).
    edge_lists = {(i, n + j): lists[i] for i in range(1, n + 1) for j in range(1, m + 1)}
    ec = list_edge_color(knm, bip, edge_lists)
    print(f"edge coloring done; colors used: {sorted(set(ec.colors.values()))}")

    # Stage 4 is bookkeeping; pack_complete runs stages 3 and 4 and verifies
    # the result internally before returning it.
    packing = pack_complete(PackRequest(n, lists, m))
    print(f"f_3 at vertex 2 equals the color of edge x_2 y_3: "
          f"{packing.rows[2][2] == ec.colors[(2, n + 3)]}")

    print(f"\nthe packing, one proper coloring per row ({m} rows):")
    for j, row in enumerate(packing.rows, start=1):
        print(f"  f_{j} = {[row[v] for v in g.vertices()]}")

    report = is_proper_packing(g, lists, packing)
    print(f"\nindependent verification: ok={report.ok}")
    print("every column above has pairwise-distinct entries (disjointness),")
    print("every row is proper on the clique (all entries distinct) and in-list.")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed standard output shows here at the latest
    except BrokenPipeError:
        # The reader left early, as `| head` does.  Point standard output at
        # devnull so the exit flush raises nothing either, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
