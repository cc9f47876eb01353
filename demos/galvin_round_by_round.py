#!/usr/bin/env python3
"""Watch the kernel engine color K_{3,3} from random 3-lists, round by round.

Each round picks the smallest color alpha still wanted somewhere, gathers the
uncolored edges whose lists contain alpha, and commits a stable matching of
them: X-side vertices propose their pool edges in decreasing base color,
Y-side vertices hold the lowest-color proposal.  Unmatched pool edges delete
alpha -- and the kernel property guarantees each such deletion is paid for by
a dominating neighbor that just got colored, so no list ever runs dry.

Piped into a reader that exits early, it stops with exit 1 and no traceback.
"""

import os
import random
import sys

from listpacking import (
    complete_bipartite,
    edge_color_bipartite,
    list_edge_color_trace,
    verify_edge_coloring,
)


def main() -> None:
    rng = random.Random(7)
    g, bip = complete_bipartite(3, 3)
    delta = g.max_degree()

    lists = {e: frozenset(rng.sample(range(1, 10), delta)) for e in g.edges}
    print("edge lists (each of size max degree = 3):")
    for e in g.edges:
        print(f"  {e}: {sorted(lists[e])}")

    base = edge_color_bipartite(g, bip)
    print("\nbase coloring (closed form, drives the preferences):")
    for e in g.edges:
        print(f"  {e}: {base.colors[e]}")

    ec, trace = list_edge_color_trace(g, bip, lists)

    print("\nrounds:")
    for rnd in trace.rounds:
        unmatched = [e for e in rnd.pool if e not in rnd.matched]
        print(f"  color {rnd.color}: pool {list(rnd.pool)}")
        print(f"    matched  -> {list(rnd.matched)}")
        if unmatched:
            print(f"    deleted from {unmatched}")

    print("\nper-edge deletion counters (all must stay <= max degree - 1 = 2):")
    for e in g.edges:
        print(f"  {e}: {trace.deletions[e]}")

    print(f"\nfinal coloring: {dict(sorted(ec.colors.items()))}")
    print(f"independent check (properness + list membership): "
          f"{verify_edge_coloring(g, ec.colors, lists) == []}")


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
