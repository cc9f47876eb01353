"""The four workloads: seeded inputs, the calls a round makes, and the check
applied to each call's output.

A workload is built from the imported program modules, a `random.Random`
seeded from `--seed` and a scratch directory.  It returns a function from a
round number to that round's list of `Op`s.  Every round of a workload has
the same make-up, so the share of failed operations does not depend on how
many rounds a run fits in.  Inputs never come from the global `random`
module: `listpacking.cli.main` reseeds it on every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

from checks import find_packing, orbit_count, packing_problems

PACK_N = 48
PACK_INSTANCES = 8  # distinct pack inputs per run, used round-robin
SOLVE_INSTANCES = 8000  # random solve instances per round
SOLVE_VERTICES, SOLVE_EDGES, SOLVE_K, SOLVE_COLORS = 8, 14, 3, 5
# Paths longer than Python's default recursion limit of 1000: solve_packing
# recurses once per vertex and raises RecursionError on them.
PATH_VERTICES = (1200, 2000)
CERTIFY_MAX_K = 4


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    faults: tuple[type[BaseException], ...] = ()  # known program faults this op hits


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _pack(lp, rng, palette: int):
    """Rounds of one `pack_complete` call each on an m-assignment of K_n,
    m = n, with every list a random m-subset of colors 1..palette."""
    n = PACK_N
    edges = _complete_edges(n)
    ops = []
    for _ in range(PACK_INSTANCES):
        plain = {v: frozenset(rng.sample(range(1, palette + 1), n)) for v in range(1, n + 1)}
        request = lp.packing.PackRequest(n, lp.coloring.ListAssignment(plain), n)

        def check(packing, plain=plain):
            return packing_problems(range(1, n + 1), edges, plain, packing.rows, n)

        ops.append(Op(lambda request=request: lp.packing.pack_complete(request), check))
    return lambda r: [ops[r % len(ops)]]


def pack_tight(lp, rng, workdir):
    return _pack(lp, rng, PACK_N + 2)


def pack_wide(lp, rng, workdir):
    return _pack(lp, rng, PACK_N * PACK_N)


def certify_k4(lp, rng, workdir):
    """Rounds of one `chi-star` CLI call on K_4 with a certificate file.
    The input does not depend on the seed."""
    graph_file, cert_file = workdir / "k4.col", workdir / "k4-cert.json"
    edges = _complete_edges(4)
    graph_file.write_text(f"p edge 4 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    argv = ["chi-star", "--graph", str(graph_file), "--max-k", str(CERTIFY_MAX_K), "-o", str(cert_file)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lp.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, out = result
        first = out.splitlines()[0] if out else ""
        if code != 0 or first != "STATUS=ok VALUE=4":
            return [f"chi-star exited {code} with first line {first!r}"]
        if not cert_file.is_file():
            return ["chi-star wrote no certificate file"]
        cert = json.loads(cert_file.read_text())
        cert_file.unlink()  # the next call must write its own
        return _certificate_problems(cert, edges)

    return lambda r: [Op(call, check)]


def _certificate_problems(cert, edges) -> list[str]:
    problems = []
    if cert.get("value") != 4 or cert.get("color_cap") != 16:
        problems.append(f"certificate value/color_cap {cert.get('value')}/{cert.get('color_cap')}")
    expected = _orbit_count(4, CERTIFY_MAX_K)
    if cert.get("upper_evidence") != expected:
        problems.append(f"upper_evidence {cert.get('upper_evidence')} is not the orbit count {expected}")
    witness = cert.get("lower_witness") or {}
    lists = {int(v): frozenset(cs) for v, cs in witness.items()}
    if set(lists) != {1, 2, 3, 4} or any(len(cs) != 3 for cs in lists.values()):
        problems.append(f"lower_witness is not a 3-assignment of K_4: {witness}")
    elif _packable(frozenset(lists.items()), tuple(edges), 3):
        problems.append(f"lower_witness {witness} admits a packing of size 3")
    return problems


_orbit_count = cache(orbit_count)


@cache
def _packable(lists_items, edges, k) -> bool:
    lists = dict(lists_items)
    return find_packing(sorted(lists), edges, lists, k) is not None


def solve_random(lp, rng, workdir):
    """Rounds of `solve_packing` at k = 3: the seeded random instances, then
    the long paths that hit the recursion limit."""
    Graph = lp.graphs.Graph
    pairs = _complete_edges(SOLVE_VERTICES)
    ops = []
    for _ in range(SOLVE_INSTANCES):
        edges = tuple(sorted(rng.sample(pairs, SOLVE_EDGES)))
        plain = {
            v: frozenset(rng.sample(range(1, SOLVE_COLORS + 1), SOLVE_K))
            for v in range(1, SOLVE_VERTICES + 1)
        }
        ops.append(_solve_op(lp, Graph.from_edges(SOLVE_VERTICES, edges), edges, plain))
    triples = list(combinations(range(1, SOLVE_COLORS + 1), SOLVE_K))
    for n in PATH_VERTICES:
        edges = tuple((v, v + 1) for v in range(1, n))
        plain = {v: frozenset(triples[v % len(triples)]) for v in range(1, n + 1)}
        ops.append(_solve_op(lp, Graph.from_edges(n, edges), edges, plain, (RecursionError,)))
    return lambda r: ops


def _solve_op(lp, g, edges, plain, faults=()):
    lists = lp.coloring.ListAssignment(plain)

    def check(result):
        if result.status == "found":
            return packing_problems(g.vertices(), edges, plain, result.witness.rows, SOLVE_K)
        if result.status == "absent":
            if _packable(frozenset(plain.items()), edges, SOLVE_K):
                return [f"solve_packing says absent, but a packing exists: {plain} {edges}"]
            return []
        return [f"solve_packing returned {result.status} on a {g.n}-vertex instance"]

    return Op(lambda: lp.search.solve_packing(g, lists, SOLVE_K), check, faults)


WORKLOADS = {
    "pack-tight": pack_tight,
    "pack-wide": pack_wide,
    "certify-k4": certify_k4,
    "solve-random": solve_random,
}
