"""Command line surface.

Every run prints one machine-parsable verdict line first,
`STATUS=<ok|negative|error|exhausted> VALUE=<nat or empty>`, followed by
human-readable detail.  Exit codes: 0 success, 1 certified negative,
2 input error or standard output closed early, 3 budget or memory
exhausted, 4 internal error.  Positive results are re-verified before
anything is written; certificates are written even for negative results so
failures reproduce from artifacts alone.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .coloring import is_proper_packing
from .formats import (
    FormatError,
    format_certificate,
    format_edge_coloring,
    format_packing,
    parse_edge_lists,
    parse_graph,
    parse_inputs,
    parse_packing,
    parse_vertex_lists,
)
from .galvin import list_edge_color
from .graphs import Graph, bipartition, complete_graph
from .packing import PackRequest, pack_complete
from .search import (
    ABSENT,
    FOUND,
    MAX_CHI_STAR_VERTICES,
    BoundExceededError,
    SearchBudget,
    SearchExhaustedError,
    _Ticker,
    chromatic_number,
    list_chromatic_number,
    list_packing_number,
    solve_packing,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4


def _verdict(status: str, value: int | None = None) -> None:
    print(f"STATUS={status} VALUE={'' if value is None else value}")


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text)


def _budget(args) -> SearchBudget:
    return SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_seconds)


def _load_graph(args) -> Graph:
    return parse_graph(_read(args.graph))


def cmd_pack_complete(args) -> int:
    if args.n < 1:
        raise ValueError(f"need at least one vertex, got n={args.n}")
    # Parsing needs only the vertex set, so the lists are checked against
    # the edgeless graph on n vertices before pack_complete builds K_n.
    lists = parse_vertex_lists(_read(args.lists), Graph.from_edges(args.n, ()))
    m = lists.uniform_size()
    if m is None:
        raise FormatError("lists must all have the same size m")
    packing = pack_complete(PackRequest(args.n, lists, m))
    _write(args.output, format_packing(packing))
    _verdict("ok", m)
    print(f"proper packing of size {m} for K_{args.n}, verified")
    return EXIT_OK


def cmd_solve(args) -> int:
    g, lists = parse_inputs(args.graph, args.lists)
    result = solve_packing(g, lists, args.size, _budget(args))
    if result.status == FOUND:
        _write(args.output, format_packing(result.witness))
        _verdict("ok", args.size)
        print(f"proper packing of size {args.size} found ({result.nodes} nodes)")
        return EXIT_OK
    if result.status == ABSENT:
        _verdict("negative")
        print(f"no proper packing of size {args.size} exists ({result.nodes} nodes)")
        return EXIT_NEGATIVE
    _verdict("exhausted")
    print(f"budget exhausted after {result.nodes} nodes", file=sys.stderr)
    return EXIT_EXHAUSTED


def cmd_verify(args) -> int:
    g, lists = parse_inputs(args.graph, args.lists)
    packing = parse_packing(_read(args.packing), g.n)
    report = is_proper_packing(g, lists, packing)
    if report.ok:
        _verdict("ok", packing.size)
        print(f"packing of size {packing.size} is proper")
        return EXIT_OK
    _verdict("negative")
    for violation in report.violations:
        where = ",".join(map(str, violation.where))
        idx = ",".join(map(str, violation.indices))
        print(f"{violation.kind} at ({where}) colorings ({idx})")
    return EXIT_NEGATIVE


def cmd_edge_color(args) -> int:
    g = _load_graph(args)
    # The lists file is checked before bipartition walks every vertex, so a
    # bad one is refused before any per-vertex work.  A good one still pays
    # for every vertex the header declares: on an edgeless graph the lists
    # file is `{}`, yet bipartition and the coloring check walk all n
    # vertices (ROADMAP item 6).
    edge_lists = parse_edge_lists(_read(args.edge_lists), g)
    bip = bipartition(g)
    ec = list_edge_color(g, bip, edge_lists)
    _write(args.output, format_edge_coloring(ec))
    _verdict("ok", ec.palette_size)
    print(f"proper list edge coloring of {len(ec.colors)} edges, verified")
    return EXIT_OK


def cmd_chi(args) -> int:
    g = _load_graph(args)
    value = chromatic_number(g, _budget(args))
    _verdict("ok", value)
    print(f"chromatic number {value}")
    return EXIT_OK


def _exceeds(args, what: str, exc: BoundExceededError) -> int:
    """Certify that `what` exceeds the bound by the bad assignment at it."""
    _write(args.output, format_certificate({"bound": exc.bound, "bad_assignment": exc.witness}))
    _verdict("negative")
    print(f"{what} exceeds {exc.bound}")
    return EXIT_NEGATIVE


def cmd_chi_list(args) -> int:
    g = _load_graph(args)
    try:
        result = list_chromatic_number(g, args.max_k, _budget(args))
    except BoundExceededError as exc:
        return _exceeds(args, "list chromatic number", exc)
    _write(args.output, format_certificate(vars(result)))
    _verdict("ok", result.value)
    print(f"list chromatic number {result.value}")
    return EXIT_OK


def cmd_chi_star(args) -> int:
    g = _load_graph(args)
    try:
        result = list_packing_number(g, args.max_k, _budget(args))
    except BoundExceededError as exc:
        return _exceeds(args, "list packing number", exc)
    # The result's fields in order, then the most colors a scanned assignment uses.
    cert = {**vars(result), "color_cap": g.n * result.value}
    _write(args.output, format_certificate(cert))
    _verdict("ok", result.value)
    print(f"list packing number {result.value}")
    print(
        f"scan summary: all {result.upper_evidence} canonical "
        f"{result.value}-assignments admit packings"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.size < 1:
        raise ValueError(f"--size must be at least 1, got {args.size}")
    if args.size > MAX_CHI_STAR_VERTICES:
        raise ValueError(f"graph too large for exact packing scans: {args.size} vertices")
    ticker = _Ticker(_budget(args))  # one allowance for the whole table
    rows = []
    for n in range(1, args.size + 1):
        g = complete_graph(n)
        chi = chromatic_number(g, ticker=ticker)
        k_max = n if args.max_k is None else args.max_k
        try:
            chi_list = list_chromatic_number(g, k_max, ticker=ticker).value
            chi_star = list_packing_number(g, k_max, ticker=ticker).value
        except BoundExceededError as exc:
            _verdict("negative")
            print(f"K_{n}: chi_list or chi_star exceeds the bound {exc.bound}")
            return EXIT_NEGATIVE
        rows.append((n, chi, chi_list, chi_star))
    _verdict("ok", args.size)
    print("n,chi,chi_list,chi_star,ratio")
    for n, chi, chi_list, chi_star in rows:
        print(f"{n},{chi},{chi_list},{chi_star},{chi_star / chi_list:.3f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other input error: the STATUS line on
    stdout first, then argparse's usage and message on stderr, exit 2."""

    def error(self, message: str):
        _verdict("error")
        sys.stdout.flush()
        super().error(message)  # exits with status 2, EXIT_INPUT

    def _print_message(self, message, file=None):
        # argparse drops an OSError from the write; a closed standard output
        # (under --help) goes on to main's handler instead.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main` call;
    each parse starts from the defaults again."""
    parser = _Parser(
        prog="listpacking",
        description="Construct and certify proper list packings of complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, about: str, budgets: bool = True, output: bool = True):
        """A subcommand with only the common flags its handler reads."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        if budgets:
            p.add_argument("--budget-nodes", type=int, default=SearchBudget.node_limit)
            p.add_argument("--budget-seconds", type=float, default=SearchBudget.time_limit)
        if output:
            p.add_argument("-o", "--output", default=None, help="output file path")
        return p

    p = command("pack-complete", cmd_pack_complete, "pack an m-assignment of K_n")
    p.add_argument("-n", type=int, required=True, help="number of vertices of K_n")
    p.add_argument("--lists", required=True)

    p = command("solve", cmd_solve, "exact packing search on any graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--size", type=int, required=True, help="packing size k")

    p = command("verify", cmd_verify, "re-check a packing file", budgets=False, output=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--packing", required=True)

    p = command("edge-color", cmd_edge_color, "list edge coloring of a bipartite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge-lists", required=True)

    p = command("chi", cmd_chi, "exact chromatic number", output=False)
    p.add_argument("--graph", required=True)

    p = command("chi-list", cmd_chi_list, "exact list chromatic number")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-k", type=int, required=True)

    p = command("chi-star", cmd_chi_star, "exact list packing number")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-k", type=int, required=True)

    p = command(
        "scan", cmd_scan, "table of n, chi, chi_list, chi_star, ratio for K_n", output=False
    )
    p.add_argument("--size", type=int, default=3, help="largest complete graph")
    p.add_argument("--max-k", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except BrokenPipeError:
            raise
        except SearchExhaustedError as exc:
            _verdict("exhausted")
            print(str(exc), file=sys.stderr)
            return EXIT_EXHAUSTED
        except (ValueError, OSError) as exc:
            _verdict("error")
            print(str(exc), file=sys.stderr)
            return EXIT_INPUT
        except MemoryError:  # a resource ran out, as a budget does
            _verdict("exhausted")
            print(
                "memory exhausted: the input needs more memory than is available",
                file=sys.stderr,
            )
            return EXIT_EXHAUSTED
        except Exception as exc:  # a fault in the program, not in its input
            _verdict("error")
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        finally:
            sys.stdout.flush()  # a closed standard output shows here at the latest
    except BrokenPipeError:
        # Whoever read standard output has gone; what is still buffered for
        # it goes to the null device, so the exit itself cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
