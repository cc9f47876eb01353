from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from listpacking import (
    Graph,
    SearchBudget,
    cartesian_product,
    cli,
    complete_bipartite,
    complete_graph,
)
from listpacking.cli import build_parser, main
from listpacking.formats import (
    FormatError,
    format_edge_lists,
    format_graph,
    format_packing,
    format_vertex_lists,
    parse_graph,
    parse_packing,
    parse_vertex_lists,
)
from .helpers import ROOT, long_path_instance

K3_COL = "c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def lists_json(lists: dict) -> str:
    return json.dumps({str(v): sorted(cs) for v, cs in lists.items()})


def test_parse_graph_roundtrip():
    k3 = parse_graph(K3_COL)
    assert k3.n == 3 and k3.edges == ((1, 2), (1, 3), (2, 3))
    # A graph is its vertex count and edge set, whichever constructor built it.
    for g in (
        k3,
        complete_graph(4),
        complete_bipartite(2, 3)[0],
        cartesian_product(complete_graph(2), complete_graph(3)),
    ):
        back = parse_graph(format_graph(g))
        assert back == g and hash(back) == hash(g)


def test_parse_graph_rejects_malformed():
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("p edge 2 1\ne 1 1\n")
    with pytest.raises(FormatError, match="declared"):
        parse_graph("p edge 2 2\ne 1 2\n")
    with pytest.raises(FormatError, match="duplicate edge"):
        parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")
    with pytest.raises(FormatError, match="problem line"):
        parse_graph("e 1 2\n")
    with pytest.raises(FormatError, match="unrecognized"):
        parse_graph("p edge 1 0\nq nonsense\n")


def test_parse_lists_roundtrip_and_errors():
    g = parse_graph(K3_COL)
    ell = parse_vertex_lists(lists_json({1: [1, 2], 2: [1, 2], 3: [2, 3]}), g)
    assert ell[3] == frozenset({2, 3})
    assert parse_vertex_lists(format_vertex_lists(ell), g).lists == ell.lists

    with pytest.raises(FormatError, match="vertex 3"):
        parse_vertex_lists(lists_json({1: [1], 2: [1]}), g)
    with pytest.raises(FormatError, match="duplicate key"):
        parse_vertex_lists('{"1": [1], "1": [2], "2": [1], "3": [1]}', g)
    with pytest.raises(FormatError, match="nonempty"):
        parse_vertex_lists(lists_json({1: [], 2: [1], 3: [1]}), g)
    with pytest.raises(FormatError, match="positive"):
        parse_vertex_lists(lists_json({1: [0], 2: [1], 3: [1]}), g)


def test_parse_inputs_pairs_graph_and_lists(tmp_path):
    from listpacking.formats import parse_inputs

    gpath = write(tmp_path, "g.col", "p edge 2 1\ne 1 2\n")
    lpath = write(tmp_path, "l.json", lists_json({1: [1, 2], 2: [1, 2]}))
    g, ell = parse_inputs(gpath, lpath)
    assert g.n == 2 and g.edges == ((1, 2),)
    assert ell.is_k_assignment(2)


def test_parse_edge_lists_roundtrip_and_errors():
    from listpacking.formats import format_edge_lists, parse_edge_lists

    g, _ = complete_bipartite(2, 2)
    lists = {e: frozenset({1, 2, 5}) for e in g.edges}
    parsed = parse_edge_lists(format_edge_lists(lists), g)
    assert parsed == lists
    with pytest.raises(FormatError, match="u-v"):
        parse_edge_lists('{"3-1": [1]}', g)
    with pytest.raises(FormatError, match="not an edge"):
        parse_edge_lists('{"1-2": [1]}', g)
    with pytest.raises(FormatError, match="no list for edge"):
        parse_edge_lists('{"1-3": [1]}', g)


@pytest.mark.parametrize("numeral", ["+1", "01", "1_0", "\u0662"])
@pytest.mark.parametrize(
    "template, line",
    [("p edge {} 0\n", 1), ("p edge 2 {}\ne 1 2\n", 1), ("p edge 2 1\ne {} 2\n", 2)],
)
def test_parse_graph_rejects_non_canonical_numbers(template, line, numeral):
    # int() reads each of these, so "e 1 1_0" used to be the edge (1, 10).
    with pytest.raises(FormatError, match=f"line {line}: .*canonical decimal"):
        parse_graph(template.format(numeral))


def test_parse_graph_counts_lines_at_newlines_only():
    # str.splitlines() also breaks at "\x0c", which split this comment in two.
    with pytest.raises(FormatError, match="line 3: endpoint out of range"):
        parse_graph("c a\x0cb\np edge 2 1\ne 1 3\n")


@pytest.mark.parametrize("key", ["01", "+1", "-1", " 1", "1 ", "1_0", "\u0661", ""])
def test_parse_vertex_lists_rejects_non_canonical_keys(key):
    # int() reads each of these as a vertex id, so "01" next to "1" used to
    # overwrite vertex 1's list without a word.
    g = parse_graph("p edge 10 0\n")
    lists = {str(v): [v] for v in range(2, 11)}
    lists["1"] = [1]
    lists[key] = [5]
    with pytest.raises(FormatError, match=re.escape(f"key {key!r}")):
        parse_vertex_lists(json.dumps(lists), g)


@pytest.mark.parametrize(
    "key", ["01-13", "1-013", "+1-13", "1-+13", " 1-13", "1- 13", "1-13 ", "1_0-13", "1-\u0661\u0663"]
)
def test_parse_edge_lists_rejects_non_canonical_keys(key):
    from listpacking.formats import parse_edge_lists

    g, _ = complete_bipartite(10, 10)
    lists = {f"{u}-{v}": [1] for u, v in g.edges}
    lists[key] = [2]
    with pytest.raises(FormatError, match=re.escape(f"key {key!r}")):
        parse_edge_lists(json.dumps(lists), g)


def test_parse_packing_roundtrip_and_errors():
    packing = parse_packing('{"k": 2, "colorings": [[1, 2], [2, 1]]}', 2)
    assert packing.rows == ({1: 1, 2: 2}, {1: 2, 2: 1})
    assert parse_packing(format_packing(packing), 2).rows == packing.rows
    with pytest.raises(FormatError):
        parse_packing('{"k": 2, "colorings": [[1, 2]]}', 2)
    with pytest.raises(FormatError):
        parse_packing('{"k": 1, "colorings": [[1, 2, 3]]}', 2)


def test_pack_complete_command_emits_latin_square(tmp_path, capsys):
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
    out = str(tmp_path / "p.json")
    code = main(["pack-complete", "-n", "3", "--lists", lists, "-o", out])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[0] == "STATUS=ok VALUE=3"
    data = json.loads((tmp_path / "p.json").read_text())
    assert data["k"] == 3
    rows = data["colorings"]
    for r in rows:
        assert sorted(r) == [1, 2, 3]
    for col in zip(*rows):
        assert sorted(col) == [1, 2, 3]


def test_verify_command_accepts_and_rejects(tmp_path, capsys):
    graph = write(tmp_path, "g.col", K3_COL)
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
    packing = write(
        tmp_path, "p.json", '{"k": 3, "colorings": [[1,2,3],[2,3,1],[3,1,2]]}'
    )
    assert main(["verify", "--graph", graph, "--lists", lists, "--packing", packing]) == 0
    capsys.readouterr()

    tampered = write(
        tmp_path, "bad.json", '{"k": 3, "colorings": [[1,2,3],[2,3,1],[3,1,1]]}'
    )
    code = main(["verify", "--graph", graph, "--lists", lists, "--packing", tampered])
    assert code == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "STATUS=negative VALUE="
    assert "not-proper" in out or "not-disjoint" in out


def test_verify_command_lists_every_violation_in_order(tmp_path, capsys):
    # C_5 is not complete: row 3 repeats colors on non-adjacent vertices and
    # is proper.  Rows 1 and 2 each hold every kind of violation.
    graph = write(tmp_path, "c5.col", "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in range(1, 6)}))
    rows = [[1, 1, 7, 8, 1], [1, 2, 3, 3, 9], [2, 3, 2, 3, 1]]
    packing = write(tmp_path, "p.json", json.dumps({"k": 3, "colorings": rows}))
    assert main(["verify", "--graph", graph, "--lists", lists, "--packing", packing]) == 1
    assert capsys.readouterr().out == (
        "STATUS=negative VALUE=\n"
        "not-in-list at (3) colorings (1)\n"
        "not-in-list at (4) colorings (1)\n"
        "not-proper at (1,2) colorings (1)\n"
        "not-proper at (1,5) colorings (1)\n"
        "not-in-list at (5) colorings (2)\n"
        "not-proper at (3,4) colorings (2)\n"
        "not-disjoint at (1) colorings (1,2)\n"
        "not-disjoint at (4) colorings (2,3)\n"
        "not-disjoint at (5) colorings (1,3)\n"
    )


def test_solve_command_exit_codes(tmp_path, capsys):
    graph = write(tmp_path, "g.col", K3_COL)
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
    out = str(tmp_path / "p.json")
    assert main(["solve", "--graph", graph, "--lists", lists, "--size", "3", "-o", out]) == 0
    assert json.loads((tmp_path / "p.json").read_text())["k"] == 3
    capsys.readouterr()

    lists2 = write(tmp_path, "l2.json", lists_json({v: [1, 2] for v in (1, 2, 3)}))
    assert main(["solve", "--graph", graph, "--lists", lists2, "--size", "2"]) == 1
    capsys.readouterr()

    code = main(
        ["solve", "--graph", graph, "--lists", lists, "--size", "3", "--budget-nodes", "1"]
    )
    assert code == 3
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=exhausted VALUE="


def test_solve_command_on_a_long_path(tmp_path, capsys):
    g, ell = long_path_instance()
    graph = write(tmp_path, "path.col", format_graph(g))
    lists = write(tmp_path, "path.json", lists_json({v: ell[v] for v in g.vertices()}))
    assert main(["solve", "--graph", graph, "--lists", lists, "--size", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"


def test_chi_list_command_on_a_long_path(tmp_path, capsys):
    g, _ = long_path_instance()
    graph = write(tmp_path, "path.col", format_graph(g))
    assert main(["chi-list", "--graph", graph, "--max-k", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=2"


def test_chi_commands(tmp_path, capsys):
    graph = write(tmp_path, "k3.col", K3_COL)
    assert main(["chi", "--graph", graph]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"

    cert = str(tmp_path / "cert.json")
    assert main(["chi-star", "--graph", graph, "--max-k", "4", "-o", cert]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "STATUS=ok VALUE=3"
    data = json.loads((tmp_path / "cert.json").read_text())
    assert data["value"] == 3
    assert data["lower_witness"] == {"1": [1, 2], "2": [1, 2], "3": [1, 2]}
    assert data["upper_evidence"] > 0

    assert main(["chi-list", "--graph", graph, "--max-k", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"

    # bound too small: certified negative with a witness certificate
    cert2 = str(tmp_path / "cert2.json")
    assert main(["chi-star", "--graph", graph, "--max-k", "2", "-o", cert2]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=negative VALUE="
    data = json.loads((tmp_path / "cert2.json").read_text())
    assert data["bound"] == 2 and data["bad_assignment"] is not None


def test_graph_commands_on_the_empty_graph(tmp_path, capsys):
    graph = write(tmp_path, "empty.col", "p edge 0 0\n")
    assert main(["chi", "--graph", graph]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=0"
    for command in ("chi-list", "chi-star"):
        assert main([command, "--graph", graph, "--max-k", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=1"

    lists = write(tmp_path, "empty.json", "{}")
    out = tmp_path / "p.json"
    assert main(["solve", "--graph", graph, "--lists", lists, "--size", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=2"
    assert json.loads(out.read_text()) == {"k": 2, "colorings": [[], []]}


def test_chi_star_node_budget_bounds_the_whole_scan(tmp_path, capsys):
    k4 = write(tmp_path, "k4.col", format_graph(complete_graph(4)))
    assert main(["chi-star", "--graph", k4, "--max-k", "4", "--budget-nodes", "100"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=exhausted VALUE="


def test_chi_star_rejects_a_nan_time_budget(tmp_path, capsys):
    k4 = write(tmp_path, "k4.col", format_graph(complete_graph(4)))
    assert main(["chi-star", "--graph", k4, "--max-k", "4", "--budget-seconds", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "budget limits must be positive" in captured.err


def test_chi_star_k4_certificate_is_unchanged(tmp_path, capsys):
    # Written by the scan that ran a cold search on every assignment.
    pinned = Path(__file__).parent / "data" / "k4_chi_star_max_k4.json"
    k4 = write(tmp_path, "k4.col", format_graph(complete_graph(4)))
    cert = tmp_path / "cert.json"
    assert main(["chi-star", "--graph", k4, "--max-k", "4", "-o", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=4"
    assert cert.read_bytes() == pinned.read_bytes()


def test_pack_complete_output_file_is_unchanged(tmp_path, capsys):
    # A seeded 12-assignment of K_12 from the colors 1..24.
    data = Path(__file__).parent / "data"
    lists, out = str(data / "k12_lists.json"), tmp_path / "p.json"
    for _ in range(2):  # a cold call, then one on the cached graphs
        assert main(["pack-complete", "-n", "12", "--lists", lists, "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=12"
        assert out.read_bytes() == (data / "k12_pack_complete.json").read_bytes()


def test_edge_color_output_file_is_unchanged_on_per_edge_lists(tmp_path, capsys):
    # A seeded 60% sample of K_{6,7}'s edges with a list per edge: its base
    # coloring flips an alternating path, and X-vertices hold edges of several
    # lists that want one color.  The pinned file was written by the engine
    # that joined per-run pools and hashed each one.
    data = Path(__file__).parent / "data"
    graph, lists = str(data / "k67_sub60.col"), str(data / "k67_sub60_edge_lists.json")
    out = tmp_path / "ec.json"
    for _ in range(2):  # a cold call, then one on the cached tables
        assert main(["edge-color", "--graph", graph, "--edge-lists", lists, "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=6"
        assert out.read_bytes() == (data / "k67_sub60_edge_color.json").read_bytes()


def test_chi_list_k24_certificate_is_unchanged(tmp_path, capsys):
    # Written by the scan that ran a cold search on every assignment.
    pinned = Path(__file__).parent / "data" / "k24_chi_list_max_k3.json"
    k24 = write(tmp_path, "k24.col", format_graph(complete_bipartite(2, 4)[0]))
    cert = tmp_path / "cert.json"
    assert main(["chi-list", "--graph", k24, "--max-k", "3", "-o", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"
    assert cert.read_bytes() == pinned.read_bytes()


def test_subcommands_reject_the_flags_they_do_not_read(tmp_path, capsys):
    graph = write(tmp_path, "g.col", K3_COL)
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
    packing = write(tmp_path, "p.json", '{"k": 3, "colorings": [[1,2,3],[2,3,1],[3,1,2]]}')
    verify = ["verify", "--graph", graph, "--lists", lists, "--packing", packing]
    out = tmp_path / "x"
    for argv in (
        [*verify, "--budget-nodes", "5"],
        [*verify, "--budget-seconds", "5"],
        [*verify, "-o", str(out)],
        ["chi", "--graph", graph, "-o", str(out)],
        ["scan", "--size", "2", "-o", str(out)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "STATUS=error VALUE="
        assert "unrecognized arguments" in captured.err
    assert not out.exists()


def test_the_shared_parser_gives_each_call_its_own_defaults(tmp_path, capsys):
    assert build_parser() is build_parser()
    k4 = write(tmp_path, "k4.col", format_graph(complete_graph(4)))
    graph = write(tmp_path, "g.col", K3_COL)
    lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
    cert = tmp_path / "cert.json"
    argv = ["chi-star", "--graph", k4, "--max-k", "4"]
    assert main([*argv, "--budget-nodes", "1", "-o", str(cert)]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=exhausted VALUE="
    # Had the first call's flags stuck, one node would exhaust this search
    # too, and this call and the next would write cert.json.
    assert main(["solve", "--graph", graph, "--lists", lists, "--size", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=4"
    assert not cert.exists()


def test_pack_complete_reads_the_lists_before_building_k_n(tmp_path, capsys):
    lists = write(tmp_path, "l.json", lists_json({1: [1, 2, 3]}))
    start = time.perf_counter()
    assert main(["pack-complete", "-n", "3000", "--lists", lists]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "no list for vertex 2" in captured.err


def test_edge_color_command(tmp_path, capsys):
    g, _ = complete_bipartite(2, 3)
    graph = write(tmp_path, "k23.col", format_graph(g))
    edge_lists = {f"{u}-{v}": [1, 2, 3] for u, v in g.edges}
    lists = write(tmp_path, "el.json", json.dumps(edge_lists))
    out = str(tmp_path / "colors.json")
    assert main(["edge-color", "--graph", graph, "--edge-lists", lists, "-o", out]) == 0
    data = json.loads((tmp_path / "colors.json").read_text())
    assert set(data) == {f"{u}-{v}" for u, v in g.edges}
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [("--budget-nodes", "0"), ("--budget-nodes", "-5"), ("--budget-seconds", "nan"),
     ("--budget-seconds", "-1")],
)
@pytest.mark.parametrize("command", ["pack-complete", "edge-color"])
def test_engine_commands_reject_invalid_budgets(tmp_path, capsys, command, flag, value):
    # Valid inputs otherwise: the bad budget alone is refused, before any
    # work and without an output file, as every other command refuses it.
    out = tmp_path / "out.json"
    if command == "pack-complete":
        lists = write(tmp_path, "l.json", lists_json({v: [1, 2, 3] for v in (1, 2, 3)}))
        argv = ["pack-complete", "-n", "3", "--lists", lists]
    else:
        g, _ = complete_bipartite(2, 3)
        graph = write(tmp_path, "k23.col", format_graph(g))
        lists = write(tmp_path, "el.json", json.dumps({f"{u}-{v}": [1, 2, 3] for u, v in g.edges}))
        argv = ["edge-color", "--graph", graph, "--edge-lists", lists]
    assert main([*argv, flag, value, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["STATUS=error VALUE="]
    assert "budget limits must be positive" in captured.err
    assert not out.exists()


def test_edge_color_output_at_scale_matches_pinned_digest(tmp_path, capsys):
    # A non-complete bipartite graph, so the base coloring comes from
    # augmenting paths: 2533 edges, max degree 56, lists of size 56 from 112
    # colors.  Recorded on the free-list base coloring; the output file pins
    # the base coloring and the engine together.
    rng = random.Random(2021)
    full, _ = complete_bipartite(60, 70)
    g = Graph.from_edges(130, [e for e in full.edges if rng.random() < 0.6])
    delta = g.max_degree()
    edge_lists = {e: frozenset(rng.sample(range(1, 2 * delta + 1), delta)) for e in g.edges}
    assert (len(g.edges), delta) == (2533, 56)
    graph = write(tmp_path, "g.col", format_graph(g))
    lists = write(tmp_path, "el.json", format_edge_lists(edge_lists))
    out = tmp_path / "colors.json"
    assert main(["edge-color", "--graph", graph, "--edge-lists", lists, "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=56"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a9dbe3a2125980f45e8352d3bc0c24580721a4d0e1df2d4cb0a319f151faff97"
    )


def test_edge_color_reads_the_edge_lists_before_the_bipartition(tmp_path, capsys):
    graph = write(tmp_path, "huge.col", "p edge 1000000 0\n")
    lists = write(tmp_path, "el.json", '{"1-2": [1]}')
    start = time.perf_counter()
    assert main(["edge-color", "--graph", graph, "--edge-lists", lists]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "not an edge of the graph" in captured.err


def test_input_errors_exit_two(tmp_path, capsys):
    graph = write(tmp_path, "bad.col", "p edge 2 1\ne 1 1\n")
    lists = write(tmp_path, "l.json", lists_json({1: [1], 2: [1]}))
    assert main(["chi", "--graph", graph]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=error VALUE="
    assert main(["chi", "--graph", str(tmp_path / "missing.col")]) == 2
    capsys.readouterr()
    # non-bipartite input to edge-color is an input error
    k3 = write(tmp_path, "k3.col", K3_COL)
    el = write(tmp_path, "el.json", json.dumps({"1-2": [1, 2], "1-3": [1, 2], "2-3": [1, 2]}))
    assert main(["edge-color", "--graph", k3, "--edge-lists", el]) == 2
    capsys.readouterr()


def test_internal_errors_exit_four(tmp_path, capsys, monkeypatch):
    import listpacking.cli as cli

    def broken(request):
        raise RuntimeError("internal error: engine disagreed with its checker")

    monkeypatch.setattr(cli, "pack_complete", broken)
    lists = write(tmp_path, "l.json", lists_json({1: [1, 2], 2: [1, 2]}))
    assert main(["pack-complete", "-n", "2", "--lists", lists]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "engine disagreed with its checker" in captured.err
    assert "Traceback" not in captured.err


def test_running_out_of_memory_is_exhausted_not_internal(tmp_path, capsys, monkeypatch):
    import listpacking.cli as cli

    def hungry(g, max_k, budget):
        raise MemoryError

    monkeypatch.setattr(cli, "list_chromatic_number", hungry)
    graph = write(tmp_path, "k3.col", K3_COL)
    assert main(["chi-list", "--graph", graph, "--max-k", "2"]) == cli.EXIT_EXHAUSTED == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=exhausted VALUE="
    assert captured.err.splitlines() == [
        "memory exhausted: the input needs more memory than is available"
    ]


def test_scan_command_table(tmp_path, capsys):
    assert main(["scan", "--size", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "STATUS=ok VALUE=3"
    assert out[1] == "n,chi,chi_list,chi_star,ratio"
    assert out[2] == "1,1,1,1,1.000"
    assert out[3] == "2,2,2,2,1.000"
    assert out[4] == "3,3,3,3,1.000"


def test_scan_command_reports_a_hit_bound(capsys):
    # K_2 needs 2-lists, so --max-k 1 is exceeded at n = 2.
    assert main(["scan", "--size", "3", "--max-k", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "STATUS=negative VALUE="
    assert out[1] == "K_2: chi_list or chi_star exceeds the bound 1"


def test_scan_node_budget_bounds_the_whole_table(capsys):
    # The rows K_1..K_3 need at least 69 nodes between them: 60 is too few
    # for the table, though each row alone fits.
    assert main(["scan", "--size", "3", "--budget-nodes", "60"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=exhausted VALUE="
    assert main(["scan", "--size", "3", "--budget-nodes", "69"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "STATUS=ok VALUE=3"


def test_scan_checks_its_size_cap_before_any_row(capsys, monkeypatch):
    def no_rows(*args):
        pytest.fail("scan computed a row for a size it rejects")

    monkeypatch.setattr(cli, "chromatic_number", no_rows)
    assert main(["scan", "--size", "5", "--max-k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "graph too large for exact packing scans: 5 vertices" in captured.err


def test_budget_flags_default_to_the_search_budget_defaults():
    args = build_parser().parse_args(["chi-star", "--graph", "g.col", "--max-k", "4"])
    assert cli._budget(args) == SearchBudget()


@pytest.mark.parametrize(
    "argv",
    [
        ["chi-star", "--graph", "{k3}", "--max-k", "0"],
        ["chi-list", "--graph", "{k3}", "--max-k", "-2"],
        ["scan", "--size", "-1"],
        ["scan", "--size", "2", "--max-k", "0"],
    ],
    ids=["chi-star max-k 0", "chi-list max-k -2", "scan size -1", "scan max-k 0"],
)
def test_a_bound_below_one_is_an_input_error(tmp_path, capsys, argv):
    # No value can be certified below 1, so no negative could carry a witness.
    k3 = write(tmp_path, "k3.col", K3_COL)
    cert = tmp_path / "cert.json"
    argv = [arg.format(k3=k3) for arg in argv]
    if argv[0] != "scan":
        argv += ["-o", str(cert)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "STATUS=error VALUE="
    assert "at least 1" in captured.err
    assert not cert.exists()


def test_verify_accepts_every_pack_complete_output(tmp_path, capsys):
    rng = random.Random(0)
    graph_cache = {}
    for trial in range(100):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 2)
        if n not in graph_cache:
            graph_cache[n] = write(tmp_path, f"k{n}.col", format_graph(complete_graph(n)))
        lists = {v: rng.sample(range(1, 3 * m + 1), m) for v in range(1, n + 1)}
        lpath = write(tmp_path, f"l{trial}.json", lists_json(lists))
        ppath = str(tmp_path / f"p{trial}.json")
        assert main(["pack-complete", "-n", str(n), "--lists", lpath, "-o", ppath]) == 0
        assert (
            main(
                [
                    "verify",
                    "--graph",
                    graph_cache[n],
                    "--lists",
                    lpath,
                    "--packing",
                    ppath,
                ]
            )
            == 0
        )
        capsys.readouterr()


K23_COL = "p edge 5 6\n" + "".join(f"e {x} {y}\n" for x in (1, 2) for y in (3, 4, 5))
K23_EDGES = [f"{x}-{y}" for x in (1, 2) for y in (3, 4, 5)]
GOOD_FILES = {
    "graph": K3_COL,
    "lists": lists_json({v: [1, 2, 3] for v in (1, 2, 3)}),
    "packing": '{"k": 3, "colorings": [[1,2,3],[2,3,1],[3,1,2]]}',
    "bigraph": K23_COL,
    "edge_lists": json.dumps({e: [1, 2, 3] for e in K23_EDGES}),
}
# Each subcommand with valid arguments; "{name}" stands for a file of GOOD_FILES.
GOOD_ARGV = {
    "pack-complete": ["-n", "3", "--lists", "{lists}"],
    "solve": ["--graph", "{graph}", "--lists", "{lists}", "--size", "3"],
    "verify": ["--graph", "{graph}", "--lists", "{lists}", "--packing", "{packing}"],
    "edge-color": ["--graph", "{bigraph}", "--edge-lists", "{edge_lists}"],
    "chi": ["--graph", "{graph}"],
    "chi-list": ["--graph", "{graph}", "--max-k", "3"],
    "chi-star": ["--graph", "{graph}", "--max-k", "3"],
    "scan": ["--size", "2"],
}
# Bad contents, replacing the first file of the argv that has an entry here.
BAD_FILES = {
    "empty file": dict.fromkeys(GOOD_FILES, ""),
    "malformed DIMACS header": {
        "graph": K3_COL.replace("p edge 3 3", "p edge three 3"),
        "bigraph": K23_COL.replace("p edge 5 6", "p edges 5 6"),
    },
    "non-canonical list key": {
        "lists": '{"01": [1, 2, 3], "2": [1, 2, 3], "3": [1, 2, 3]}',
        "edge_lists": json.dumps({e.replace("1-", "01-"): [1, 2, 3] for e in K23_EDGES}),
    },
    "short lists": {
        "lists": lists_json({v: [1, 2] for v in (1, 2, 3)}),
        "edge_lists": json.dumps({e: [1, 2] for e in K23_EDGES}),
    },
}


def _bad_input(command: str, case: str) -> tuple[list[str], dict[str, str]] | None:
    """The argv of one bad-input case and the file contents it replaces, or
    None when the case does not apply to the subcommand."""
    argv = [command, *GOOD_ARGV[command]]
    if case == "missing flag":  # scan has no required flag; drop a value instead
        return ([command, "--size"] if command == "scan" else [command, *argv[3:]]), {}
    if case == "non-integer flag":
        if command == "pack-complete":
            return [command, "-n", "abc", *argv[3:]], {}
        if command == "verify":  # it takes no integer flag
            return None
        return [*argv, "--budget-nodes", "many"], {}
    files = [a[1:-1] for a in argv if a.startswith("{")]
    if case == "missing file":
        return ([a.replace(f"{{{files[0]}}}", "{missing}") for a in argv], {}) if files else None
    bad = [f for f in files if f in BAD_FILES[case]]
    return (argv, {bad[0]: BAD_FILES[case][bad[0]]}) if bad else None


BAD_CASES = [
    (command, case, *bad)
    for command in GOOD_ARGV
    for case in ("missing flag", "non-integer flag", "missing file", *BAD_FILES)
    if (bad := _bad_input(command, case)) is not None
]


@pytest.mark.parametrize(
    "command, case, argv, contents", BAD_CASES, ids=[f"{c}-{k}" for c, k, *_ in BAD_CASES]
)
def test_every_subcommand_reports_bad_input_with_a_status_line(
    tmp_path, capsys, command, case, argv, contents
):
    paths = {"missing": str(tmp_path / "missing.txt")}
    for name, text in {**GOOD_FILES, **contents}.items():
        paths[name] = write(tmp_path, f"{name}.txt", text)
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("STATUS="), captured.out
    assert code in (1, 2, 3)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["--graph", "p3.col"], ["--graph", "missing.col"], []],
    ids=["command", "error-handler", "usage-error"],
)
def test_a_closed_standard_output_is_an_input_error_without_traceback(
    tmp_path, unbuffered, argv
):
    # stdout is a pipe whose reader has already gone, so every write to it
    # fails with BrokenPipeError: in the command's own output, in an error
    # handler's verdict, or in the parser's.
    (tmp_path / "p3.col").write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = pythonpath
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "listpacking.cli", "chi", *argv],
            cwd=tmp_path,
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert done.stderr.splitlines()[-1] == "error: standard output was closed"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["--help"], ["chi-star", "--help"]], ids=["main", "subcommand"]
)
def test_help_into_a_closed_standard_output_is_an_input_error(tmp_path, unbuffered, argv):
    # argparse drops an OSError from its own writes; the help text's must
    # still reach main's handler, whatever the buffering.
    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = pythonpath
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "listpacking.cli", *argv],
            cwd=tmp_path,
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == ["error: standard output was closed"]
