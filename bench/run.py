"""Benchmark for listpacking: construction (`pack_complete`), certification
(`chi-star`) and exhaustive packing search (`solve_packing`).

    python3 bench/run.py --workload pack-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The run sets the program up several times (import plus seeded
inputs), then makes whole rounds of calls until `--seconds` of calls have
been timed, checking every output with the checkers in `checks.py`.
Untraced times are rescaled to a fixed machine speed (`speed.py`).  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checks import galvin_round_problems
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"
MODULES = ("graphs", "coloring", "galvin", "packing", "search", "cli")
SETUP_REPS = 5


class Tally:
    def __init__(self, probe=None):
        self.probe = probe  # a running SpeedProbe, or None
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []  # wall time of each completed call
        self.busy = 0.0  # wall time of every call, failed ones included
        self.spans: list[tuple[float, float, float, bool]] = []  # start, end, wall, completed
        self.problems: list[str] = []

    def timed(self, start: float, chunks_before: float, completed: bool) -> float:
        """Record a call that began at `start`; return its wall time
        without the probe's chunks."""
        end = perf_counter()
        elapsed = end - start
        if self.probe is not None:
            elapsed -= self.probe.spent - chunks_before
        self.spans.append((start, end, elapsed, completed))
        if completed:
            self.samples.append(elapsed)
        self.busy += elapsed
        return elapsed


def set_up(workload: str, seed: int):
    """Import the package afresh and build the seeded inputs."""
    for name in [n for n in sys.modules if n == "listpacking" or n.startswith("listpacking.")]:
        del sys.modules[name]
    lp = SimpleNamespace(**{m: importlib.import_module(f"listpacking.{m}") for m in MODULES})
    return lp, WORKLOADS[workload](lp, random.Random(seed), WORKDIR)


def run_round(ops, tally: Tally) -> float:
    """Make one round of calls; return their total wall time."""
    spent = 0.0
    for op in ops:
        tally.attempted += 1
        chunks_before = tally.probe.spent if tally.probe is not None else 0.0
        start = perf_counter()
        try:
            result = op.call()
        except op.faults:
            spent += tally.timed(start, chunks_before, False)
            tally.failed += 1
            continue
        except Exception:
            spent += tally.timed(start, chunks_before, False)
            tally.failed += 1
            tally.problems.append("unexpected exception:\n" + traceback.format_exc())
            continue
        spent += tally.timed(start, chunks_before, True)
        tally.problems += op.check(result)
    return spent


def measure(rounds, seconds: float, probe: SpeedProbe) -> Tally:
    tally, spent, r = Tally(probe), 0.0, 0
    while r == 0 or spent < seconds:
        spent += run_round(rounds(r), tally)
        r += 1
    return tally


def measure_traced(lp, rounds, seconds: float):
    """Each round twice, untraced then traced, until `seconds` are spent."""
    tally, tracer = Tally(), Tracer(lp)
    plain = traced = 0.0
    r = 0
    while r == 0 or plain + traced < seconds:
        ops = rounds(r)
        plain += run_round(ops, tally)
        tracer.install()
        try:
            traced += run_round(ops, tally)
        finally:
            tracer.uninstall()
        for edge_lists, colors, galvin_rounds, deletions in tracer.galvin_runs:
            tally.problems += galvin_round_problems(edge_lists, colors, galvin_rounds, deletions)
        tracer.galvin_runs.clear()
        r += 1
    return tally, tracer, r, 100.0 * (traced - plain) / plain


def end_to_end(setup_times, tally: Tally) -> dict:
    """Times rescaled by the probe to its reference speed."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [(wall * tally.probe.scale(start, end), ok) for start, end, wall, ok in tally.spans]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "call_s": (statistics.median(t for t, ok in scaled if ok), "s"),
        "calls_per_s": (len(tally.samples) / sum(t for t, _ in scaled), "1/s"),
    }


def per_layer(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Self times and work counts per traced round."""
    seconds = (
        "galvin.kernel_check", "galvin.stable_matching", "galvin.select",
        "galvin.edge_color_bipartite", "galvin.verify_edge_coloring",
        "graphs.cartesian_product", "coloring.lift_lists", "coloring.product_verify",
        "coloring.extract_packing", "coloring.is_proper_packing", "packing.self",
        "search.enumerate", "search.list_packing_number", "search.solve_packing", "cli.self",
    )
    counts = (
        "galvin.rounds", "galvin.pool_edges", "graphs.product_edges",
        "search.canonical_assignments", "search.nodes", "search.found", "search.absent",
    )
    metrics = {f"{name}_s": (tracer.self_s[name] / rounds, "s") for name in seconds}
    metrics.update({name: (tracer.counts[name] / rounds, "count") for name in counts})
    metrics["galvin.pool_max"] = (tracer.pool_max, "count")
    metrics["search.solve_packing_calls"] = (tracer.calls["search.solve_packing"] / rounds, "count")
    durations = tracer.solve_durations
    p90 = statistics.quantiles(durations, n=10)[-1] if len(durations) >= 100 else 0.0
    metrics["search.solve_packing_p90_s"] = (p90, "s")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "listpacking" / "__init__.py").is_file():
        print(f"no listpacking sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(parents=True, exist_ok=True)

    # Tracing attributes the probe's chunks to whatever span they land in,
    # so the traced run goes without it and reports wall times.
    probe = SpeedProbe()
    with probe if not args.trace else contextlib.nullcontext():
        setup_times = []
        for _ in range(SETUP_REPS):
            lp = rounds = None  # let the previous set-up go before timing the next
            chunks_before = probe.spent
            start = perf_counter()
            lp, rounds = set_up(args.workload, args.seed)
            end = perf_counter()
            wall = end - start - (probe.spent - chunks_before)
            setup_times.append(wall * probe.scale(start, end))  # 1.0 when traced

        # The inputs live for the whole run; keep the collector from walking
        # them again on every collection the program's own allocations trigger.
        gc.collect()
        gc.freeze()
        if args.trace:
            tally, tracer, traced_rounds, overhead = measure_traced(lp, rounds, args.seconds)
        else:
            tally = measure(rounds, args.seconds, probe)

    for problem in tally.problems[:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    if not tally.samples:
        print("no call completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(tracer, traced_rounds, overhead)
    else:
        metrics = end_to_end(setup_times, tally)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace and len(tally.samples) >= 100:
        p90 = statistics.quantiles(tally.samples, n=10)[-1]
        print(f"{args.workload} unscaled p90 call time = {p90:.6g} s over {len(tally.samples)} calls")
    if not args.trace:
        print(
            f"{args.workload} unscaled: call time {statistics.median(tally.samples):.6g} s, "
            f"{len(tally.samples) / tally.busy:.6g} calls/s; median chunk "
            f"{statistics.median(probe.chunks):.6g} s over {len(probe.chunks)} chunks"
        )
    print(
        f"{args.workload}: {tally.attempted} calls attempted, {tally.failed} failed, "
        f"{len(tally.samples)} completed in {tally.busy:.3f} s; setup reps {SETUP_REPS}"
    )
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
