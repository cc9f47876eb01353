"""Per-layer tracing from outside the program.

A `Tracer` replaces public functions of the `listpacking` modules with timing
wrappers, each set on the module attribute through which its caller looks
the function up (`pack_complete` calls `lift_lists` through
`listpacking.packing`, `list_edge_color_trace` calls `kernel_check` through
`listpacking.galvin`, and so on).  No file of the package changes.

Each wrapped call is a span.  A span's self time is its wall time minus the
wall time of the wrapped calls made inside it, so the self times of nested
layers add up to the outermost span without counting anything twice.
Per-element helpers (`edge`, `product_id`, `split_edge`) are left alone:
they run millions of times per call and a wrapper there would measure
itself.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  A function looked up through several
# modules gets a wrapper in each, all under one span name.
SPANS = (
    ("packing", "pack_complete", "packing.self"),
    ("packing", "lift_lists", "coloring.lift_lists"),
    ("coloring", "cartesian_product", "graphs.cartesian_product"),
    ("packing", "is_proper_coloring", "coloring.product_verify"),
    ("packing", "extract_packing", "coloring.extract_packing"),
    ("packing", "is_proper_packing", "coloring.is_proper_packing"),
    ("search", "is_proper_packing", "coloring.is_proper_packing"),
    ("galvin", "list_edge_color_trace", "galvin.select"),
    ("galvin", "edge_color_bipartite", "galvin.edge_color_bipartite"),
    ("galvin", "stable_matching", "galvin.stable_matching"),
    ("galvin", "kernel_check", "galvin.kernel_check"),
    ("galvin", "verify_edge_coloring", "galvin.verify_edge_coloring"),
    ("search", "solve_packing", "search.solve_packing"),
    ("cli", "list_packing_number", "search.list_packing_number"),
    ("cli", "main", "cli.self"),
)
# Generators: each resumption is a span, so time spent by the consumer
# between items is not charged to the generator.
GENERATOR_SPANS = (
    ("search", "enumerate_canonical_assignments", "search.enumerate"),
)


class Tracer:
    """Self time and call count per span name, plus the work counters read
    off the program's return values."""

    def __init__(self, modules):
        self.modules = modules
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.pool_max = 0
        self.solve_durations: list[float] = []
        self.galvin_runs: list[tuple] = []  # (edge_lists, colors, rounds, deletions)
        self._open: list[float] = []  # child time inside each open span
        self._saved: list[tuple] = []

    def install(self) -> None:
        observers = {
            "list_edge_color_trace": self._observe_galvin,
            "cartesian_product": self._observe_product,
            "solve_packing": self._observe_solve,
        }
        for module_name, attr, name in SPANS:
            self._replace(module_name, attr, self._wrap(name, observers.get(attr)))
        for module_name, attr, name in GENERATOR_SPANS:
            self._replace(module_name, attr, self._wrap_generator(name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module_name, attr, make_wrapper) -> None:
        module = getattr(self.modules, module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _enter(self) -> float:
        self._open.append(0.0)
        return perf_counter()

    def _leave(self, name: str, start: float) -> float:
        elapsed = perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        return elapsed

    def _wrap(self, name: str, observe):
        def make(original):
            def wrapper(*args, **kwargs):
                start = self._enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = self._leave(name, start)
                if observe is not None:
                    observe(args, result, elapsed)
                return result

            return wrapper

        return make

    def _wrap_generator(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    start = self._enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, start)
                    self.counts["search.canonical_assignments"] += 1
                    yield item

            return wrapper

        return make

    def _observe_galvin(self, args, result, elapsed) -> None:
        coloring, trace = result
        pools = [len(r.pool) for r in trace.rounds]
        self.counts["galvin.rounds"] += len(pools)
        self.counts["galvin.pool_edges"] += sum(pools)
        self.pool_max = max([self.pool_max, *pools])
        rounds = [(r.color, r.pool, r.matched) for r in trace.rounds]
        self.galvin_runs.append((args[2], coloring.colors, rounds, dict(trace.deletions)))

    def _observe_product(self, args, result, elapsed) -> None:
        self.counts["graphs.product_edges"] += len(result.edges)

    def _observe_solve(self, args, result, elapsed) -> None:
        self.counts["search.nodes"] += result.nodes
        self.counts[f"search.{result.status}"] += 1
        self.solve_durations.append(elapsed)
