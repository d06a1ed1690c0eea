"""Span tracer for the per-layer run of the benchmark.

``install`` wraps the public functions of each ``vla_roofline`` layer and
records one span per call: name, start, end, parent span and request.  The
package imports several of these functions by name (``golden`` binds
``pipeline_graph``, ``graph_oi``, ``boundedness`` and the scenario
functions; ``cli`` binds ``load_presets`` and the scenario functions), so a
wrapper set on the defining module alone would miss those calls.  Every
binding of an original function in every loaded package module is replaced
instead, and the golden table registry is rewritten the same way.

Spans stay in memory; ``layer_metrics`` turns the spans of one pass into
per-layer times and counts.  A layer's self time is its span minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "vla_roofline"

# (module, function, span name).  Functions of ``workload`` and ``references``
# are dataclass arithmetic and constants; their time is counted in the self
# time of their callers.
TRACED_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("configio", "load_presets", "configio.load_presets"),
    ("opgraph", "pipeline_graph", "opgraph.pipeline_graph"),
    ("roofline", "graph_time", "roofline.graph_time"),
    ("roofline", "graph_oi", "roofline.graph_oi"),
    ("roofline", "boundedness", "roofline.boundedness"),
    ("roofline", "memory_footprint", "roofline.memory_footprint"),
    ("netmodel", "path_time", "netmodel.path_time"),
    ("scenarios", "sync_scenario", "scenarios.sync_scenario"),
    ("scenarios", "async_scenario", "scenarios.async_scenario"),
    ("scenarios", "collaborative_scenario", "scenarios.collaborative_scenario"),
    ("scenarios", "dual_system_scenario", "scenarios.dual_system_scenario"),
    ("scenarios", "long_context_sweep", "scenarios.long_context_sweep"),
    ("scenarios", "scaling_sweep", "scenarios.scaling_sweep"),
)

# Scenario entry points whose results carry a ``feasible`` flag.  A call
# counts once, at the outermost of these (``async_scenario`` calls
# ``sync_scenario``, which may forward to ``collaborative_scenario``).
SCENARIO_CALLS = frozenset({
    "scenarios.sync_scenario", "scenarios.async_scenario",
    "scenarios.collaborative_scenario", "scenarios.dual_system_scenario",
})

GOLDEN_TABLES = ("T1", "T3", "T4", "T5", "T6", "T8", "T9", "collab")

# Every per-layer metric a pass reports, with its unit.
LAYER_METRICS = {
    "cli.main.self_ms": "ms",
    "configio.load_presets.ms": "ms",
    "configio.load_presets.calls": "count",
    "opgraph.pipeline_graph.ms": "ms",
    "opgraph.pipeline_graph.calls": "count",
    "opgraph.kernels": "count",
    "opgraph.subgraph.ms": "ms",
    "opgraph.subgraph.calls": "count",
    "roofline.graph_time.ms": "ms",
    "roofline.graph_time.calls": "count",
    "roofline.graph_oi.ms": "ms",
    "roofline.graph_oi.calls": "count",
    "roofline.memory_footprint.calls": "count",
    "netmodel.path_time.ms": "ms",
    "netmodel.path_time.calls": "count",
    "scenarios.self_ms": "ms",
    "scenarios.calls": "count",
    "scenarios.infeasible": "count",
    "scenarios.infeasible_share": "ratio",
    **{f"golden.{table}.ms": "ms" for table in GOLDEN_TABLES},
    "golden.cells_graded": "count",
    "golden.cells_failed": "count",
}

# Metrics that must repeat exactly between passes over the same requests.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit == "count")


def kernel_count(graph) -> int:
    """Modelled kernel launches in a graph: one per operator, or the summed
    counts when operators are stored as ``(operator, count)`` runs."""
    ops = graph.ops
    if ops and isinstance(ops[0], tuple):
        return sum(count for _, count in ops)
    return len(ops)


def _feasible_flag(result) -> int:
    return 0 if result.feasible else 1


def _cell_counts(cells) -> tuple[int, int]:
    graded = [cell for cell in cells if cell.passed is not None]
    return len(graded), sum(1 for cell in graded if not cell.passed)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request, info)
        self.spans: list = []
        self._stack: list[int] = []
        self.request = 0

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording a span per call; ``info(result)`` is stored with
        the span when given."""
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.request, None)
            if info is not None:
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.request, info(result))
            return result

        return traced


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in the package."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding site.

    Raises ``RuntimeError`` if an original stays reachable from a package
    module after patching.
    """
    for module in ("cli", "golden", "scenarios", "roofline", "opgraph",
                   "netmodel", "configio"):
        importlib.import_module(f"{PACKAGE}.{module}")
    infos = {
        "opgraph.pipeline_graph": kernel_count,
        **{name: _feasible_flag for name in SCENARIO_CALLS},
    }
    originals = []
    for module_name, attr, name in TRACED_FUNCTIONS:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, infos.get(name)))
        originals.append((name, original))

    graph_cls = sys.modules[f"{PACKAGE}.opgraph"].OperatorGraph
    graph_cls.subgraph = tracer.wrap("opgraph.subgraph", graph_cls.subgraph)

    # ``cli`` reaches the table builders through this registry; "scaling"
    # is an alias of T5 and is named after its first key.
    tables = sys.modules[f"{PACKAGE}.golden"].TABLES
    names = {}
    for key, builder in tables.items():
        names.setdefault(builder, key)
    wrapped = {builder: tracer.wrap(f"golden.{key}", builder, _cell_counts)
               for builder, key in names.items()}
    for key, builder in list(tables.items()):
        tables[key] = wrapped[builder]
    for builder, replacement in wrapped.items():
        _rebind(builder, replacement)
        originals.append((f"golden.{names[builder]}", builder))

    for module in _package_modules():
        for attr, value in vars(module).items():
            for name, original in originals:
                if value is original:
                    raise RuntimeError(
                        f"{module.__name__}.{attr} still binds untraced {name}")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times (ms) and counts over one pass of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    golden_ms = defaultdict(float)
    kernels = graded = failed = 0
    outer_calls = infeasible = 0
    for index, (name, start, end, parent, _, info) in enumerate(spans):
        self_ms[name] += (end - start - covered[index]) * 1e3
        calls[name] += 1
        if name == "opgraph.pipeline_graph":
            kernels += info
        elif name.startswith("golden."):
            golden_ms[name] += (end - start) * 1e3
            graded += info[0]
            failed += info[1]
        elif name in SCENARIO_CALLS and (
                parent < 0 or spans[parent][0] not in SCENARIO_CALLS):
            outer_calls += 1
            infeasible += info
    metrics = {
        "cli.main.self_ms": self_ms["cli.main"],
        "configio.load_presets.ms": self_ms["configio.load_presets"],
        "configio.load_presets.calls": calls["configio.load_presets"],
        "opgraph.pipeline_graph.ms": self_ms["opgraph.pipeline_graph"],
        "opgraph.pipeline_graph.calls": calls["opgraph.pipeline_graph"],
        "opgraph.kernels": kernels,
        "opgraph.subgraph.ms": self_ms["opgraph.subgraph"],
        "opgraph.subgraph.calls": calls["opgraph.subgraph"],
        "roofline.graph_time.ms": self_ms["roofline.graph_time"],
        "roofline.graph_time.calls": calls["roofline.graph_time"],
        "roofline.graph_oi.ms": (self_ms["roofline.graph_oi"]
                                 + self_ms["roofline.boundedness"]),
        "roofline.graph_oi.calls": calls["roofline.graph_oi"],
        "roofline.memory_footprint.calls": calls["roofline.memory_footprint"],
        "netmodel.path_time.ms": self_ms["netmodel.path_time"],
        "netmodel.path_time.calls": calls["netmodel.path_time"],
        "scenarios.self_ms": sum(ms for name, ms in self_ms.items()
                                 if name.startswith("scenarios.")),
        "scenarios.calls": outer_calls,
        "scenarios.infeasible": infeasible,
        "scenarios.infeasible_share": (infeasible / outer_calls
                                       if outer_calls else 0.0),
        "golden.cells_graded": graded,
        "golden.cells_failed": failed,
    }
    for table in GOLDEN_TABLES:
        metrics[f"golden.{table}.ms"] = golden_ms[f"golden.{table}"]
    return metrics


def trace_events(spans, pid: int = 0) -> list[dict]:
    """Spans as Trace Event Format complete events (Perfetto, chrome://tracing)."""
    return [{"name": name, "ph": "X", "pid": pid, "tid": request,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent}}
            for name, start, end, parent, request, _ in spans]
