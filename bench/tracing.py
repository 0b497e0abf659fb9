"""Spans and counts recorded around fairgrade's module boundaries.

The benchmark never edits the package: `instrument` swaps the public
functions that one module calls in another for wrappers that open a span,
and restores the originals on exit. Spans stay in memory; `layer_metrics`
turns them into the per-layer numbers.

A span is [name, start, end, parent index, tag]. The tag names the exam or
graph being processed (`exam-dense/e1`, `mc-published/g2`), extended with
`/<rule>/r<k>` inside the k-th call of a rule by the simulation harness.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter
from time import perf_counter

NULL_SPAN = contextlib.nullcontext()

ROOT = "op"  # one span per timed operation; its self time is the benchmark's own
BOOKKEEPING = "trace"  # time spent computing counts from results


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tag = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), 0.0, parent, self.tag]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def op(self, tag: str):
        self.tag = tag
        with self.span(ROOT):
            yield

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(counts, args, result)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span(BOOKKEEPING):
                    count(self.counts, args, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[k]
        return out


def _count_edge_rows(counts, args, result):
    counts["io.read.rows"] += result.assignment.n_edges


def _count_dense_rows(counts, args, result):
    counts["io.read.rows"] += result.roster.n_students


def _count_written(counts, args, result):
    counts["io.write.bytes"] += sum(os.path.getsize(path) for path in args[1:])


def _count_components(counts, args, result):
    counts["graph.scc.components"] += result.n_components


def _count_mle(counts, args, result):
    counts["model.mle_fit.iterations"] += result.iterations
    counts["model.mle_fit.vertices"] += len(args[1])
    counts["model.mle_fit.converged"] += bool(result.converged)


def _count_map(counts, args, result):
    counts["model.map_fit.iterations"] += result.iterations


def _count_cells(counts, args, result):
    for case, n in Counter(result.case_tags.ravel().tolist()).items():
        counts[f"grading.cells.{case.name.lower()}"] += n


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the cross-module calls of fairgrade for the duration of the block.

    Each function is replaced in the namespace its caller looks it up in:
    `cli` imported `predict_matrix` by name, `grading` calls `mle_fit` from
    its own globals, `simulation` calls `generate_assignment` from its own.
    """
    import fairgrade.cli as cli
    import fairgrade.grading as grading
    import fairgrade.io as fio
    import fairgrade.simulation as simulation

    patches = [
        (fio, "read_edge_list", "io.read", _count_edge_rows),
        (fio, "read_dense_matrix", "io.read", _count_dense_rows),
        (fio, "write_predictions", "io.write", _count_written),
        (fio, "write_grades", "io.write", _count_written),
        (fio, "write_json_summary", "io.write", _count_written),
        (grading, "strongly_connected_components", "graph.scc", _count_components),
        (simulation, "generate_assignment", "graph.generate_assignment", None),
        (grading, "mle_fit", "model.mle_fit", _count_mle),
        (grading, "map_fit", "model.map_fit", _count_map),
        (grading, "predict_matrix", "grading.predict_matrix", _count_cells),
        (cli, "predict_matrix", "grading.predict_matrix", _count_cells),
        (cli, "simple_average", "grading.simple_average", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    make_map_rule = cli.make_map_rule
    try:
        for (module, attr, name, count), (_, _, original) in zip(patches, saved):
            setattr(module, attr, tracer.wrap(name, original, count))
        cli.make_map_rule = lambda *a, **kw: tracer.wrap("grading.map_rule", make_map_rule(*a, **kw))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        cli.make_map_rule = make_map_rule


# Per-layer metrics as (name, unit, span, key): with a span, `key` is its
# "s", "self_s" or "calls" total; without, a count recorded by a wrapper.
# Values are per traced operation. Every one is reported, so a layer that a
# workload (or a later change) never calls reads 0.
LAYER_METRICS = [
    ("io.read.s", "s", "io.read", "s"),
    ("io.read.rows", "count", None, "io.read.rows"),
    ("io.write.s", "s", "io.write", "s"),
    ("io.write.bytes", "bytes", None, "io.write.bytes"),
    ("graph.scc.s", "s", "graph.scc", "s"),
    ("graph.scc.calls", "count", "graph.scc", "calls"),
    ("graph.scc.components", "count", None, "graph.scc.components"),
    ("graph.generate_assignment.s", "s", "graph.generate_assignment", "s"),
    ("model.mle_fit.s", "s", "model.mle_fit", "s"),
    ("model.mle_fit.calls", "count", "model.mle_fit", "calls"),
    ("model.mle_fit.iterations", "count", None, "model.mle_fit.iterations"),
    ("model.mle_fit.vertices", "count", None, "model.mle_fit.vertices"),
    ("model.map_fit.s", "s", "model.map_fit", "s"),
    ("model.map_fit.calls", "count", "model.map_fit", "calls"),
    ("model.map_fit.iterations", "count", None, "model.map_fit.iterations"),
    ("grading.predict_matrix.self_s", "s", "grading.predict_matrix", "self_s"),
    ("grading.map_rule.self_s", "s", "grading.map_rule", "self_s"),
    ("grading.simple_average.s", "s", "grading.simple_average", "s"),
    *((f"grading.cells.{case}", "count", None, f"grading.cells.{case}") for case in (
        "existing_edge", "same_component", "student_above", "question_above", "incomparable")),
    ("simulation.runner.self_s", "s", "simulation.runner", "self_s"),
    ("simulation.replications", "count", None, "simulation.replications"),
    ("simulation.replications_failed", "count", None, "simulation.replications_failed"),
    ("cli.self_s", "s", "cli", "self_s"),
]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per traced operation, unit)."""
    totals = tracer.totals()
    metrics = {}
    for name, unit, span, key in LAYER_METRICS:
        total = totals.get(span, {}).get(key, 0.0) if span else tracer.counts[key]
        metrics[name] = (total / ops, unit)
    fits = totals.get("model.mle_fit", {}).get("calls", 0)
    converged = tracer.counts["model.mle_fit.converged"]
    metrics["model.mle_fit.converged_ratio"] = (converged / fits if fits else 0.0, "ratio")
    return metrics
