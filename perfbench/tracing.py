"""Span tracing of graphchase's layers, recorded from outside the package.

The tracer replaces module and class attributes that graphchase calls
through (for example ``graphchase.verifier.propagate_step``) with wrappers
that record one span per call: its layer name, parent span, start and end.
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

Spans are recorded only inside a job (a root span opened with ``job``), so
answer checks made between jobs leave no trace.  A wrapped call made from
inside a span of the same layer is folded into that span; this keeps, for
example, ``cycle_strategy`` calling ``cycle_loop`` one construction.
Everything stays in memory until ``to_document`` is called at the end.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from graphchase import cli, critical, graph, strategies, verifier

JOB = "job"


class Tracer:
    """Spans in compact columns: layer id, parent index, start, end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []          # layer name of each layer id
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.job_names: list[str] = []       # one per root span
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def names(self) -> list[str]:
        return [self.layers[i] for i in self.layer]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.layers)
            self.layers.append(name)
        return i

    # -- recording -----------------------------------------------------

    def _open(self, layer_id: int) -> int:
        i = len(self.layer)
        self.layer.append(layer_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def job(self, name: str):
        """Root span of one user-level call."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        self.job_names.append(name)
        i = self._open(self._id(JOB))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the layer name, or a function of the call's
        ``(args, kwargs)`` returning it.  ``hook(tracer, args, kwargs,
        result, error)`` runs after each recorded call to update counts.
        """
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        stack, layer_of, layer_id = self._stack, self.layer, self._id

        def traced(*args, **kwargs):
            lid = layer_id(name(args, kwargs) if callable(name) else name)
            if not stack or layer_of[stack[-1]] == lid:
                return fn(*args, **kwargs)
            i = self._open(lid)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self._close(i)
                if hook is not None:
                    hook(self, args, kwargs, result, error)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.parents, self.starts, self.ends)

    def to_document(self) -> dict:
        """Every span in columnar form, times in ns from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        return {"layers": self.layers, "layer": self.layer.tolist(),
                "parent": self.parents.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.starts],
                "end_ns": [round((t - t0) * 1e9) for t in self.ends],
                "job_names": self.job_names, "counts": dict(self.counts)}


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never counts a moment twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(parents)):
        kids = children.get(i, ())
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_a = cur_b = None
        for k in sorted(kids, key=starts.__getitem__):
            a, b = max(starts[k], lo), min(ends[k], hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


# ----------------------------------------------------------------------
# graphchase's layer boundaries
# ----------------------------------------------------------------------

CONSTRUCTORS = ("star_strategy", "comb_strategy", "cycle_strategy",
                "finiteness_strategy", "sweep_strategy")


def _count_pairs(tr, args, kwargs, result, error):
    if error is None:
        tr.counts["verifier.build_reach.pairs"] += len(result.src)


def _propagate_name(args, kwargs):
    bp = kwargs.get("want_backpointers", args[3] if len(args) > 3 else False)
    return "verifier.propagate_step_bp" if bp else "verifier.propagate_step"


def _count_gathered(tr, args, kwargs, result, error):
    reach = kwargs.get("reach", args[2] if len(args) > 2 else None)
    if _propagate_name(args, kwargs) == "verifier.propagate_step":
        tr.counts["verifier.propagate_step.pairs"] += len(reach.src)


def _count_steps(tr, args, kwargs, result, error):
    if error is None:
        tr.counts["verifier.verify.steps"] += result.n_steps
        tr.counts["verifier.verify.sample_steps"] += \
            result.n_samples * result.n_steps


def _count_rejection(tr, args, kwargs, result, error):
    if isinstance(error, strategies.StrategyError):
        tr.counts["strategies.build.rejected"] += 1


def _count_bracket(tr, args, kwargs, result, error):
    if error is None:
        tr.counts["critical.probes"] += len(result.probes)
        tr.counts["critical.captures"] += sum(
            1 for _, outcome in result.probes if outcome == "capture")


def _count_frontier(tr, args, kwargs, result, error):
    if error is None:
        tr.counts["critical.probes"] += len(result)
        tr.counts["critical.captures"] += sum(
            1 for row in result if row.verdict == "capture")
        tr.counts["critical.redeclared_checks"] += sum(
            1 for row in result if "re-declared" in row.note)


def _count_written(tr, args, kwargs, result, error):
    if error is None:
        tr.counts["cli.io.bytes_written"] += os.path.getsize(args[1])


def install(tr: Tracer) -> None:
    """Wrap every layer boundary graphchase calls through."""
    tr.wrap(verifier, "discretize", "graph.discretize")
    tr.wrap(graph.DiscretizedGraph, "distances_to_intervals",
            "graph.distances_to_intervals")
    tr.wrap(graph.MetricGraph, "route", "graph.route")
    tr.wrap(verifier, "min_clearance", "trajectory.min_clearance")
    for module in (verifier, critical, cli):
        tr.wrap(module, "verify", "verifier.verify", _count_steps)
    tr.wrap(verifier, "build_reach", "verifier.build_reach", _count_pairs)
    tr.wrap(verifier, "propagate_step", _propagate_name, _count_gathered)
    tr.wrap(verifier, "swept_intervals", "verifier.swept_intervals")
    tr.wrap(verifier, "_backtrack_witness", "verifier.backtrack_witness")
    for module in (strategies, critical):
        for attr in CONSTRUCTORS:
            tr.wrap(module, attr, "strategies.build", _count_rejection)
    tr.wrap(strategies, "cycle_loop", "strategies.build", _count_rejection)
    tr.wrap(critical, "upper_bound_bisect", "critical.search", _count_bracket)
    for module in (critical, cli):
        tr.wrap(module, "frontier_table", "critical.search", _count_frontier)
    tr.wrap(cli, "main", "cli.main")
    for attr in ("load_graph", "load_path"):
        tr.wrap(cli, attr, "cli.io")
    for attr in ("save_path", "save_report"):
        tr.wrap(cli, attr, "cli.io", _count_written)


# (metric name, unit) in report order; the source of each value is in
# layer_metrics below.
LAYER_METRICS = (
    ("graph.discretize.calls", "count"),
    ("graph.discretize.self_s", "s"),
    ("graph.distances_to_intervals.calls", "count"),
    ("graph.distances_to_intervals.self_s", "s"),
    ("graph.route.calls", "count"),
    ("graph.route.self_s", "s"),
    ("trajectory.min_clearance.calls", "count"),
    ("trajectory.min_clearance.self_s", "s"),
    ("verifier.verify.calls", "count"),
    ("verifier.verify.self_s", "s"),
    ("verifier.build_reach.calls", "count"),
    ("verifier.build_reach.self_s", "s"),
    ("verifier.build_reach.pairs", "count"),
    ("verifier.propagate_step.calls", "count"),
    ("verifier.propagate_step.self_s", "s"),
    ("verifier.propagate_step.ns_per_pair", "ns"),
    ("verifier.propagate_step_bp.calls", "count"),
    ("verifier.propagate_step_bp.self_s", "s"),
    ("verifier.swept_intervals.calls", "count"),
    ("verifier.swept_intervals.self_s", "s"),
    ("verifier.backtrack_witness.calls", "count"),
    ("verifier.backtrack_witness.self_s", "s"),
    ("verifier.step_ratio", "ratio"),
    ("strategies.build.calls", "count"),
    ("strategies.build.self_s", "s"),
    ("strategies.build.rejected", "count"),
    ("critical.search.calls", "count"),
    ("critical.search.self_s", "s"),
    ("critical.probes", "count"),
    ("critical.probe_capture_share", "share"),
    ("critical.redeclared_checks", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.io.calls", "count"),
    ("cli.io.self_s", "s"),
    ("cli.io.bytes_written", "bytes"),
    ("job.calls", "count"),
    ("job.wall_s", "s"),
    ("job.other_s", "s"),
    ("trace.overhead_share", "share"),
)

LAYERS = ("graph.discretize", "graph.distances_to_intervals", "graph.route",
          "trajectory.min_clearance", "verifier.verify",
          "verifier.build_reach", "verifier.propagate_step",
          "verifier.propagate_step_bp", "verifier.swept_intervals",
          "verifier.backtrack_witness", "strategies.build", "critical.search",
          "cli.main", "cli.io")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer calls, self times and counts over every recorded job.

    ``job.other_s`` is the jobs' own time outside every wrapped layer, so
    the layer self times plus ``job.other_s`` add up to ``job.wall_s``.
    ``trace.overhead_share`` is left for the caller, which has the untraced
    timings.
    """
    names = tr.names
    calls: Counter = Counter(names)
    self_s: dict[str, float] = dict.fromkeys(LAYERS + (JOB,), 0.0)
    for name, t in zip(names, tr.self_times()):
        self_s[name] += t
    wall = sum(e - s for name, s, e in zip(names, tr.starts, tr.ends)
               if name == JOB)
    c = tr.counts
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["job.calls"] = calls[JOB]
    out["job.wall_s"] = wall
    out["job.other_s"] = self_s[JOB]
    out["verifier.build_reach.pairs"] = c["verifier.build_reach.pairs"]
    gathered = c["verifier.propagate_step.pairs"]
    out["verifier.propagate_step.ns_per_pair"] = \
        1e9 * self_s["verifier.propagate_step"] / gathered if gathered else 0.0
    steps = c["verifier.verify.steps"]
    propagations = calls["verifier.propagate_step"] + \
        calls["verifier.propagate_step_bp"]
    out["verifier.step_ratio"] = propagations / steps if steps else 0.0
    out["strategies.build.rejected"] = c["strategies.build.rejected"]
    probes = c["critical.probes"]
    out["critical.probes"] = probes
    out["critical.probe_capture_share"] = \
        c["critical.captures"] / probes if probes else 0.0
    out["critical.redeclared_checks"] = c["critical.redeclared_checks"]
    out["cli.io.bytes_written"] = c["cli.io.bytes_written"]
    return out


def accounting_gap(metrics: dict[str, float]) -> float:
    """Layer self times plus the jobs' other time, minus the jobs' wall."""
    layered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return layered + metrics["job.other_s"] - metrics["job.wall_s"]
