"""Span recorder and per-layer metrics for the traced benchmark run.

Tracing wraps the public entry points of each layer *from the outside*:
while :func:`tracing` is active, the attribute through which the caller
looks a function up (a module global such as
``repro.simulator.vectorized.ordered_conflict_rounds``, or a class
attribute such as ``StaticTopology.select_peers_batch``) is replaced by a
wrapper that records a span and, where a layer does countable work, a
count.  Nothing in the package changes; on exit every attribute is
restored.  Untraced runs never install a wrapper.

A span is ``(name, start, end, parent, run_id)``; ``parent`` is the index
of the enclosing span (``-1`` for a root).  A layer's *self time* is the
summed duration of its spans minus the time covered by their direct
child spans, so nested layers are not counted twice.

:data:`LAYER_METRICS` lists every per-layer metric with the end-to-end
metric and workload it should move, and the workloads where it should
stay flat; ``BENCHMARK.json`` mirrors the names, units and directions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Keeps spans and counts in memory until :meth:`write` is called."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: List[int] = []

    def begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def end(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.end(index, name, start)

    def wrap(self, name: Optional[str], function: Callable, count=None) -> Callable:
        """``function`` recording a span called ``name`` (none if ``None``).

        ``count(counts, args, result)`` adds the call's work to the
        recorder's counts after the call returns.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if name is None:
                result = function(*args, **kwargs)
            else:
                index = recorder.begin()
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    recorder.end(index, name, start)
            if count is not None:
                count(recorder.counts, args, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line ``[name, start, end, parent, run]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


def self_times(
    spans: Sequence[Span], offset: int = 0
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Per-name self time and per-name span durations.

    ``spans`` is one run's contiguous slice of the recorder and
    ``offset`` the recorder index of its first span, so that parent
    indices resolve within the slice.
    """
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for position, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        totals[name] += duration - covered.get(position + offset, 0.0)
        durations[name].append(duration)
    return totals, durations


# ----------------------------------------------------------------------
# Where the wrappers go
# ----------------------------------------------------------------------
def _counts(*pairs) -> Callable:
    """Add ``amount(args, result)`` to ``counts[key]`` for each pair."""

    def count(counts, args, result):
        for key, amount in pairs:
            counts[key] += amount(args, result)

    return count


def _count_max(key: str, amount: Callable) -> Callable:
    def count(counts, args, result):
        counts[key] = max(counts[key], amount(args, result))

    return count


def _async_statistics(counts, args, result) -> None:
    for key, value in args[0].statistics.items():
        counts["async." + key] = value


_CALL = lambda args, result: 1  # noqa: E731

#: ``(module, owner, attribute, span name, count)``; ``owner`` is a class
#: name inside ``module`` or ``None`` for a module global.  A ``None``
#: span name records only the count.
TARGETS = [
    ("bench_workloads", None, "build_overlay", "topology.build", None),
    ("repro.topology.replicated", "ReplicatedStaticBlock", "build_k_out", "topology.build", None),
    ("repro.newscast.vectorized_cache", "VectorizedNewscastOverlay", "bootstrap", "newscast.bootstrap", None),
    ("repro.experiments.runner", "RunPlan", "build_replica_overlays", "experiments.runner.build_replica_overlays", None),
    ("repro.topology.base", "StaticTopology", "select_peers_batch", "topology.select_peers", None),
    ("repro.topology.replicated", "StaticBlockView", "select_peers_batch", "topology.select_peers", None),
    *[
        (module, owner, attribute, "topology.membership", _counts(("topology.membership_calls", _CALL)))
        for module, owner in (
            ("repro.topology.base", "StaticTopology"),
            ("repro.topology.replicated", "StaticBlockView"),
        )
        for attribute in ("on_node_removed", "on_node_added")
    ],
    ("repro.simulator.failures", "ProportionalCrashModel", "apply", "simulator.failures.apply", None),
    ("repro.simulator.failures", "ChurnModel", "apply", "simulator.failures.apply", None),
    ("repro.simulator.vectorized", "VectorizedCycleSimulator", "crash_node", None, _counts(("nodes_removed", _CALL))),
    ("repro.simulator.vectorized", "VectorizedCycleSimulator", "add_node", None, _counts(("nodes_added", _CALL))),
    ("repro.simulator.replicated", "ReplicaView", "crash_node", None, _counts(("nodes_removed", _CALL))),
    ("repro.simulator.replicated", "ReplicaView", "add_node", None, _counts(("nodes_added", _CALL))),
    ("repro.simulator.async_engine", "AsyncPracticalSimulator", "crash_nodes", None,
     _counts(("nodes_removed", lambda args, result: len(args[1])))),
    ("repro.simulator.async_engine", "AsyncPracticalSimulator", "add_nodes", None,
     _counts(("nodes_added", lambda args, result: len(result)))),
    *[
        (module, None, "draw_cycle_plan", "simulator.sampling.plan", None)
        for module in ("repro.simulator.vectorized", "repro.simulator.replicated")
    ],
    *[
        (module, None, "ordered_conflict_rounds", "simulator.sampling.conflict_rounds",
         _counts(("sampling.rounds", lambda args, result: len(result))))
        for module in ("repro.simulator.vectorized", "repro.simulator.async_engine")
    ],
    *[
        (module, None, "apply_merge_rounds", "simulator.vectorized.merge",
         _counts(
             ("vectorized.merge_pairs", lambda args, result: args[2].size),
             # Each pair reads and writes both state rows.
             ("vectorized.merge_bytes", lambda args, result: 4 * args[2].size * args[0].shape[1] * args[0].itemsize),
         ))
        for module in ("repro.simulator.vectorized", "repro.simulator.replicated")
    ],
    *[
        (module, None, "effective_exchange_filter", "simulator.vectorized.filter", None)
        for module in ("repro.simulator.vectorized", "repro.simulator.replicated")
    ],
    ("repro.simulator.vectorized", "VectorizedCycleSimulator", "run_cycle", "simulator.vectorized.cycle", None),
    ("repro.core.count", "CountArrayFunction", "merge_arrays", "core.count_merge",
     _count_max("core.count_width", lambda args, result: args[1].shape[1])),
    ("repro.newscast.vectorized_cache", "VectorizedNewscastOverlay", "after_cycle", "newscast.round", None),
    ("repro.newscast.vectorized_cache", None, "merge_packed_pairs", "newscast.merge_packed",
     _counts(
         ("newscast.merge_pairs", lambda args, result: args[0].shape[0]),
         # Each pair reads and writes both packed cache rows.
         ("newscast.merge_bytes", lambda args, result: 4 * args[0].size * args[0].itemsize),
     )),
    *[
        (module, None, "estimate_statistics", "simulator.metrics.record", None)
        for module in ("repro.simulator.vectorized", "repro.simulator.replicated")
    ],
    ("repro.simulator.async_engine", "AsyncPracticalSimulator", "_record_window", "simulator.metrics.record", None),
    ("repro.simulator.epochs", "EpochDriver", "_run_epoch", "simulator.epochs.epoch", None),
    ("repro.simulator.replicated", "ReplicatedCycleSimulator", "run_cycle", "simulator.replicated.cycle", None),
    ("repro.simulator.async_engine", "AsyncPracticalSimulator", "_run_window", "simulator.async_engine.window", None),
    ("repro.simulator.async_engine", "AsyncPracticalSimulator", "run", None, _async_statistics),
]


def target_owner(module_name: str, owner_name: Optional[str]):
    """The module or class whose attribute a :data:`TARGETS` entry replaces."""
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def _wrap_hook_factory(recorder: SpanRecorder, factory: Callable) -> Callable:
    """Wrap the churn hook a scenario hands to the async engine."""

    @functools.wraps(factory)
    def window_hook(self):
        hook = factory(self)
        return None if hook is None else recorder.wrap("simulator.failures.apply", hook)

    return window_hook


@contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[None]:
    """Install every layer wrapper for the duration of the block."""
    patches = []
    try:
        for module_name, owner_name, attribute, name, count in TARGETS:
            owner = target_owner(module_name, owner_name)
            original = inspect.getattr_static(owner, attribute)
            inherited = attribute not in vars(owner)
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__, count))
            else:
                wrapped = recorder.wrap(name, original, count)
            setattr(owner, attribute, wrapped)
            patches.append((owner, attribute, None if inherited else original))
        from repro.simulator.asynchrony import AsynchronyScenario

        factory = inspect.getattr_static(AsynchronyScenario, "window_hook")
        AsynchronyScenario.window_hook = _wrap_hook_factory(recorder, factory)
        patches.append((AsynchronyScenario, "window_hook", factory))
        yield
    finally:
        for owner, attribute, original in reversed(patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]
    #: Workloads where it should stay flat.
    flat: Tuple[str, ...]


SC, NC, RC, AH = "static-crash", "newscast-count", "replicated-churn", "async-hostile"


def _m(name, unit, better, moves, flat):
    return LayerMetric(name, unit, better, tuple(moves), tuple(flat))


LAYER_METRICS: List[LayerMetric] = [
    _m("topology.build_s", "s", "lower", [("setup_s", SC), ("setup_s", RC)], [NC]),
    _m("topology.select_peers_s", "s", "lower", [("run_s", SC)], [NC]),
    _m("topology.membership_calls", "count", "lower", [("run_s", RC), ("run_s", SC)], [NC]),
    _m("topology.membership_s", "s", "lower", [("run_s", RC), ("run_s", SC)], [NC]),
    _m("simulator.failures.apply_s", "s", "lower", [("run_s", SC), ("run_s", RC)], [NC]),
    _m("simulator.failures.nodes_removed", "count", "lower", [("run_s", SC), ("run_s", RC)], [NC]),
    _m("simulator.failures.nodes_added", "count", "lower", [("run_s", RC)], [SC]),
    _m("simulator.sampling.plan_s", "s", "lower", [("run_s", NC)], [AH]),
    _m("simulator.sampling.conflict_rounds_s", "s", "lower", [("run_s", NC)], [SC]),
    _m("simulator.sampling.rounds", "count", "lower", [("run_s", NC)], [SC]),
    _m("simulator.vectorized.merge_s", "s", "lower", [("run_s", NC), ("exchanges_per_s", NC)], [AH]),
    _m("simulator.vectorized.merge_pairs", "count", "higher", [("exchanges_per_s", NC)], [AH]),
    _m("simulator.vectorized.merge_bytes", "computed_B", "lower", [("run_s", NC)], [AH]),
    _m("simulator.vectorized.filter_s", "s", "lower", [("run_s", NC)], [AH]),
    _m("simulator.vectorized.cycle_s_p50", "s", "lower", [("run_s", NC), ("exchanges_per_s", NC)], [AH]),
    _m("simulator.vectorized.cycle_s_p90", "s", "lower", [("run_s", NC), ("exchanges_per_s", NC)], [AH]),
    _m("core.count_merge_s", "s", "lower", [("run_s", NC)], [SC]),
    _m("core.count_width", "count", "lower", [("run_s", NC)], [SC]),
    _m("newscast.bootstrap_s", "s", "lower", [("setup_s", NC), ("setup_s", AH)], [SC]),
    _m("newscast.round_s", "s", "lower", [("run_s", NC), ("run_s", AH)], [SC]),
    _m("newscast.merge_packed_s", "s", "lower", [("run_s", NC), ("run_s", AH)], [SC]),
    _m("newscast.merge_pairs", "count", "higher", [("run_s", NC), ("run_s", AH)], [SC]),
    _m("newscast.merge_bytes", "computed_B", "lower", [("run_s", NC), ("run_s", AH)], [SC]),
    _m("simulator.transport.attempted", "count", "higher", [("exchanges_per_s", AH), ("exchanges_per_s", SC)], [NC]),
    _m("simulator.transport.completed", "count", "higher", [("exchanges_per_s", AH), ("exchanges_per_s", SC)], [NC]),
    _m("simulator.transport.success_ratio", "ratio", "higher", [("exchanges_per_s", AH), ("exchanges_per_s", SC)], [NC]),
    _m("simulator.metrics.record_s", "s", "lower", [("run_s", SC), ("run_s", NC), ("run_s", RC), ("run_s", AH)], []),
    _m("simulator.epochs.epoch_s_p50", "s", "lower", [("run_s", NC)], [SC]),
    _m("simulator.epochs.epochs", "count", "lower", [("run_s", NC)], [SC]),
    _m("simulator.replicated.cycle_s_p50", "s", "lower", [("run_s", RC)], [SC]),
    _m("experiments.runner.build_replica_overlays_s", "s", "lower", [("setup_s", RC)], [SC]),
    _m("simulator.async_engine.window_s_p50", "s", "lower", [("run_s", AH), ("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.window_s_p90", "s", "lower", [("run_s", AH), ("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.ticks", "count", "higher", [("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.completed", "count", "higher", [("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.response_lost", "count", "lower", [("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.dropped", "count", "lower", [("exchanges_per_s", AH)], [SC]),
    _m("simulator.async_engine.sync_jumps", "count", "lower", [("run_s", AH)], [SC]),
    _m("simulator.async_engine.events_per_s", "1/s", "higher", [("run_s", AH), ("exchanges_per_s", AH)], [SC]),
    _m("trace.overhead_s", "s", "lower", [], []),
]


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: Sequence[Span], offset: int, counts: Dict[str, float], run) -> Dict[str, float]:
    """Every per-layer metric of one traced whole run except the overhead.

    ``counts`` are the recorder's counts accumulated over that run only;
    ``run`` is its :class:`~bench_workloads.WholeRun`.  A layer that did
    no work on the workload reports 0.
    """
    self_s, durations = self_times(spans, offset)
    window_s = sum(durations["simulator.async_engine.window"])
    ticks = counts.get("async.ticks", 0)
    return {
        "topology.build_s": self_s["topology.build"],
        "topology.select_peers_s": self_s["topology.select_peers"],
        "topology.membership_calls": counts.get("topology.membership_calls", 0),
        "topology.membership_s": self_s["topology.membership"],
        "simulator.failures.apply_s": self_s["simulator.failures.apply"],
        "simulator.failures.nodes_removed": counts.get("nodes_removed", 0),
        "simulator.failures.nodes_added": counts.get("nodes_added", 0),
        "simulator.sampling.plan_s": self_s["simulator.sampling.plan"],
        "simulator.sampling.conflict_rounds_s": self_s["simulator.sampling.conflict_rounds"],
        "simulator.sampling.rounds": counts.get("sampling.rounds", 0),
        "simulator.vectorized.merge_s": self_s["simulator.vectorized.merge"],
        "simulator.vectorized.merge_pairs": counts.get("vectorized.merge_pairs", 0),
        "simulator.vectorized.merge_bytes": counts.get("vectorized.merge_bytes", 0),
        "simulator.vectorized.filter_s": self_s["simulator.vectorized.filter"],
        "simulator.vectorized.cycle_s_p50": _percentile(durations["simulator.vectorized.cycle"], 50),
        "simulator.vectorized.cycle_s_p90": _percentile(durations["simulator.vectorized.cycle"], 90),
        "core.count_merge_s": self_s["core.count_merge"],
        "core.count_width": counts.get("core.count_width", 0),
        "newscast.bootstrap_s": self_s["newscast.bootstrap"],
        "newscast.round_s": self_s["newscast.round"],
        "newscast.merge_packed_s": self_s["newscast.merge_packed"],
        "newscast.merge_pairs": counts.get("newscast.merge_pairs", 0),
        "newscast.merge_bytes": counts.get("newscast.merge_bytes", 0),
        "simulator.transport.attempted": run.attempted,
        "simulator.transport.completed": run.completed,
        "simulator.transport.success_ratio": run.completed / run.attempted if run.attempted else 0.0,
        "simulator.metrics.record_s": self_s["simulator.metrics.record"],
        "simulator.epochs.epoch_s_p50": _percentile(durations["simulator.epochs.epoch"], 50),
        "simulator.epochs.epochs": len(durations["simulator.epochs.epoch"]),
        "simulator.replicated.cycle_s_p50": _percentile(durations["simulator.replicated.cycle"], 50),
        "experiments.runner.build_replica_overlays_s": self_s["experiments.runner.build_replica_overlays"],
        "simulator.async_engine.window_s_p50": _percentile(durations["simulator.async_engine.window"], 50),
        "simulator.async_engine.window_s_p90": _percentile(durations["simulator.async_engine.window"], 90),
        "simulator.async_engine.ticks": ticks,
        "simulator.async_engine.completed": counts.get("async.completed", 0),
        "simulator.async_engine.response_lost": counts.get("async.response_lost", 0),
        "simulator.async_engine.dropped": counts.get("async.dropped", 0),
        "simulator.async_engine.sync_jumps": counts.get("async.sync_jumps", 0),
        "simulator.async_engine.events_per_s": ticks / window_s if window_s > 0 else 0.0,
    }
