"""The fast cycle engine: dispatch, scalar-overlay fallback and lifetime.

``VectorizedCycleSimulator`` is the one-replica view of
``ReplicatedCycleSimulator``.  These tests pin what that collapse must
keep: the fast engine still drives overlays without batched peer
selection, a retired engine is freed by reference counting alone (no
view/engine cycle), and ``make_simulator`` explains its choice.
"""

import gc
import logging
import weakref

from repro.common.rng import RandomSource
from repro.core.count import CountMapFunction
from repro.core.functions import AverageFunction
from repro.newscast import NewscastOverlay
from repro.simulator import (
    CycleSimulator,
    ProportionalCrashModel,
    ReplicaConfig,
    ReplicatedCycleSimulator,
    VectorizedCycleSimulator,
    make_simulator,
)
from repro.topology import TopologySpec, build_overlay

DICT_NEWSCAST = TopologySpec("newscast", degree=8)
RANDOM = TopologySpec("random", degree=6)


def test_vectorized_engine_drives_dict_newscast_bit_identically():
    size, cycles, seed = 300, 8, 11

    def run(engine):
        rng = RandomSource(seed)
        overlay = build_overlay(DICT_NEWSCAST, size, rng.child("t"))
        assert isinstance(overlay, NewscastOverlay)
        simulator = make_simulator(
            overlay,
            AverageFunction(),
            [float(node) for node in range(size)],
            rng.child("s"),
            engine=engine,
        )
        simulator.run(cycles)
        return simulator

    reference = run("reference")
    vectorized = run("vectorized")
    assert isinstance(vectorized, VectorizedCycleSimulator)
    assert vectorized.trace.final.variance < vectorized.trace.records[0].variance
    assert vectorized.states() == reference.states()


def test_retired_single_replica_engine_is_freed_by_refcounting():
    rng = RandomSource(5)
    overlay = build_overlay(RANDOM, 80, rng.child("t"))
    gc.disable()
    try:
        simulator = make_simulator(
            overlay,
            AverageFunction(),
            [1.0] * 80,
            rng.child("s"),
            failure_model=ProportionalCrashModel(0.05),
        )
        simulator.run(3)
        engine = weakref.ref(simulator._engine)
        del simulator
        assert engine() is None
    finally:
        gc.enable()


def test_retired_replicated_engine_is_freed_by_refcounting():
    root = RandomSource(6)
    configs = [
        ReplicaConfig(
            build_overlay(RANDOM, 40, root.child("t", replica)),
            [1.0] * 40,
            root.child("s", replica),
            ProportionalCrashModel(0.05),
        )
        for replica in range(3)
    ]
    gc.disable()
    try:
        simulator = ReplicatedCycleSimulator(configs, AverageFunction())
        views = simulator.views()
        simulator.run(3)
        engine = weakref.ref(simulator)
        del simulator, views
        assert engine() is None
    finally:
        gc.enable()


def test_make_simulator_logs_engine_and_fallback_reason(caplog):
    rng = RandomSource(7)
    random_overlay = build_overlay(RANDOM, 30, rng.child("t"))
    newscast_overlay = build_overlay(DICT_NEWSCAST, 30, rng.child("n"))
    with caplog.at_level(logging.DEBUG, logger="repro.simulator"):
        fast = make_simulator(random_overlay, AverageFunction(), [1.0] * 30, rng.child("a"))
        assert isinstance(fast, VectorizedCycleSimulator)
        assert "built VectorizedCycleSimulator (engine='auto')" in caplog.text
        assert "falls back" not in caplog.text

        caplog.clear()
        slow = make_simulator(newscast_overlay, AverageFunction(), [1.0] * 30, rng.child("b"))
        assert isinstance(slow, CycleSimulator)
        assert "NewscastOverlay has no batched peer selection" in caplog.text
        assert "built CycleSimulator (engine='auto')" in caplog.text

        caplog.clear()
        make_simulator(random_overlay, CountMapFunction(), [{0: 1.0}] * 30, rng.child("c"))
        assert "CountMapFunction has no array codec" in caplog.text

        caplog.clear()
        make_simulator(
            newscast_overlay, AverageFunction(), [1.0] * 30, rng.child("d"), engine="vectorized"
        )
        assert "falls back" not in caplog.text
        assert "built VectorizedCycleSimulator (engine='vectorized')" in caplog.text
