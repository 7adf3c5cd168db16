"""The four whole-run workloads of the benchmark.

Every workload is timed from overlay construction to the final estimate
and split at the first cycle: ``setup`` builds the overlay and the
engine, ``run`` executes the protocol.  Each workload drives the
package through its public ``repro`` API in the same order, and from
the same named random streams, as the matching helper in
:mod:`repro.experiments.runner` does (``run_average_once``,
``run_epoched_count``, ``repeat_traces(plan=...)``, ``run_async_count``);
the smoke test checks that the results agree bit for bit, so the split
timing measures exactly what a caller of those helpers pays.

Everything a workload does follows from its parameters and the seed, so
a seed always produces the same inputs and the same work.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro import (
    AverageFunction,
    ChurnModel,
    EpochConfig,
    EpochDriver,
    LeaderElection,
    ProportionalCrashModel,
    RandomSource,
    TopologySpec,
    build_overlay,
    make_simulator,
)
from repro.experiments.runner import RunPlan, uniform_initial_values
from repro.simulator import (
    ReplicaConfig,
    ReplicatedCycleSimulator,
    build_async_count,
)
from repro.simulator.asynchrony import HOSTILE

#: AVERAGE must end with every estimate within this share of the initial mean.
AVERAGE_TOLERANCE = 0.01
#: COUNT's final-epoch estimate must be within this share of the live size.
COUNT_TOLERANCE = 0.05
#: Under the HOSTILE scenario, the bound on the mean, over the complete
#: epochs, of COUNT's distance from the live size.  HOSTILE's WAN
#: timeouts cut about a fifth of all exchanges off after the responder
#: has merged, which leaks COUNT mass and spreads the estimates (Section
#: 4.2 of the paper).  Over 200 seeds at N=4000 one epoch erred by up to 39%,
#: the mean over the three epochs by up to 22%; with the timeout lifted
#: every epoch stayed within 7%, and lifting loss or churn instead left
#: the spread as it was.
HOSTILE_COUNT_TOLERANCE = 0.3


@dataclass
class WholeRun:
    """Timings and checked outputs of one workload run."""

    setup_s: float
    run_s: float
    #: Final estimates whose bits identify the run's result.
    estimates: np.ndarray
    #: Push–pull exchanges completed and attempted, summed over replicas.
    completed: int
    attempted: int
    #: AVERAGE: distance of the final mean from the initial mean;
    #: COUNT: distance of the final-epoch estimate from the live size
    #: (async-hostile: the mean distance over the complete epochs).
    rel_error: float
    #: Geometric-mean per-cycle variance ratio (AVERAGE only, else NaN).
    convergence_factor: float
    #: Empty when the output passed the correctness check.
    problems: List[str] = field(default_factory=list)
    #: Duration of each step of the run (a cycle, epoch or window).
    step_s: List[float] = field(default_factory=list)

    @property
    def time_to_estimate_s(self) -> float:
        return self.setup_s + self.run_s


def _convergence_factor(trace, cycles: int) -> float:
    first, last = trace.records[0].variance, trace.records[-1].variance
    if first <= 0.0 or last <= 0.0:
        return math.nan
    return (last / first) ** (1.0 / cycles)


def _exchange_counts(traces) -> tuple:
    completed = sum(r.completed_exchanges for t in traces for r in t.records)
    failed = sum(r.failed_exchanges for t in traces for r in t.records)
    return int(completed), int(completed + failed)


def _check_average(estimates: np.ndarray, expected: int, mean0: float) -> List[str]:
    problems = []
    if estimates.size != expected:
        problems.append(f"{expected - estimates.size} participants lack a finite estimate")
    if estimates.size:
        worst = float(np.max(np.abs(estimates - mean0))) / abs(mean0)
        if worst > AVERAGE_TOLERANCE:
            problems.append(f"AVERAGE state {worst:.3%} from the initial mean")
    return problems


def _check_count(estimate: float, live: int) -> tuple:
    error = abs(estimate - live) / live if math.isfinite(estimate) else math.inf
    problems = []
    if not error <= COUNT_TOLERANCE:
        problems.append(f"COUNT estimate {estimate:.1f} is {error:.2%} from live size {live}")
    return error, problems


class Workload:
    """One benchmark workload: a parameter set plus setup/run/check steps."""

    name: str = ""
    #: Module whose work dominates the workload's run; the workload's
    #: ``why`` in ``BENCHMARK.json`` names it.
    main_layer: str = ""

    def __init__(self, **params) -> None:
        self.params: Dict[str, object] = params

    def setup(self, seed: int):
        """Build overlay and engine (timed as ``setup_s``)."""
        raise NotImplementedError

    def run(self, ready) -> Iterator[None]:
        """Run the protocol to its final estimate, yielding after each step.

        A step is one call into the engine (a cycle, an epoch or a
        window); running the steps one call at a time is equivalent to
        one call for all of them, as the smoke test checks.
        """
        raise NotImplementedError

    def evaluate(self, ready, setup_s: float, run_s: float) -> WholeRun:
        raise NotImplementedError

    def whole_run(self, seed: int, span=None, between_steps=None) -> WholeRun:
        """Set up, run and check once; ``span(name)`` marks the two phases.

        ``between_steps()``, when given, is called after every step and
        is not part of the step's time.
        """
        phase = span or (lambda name: contextlib.nullcontext())
        start = time.perf_counter()
        with phase("bench.setup"):
            ready = self.setup(seed)
        mark = time.perf_counter()
        setup_s = mark - start
        step_s = []
        with phase("bench.run"):
            for _ in self.run(ready):
                step_s.append(time.perf_counter() - mark)
                if between_steps is not None:
                    between_steps()
                mark = time.perf_counter()
        run = self.evaluate(ready, setup_s, sum(step_s))
        run.step_s = step_s
        return run


class StaticCrash(Workload):
    name = "static-crash"
    main_layer = "topology"

    def setup(self, seed: int):
        size = self.params["size"]
        rng = RandomSource(seed)
        values = uniform_initial_values(size, rng.child("values"))
        overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("topology"))
        simulator = make_simulator(
            overlay=overlay,
            function=AverageFunction(),
            initial_values=values,
            rng=rng.child("simulation"),
            failure_model=ProportionalCrashModel(self.params["crash"]),
            engine="vectorized",
        )
        return simulator, float(np.mean(values))

    def run(self, ready):
        simulator, _ = ready
        for _ in range(self.params["cycles"]):
            simulator.run(1)
            yield

    def evaluate(self, ready, setup_s, run_s) -> WholeRun:
        simulator, mean0 = ready
        estimates = np.asarray(simulator.finite_estimates(), dtype=np.float64)
        completed, attempted = _exchange_counts([simulator.trace])
        return WholeRun(
            setup_s=setup_s,
            run_s=run_s,
            estimates=estimates,
            completed=completed,
            attempted=attempted,
            rel_error=abs(float(np.mean(estimates)) - mean0) / abs(mean0),
            convergence_factor=_convergence_factor(simulator.trace, self.params["cycles"]),
            problems=_check_average(estimates, len(simulator.participant_ids()), mean0),
        )


def _newscast_spec() -> TopologySpec:
    return TopologySpec("newscast", degree=30, params={"vectorized": True})


class NewscastCount(Workload):
    name = "newscast-count"
    main_layer = "newscast"

    def setup(self, seed: int):
        size = self.params["size"]
        rng = RandomSource(seed)
        overlay = build_overlay(_newscast_spec(), size, rng.child("topology"))
        election = LeaderElection(concurrent_target=20.0, estimated_size=float(size))
        return EpochDriver(
            overlay=overlay,
            election=election,
            epoch_config=EpochConfig(cycles_per_epoch=self.params["gamma"]),
            rng=rng.child("epochs"),
            failure_factory=ChurnModel(size // 1000),
            engine="vectorized",
            keep_cycle_traces=True,
        )

    def run(self, epochs):
        for _ in range(self.params["epochs"]):
            epochs.run(1)
            yield

    def evaluate(self, epochs, setup_s, run_s) -> WholeRun:
        result = epochs.result
        live = epochs.overlay.size()
        error, problems = _check_count(result.final_estimate, live)
        completed, attempted = _exchange_counts([r.trace for r in result.records])
        return WholeRun(
            setup_s=setup_s,
            run_s=run_s,
            estimates=np.asarray(result.estimates(), dtype=np.float64),
            completed=completed,
            attempted=attempted,
            rel_error=error,
            convergence_factor=math.nan,
            problems=problems,
        )


class ReplicatedChurn(Workload):
    name = "replicated-churn"
    main_layer = "topology"

    def plan(self) -> RunPlan:
        size = self.params["size"]
        return RunPlan(
            topology=TopologySpec("random", degree=20),
            size=size,
            cycles=self.params["cycles"],
            values=uniform_initial_values,
            failure_factory=lambda: ChurnModel(size // 100),
        )

    def setup(self, seed: int):
        # The same steps, in the same order and from the same streams, as
        # repeat_traces(repeats, seed, plan=plan) on its replicated path.
        plan = self.plan()
        root = RandomSource(seed)
        run_rngs = [root.child("run", index) for index in range(self.params["replicas"])]
        overlays = plan.build_replica_overlays([rng.child("topology") for rng in run_rngs])
        configs = [
            ReplicaConfig(
                overlay=overlay,
                initial_values=plan.resolve_values(rng),
                rng=rng.child("simulation"),
                failure_model=plan.failure_factory(),
            )
            for overlay, rng in zip(overlays, run_rngs)
        ]
        means = [float(np.mean(config.initial_values)) for config in configs]
        engine = ReplicatedCycleSimulator(
            configs,
            plan.function_factory(),
            transport=plan.transport,
            record_every=plan.record_every,
            reachability=plan.reachability,
        )
        return engine, means

    def run(self, ready):
        engine, _ = ready
        for _ in range(self.params["cycles"]):
            engine.run(1)
            yield

    def evaluate(self, ready, setup_s, run_s) -> WholeRun:
        engine, means = ready
        traces = engine.traces()
        problems: List[str] = []
        errors, factors, estimates = [], [], []
        for view, mean0 in zip(engine.views(), means):
            replica = np.asarray(view.finite_estimates(), dtype=np.float64)
            problems += [
                f"replica {view.replica_index}: {problem}"
                for problem in _check_average(replica, len(view.participant_ids()), mean0)
            ]
            errors.append(abs(float(np.mean(replica)) - mean0) / abs(mean0))
            factors.append(_convergence_factor(view.trace, self.params["cycles"]))
            estimates.append(replica)
        completed, attempted = _exchange_counts(traces)
        return WholeRun(
            setup_s=setup_s,
            run_s=run_s,
            estimates=np.concatenate(estimates),
            completed=completed,
            attempted=attempted,
            rel_error=float(np.median(errors)),
            convergence_factor=float(np.exp(np.mean(np.log(factors)))),
            problems=problems,
        )


class AsyncHostile(Workload):
    name = "async-hostile"
    main_layer = "newscast"

    def windows(self, config: EpochConfig) -> int:
        # run_async_count's schedule: the nominal epochs plus a cushion
        # that lets slow clocks cross the final epoch boundary.
        per_epoch = int(math.ceil(config.effective_epoch_length / config.cycle_length))
        nominal = self.params["epochs"] * per_epoch
        return nominal + 3 + int(math.ceil(nominal * HOSTILE.clock_drift))

    def setup(self, seed: int):
        rng = RandomSource(seed)
        overlay = build_overlay(_newscast_spec(), self.params["size"], rng.child("topology"))
        config = EpochConfig()
        simulator, protocol = build_async_count(
            overlay, rng.child("simulation"), HOSTILE, epoch_config=config
        )
        return simulator, protocol, self.windows(config)

    def run(self, ready):
        simulator, _, windows = ready
        for _ in range(windows):
            simulator.run(1)
            yield

    def evaluate(self, ready, setup_s, run_s) -> WholeRun:
        simulator, protocol, _ = ready
        # The nominal epochs are complete; a later epoch may have started
        # inside the cushion and still be reporting.
        live = int(simulator.alive_ids().size)
        errors = [
            abs(protocol.records[epoch].mean_estimate - live) / live
            for epoch in range(self.params["epochs"])
        ]
        error = float(np.mean(errors))
        problems = []
        if not error <= HOSTILE_COUNT_TOLERANCE:
            problems.append(
                f"COUNT estimates are {error:.2%} from live size {live} on average "
                f"over the complete epochs (each: {', '.join(f'{e:.2%}' for e in errors)})"
            )
        stats = simulator.statistics
        return WholeRun(
            setup_s=setup_s,
            run_s=run_s,
            estimates=np.asarray(list(protocol.size_estimates().values()), dtype=np.float64),
            completed=int(stats["completed"]),
            attempted=int(stats["ticks"]),
            rel_error=error,
            convergence_factor=math.nan,
            problems=problems,
        )


#: Benchmark-scale parameters per workload; ``tiny`` is the smoke scale.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "bench": {
        "static-crash": dict(size=8_000, cycles=30, crash=0.01),
        "newscast-count": dict(size=5_000, gamma=30, epochs=3),
        "replicated-churn": dict(size=4_000, replicas=4, cycles=30),
        "async-hostile": dict(size=4_000, epochs=3),
    },
    "tiny": {
        "static-crash": dict(size=400, cycles=30, crash=0.01),
        "newscast-count": dict(size=1_000, gamma=30, epochs=3),
        "replicated-churn": dict(size=300, replicas=3, cycles=30),
        "async-hostile": dict(size=1_000, epochs=3),
    },
}

WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (StaticCrash, NewscastCount, ReplicatedChurn, AsyncHostile)
}


def make_workload(name: str, scale: str = "bench") -> Workload:
    return WORKLOADS[name](**SCALES[scale][name])
