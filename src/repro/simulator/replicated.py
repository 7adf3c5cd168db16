"""The fast cycle engine: R repetitions as one stacked simulation.

Every figure of the paper is a sweep of repeats × parameter points —
e.g. 50 independent runs per plotted value.  A
:class:`ReplicatedCycleSimulator` holds ``R`` independent repetitions in
one stacked state tensor (block layout ``(R * stride, width)``, replica
``r``'s node ``u`` at row ``r * stride + u``) and executes the heavy
per-cycle passes — conflict scheduling, gather/merge/scatter rounds,
transport filtering, metric extraction — once across the whole block.
It is the only array-native cycle engine: a single run is the ``R = 1``
case, which :class:`~repro.simulator.vectorized.VectorizedCycleSimulator`
wraps in the serial simulator API.  Each replica is seen through a
:class:`~repro.simulator.vectorized.ReplicaView`.

Bit-identity contract
---------------------
Each replica keeps its *own* random streams: replica ``r`` is
constructed from the same ``root.child("run", r)`` stream the serial
``repeat_traces`` helper hands to run ``r``, and every cycle draws that
replica's plan (shuffle, peer choices, transport outcomes) and failure
injections from those streams through the very same code paths
(:func:`~repro.simulator.sampling.draw_cycle_plan`, the public
membership API).  Only the *execution* is fused: the per-replica plans
are stacked with block offsets
(:func:`~repro.simulator.sampling.stack_cycle_plans`), scheduled with
one :func:`~repro.simulator.sampling.ordered_conflict_rounds` pass
(replicas are node-disjoint, so the stacked rounds refine into exactly
the per-replica rounds), and merged with the shared
:func:`~repro.simulator.vectorized.apply_merge_rounds` kernel, whose
arithmetic is elementwise per exchange.  Every replica's trace and
final states are therefore **bit-identical** to what a one-replica
engine produces for the same root seed — asserted run-for-run by the
equivalence suite.

Use :func:`~repro.experiments.runner.repeat_traces` with a
:class:`~repro.experiments.runner.RunPlan` to get this engine
automatically; it falls back to the serial path whenever a
configuration is not fast-path eligible.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..core.functions import AggregationFunction
from ..topology.base import OverlayProvider
from .cycle_sim import CycleSimulator, InitialValues
from .failures import FailureModel, NoFailures
from .metrics import CycleRecord, SimulationTrace, estimate_statistics
from .sampling import draw_cycle_plan, stack_cycle_plans
from .transport import PERFECT_TRANSPORT, TransportModel, apply_reachability
from .vectorized import ReplicaView, apply_merge_rounds, effective_exchange_filter

__all__ = ["ReplicaConfig", "ReplicatedCycleSimulator", "ReplicaView"]


@dataclass
class ReplicaConfig:
    """Everything one repetition needs, mirroring a serial engine build.

    Attributes
    ----------
    overlay:
        The replica's own overlay (a block view or a standalone overlay
        with ``select_peers_batch``).
    initial_values:
        Per-node initial values, sequence or mapping — the same formats
        :class:`~repro.simulator.cycle_sim.CycleSimulator` accepts.
    rng:
        The replica's simulation stream — pass the same
        ``root.child("run", i).child("simulation")`` stream the serial
        path would hand to its engine, and the replica reproduces that
        run bit-for-bit.
    failure_model:
        The replica's own (stateful) failure model instance, or ``None``.
    """

    overlay: OverlayProvider
    initial_values: InitialValues
    rng: RandomSource
    failure_model: Optional[FailureModel] = None


class _Replica:
    """Internal per-replica bookkeeping of the stacked engine."""

    __slots__ = (
        "overlay",
        "selection_rng",
        "transport_rng",
        "failure_rng",
        "overlay_rng",
        "membership_rng",
        "failure_model",
        "next_node_id",
        "crashed",
        "trace",
        "pending_completed",
        "pending_failed",
        "participants_cache",
    )

    def __init__(self, config: ReplicaConfig) -> None:
        self.overlay = config.overlay
        rng = config.rng
        # The exact child-stream fan-out of the serial engines.
        self.selection_rng = rng.child("selection")
        self.transport_rng = rng.child("transport")
        self.failure_rng = rng.child("failures")
        self.overlay_rng = rng.child("overlay")
        self.membership_rng = rng.child("membership")
        self.failure_model = config.failure_model or NoFailures()
        self.next_node_id = 0
        self.crashed: set = set()
        self.trace = SimulationTrace()
        self.pending_completed = 0
        self.pending_failed = 0
        self.participants_cache: Optional[np.ndarray] = None


class ReplicatedCycleSimulator:
    """Run ``R`` independent repetitions as one stacked tensor simulation.

    Parameters
    ----------
    replicas:
        One :class:`ReplicaConfig` per repetition.  Overlays with
        ``select_peers_batch`` draw each cycle's peers in one call;
        others fall back to per-node ``select_peer`` draws from the same
        stream (see :func:`~repro.simulator.sampling.draw_cycle_plan`).
    function:
        The aggregation function shared by all repetitions (aggregation
        functions are stateless; per-replica state lives in the tensor).
    transport:
        Communication failure model (outcomes are still drawn from each
        replica's own transport stream).
    record_every:
        Per-cycle metrics cadence, as in the serial engines.
    reachability:
        Optional pairwise connectivity constraint
        (:class:`~repro.simulator.failures.ReachabilityModel`) shared by
        all replicas.  Each replica's plan is filtered on its *local* node
        ids before stacking, so the blocked slots are identical to what
        the serial engines would block for the same seed.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaConfig],
        function: AggregationFunction,
        transport: TransportModel = PERFECT_TRANSPORT,
        record_every: int = 1,
        reachability=None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("need at least one replica")
        if not function.supports_vectorized():
            raise ConfigurationError(
                f"{type(function).__name__} does not implement the array codec; "
                "use the reference CycleSimulator instead"
            )
        if record_every < 1:
            raise ConfigurationError("record_every must be at least 1")
        self._function = function
        self._transport = transport
        self._reachability = reachability
        self._record_every = int(record_every)
        self._width = function.state_width()
        self._count = len(replicas)
        self._replicas: List[_Replica] = []

        node_sets = []
        stride = 1
        for config in replicas:
            node_ids = config.overlay.node_ids()
            node_sets.append(node_ids)
            if node_ids:
                stride = max(stride, max(node_ids) + 1)
        self._stride = stride
        capacity = self._count * stride
        self._states = np.zeros((capacity, self._width), dtype=np.float64)
        self._participant_mask = np.zeros(capacity, dtype=bool)
        self._non_participant_mask = np.zeros(capacity, dtype=bool)
        self._scratch = np.empty(capacity, dtype=np.int64)

        for index, (config, node_ids) in enumerate(zip(replicas, node_sets)):
            replica = _Replica(config)
            replica.next_node_id = max(node_ids) + 1 if node_ids else 0
            if reachability is not None and hasattr(
                config.overlay, "set_reachability"
            ):
                config.overlay.set_reachability(reachability)
            self._replicas.append(replica)
            if not node_ids:
                continue
            base = index * stride
            count = len(node_ids)
            initial = config.initial_values
            # Overlays report their ids sorted, so first == 0 and
            # last == n - 1 certify the dense 0..n-1 id space — the
            # common case, initialised with one contiguous block write.
            if (
                not isinstance(initial, Mapping)
                and len(initial) == count
                and node_ids[0] == 0
                and node_ids[-1] == count - 1
            ):
                self._states[base : base + count] = function.initial_state_array(
                    np.asarray(initial, dtype=np.float64)
                )
                self._participant_mask[base : base + count] = True
                continue
            values = CycleSimulator._normalise_initial_values(initial, node_ids)
            ordered = np.asarray(sorted(node_ids), dtype=np.int64)
            rows = base + ordered
            ordered_values = [values[int(node)] for node in ordered]
            self._states[rows] = function.initial_state_array(
                np.asarray(ordered_values, dtype=np.float64)
            )
            self._participant_mask[rows] = True

        self._cycle_index = 0
        # Weak references only: a view holds its engine, so strong ones
        # would form a cycle that keeps a retired engine's tensors alive
        # until the cyclic collector runs.
        self._views: List[Optional[weakref.ref]] = [None] * self._count
        self._last_eff_initiators = np.empty(0, dtype=np.int64)
        self._last_eff_peers = np.empty(0, dtype=np.int64)
        self._last_eff_bounds = [0] * (self._count + 1)
        self._flush_records()

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def function(self) -> AggregationFunction:
        """The aggregation function shared by all replicas."""
        return self._function

    @property
    def cycle_index(self) -> int:
        """Number of cycles executed so far (shared by all replicas)."""
        return self._cycle_index

    @property
    def replica_count(self) -> int:
        """Number of stacked repetitions."""
        return self._count

    @property
    def stride(self) -> int:
        """Block rows reserved per replica."""
        return self._stride

    def views(self) -> List[ReplicaView]:
        """Per-replica facades mirroring the serial simulator API."""
        return [self.view(index) for index in range(self._count)]

    def view(self, replica: int) -> ReplicaView:
        """The facade of one replica (the live one, if any, else a new one)."""
        index = range(self._count)[replica]
        ref = self._views[index]
        view = None if ref is None else ref()
        return ReplicaView(self, index) if view is None else view

    def traces(self) -> List[SimulationTrace]:
        """Per-replica traces, in replica order."""
        return [replica.trace for replica in self._replicas]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> List[SimulationTrace]:
        """Run ``cycles`` cycles across every replica; return the traces.

        With ``record_every > 1`` the final executed cycle is always
        recorded, so each trace's ``final`` reflects the end of the run.
        """
        if cycles < 0:
            raise ConfigurationError("cycles must be non-negative")
        for _ in range(cycles):
            self.run_cycle()
        if self._replicas[0].trace.final.cycle != self._cycle_index:
            self._flush_records()
        return self.traces()

    def run_cycle(self) -> None:
        """Execute one full cycle for every replica in stacked form."""
        self._cycle_index += 1
        for index, replica in enumerate(self._replicas):
            replica.failure_model.apply(
                self.view(index), self._cycle_index, replica.failure_rng
            )

        # Per-replica randomness, exactly as the serial engines draw it.
        participants = [self._participants_local(index) for index in range(self._count)]
        plans = [
            draw_cycle_plan(
                replica.overlay,
                local,
                replica.selection_rng,
                self._transport,
                replica.transport_rng,
            )
            for replica, local in zip(self._replicas, participants)
        ]
        # Correlated connectivity blocks apply to each replica's plan in
        # *local* node ids (the model's view), before block offsets shift
        # the rows — same slots the serial engines would drop.
        blocked_any = False
        for plan in plans:
            blocked_any |= apply_reachability(
                self._reachability,
                plan.initiators,
                plan.peers,
                plan.outcomes,
                self._cycle_index,
            )
        stacked = stack_cycle_plans(
            plans, range(0, self._count * self._stride, self._stride)
        )

        participants_total = sum(local.size for local in participants)
        eff_initiators, eff_peers, eff_completed, effective_index = (
            effective_exchange_filter(
                stacked.initiators,
                stacked.peers,
                stacked.outcomes,
                self._participant_mask,
                all_present=participants_total == self._participant_mask.size,
                perfect=self._transport.is_perfect() and not blocked_any,
            )
        )
        apply_merge_rounds(
            self._states,
            self._function,
            eff_initiators,
            eff_peers,
            eff_completed,
            self._scratch,
        )

        # Split the stacked exchange ledger back into per-replica counts:
        # effective slots are ascending, so each replica owns a contiguous
        # range found with one searchsorted over the slot boundaries.
        slot_bounds = stacked.bounds.tolist()
        if effective_index is None:
            eff_bounds = slot_bounds
        else:
            eff_bounds = np.searchsorted(effective_index, stacked.bounds).tolist()
        for index, replica in enumerate(self._replicas):
            low, high = eff_bounds[index], eff_bounds[index + 1]
            if eff_completed is None:
                completed = high - low
            else:
                completed = int(np.count_nonzero(eff_completed[low:high]))
            slots = slot_bounds[index + 1] - slot_bounds[index]
            replica.pending_completed += completed
            replica.pending_failed += slots - completed

        # Overlay maintenance: replicas whose overlays share a stacked
        # maintenance block (array-native NEWSCAST) run their rounds as
        # one fused pass; standalone overlays maintain themselves.  Each
        # replica's randomness still comes from its own stream either way.
        fused: Dict[int, tuple] = {}
        for replica in self._replicas:
            block = getattr(replica.overlay, "maintenance_block", None)
            if block is None:
                replica.overlay.after_cycle(replica.overlay_rng)
            else:
                fused.setdefault(id(block), (block, []))[1].append(
                    (replica.overlay, replica.overlay_rng)
                )
        for block, pairs in fused.values():
            block.after_cycle_stacked(pairs)

        self._last_eff_initiators = eff_initiators
        self._last_eff_peers = eff_peers
        self._last_eff_bounds = eff_bounds

        if self._cycle_index % self._record_every == 0:
            self._flush_records()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _participants_local(self, index: int) -> np.ndarray:
        """Sorted local participant ids of one replica, cached."""
        replica = self._replicas[index]
        if replica.participants_cache is None:
            base = index * self._stride
            replica.participants_cache = np.flatnonzero(
                self._participant_mask[base : base + self._stride]
            )
        return replica.participants_cache

    def _register_view(self, view: ReplicaView) -> None:
        """Make ``view`` the facade handed to its replica's failure model."""
        self._views[view.replica_index] = weakref.ref(view)

    def _flush_records(self) -> None:
        stride = self._stride
        for index, replica in enumerate(self._replicas):
            participants = self._participants_local(index)
            if participants.size:
                base = index * stride
                # A fully populated replica is one contiguous row slice:
                # read it in place instead of gathering every row.
                block = (
                    self._states[base : base + stride]
                    if participants.size == stride
                    else self._states[base + participants]
                )
                estimates = self._function.estimate_array(block)
            else:
                estimates = np.empty(0, dtype=np.float64)
            mean, variance, minimum, maximum = estimate_statistics(estimates)
            replica.trace.add(
                CycleRecord(
                    cycle=self._cycle_index,
                    participant_count=int(participants.size),
                    mean=mean,
                    variance=variance,
                    minimum=minimum,
                    maximum=maximum,
                    completed_exchanges=replica.pending_completed,
                    failed_exchanges=replica.pending_failed,
                )
            )
            replica.pending_completed = 0
            replica.pending_failed = 0

    def _encode_value(self, value: Any) -> np.ndarray:
        return self._function.initial_state_array(
            np.asarray([value], dtype=np.float64)
        )[0]

    def _ensure_stride(self, local_id: int) -> None:
        """Grow the per-replica row capacity to fit ``local_id``."""
        if local_id < self._stride:
            return
        new_stride = max(self._stride * 2, local_id + 1)
        capacity = self._count * new_stride
        # The last cycle's exchange ledger holds block rows under the old
        # stride; remap them so last_cycle_contact_counts stays valid
        # after growth (the serial engine's ledger survives its capacity
        # growth the same way — ids there never move).
        for name in ("_last_eff_initiators", "_last_eff_peers"):
            rows = getattr(self, name)
            if rows.size:
                setattr(
                    self,
                    name,
                    (rows // self._stride) * new_stride + rows % self._stride,
                )
        states = np.zeros((capacity, self._width), dtype=np.float64)
        participant = np.zeros(capacity, dtype=bool)
        non_participant = np.zeros(capacity, dtype=bool)
        for index in range(self._count):
            old = index * self._stride
            new = index * new_stride
            states[new : new + self._stride] = self._states[old : old + self._stride]
            participant[new : new + self._stride] = self._participant_mask[
                old : old + self._stride
            ]
            non_participant[new : new + self._stride] = self._non_participant_mask[
                old : old + self._stride
            ]
        self._states = states
        self._participant_mask = participant
        self._non_participant_mask = non_participant
        self._scratch = np.empty(capacity, dtype=np.int64)
        self._stride = new_stride
        for replica in self._replicas:
            replica.participants_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedCycleSimulator(replicas={self._count}, "
            f"stride={self._stride}, function={self._function.name}, "
            f"cycle={self._cycle_index})"
        )
