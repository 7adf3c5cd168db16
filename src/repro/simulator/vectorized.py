"""The fast-path kernels and the single-run view of the array engine.

There is one array-native cycle engine,
:class:`~repro.simulator.replicated.ReplicatedCycleSimulator`, which runs
``R`` repetitions as one stacked state tensor.  This module holds what
that engine is built from and how a single run is seen through it:

* the shared per-cycle kernels — :func:`effective_exchange_filter`
  (which exchanges touch state), :func:`apply_merge_rounds` (the
  push–pull merges as conflict-free gather/merge/scatter passes, built on
  :func:`~repro.simulator.sampling.ordered_conflict_rounds`), and the
  re-exported :func:`~repro.simulator.sampling.draw_cycle_plan` and
  :func:`~repro.simulator.metrics.estimate_statistics`;
* :class:`ReplicaView`, the one definition of the membership and
  inspection API (``participant_ids``, ``crash_node``, ``states``,
  ``estimates`` …) for one replica of the stacked engine; and
* :class:`VectorizedCycleSimulator`, a drop-in for
  :class:`~repro.simulator.cycle_sim.CycleSimulator` restricted to
  aggregation functions that implement the array codec of
  :class:`~repro.core.functions.AggregationFunction` (AVERAGE, MIN/MAX,
  geometric mean, push-sum, and vectors thereof — which covers COUNT via
  the peak distribution, SUM, PRODUCT and VARIANCE).  It is the
  single-replica engine seen through its :class:`ReplicaView`.

Because every engine consumes randomness through the same cycle-plan
discipline and the array merges use bit-identical float64 expressions, a
run from a given root seed produces the *same exchange schedule and the
same node states* as the reference engine — traces agree to within
floating-point summation order.  Use
:func:`~repro.simulator.make_simulator` to pick the fast path
automatically when the function supports it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..core.functions import AggregationFunction
from ..topology.base import OverlayProvider
from .cycle_sim import InitialValues
from .failures import FailureModel
from .metrics import CycleRecord, SimulationTrace, estimate_statistics
from .sampling import draw_cycle_plan, ordered_conflict_rounds
from .transport import (
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    PERFECT_TRANSPORT,
    TransportModel,
)

if TYPE_CHECKING:
    from .replicated import ReplicatedCycleSimulator, _Replica

__all__ = [
    "VectorizedCycleSimulator",
    "ReplicaView",
    "effective_exchange_filter",
    "apply_merge_rounds",
    "draw_cycle_plan",
    "ordered_conflict_rounds",
    "estimate_statistics",
]


def effective_exchange_filter(
    initiators: np.ndarray,
    peers: np.ndarray,
    outcomes: np.ndarray,
    participant_mask: np.ndarray,
    all_present: bool,
    perfect: bool,
):
    """Select the state-touching exchanges of one (possibly stacked) cycle.

    An exchange touches state unless the peer is unusable (no neighbour,
    crashed, or refusing this epoch) or the transport dropped it
    outright.  Indexing the mask with ``-1`` wraps to the last entry; the
    ``peers >= 0`` term discards those lookups.

    Returns ``(eff_initiators, eff_peers, eff_completed, effective_index)``:
    the filtered exchange endpoints, the per-effective-slot completed
    flags (``None`` on perfect transports, where every effective exchange
    completes), and the indices of the effective slots in the input
    arrays (``None`` when nothing was filtered out).  Shared by the
    serial fast path and the replicated engine — one filter definition,
    any block size.
    """
    if all_present and (peers.size == 0 or int(peers.min()) >= 0):
        # Every node participates and every initiator found a peer, so
        # the validity filter would keep everything — skip it.
        valid = None
    else:
        valid = participant_mask[peers] & (peers >= 0)
    if valid is None and perfect:
        return initiators, peers, None, None
    effective = (
        valid
        if perfect
        else (
            (outcomes != OUTCOME_DROPPED)
            if valid is None
            else valid & (outcomes != OUTCOME_DROPPED)
        )
    )
    effective_index = np.flatnonzero(effective)
    eff_initiators = initiators[effective_index]
    eff_peers = peers[effective_index]
    # effective_index is always materialised on the lossy path, so the
    # completed flags stay aligned with the effective exchange list.
    eff_completed = (
        None if perfect else outcomes[effective_index] == OUTCOME_COMPLETED
    )
    return eff_initiators, eff_peers, eff_completed, effective_index


def apply_merge_rounds(
    state_block: np.ndarray,
    function: AggregationFunction,
    eff_initiators: np.ndarray,
    eff_peers: np.ndarray,
    eff_completed: Optional[np.ndarray],
    scratch: np.ndarray,
) -> None:
    """Apply one cycle's effective exchanges to a ``(rows, width)`` block.

    The sequential dependency chain (a node's state may be read by a
    later exchange of the same cycle) is resolved through
    :func:`~repro.simulator.sampling.ordered_conflict_rounds`; each round
    is one gather/merge/scatter pass.  The block may hold a single run or
    ``R`` stacked replicas — node-disjoint rows merge independently, so
    the kernel is oblivious to the replica dimension.
    """
    # Codecs that accept flat state vectors (the width-1 scalar
    # functions) run on the flat column: 1-D gathers and scatters are
    # markedly faster than row-wise fancy indexing.  Width-1 functions
    # without the flag (e.g. a single-component VectorFunction, whose
    # merge slices columns) stay on the 2-D path.
    states = state_block[:, 0] if function.flat_state_codec else state_block
    merge = function.merge_arrays
    rounds = ordered_conflict_rounds(
        eff_initiators, eff_peers, scratch, track_positions=eff_completed is not None
    )
    for batch_initiators, batch_peers, batch_positions in rounds:
        new_initiator, new_responder = merge(
            states[batch_initiators], states[batch_peers]
        )
        if eff_completed is None:
            states[batch_initiators] = new_initiator
        else:
            # Response-lost exchanges update only the responder; the
            # initiator never saw the reply and keeps its old state.
            completed_mask = eff_completed[batch_positions]
            states[batch_initiators[completed_mask]] = new_initiator[completed_mask]
        states[batch_peers] = new_responder


class ReplicaView:
    """One replica of the stacked engine, wearing the serial simulator API.

    Failure models, experiment plumbing and post-processing helpers
    (``trace``, ``estimates()``, ``states()``, membership operations...)
    treat a view exactly like a serial engine for that repetition — which
    is what lets stateful failure models drive each replica through the
    identical public surface, and what lets figure code collect
    per-replica results without knowing about the block.  A view holds
    its engine; the engine keeps only weak references to its views.
    """

    def __init__(self, engine: "ReplicatedCycleSimulator", index: int) -> None:
        self._engine = engine
        self._index = index
        engine._register_view(self)

    # -- identification ------------------------------------------------
    @property
    def replica_index(self) -> int:
        """Position of this replica in the stacked engine."""
        return self._index

    @property
    def overlay(self) -> OverlayProvider:
        """The replica's own overlay."""
        return self._replica.overlay

    @property
    def function(self) -> AggregationFunction:
        """The aggregation function in use."""
        return self._engine._function

    @property
    def trace(self) -> SimulationTrace:
        """The replica's per-cycle measurement trace."""
        return self._replica.trace

    @property
    def cycle_index(self) -> int:
        """Number of cycles executed so far."""
        return self._engine._cycle_index

    # -- internals shared by the accessors -----------------------------
    @property
    def _replica(self) -> "_Replica":
        return self._engine._replicas[self._index]

    @property
    def _base(self) -> int:
        return self._index * self._engine._stride

    def _participants(self) -> np.ndarray:
        return self._engine._participants_local(self._index)

    def _is_participant(self, node_id: int) -> bool:
        engine = self._engine
        return 0 <= node_id < engine._stride and bool(
            engine._participant_mask[self._base + node_id]
        )

    # -- state accessors ------------------------------------------------
    def participant_ids(self) -> List[int]:
        """Identifiers of the nodes participating in the current epoch (sorted)."""
        return [int(node) for node in self._participants()]

    def non_participant_ids(self) -> List[int]:
        """Identifiers of joined nodes waiting for the next epoch."""
        engine = self._engine
        base = self._base
        return [
            int(node)
            for node in np.flatnonzero(
                engine._non_participant_mask[base : base + engine._stride]
            )
        ]

    def crashed_ids(self) -> List[int]:
        """Identifiers of nodes that crashed during this run."""
        return sorted(self._replica.crashed)

    def state_of(self, node_id: int) -> Any:
        """The protocol state currently held by ``node_id``."""
        if not self._is_participant(node_id):
            raise SimulationError(f"node {node_id} is not participating")
        return self._engine._function.decode_state(
            self._engine._states[self._base + node_id]
        )

    def states(self) -> Dict[int, Any]:
        """Mapping from participant id to (decoded) protocol state."""
        decode = self._engine._function.decode_state
        states = self._engine._states
        base = self._base
        return {int(node): decode(states[base + node]) for node in self._participants()}

    def state_array(self) -> np.ndarray:
        """The raw ``(participants, width)`` state block, in id order."""
        return self._engine._states[self._base + self._participants()]

    def estimates(self) -> Dict[int, Optional[float]]:
        """Current aggregate estimate at every participating node."""
        participants = self._participants()
        if participants.size == 0:
            return {}
        values = self._engine._function.estimate_array(
            self._engine._states[self._base + participants]
        )
        return {
            int(node): (None if math.isnan(value) else float(value))
            for node, value in zip(participants, values)
        }

    def finite_estimates(self) -> List[float]:
        """All current estimates that are actual finite numbers."""
        participants = self._participants()
        if participants.size == 0:
            return []
        values = self._engine._function.estimate_array(
            self._engine._states[self._base + participants]
        )
        return values[np.isfinite(values)].tolist()

    @property
    def last_cycle_contact_counts(self) -> Dict[int, int]:
        """Per-node exchange participation counts of the last cycle.

        Materialised lazily from the last cycle's exchange endpoints; the
        reference engine keeps an identical dict-shaped ledger.
        """
        engine = self._engine
        low = engine._last_eff_bounds[self._index]
        high = engine._last_eff_bounds[self._index + 1]
        base = self._base
        touched = np.concatenate(
            [
                engine._last_eff_initiators[low:high] - base,
                engine._last_eff_peers[low:high] - base,
            ]
        )
        counts = np.bincount(touched, minlength=engine._stride)
        return {int(node): int(counts[node]) for node in self._participants()}

    # -- membership operations ------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Remove a node: its state becomes permanently inaccessible."""
        replica = self._replica
        if node_id in replica.crashed:
            return
        engine = self._engine
        if 0 <= node_id < engine._stride:
            row = self._base + node_id
            engine._participant_mask[row] = False
            engine._non_participant_mask[row] = False
            replica.participants_cache = None
        replica.crashed.add(node_id)
        replica.overlay.on_node_removed(node_id)

    def add_node(self, value: Any = 0.0, participating: bool = False) -> int:
        """Add a brand-new node to this replica's overlay and return its id."""
        replica = self._replica
        engine = self._engine
        node_id = replica.next_node_id
        replica.next_node_id += 1
        engine._ensure_stride(node_id)
        replica.overlay.on_node_added(node_id, replica.membership_rng)
        row = self._base + node_id
        if participating:
            engine._states[row] = engine._encode_value(value)
            engine._participant_mask[row] = True
            replica.participants_cache = None
        else:
            engine._non_participant_mask[row] = True
        return node_id

    def promote_non_participants(
        self, values: Optional[Mapping[int, Any]] = None
    ) -> List[int]:
        """Let all waiting nodes join the protocol (an epoch restart)."""
        engine = self._engine
        base = self._base
        promoted = np.flatnonzero(
            engine._non_participant_mask[base : base + engine._stride]
        )
        for node in promoted:
            node_id = int(node)
            value = 0.0 if values is None else values.get(node_id, 0.0)
            engine._states[base + node_id] = engine._encode_value(value)
        engine._participant_mask[base + promoted] = True
        engine._non_participant_mask[base + promoted] = False
        if promoted.size:
            self._replica.participants_cache = None
        return [int(node) for node in promoted]

    def restart_epoch(self, values: Mapping[int, Any]) -> None:
        """Re-initialise every participant's state from fresh local values."""
        self.promote_non_participants()
        engine = self._engine
        participants = self._participants()
        fresh = []
        for node in participants:
            node_id = int(node)
            if node_id not in values:
                raise ConfigurationError(f"missing restart value for node {node_id}")
            fresh.append(values[node_id])
        if participants.size:
            engine._states[self._base + participants] = (
                engine._function.initial_state_array(
                    np.asarray(fresh, dtype=np.float64)
                )
            )

    def override_values(self, node_ids: Sequence[int], values: Any) -> None:
        """Re-assert local values at selected participants, mid-epoch.

        The batched form of
        :meth:`~repro.simulator.cycle_sim.CycleSimulator.override_values`
        (the hook byzantine reporter models use to inject forged values):
        one membership check, one ``initial_state_array`` encode and one
        scatter.  The codec contract (array encoding bit-identical to the
        scalar ``initial_state``) keeps the engines in lockstep.
        """
        engine = self._engine
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size == 0:
            return
        base = self._base
        if (
            int(ids.min()) < 0
            or int(ids.max()) >= engine._stride
            or not bool(np.all(engine._participant_mask[base + ids]))
        ):
            bad = next(
                int(node) for node in ids if not self._is_participant(int(node))
            )
            raise SimulationError(f"node {bad} is not participating")
        encoded = engine._function.initial_state_array(
            np.asarray(values, dtype=np.float64)
        )
        if encoded.shape[0] != ids.size:
            raise ConfigurationError(
                f"override_values got {ids.size} nodes but "
                f"{encoded.shape[0]} value rows"
            )
        engine._states[base + ids] = encoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReplicaView(replica={self._index}, engine={self._engine!r})"


class VectorizedCycleSimulator(ReplicaView):
    """Array-native cycle engine for codec-capable aggregation functions.

    Accepts the same constructor arguments as
    :class:`~repro.simulator.cycle_sim.CycleSimulator` and exposes the same
    public API (trace, membership operations, state accessors), so failure
    models, experiment plumbing and tests can treat the two engines
    interchangeably.  It is a one-replica
    :class:`~repro.simulator.replicated.ReplicatedCycleSimulator` seen
    through its :class:`ReplicaView`.

    Raises
    ------
    ConfigurationError
        If the aggregation function does not implement the array codec.
    """

    def __init__(
        self,
        overlay: OverlayProvider,
        function: AggregationFunction,
        initial_values: InitialValues,
        rng: RandomSource,
        transport: TransportModel = PERFECT_TRANSPORT,
        failure_model: Optional[FailureModel] = None,
        record_every: int = 1,
        reachability=None,
    ) -> None:
        # Deferred import: the stacked engine module imports this one.
        from .replicated import ReplicaConfig, ReplicatedCycleSimulator

        engine = ReplicatedCycleSimulator(
            [ReplicaConfig(overlay, initial_values, rng, failure_model)],
            function,
            transport=transport,
            record_every=record_every,
            reachability=reachability,
        )
        super().__init__(engine, 0)

    def run_cycle(self) -> Optional[CycleRecord]:
        """Execute one full cycle and return its measurement record.

        Returns ``None`` on cycles skipped by ``record_every``.
        """
        self._engine.run_cycle()
        final = self.trace.final
        return final if final.cycle == self._engine.cycle_index else None

    def run(self, cycles: int) -> SimulationTrace:
        """Run ``cycles`` consecutive cycles and return the trace.

        With ``record_every > 1`` the final executed cycle is always
        recorded, so ``trace.final`` reflects the end of the run.
        """
        if cycles < 0:
            raise ConfigurationError("cycles must be non-negative")
        for _ in range(cycles):
            self.run_cycle()
        # A zero-cycle engine run records a final cycle that
        # ``record_every`` skipped.
        self._engine.run(0)
        return self.trace

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorizedCycleSimulator(function={self.function.name}, "
            f"participants={self._participants().size}, "
            f"cycle={self.cycle_index})"
        )
