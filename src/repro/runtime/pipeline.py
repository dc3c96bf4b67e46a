"""The repartition pipeline shared by every runtime loop.

Both :class:`~repro.runtime.engine.SamrRuntime` (trace replay) and
:class:`~repro.runtime.distributed.DistributedAmrRun` (real kernel) drive
the same sense -> capacity -> partition -> migrate -> exchange-plan cycle
from the paper's runtime architecture (section 5, fig. 5); they used to
carry private near-duplicate implementations of it, down to the telemetry
spans.  :class:`RepartitionPipeline` is that cycle as one object with one
composable method per stage, plus the loop control both runtimes share:

``sense()``
    Probe the resource monitor, charge the probe overhead to the cluster
    clock, optionally swap in the forecaster's view, and compute fresh
    relative capacities under a ``capacity`` span nested in a ``sense``
    span.
``repartition()``
    Partition a box list against capacities using the pipeline's
    :class:`~repro.partition.workmodel.WorkModel` (one cached work vector
    prices the boxes, the loads and the level loads -- no per-box Python
    calls), then price and apply the data migration under a ``migrate``
    span, tracking the previous assignment for the cell-owner diff.
``exchange_plan()``
    Ghost-exchange volume planning for the current decomposition.
``health_attrs()`` / ``emit_iteration_spans()``
    The per-iteration observability stamping shared by both loops: the
    health attributes the :class:`~repro.telemetry.analysis.HealthMonitor`
    and the HTML dashboard consume, and the per-rank
    compute/ghost-exchange/sync simulated-time tracks.
``run_frame()`` / ``recovery_due()`` / ``sense_due()`` / ``end_step()``
    Loop control: the traced ``run`` frame, the trusted rank set the
    current partition was computed over, the sensing cadence (fixed or
    learned) with the learner's transient-forecast swap, and the step
    epilogue (clock, iteration spans, step histogram, learner).

Runtime-specific details stay with the runtimes and enter as small
arguments or callbacks: extra span attributes (``iteration`` /
``trigger``), per-node gauge emission, the HDDA assignment application
(engine) and the hierarchy repatch between partition and migration
(distributed).  What a step is, where regrids come from and how a
mid-step fault is handled also stay there.  The stage structure, span
nesting, attribute ordering and metric creation order are exactly those
of the loops this replaces -- exported traces are byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.amr.ghost import plan_exchange_volumes
from repro.cluster.cluster import Cluster
from repro.learn.policy import NULL_LEARNER
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.capacity import CapacityCalculator
from repro.partition.metrics import (
    imbalance_pct,
    redistribution_volume_columns,
)
from repro.partition.workmodel import WorkFunction, WorkModel, as_work_model
from repro.runtime.timemodel import IterationCost, TimeModel
from repro.telemetry.spans import get_active_tracer
from repro.util.errors import ResilienceError
from repro.util.geometry import Box, BoxList

__all__ = ["SenseOutcome", "RepartitionOutcome", "RepartitionPipeline"]


@dataclass(slots=True)
class SenseOutcome:
    """What one sensing stage produced."""

    snapshot: object
    capacities: np.ndarray
    overhead_seconds: float


@dataclass(slots=True)
class RepartitionOutcome:
    """What one partition + migrate stage produced.

    ``loads``/``targets``/``imbalance`` are all derived from the single
    cached work vector of ``part`` -- callers must not recompute them
    with per-box loops.  ``owners`` materializes box objects lazily: a
    repartition whose caller only reads the columnar views never builds
    the per-box dict.
    """

    part: PartitionResult
    loads: np.ndarray  # realized W_k
    targets: np.ndarray  # ideal L_k = C_k * L
    imbalance: np.ndarray  # I_k (%)
    migration_bytes: int
    migration_seconds: float
    #: ghost-exchange plan of ``part``, memoized by
    #: :meth:`RepartitionPipeline.exchange_plan`
    plan: dict[tuple[int, int], float] | None = None

    @property
    def owners(self) -> dict[Box, int]:
        """Box -> rank mapping, built on first access."""
        return self.part.owners()

    def level_loads(self, num_ranks: int) -> tuple[list[int], np.ndarray]:
        """(levels, per-level load matrix) for per-level sync pricing.

        One ``np.add.at`` scatter of the cached work vector replaces the
        per-box Python loop; unbuffered in-order accumulation keeps the
        float result identical to the loop it replaced.  Box levels come
        straight off the result's level column.
        """
        if not self.part.num_assigned():
            return [], np.zeros((1, num_ranks))
        box_levels = self.part.boxes().array.level
        levels, index = np.unique(box_levels, return_inverse=True)
        matrix = np.zeros((len(levels), num_ranks))
        np.add.at(
            matrix,
            (index, self.part.rank_vector()),
            self.part.work_vector(),
        )
        return [int(lvl) for lvl in levels], matrix


class RepartitionPipeline:
    """Composable sense/partition/migrate/plan stages over one cluster.

    Parameters
    ----------
    cluster, partitioner, monitor, capacity, time_model:
        The collaborators of one run; ``None`` gives the defaults
        (a :class:`ResourceMonitor` and a :class:`TimeModel` over
        ``cluster``, a :class:`CapacityCalculator` with equal weights).
    tracer:
        Telemetry sink (``None`` -> the ambient tracer, the shared no-op
        unless :func:`repro.telemetry.activate` installed one).  An
        enabled tracer is propagated to the partitioner and the monitor,
        so their spans land in the same trace.
    work_model:
        The :class:`WorkModel` pricing boxes throughout the pipeline
        (``None`` -> default Berger-Oliger model with ``refine_factor``;
        a legacy callable is adapted).
    bytes_per_cell, ghost_width, refine_factor:
        Payload and stencil parameters for migration pricing and
        ghost-exchange planning.
    learner:
        The :class:`~repro.learn.policy.LearnController` observing every
        stage, behind the same inert-default pattern as the tracer
        (``NULL_LEARNER`` has ``enabled = False``, every hook guards on
        it, the unlearned path is byte-identical).
    """

    def __init__(
        self,
        *,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor | None = None,
        capacity: CapacityCalculator | None = None,
        time_model: TimeModel | None = None,
        tracer=None,
        work_model: WorkModel | WorkFunction | None = None,
        bytes_per_cell: float = 40.0,
        ghost_width: int = 1,
        refine_factor: int = 2,
        learner=None,
    ):
        self.cluster = cluster
        self.partitioner = partitioner
        self.monitor = monitor or ResourceMonitor(cluster)
        self.capacity = capacity or CapacityCalculator()
        self.time_model = time_model or TimeModel(cluster)
        tracer = tracer if tracer is not None else get_active_tracer()
        self.tracer = tracer
        if tracer.enabled:
            partitioner.set_tracer(tracer)
            self.monitor.tracer = tracer
        self.learner = learner if learner is not None else NULL_LEARNER
        if self.learner.enabled:
            self.learner.bind(tracer, cluster.num_nodes)
        self.work_model = as_work_model(work_model, refine_factor)
        self.bytes_per_cell = float(bytes_per_cell)
        self.ghost_width = int(ghost_width)
        self.refine_factor = int(refine_factor)
        # Promote the communicator's traffic into telemetry (counters,
        # collective histograms, per-exchange comm.exchange events) so
        # the communication profiler sees the same costs the time model
        # charges.  A disabled tracer keeps the communicator silent.
        if tracer.enabled:
            self.time_model.comm.bind_tracer(tracer)
        # Assignment of the previous epoch (diffed for migration volume),
        # held as columns; the pair list view materializes only if an
        # external reader asks for :attr:`prev_assignment`.
        self._prev_boxes: BoxList | None = None
        self._prev_ranks: np.ndarray | None = None
        self._prev_pairs: list[tuple[Box, int]] | None = []
        #: outcome of the most recent :meth:`repartition`
        self.last: RepartitionOutcome | None = None
        # Trusted mask the current partition was computed over.
        self._partitioned_over: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Previous-epoch assignment (columns first, pairs on demand)
    # ------------------------------------------------------------------
    @property
    def prev_assignment(self) -> list[tuple[Box, int]]:
        """Previous epoch's ``(box, rank)`` pairs (lazy object view)."""
        pairs = self._prev_pairs
        if pairs is None:
            pairs = list(zip(self._prev_boxes, self._prev_ranks.tolist()))
            self._prev_pairs = pairs
        return pairs

    @prev_assignment.setter
    def prev_assignment(self, pairs: list[tuple[Box, int]]) -> None:
        # Checkpoint restore hands back a pair list; lower it to columns.
        pairs = list(pairs)
        self._prev_pairs = pairs
        if pairs:
            self._prev_boxes = BoxList(b for b, _ in pairs)
            self._prev_ranks = np.fromiter(
                (r for _, r in pairs), dtype=np.intp, count=len(pairs)
            )
        else:
            self._prev_boxes = None
            self._prev_ranks = None

    def _set_prev_columns(self, boxes: BoxList, ranks: np.ndarray) -> None:
        self._prev_boxes = boxes
        self._prev_ranks = ranks
        self._prev_pairs = None

    # ------------------------------------------------------------------
    # Loop control: the run frame
    # ------------------------------------------------------------------
    @contextmanager
    def run_frame(self, label: str, **span_attrs) -> Iterator[None]:
        """One run: the tracer's run group, the ``run`` span, the total.

        ``label`` names the run group (``label[partitioner]``);
        ``span_attrs`` land on the ``run`` span after the partitioner and
        the node count.  The simulated total is counted only when the
        body completes.
        """
        tracer = self.tracer
        name = self.partitioner.name
        if tracer.enabled:
            tracer.begin_run(
                f"{label}[{name}]", sim_clock=lambda: self.cluster.clock.now
            )
            self.cluster.attach_tracer(tracer)
        with tracer.span(
            "run",
            partitioner=name,
            num_nodes=self.cluster.num_nodes,
            **span_attrs,
        ):
            yield
        if tracer.enabled:
            tracer.metrics.counter("total_sim_seconds").inc(
                self.cluster.clock.now
            )

    # ------------------------------------------------------------------
    # Stage: sense + capacity
    # ------------------------------------------------------------------
    def sense_due(
        self, step: int, last_sense_step: int, interval: int
    ) -> bool:
        """Whether this step probes the cluster.

        The learner's adaptive cadence, when active, replaces the fixed
        ``interval`` (0 = never on a cadence).
        """
        learner = self.learner
        if learner.enabled and learner.config.adaptive_sensing:
            return learner.sense_due(step, last_sense_step)
        return bool(interval) and step > 0 and step % interval == 0

    def effective_capacities(self, capacities: np.ndarray) -> np.ndarray:
        """The learner's transient forecast in place of fresh capacities,
        when that behavior is active."""
        learner = self.learner
        if learner.enabled and learner.config.transient_forecast:
            return learner.effective_capacities(
                capacities, self.cluster.clock.now
            )
        return capacities

    def sense(
        self,
        *,
        span_attrs: dict | None = None,
        use_forecast: bool = False,
        node_gauges: bool = False,
    ) -> SenseOutcome:
        """Probe the cluster, charge overhead, compute fresh capacities.

        ``span_attrs`` land on the ``sense`` span (the engine stamps the
        iteration number); ``node_gauges`` additionally publishes the
        per-node availability/capacity gauges the dashboard plots.
        """
        tracer = self.tracer
        with tracer.span("sense", **(span_attrs or {})) as sense_span:
            snapshot = self.monitor.probe_all()
            overhead = snapshot.overhead_seconds
            self.cluster.clock.advance(overhead)
            if use_forecast:
                snapshot = self.monitor.forecast_all()
            # Dead/evicted nodes get exactly zero capacity; with everyone
            # trusted this is the original fixed-rank-set computation.
            live = self.monitor.trusted_mask()
            with tracer.span("capacity"):
                caps = self.capacity.relative_capacities(
                    snapshot, None if bool(live.all()) else live
                )
            sense_span.set(overhead_seconds=overhead, capacities=caps)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("num_sensings").inc()
            metrics.counter("probe_cost_seconds").inc(overhead)
            if node_gauges:
                for node in range(snapshot.num_nodes):
                    metrics.gauge("node_cpu_available", node=node).set(
                        snapshot.cpu[node]
                    )
                    metrics.gauge("node_capacity", node=node).set(caps[node])
        if self.learner.enabled:
            self.learner.observe_sense(
                self.cluster.clock.now, caps, overhead
            )
        return SenseOutcome(snapshot, caps, overhead)

    # ------------------------------------------------------------------
    # Stage: partition + migrate
    # ------------------------------------------------------------------
    def repartition(
        self,
        boxes: BoxList,
        capacities: np.ndarray,
        *,
        migrate_attrs: dict | None = None,
        before_migrate: Callable[[PartitionResult], None] | None = None,
        on_apply: Callable[[dict[Box, int]], None] | None = None,
        stats: bool = False,
    ) -> RepartitionOutcome:
        """Partition ``boxes``, price and apply the migration.

        ``before_migrate`` runs between partitioning and the migrate span
        (the distributed runtime repatches the hierarchy there);
        ``on_apply`` runs inside the span once the cell-owner diff is
        taken (the engine applies the assignment to the HDDA there).
        ``stats=True`` adds the residual-imbalance histogram and per-node
        utilization gauges.
        """
        tracer = self.tracer
        part = self.partitioner.partition(boxes, capacities, self.work_model)
        if before_migrate is not None:
            before_migrate(part)
        with tracer.span("migrate", **(migrate_attrs or {})) as mig_span:
            # Geometric cell-owner diff against the previous assignment: the
            # true redistribution traffic, robust to boxes being re-split.
            # Runs on the column views of both epochs -- no pair lists.
            moved = redistribution_volume_columns(
                self._prev_boxes,
                self._prev_ranks,
                part.boxes(),
                part.rank_vector(),
                self.bytes_per_cell,
            )
            if on_apply is not None:
                on_apply(part.owners())
            self._set_prev_columns(part.boxes(), part.rank_vector())
            mig_seconds = self.time_model.migration_cost(moved)
            self.cluster.clock.advance(mig_seconds)
            mig_bytes = int(sum(moved.values()))
            mig_span.set(bytes=mig_bytes, sim_seconds=mig_seconds)

        # One cached work vector yields loads, targets and imbalance.
        loads = part.loads()
        targets = capacities * loads.sum()
        imbalance = imbalance_pct(loads, targets)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("num_repartitions").inc()
            metrics.counter("migration_bytes").inc(mig_bytes)
            metrics.counter("migration_seconds").inc(mig_seconds)
            if stats:
                metrics.histogram("residual_imbalance_pct").observe(
                    float(imbalance.mean())
                )
                for node in range(self.cluster.num_nodes):
                    utilization = (
                        loads[node] / targets[node]
                        if targets[node] > 0
                        else 0.0
                    )
                    metrics.gauge("node_utilization", node=node).set(
                        utilization
                    )
        if self.learner.enabled:
            self.learner.observe_repartition(
                self.cluster.clock.now, mig_seconds, mig_bytes
            )
        outcome = RepartitionOutcome(
            part=part,
            loads=loads,
            targets=targets,
            imbalance=imbalance,
            migration_bytes=mig_bytes,
            migration_seconds=mig_seconds,
        )
        self.last = outcome
        self._partitioned_over = self.monitor.trusted_mask()
        return outcome

    # ------------------------------------------------------------------
    # Stage: recovery (failure-aware repartitioning)
    # ------------------------------------------------------------------
    def dead_owner_ranks(self) -> tuple[int, ...]:
        """Down ranks (cluster ground truth) that still own boxes.

        In a real deployment this is the MPI layer reporting broken pipes
        on the ranks' connections; in the simulation we consult the
        cluster directly.  Sensor-only loss (blackouts) is *not* included
        -- that is the escalation policy's call.
        """
        down = set(self.cluster.down_nodes)
        ranks = self._prev_ranks  # None while nothing is assigned
        if not down or ranks is None:
            return ()
        return tuple(sorted(down & set(np.unique(ranks).tolist())))

    def needs_recovery(self) -> bool:
        """Whether any current box owner is a dead rank."""
        return bool(self.dead_owner_ranks())

    def degraded(self) -> bool:
        """Whether part of the cluster is outside the trusted set.

        A resilient runtime then partitions through :meth:`recover`.  A
        down box owner is never trusted, so this also covers
        :meth:`needs_recovery`.
        """
        return not bool(self.monitor.trusted_mask().all())

    def recovery_due(self) -> bool:
        """Whether the trusted rank set no longer matches the partition.

        Covers both directions: a box owner died (evacuate + shrink) and a
        previously dead/evicted node rejoined (grow back over it).  Due
        before the first partition, when there is no mask to match.
        """
        return self.needs_recovery() or not np.array_equal(
            self.monitor.trusted_mask(), self._partitioned_over
        )

    def recover(
        self,
        boxes: BoxList,
        capacities: np.ndarray,
        *,
        storage_bandwidth_mbps: float = 400.0,
        before_migrate: Callable[[PartitionResult], None] | None = None,
        on_apply: Callable[[dict[Box, int]], None] | None = None,
    ) -> RepartitionOutcome:
        """Repartition over the surviving rank set, evacuating the dead.

        The partitioner runs over the *compacted* live capacities -- so no
        partitioning scheme can hand a box to a dead rank -- and the
        result is remapped back to true node indices.  Evacuation traffic
        (cells whose previous owner is down) cannot come off the dead NIC;
        it is priced as a read from checkpoint storage at
        ``storage_bandwidth_mbps``.  The same stage handles growth: when a
        recovered node rejoins the trusted set, the partition simply
        spreads over it again (no evacuation term).
        """
        tracer = self.tracer
        live = self.monitor.trusted_mask()
        if not live.any():
            raise ResilienceError(
                "recovery attempted with no surviving nodes"
            )
        dead_owners = self.dead_owner_ranks()
        with tracer.span(
            "recover",
            dead_ranks=list(dead_owners),
            num_live=int(live.sum()),
        ):
            live_idx = np.flatnonzero(live)
            caps_live = np.asarray(capacities, dtype=float)[live]
            total = caps_live.sum()
            caps_live = (
                caps_live / total
                if total > 0
                else np.full(len(caps_live), 1.0 / len(caps_live))
            )
            part_live = self.partitioner.partition(
                boxes, caps_live, self.work_model
            )
            # Remap compact ranks back to true node indices; expand the
            # target vector so every consumer stays num_nodes-sized.  The
            # remap is one gather on the rank column -- no pair rebuild.
            n = self.cluster.num_nodes
            targets_full = np.zeros(n)
            targets_full[live_idx] = part_live.targets
            part = PartitionResult(
                targets=targets_full,
                num_splits=part_live.num_splits,
                work_model=part_live.work_model,
            )
            part.set_columns(
                part_live.boxes(), live_idx[part_live.rank_vector()]
            )
            if before_migrate is not None:
                before_migrate(part)
            with tracer.span("migrate", trigger="recovery") as mig_span:
                moved = redistribution_volume_columns(
                    self._prev_boxes,
                    self._prev_ranks,
                    part.boxes(),
                    part.rank_vector(),
                    self.bytes_per_cell,
                )
                live_moved: dict[tuple[int, int], float] = {}
                evac_bytes = 0.0
                for (src, dst), nbytes in moved.items():
                    if self.cluster.is_up(src):
                        live_moved[(src, dst)] = nbytes
                    else:
                        evac_bytes += nbytes
                if on_apply is not None:
                    on_apply(part.owners())
                self._set_prev_columns(part.boxes(), part.rank_vector())
                mig_seconds = self.time_model.migration_cost(live_moved)
                mig_seconds += evac_bytes / (
                    storage_bandwidth_mbps * 125_000.0
                )
                self.cluster.clock.advance(mig_seconds)
                mig_bytes = int(sum(moved.values()))
                mig_span.set(
                    bytes=mig_bytes,
                    sim_seconds=mig_seconds,
                    evacuated_bytes=int(evac_bytes),
                )
        tracer.event(
            "recovery.repartition",
            dead_ranks=list(dead_owners),
            num_live=int(live.sum()),
            evacuated_bytes=int(evac_bytes),
        )
        loads = part.loads()
        imbalance = imbalance_pct(loads, targets_full)
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("num_repartitions").inc()
            metrics.counter("num_recoveries").inc()
            metrics.counter("migration_bytes").inc(mig_bytes)
            metrics.counter("migration_seconds").inc(mig_seconds)
            metrics.counter("evacuated_bytes").inc(int(evac_bytes))
        if self.learner.enabled:
            # Provenance first: observe_recover must see the migration
            # model *before* this migration folds into it.
            self.learner.observe_recover(
                self.cluster.clock.now,
                list(dead_owners),
                mig_seconds,
                mig_bytes,
                int(evac_bytes),
            )
            self.learner.observe_repartition(
                self.cluster.clock.now, mig_seconds, mig_bytes
            )
        outcome = RepartitionOutcome(
            part=part,
            loads=loads,
            targets=targets_full,
            imbalance=imbalance,
            migration_bytes=mig_bytes,
            migration_seconds=mig_seconds,
        )
        self.last = outcome
        self._partitioned_over = self.monitor.trusted_mask()
        return outcome

    # ------------------------------------------------------------------
    # Stage: ghost-exchange planning
    # ------------------------------------------------------------------
    def exchange_plan(
        self, outcome: RepartitionOutcome
    ) -> dict[tuple[int, int], float]:
        """Pairwise ghost-exchange volumes of ``outcome``'s decomposition.

        Planned once per repartition from the result's box columns and
        rank vector, then memoized on the outcome: every step priced on
        an unchanged partition reuses the same (read-only) plan.
        """
        if outcome.plan is None:
            outcome.plan = plan_exchange_volumes(
                outcome.part.boxes(),
                outcome.part.rank_vector(),
                ghost_width=self.ghost_width,
                bytes_per_cell=self.bytes_per_cell,
                refine_factor=self.refine_factor,
            )
        return outcome.plan

    # ------------------------------------------------------------------
    # Stage: observability stamping
    # ------------------------------------------------------------------
    def health_attrs(
        self, epoch: int, imbalance: np.ndarray | None = None
    ) -> dict:
        """Per-iteration health signals published on the iteration span.

        The health monitor (:mod:`repro.telemetry.analysis`) and the HTML
        dashboard read these straight off the trace, so an exported JSONL
        file is self-sufficient for offline diagnosis.  ``epoch`` is the
        repartition count (the z-score detector resets its window on
        change, so a regrid's legitimate cost shift is not a "spike");
        ``imbalance`` is the caller's current I_k vector, if it has one.
        """
        staleness = self.monitor.staleness_s()
        attrs: dict = {
            "staleness_s": staleness if staleness != float("inf") else None,
            "epoch": epoch,
        }
        if imbalance is not None:
            finite = imbalance[np.isfinite(imbalance)]
            if finite.size:
                attrs["imbalance_pct"] = float(finite.mean())
                attrs["max_imbalance_pct"] = float(finite.max())
        self.tracer.metrics.gauge("sensing_staleness_seconds").set(
            0.0 if staleness == float("inf") else staleness
        )
        return attrs

    def emit_iteration_spans(
        self, start_sim: float, cost: IterationCost, attrs: dict
    ) -> None:
        """Per-rank compute/ghost-exchange tracks for one priced iteration.

        The time model prices the whole iteration at once; this decomposes
        the per-rank breakdown into simulated-time spans (compute first,
        then the rank's serialized ghost exchange, then the collective
        sync gating everyone).  ``attrs`` land on the enclosing
        ``iteration`` span (loop counter plus :meth:`health_attrs`),
        alongside the critical-path attribution the profiler keys on:
        which rank's busy time gated the step, and the sync tax.
        """
        tracer = self.tracer
        busy_per_rank = cost.compute + cost.comm
        critical_rank = (
            int(busy_per_rank.argmax()) if len(busy_per_rank) else None
        )
        tracer.add_span(
            "iteration",
            start_sim,
            start_sim + cost.total,
            critical_rank=critical_rank,
            sync_s=float(cost.sync),
            **attrs,
        )
        for rank in range(len(cost.compute)):
            compute = float(cost.compute[rank])
            comm = float(cost.comm[rank])
            if compute > 0.0:
                tracer.add_span(
                    "compute", start_sim, start_sim + compute, rank=rank
                )
            if comm > 0.0:
                tracer.add_span(
                    "ghost-exchange",
                    start_sim + compute,
                    start_sim + compute + comm,
                    rank=rank,
                )
        if cost.sync > 0.0:
            busy = float(busy_per_rank.max())
            tracer.add_span(
                "sync", start_sim + busy, start_sim + busy + cost.sync
            )

    def end_step(
        self,
        start_sim: float,
        cost: IterationCost,
        *,
        step: int,
        loads: np.ndarray,
        capacities: np.ndarray | None,
        histogram: str,
        attrs: Callable[[], dict],
    ) -> None:
        """Close one priced step: clock, spans, histogram, learner.

        ``attrs`` builds the ``iteration`` span's attributes and runs only
        when tracing; ``histogram`` names the step-time histogram.
        """
        self.cluster.clock.advance(cost.total)
        tracer = self.tracer
        if tracer.enabled:
            self.emit_iteration_spans(start_sim, cost, attrs())
            tracer.metrics.histogram(histogram).observe(cost.total)
        if self.learner.enabled and capacities is not None:
            self.learner.observe_iteration(
                step, self.cluster.clock.now, loads, capacities, cost
            )
