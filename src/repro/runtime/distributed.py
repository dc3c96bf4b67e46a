"""Distributed execution of a *real* AMR application on the simulated cluster.

Where :class:`~repro.runtime.engine.SamrRuntime` replays a pre-computed
workload trace, :class:`DistributedAmrRun` drives an actual
kernel + hierarchy through the Berger-Oliger integrator while the
partitioner owns the decomposition:

- at every regrid the partitioner distributes the fresh bounding-box list;
  its (possibly split) output boxes become the hierarchy's *patch layout*
  (:meth:`GridHierarchy.repatch_level`), exactly as GrACE turns partitioner
  output into the distribution of the HDDA;
- each simulated rank owns the patches assigned to it; per-iteration
  compute time is the rank's owned work over its current effective speed,
  ghost-exchange volumes are derived from the actual patch geometry, and
  migration is priced from the cell-owner diff -- all charged to the
  cluster clock;
- the numerics still execute in-process (this is a simulation), which
  yields a strong correctness property this module's tests rely on:
  **partition invariance** -- ghost filling reads the composite grid, so
  the solution after N steps is bitwise independent of the patch layout
  and rank count.  A "distributed" run must equal the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.amr.regrid import RegridParams
from repro.cluster.cluster import Cluster
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner
from repro.partition.capacity import CapacityCalculator
from repro.partition.workmodel import WorkModel
from repro.resilience.checkpoint import CheckpointManager, ResilienceConfig
from repro.runtime.pipeline import RepartitionPipeline
from repro.runtime.timemodel import TimeModel
from repro.telemetry.spans import NullTracer, Tracer
from repro.util.errors import SimulationError

__all__ = ["DistributedRunConfig", "DistributedRunResult", "DistributedAmrRun"]


@dataclass(frozen=True, slots=True)
class DistributedRunConfig:
    """Parameters of a distributed AMR execution."""

    steps: int = 20
    regrid_interval: int = 5
    sensing_interval: int = 0  # 0 = sense once before the start
    cfl: float = 0.4
    bytes_per_field_cell: float = 8.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise SimulationError(f"steps must be >= 1, got {self.steps}")
        if self.regrid_interval < 0:
            raise SimulationError("negative regrid_interval")
        if self.sensing_interval < 0:
            raise SimulationError("negative sensing_interval")


@dataclass(slots=True)
class DistributedRunResult:
    """Execution record of a distributed AMR run."""

    total_seconds: float = 0.0
    sensing_seconds: float = 0.0
    migration_seconds: float = 0.0
    steps: int = 0
    num_regrids: int = 0
    num_sensings: int = 0
    loads_history: list[np.ndarray] = field(default_factory=list)
    capacities_history: list[np.ndarray] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    #: resilience accounting (all zero on undisturbed runs)
    num_recoveries: int = 0
    num_restores: int = 0
    num_checkpoints: int = 0
    replayed_steps: int = 0
    recovery_seconds: float = 0.0
    checkpoint_seconds: float = 0.0


class DistributedAmrRun:
    """Executes a hierarchy + kernel distributed over a simulated cluster.

    Parameters
    ----------
    hierarchy:
        A (not yet initialized) :class:`GridHierarchy`.
    cluster:
        The simulated cluster providing ranks and their dynamics.
    partitioner:
        Distribution policy invoked at setup and at every regrid.
    regrid_params:
        Flagging/clustering knobs passed to the integrator.
    """

    def __init__(
        self,
        hierarchy: GridHierarchy,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor | None = None,
        capacity_calculator: CapacityCalculator | None = None,
        config: DistributedRunConfig | None = None,
        regrid_params: RegridParams | None = None,
        time_model: TimeModel | None = None,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResilienceConfig | None = None,
        learn=None,
    ):
        self.hierarchy = hierarchy
        self.cluster = cluster
        self.partitioner = partitioner
        self.config = config or DistributedRunConfig()
        # Shared mechanics, loop control and default collaborators (see
        # the engine).
        self.pipeline = RepartitionPipeline(
            cluster=cluster,
            partitioner=partitioner,
            monitor=monitor,
            capacity=capacity_calculator,
            time_model=time_model,
            tracer=tracer,
            work_model=WorkModel(hierarchy.refine_factor),
            bytes_per_cell=self.bytes_per_cell,
            ghost_width=hierarchy.kernel.ghost_width,
            refine_factor=hierarchy.refine_factor,
            learner=learn,
        )
        self.monitor = self.pipeline.monitor
        self.capacity = self.pipeline.capacity
        self.time_model = self.pipeline.time_model
        self.tracer = self.pipeline.tracer
        self.learn = self.pipeline.learner
        self.integrator = BergerOligerIntegrator(
            hierarchy,
            cfl=self.config.cfl,
            regrid_interval=self.config.regrid_interval,
            regrid_params=regrid_params,
            on_regrid=self._on_regrid,
        )
        self._capacities: np.ndarray | None = None
        self._result = DistributedRunResult()
        # Checkpoint/restart + failure-aware repartitioning (opt-in; the
        # default path is byte-identical to the resilience-free runtime).
        self.resilience = resilience
        self.ckpt_manager = (
            CheckpointManager(resilience, tracer=self.tracer)
            if resilience is not None
            else None
        )

    # ------------------------------------------------------------------
    @property
    def bytes_per_cell(self) -> float:
        return self.config.bytes_per_field_cell * self.hierarchy.kernel.num_fields

    def owned_loads(self) -> np.ndarray:
        """Per-rank work of the current assignment (cached work vector)."""
        out = self.pipeline.last
        if out is None or not out.part.num_assigned():
            return np.zeros(self.cluster.num_nodes)
        return out.part.loads()

    # ------------------------------------------------------------------
    def _sense(self) -> None:
        out = self.pipeline.sense()
        self._capacities = out.capacities
        result = self._result
        result.sensing_seconds += out.overhead_seconds
        result.num_sensings += 1
        result.capacities_history.append(out.capacities.copy())

    def _repatch(self, part) -> None:
        # Turn the partitioner's (possibly split) boxes into patch
        # layout before migration is priced.  Level grouping runs on the
        # result's level column; ``at_level`` preserves assignment order
        # within each level, as the old per-pair bucketing did.
        boxes = part.boxes()
        for level in boxes.levels:
            self.hierarchy.repatch_level(level, boxes.at_level(level))

    def _on_regrid(self, hierarchy: GridHierarchy) -> None:
        """Partition the fresh hierarchy and make its output the patching."""
        if self._capacities is None:
            self._sense()
        boxes = hierarchy.box_list()
        if self.resilience is not None and self.pipeline.degraded():
            # Regrid while part of the cluster is out: partition over the
            # survivors only (the recovery stage handles remapping).
            out = self.pipeline.recover(
                boxes,
                self._capacities,
                before_migrate=self._repatch,
                storage_bandwidth_mbps=self.resilience.storage_bandwidth_mbps,
            )
        else:
            out = self.pipeline.repartition(
                boxes, self._capacities, before_migrate=self._repatch
            )
        result = self._result
        result.migration_seconds += out.migration_seconds
        result.num_regrids += 1
        result.loads_history.append(out.loads)

    # ------------------------------------------------------------------
    def run(self) -> DistributedRunResult:
        """Set up and execute ``config.steps`` coarse steps."""
        cfg = self.config
        pipeline = self.pipeline
        tracer = self.tracer
        learn = self.learn
        self._result = result = DistributedRunResult()
        with pipeline.run_frame("DistributedAmrRun", steps=cfg.steps):
            self._sense()
            self.integrator.setup()
            if self.ckpt_manager is not None:
                # Baseline snapshot: a crash before the first cadence save
                # restores to the initial state and replays everything.
                self._checkpoint()
            last_sense_step = self.hierarchy.step_count
            target = self.hierarchy.step_count + cfg.steps
            while self.hierarchy.step_count < target:
                if self.ckpt_manager is not None:
                    self._maybe_recover()
                step = self.hierarchy.step_count
                if pipeline.sense_due(
                    step, last_sense_step, cfg.sensing_interval
                ):
                    self._sense()
                    last_sense_step = step
                    self._capacities = pipeline.effective_capacities(
                        self._capacities
                    )
                    # A fault during the sense leaves recovery to the next
                    # step; redistributing now would price a dead node.
                    if (
                        learn.enabled
                        and learn.config.payoff_gate
                        and not self._recovery_due()
                    ):
                        self._gate(step)
                step_start = self.cluster.clock.now
                try:
                    with tracer.span("advance", step=step):
                        self.integrator.advance()
                    loads = self.owned_loads()
                    current = pipeline.last
                    volumes = (
                        pipeline.exchange_plan(current)
                        if current is not None
                        else {}
                    )
                    cost = self.time_model.iteration_cost(loads, volumes)
                except SimulationError:
                    # A fault landed mid-step (dead endpoint in a planned
                    # transfer, dead rank still owning work): abort the
                    # step; the recovery stage restores and replays it.
                    if not self._recovery_due():
                        raise
                    tracer.event("fault.step_aborted", step=step)
                    continue
                pipeline.end_step(
                    step_start,
                    cost,
                    step=step,
                    loads=loads,
                    capacities=self._capacities,
                    histogram="step_seconds",
                    attrs=lambda: {"step": step, **self._health_attrs()},
                )
                result.step_seconds.append(cost.total)
                result.steps += 1
                if (
                    self.ckpt_manager is not None
                    and self.ckpt_manager.due(self.hierarchy.step_count)
                ):
                    self._checkpoint()
        result.total_seconds = self.cluster.clock.now
        result.replayed_steps = max(0, result.steps - cfg.steps)
        return result

    def _gate(self, step: int) -> None:
        """Mid-epoch redistribution when the priced payoff beats the bill.

        Between regrids the paper's loop rides out any imbalance; the
        learner's payoff gate unlocks repartitioning the *current* patch
        layout early.
        """
        cfg = self.config
        horizon = (
            cfg.regrid_interval - step % cfg.regrid_interval
            if cfg.regrid_interval
            else cfg.sensing_interval or 1
        )
        decision = self.learn.repartition_decision(
            self.owned_loads(),
            self._capacities,
            horizon,
            iteration=step,
            t=self.cluster.clock.now,
        )
        if decision.repartition:
            out = self.pipeline.repartition(
                self.hierarchy.box_list(),
                self._capacities,
                migrate_attrs={"trigger": "sense"},
                before_migrate=self._repatch,
            )
            self._result.migration_seconds += out.migration_seconds
            self._result.loads_history.append(out.loads)

    # ------------------------------------------------------------------
    # Resilience: checkpointing and the recovery stage
    # ------------------------------------------------------------------
    def _recovery_due(self) -> bool:
        return self.ckpt_manager is not None and self.pipeline.recovery_due()

    def _checkpoint(self) -> None:
        """Snapshot hierarchy + assignment, charging storage I/O time."""
        manager = self.ckpt_manager
        ckpt = manager.save(
            self.hierarchy,
            self.pipeline.prev_assignment,
            self.cluster.clock.now,
        )
        io_s = manager.io_seconds(ckpt.nbytes)
        if self.resilience.charge_io_time:
            self.cluster.clock.advance(io_s)
        self._result.num_checkpoints += 1
        self._result.checkpoint_seconds += io_s

    def _maybe_recover(self) -> None:
        """Run the recovery stage when the trusted rank set changed.

        Two triggers: a box-owning rank is down (data loss -- restore the
        latest checkpoint and replay), or the trusted live set differs
        from the one the current partition was computed over (a node was
        evicted, or a recovered node should be grown onto again).
        """
        if not self.pipeline.recovery_due():
            return
        tracer = self.tracer
        manager = self.ckpt_manager
        result = self._result
        dead_owners = self.pipeline.dead_owner_ranks()
        data_lost = bool(dead_owners)
        t0 = self.cluster.clock.now
        with tracer.span(
            "recovery",
            dead_ranks=list(dead_owners),
            data_lost=data_lost,
        ):
            if data_lost:
                ckpt, saved_assignment = manager.restore_latest(
                    self.hierarchy
                )
                if self.resilience.charge_io_time:
                    self.cluster.clock.advance(
                        manager.io_seconds(ckpt.nbytes)
                    )
                if saved_assignment is not None:
                    # Price evacuation against the layout that was live at
                    # save time, not the doomed post-crash layout.
                    self.pipeline.prev_assignment = saved_assignment
                result.num_restores += 1
            self._sense()  # fresh capacities over the surviving rank set
            out = self.pipeline.recover(
                self.hierarchy.box_list(),
                self._capacities,
                before_migrate=self._repatch,
                storage_bandwidth_mbps=self.resilience.storage_bandwidth_mbps,
            )
            result.num_recoveries += 1
            result.migration_seconds += out.migration_seconds
            result.loads_history.append(out.loads)
            result.recovery_seconds += self.cluster.clock.now - t0
        tracer.event(
            "recovery.complete",
            resumed_step=self.hierarchy.step_count,
            num_live=int(self.monitor.trusted_mask().sum()),
            recovery_seconds=self.cluster.clock.now - t0,
        )

    def _health_attrs(self) -> dict:
        """Health signals for one step's iteration span (see the pipeline).

        Before the first partition every load is zero, so no rank has a
        target and no imbalance is published.
        """
        loads = self.owned_loads()
        targets = self._capacities * loads.sum()
        ok = targets > 0
        imbalance = np.abs(loads[ok] - targets[ok]) / targets[ok] * 100.0
        return self.pipeline.health_attrs(self._result.num_regrids, imbalance)
