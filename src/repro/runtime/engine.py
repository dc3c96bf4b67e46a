"""The adaptive system-sensitive runtime loop.

:class:`SamrRuntime` executes a SAMR workload trace on a simulated cluster:

- every ``regrid_interval`` iterations the hierarchy regrids (the next epoch
  of the workload trace) and the partitioner redistributes the new
  bounding-box list using the *most recently sensed* relative capacities;
  the HDDA turns the new assignment into a migration plan whose transfer
  time is charged to the clock;
- every ``sensing_interval`` iterations the resource monitor probes the
  cluster (charging ~0.5 s per node) and the capacity calculator refreshes
  the relative capacities -- ``sensing_interval=0`` reproduces the paper's
  "sense only once before the start" configuration;
- every iteration costs compute + ghost-exchange + sync time from the
  :class:`~repro.runtime.timemodel.TimeModel`, advancing the cluster clock,
  which in turn advances the synthetic load dynamics.

The complete history lands in :class:`RunResult`, from which every table
and figure of the paper's evaluation section is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.hdda import HDDA, HierarchicalIndexSpace
from repro.kernels.workloads import SyntheticWorkload
from repro.monitor.service import ResourceMonitor
from repro.partition.base import Partitioner
from repro.partition.capacity import CapacityCalculator
from repro.partition.workmodel import WorkModel
from repro.resilience.checkpoint import ResilienceConfig
from repro.runtime.pipeline import RepartitionPipeline
from repro.runtime.timemodel import TimeModel
from repro.telemetry.spans import NullTracer, Tracer
from repro.util.errors import SimulationError

__all__ = ["RuntimeConfig", "RegridRecord", "RunResult", "SamrRuntime"]


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Loop parameters.

    Attributes
    ----------
    iterations:
        Coarse iterations to execute.
    regrid_interval:
        Iterations between regrids (paper experiments: 5).
    sensing_interval:
        Iterations between monitor probes; 0 = probe once at start only.
    ghost_width:
        Stencil radius used for exchange-volume planning.
    bytes_per_cell:
        Ghost/migration payload per cell (5 float64 fields for RM3D = 40).
    use_forecast:
        Use the monitor's forecaster output instead of raw probes.
    repartition_on_sense:
        Redistribute immediately after each sensing ("distributes the
        workload based on these capacities", section 6.1.4) -- the
        data-migration churn this causes is the overhead side of the
        sensing-frequency trade-off.
    sync_mode:
        ``"bulk"`` (default) -- one barrier per coarse iteration, the
        favourable model for composite decompositions; ``"per_level"`` --
        a barrier after every substep of every level (strict Berger-Oliger
        subcycling), under which per-level balance matters and
        :class:`~repro.partition.levelwise.LevelPartitioner` earns its keep.
    adaptive_sensing_threshold:
        When set (e.g. 0.25), replaces the fixed cadence answer to
        Table III's tuning problem: the runtime predicts each iteration's
        duration from the capacities it last sensed, and re-senses only
        when the *measured* duration deviates relatively by more than this
        threshold -- load changes trigger sensing, quiet stretches don't.
        ``sensing_interval`` then acts as an optional floor between forced
        checks (0 = purely deviation-driven).
    """

    iterations: int = 40
    regrid_interval: int = 5
    sensing_interval: int = 0
    ghost_width: int = 1
    bytes_per_cell: float = 40.0
    use_forecast: bool = False
    repartition_on_sense: bool = True
    sync_mode: str = "bulk"
    adaptive_sensing_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {self.iterations}")
        if self.regrid_interval < 1:
            raise SimulationError(
                f"regrid_interval must be >= 1, got {self.regrid_interval}"
            )
        if self.sensing_interval < 0:
            raise SimulationError(
                f"sensing_interval must be >= 0, got {self.sensing_interval}"
            )
        if self.sync_mode not in ("bulk", "per_level"):
            raise SimulationError(
                f"sync_mode must be 'bulk' or 'per_level', got "
                f"{self.sync_mode!r}"
            )
        if (
            self.adaptive_sensing_threshold is not None
            and self.adaptive_sensing_threshold <= 0
        ):
            raise SimulationError(
                "adaptive_sensing_threshold must be positive, got "
                f"{self.adaptive_sensing_threshold}"
            )


@dataclass(slots=True)
class RegridRecord:
    """What happened at one regrid/partition point."""

    iteration: int
    regrid_number: int
    trigger: str  # "regrid" or "sense"
    capacities: np.ndarray
    loads: np.ndarray  # realized W_k (work units)
    targets: np.ndarray  # ideal L_k = C_k * L
    imbalance: np.ndarray  # I_k (%)
    num_splits: int
    migration_bytes: int
    migration_seconds: float


@dataclass(slots=True)
class RunResult:
    """Complete record of one runtime execution."""

    total_seconds: float = 0.0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    migration_seconds: float = 0.0
    sensing_seconds: float = 0.0
    iterations: int = 0
    num_sensings: int = 0
    regrids: list[RegridRecord] = field(default_factory=list)
    iteration_times: list[float] = field(default_factory=list)
    capacity_history: list[tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def mean_imbalance(self) -> float:
        if not self.regrids:
            return 0.0
        return float(np.mean([r.imbalance.mean() for r in self.regrids]))

    @property
    def max_imbalance(self) -> float:
        if not self.regrids:
            return 0.0
        return float(max(r.imbalance.max() for r in self.regrids))

    def loads_by_regrid(self) -> np.ndarray:
        """(num_regrids, num_ranks) matrix of realized loads."""
        return np.array([r.loads for r in self.regrids])


class SamrRuntime:
    """Drives one workload trace to completion on a simulated cluster."""

    def __init__(
        self,
        workload: SyntheticWorkload,
        cluster: Cluster,
        partitioner: Partitioner,
        monitor: ResourceMonitor | None = None,
        capacity_calculator: CapacityCalculator | None = None,
        config: RuntimeConfig | None = None,
        time_model: TimeModel | None = None,
        tracer: Tracer | NullTracer | None = None,
        resilience: ResilienceConfig | None = None,
        learn=None,
    ):
        self.workload = workload
        self.cluster = cluster
        self.partitioner = partitioner
        self.config = config or RuntimeConfig()
        # The pipeline holds the stage mechanics and the shared loop
        # control, and supplies the default collaborators (the ambient
        # tracer, the inert NULL_LEARNER); the runtime keeps what a
        # trace-replay step is.
        self.pipeline = RepartitionPipeline(
            cluster=cluster,
            partitioner=partitioner,
            monitor=monitor,
            capacity=capacity_calculator,
            time_model=time_model,
            tracer=tracer,
            work_model=WorkModel(workload.refine_factor),
            bytes_per_cell=self.config.bytes_per_cell,
            ghost_width=self.config.ghost_width,
            refine_factor=workload.refine_factor,
            learner=learn,
        )
        self.monitor = self.pipeline.monitor
        self.capacity = self.pipeline.capacity
        self.time_model = self.pipeline.time_model
        self.tracer = self.pipeline.tracer
        self.learn = self.pipeline.learner
        space = HierarchicalIndexSpace(
            workload.domain,
            max_levels=max(
                max(bl.levels) + 1 for bl in workload.box_lists
            ),
            refine_factor=workload.refine_factor,
        )
        self.hdda = HDDA(
            space,
            num_procs=cluster.num_nodes,
            bytes_per_cell=int(self.config.bytes_per_cell),
        )
        self._level_loads = np.zeros((1, cluster.num_nodes))
        self._subcycles = np.ones(1)
        # Failure-aware repartitioning (opt-in).  A trace run has no grid
        # data to checkpoint -- recovery here means re-sensing and
        # repartitioning the current epoch over the surviving rank set,
        # with orphaned boxes priced as checkpoint-storage reads.
        self.resilience = resilience

    # ------------------------------------------------------------------
    def _sense(self, result: RunResult) -> np.ndarray:
        """Probe the cluster, charge overhead, return fresh capacities."""
        out = self.pipeline.sense(
            span_attrs={"iteration": result.iterations},
            use_forecast=self.config.use_forecast,
            node_gauges=True,
        )
        result.sensing_seconds += out.overhead_seconds
        result.num_sensings += 1
        result.capacity_history.append(
            (self.cluster.clock.now, out.capacities)
        )
        return out.capacities

    def _repartition(
        self,
        epoch_idx: int,
        capacities: np.ndarray,
        result: RunResult,
        trigger: str = "regrid",
    ) -> tuple[np.ndarray, dict]:
        """Partition the epoch's boxes, migrate data, record everything.

        Returns (per-rank loads, pair ghost-exchange volumes).

        With resilience enabled and a degraded trusted set, the partition
        runs through the pipeline's recovery stage instead: compacted over
        the live ranks so no box can land on a dead one, with orphaned
        cells priced as checkpoint-storage reads.
        """
        boxes = self.workload.epoch(min(epoch_idx, self.workload.num_regrids - 1))
        if self.resilience is not None and self.pipeline.degraded():
            trigger = "recovery"
            out = self.pipeline.recover(
                boxes,
                capacities,
                storage_bandwidth_mbps=self.resilience.storage_bandwidth_mbps,
                on_apply=self.hdda.apply_assignment,
            )
        else:
            out = self.pipeline.repartition(
                boxes,
                capacities,
                migrate_attrs={"trigger": trigger},
                on_apply=self.hdda.apply_assignment,
                stats=True,
            )
        result.migration_seconds += out.migration_seconds
        # Per-level load matrix for the per-level synchronization model.
        levels, self._level_loads = out.level_loads(self.cluster.num_nodes)
        self._subcycles = np.array(
            [self.workload.refine_factor**lvl for lvl in levels] or [1]
        )
        record = RegridRecord(
            iteration=result.iterations,
            regrid_number=len(result.regrids),
            trigger=trigger,
            capacities=capacities.copy(),
            loads=out.loads,
            targets=out.targets,
            imbalance=out.imbalance,
            num_splits=out.part.num_splits,
            migration_bytes=out.migration_bytes,
            migration_seconds=out.migration_seconds,
        )
        result.regrids.append(record)
        volumes = self.pipeline.exchange_plan(out)
        return out.loads, volumes

    # ------------------------------------------------------------------
    def _recovery_due(self) -> bool:
        return self.resilience is not None and self.pipeline.recovery_due()

    def _price(self, loads: np.ndarray, volumes: dict):
        if self.config.sync_mode == "per_level":
            return self.time_model.iteration_cost_per_level(
                self._level_loads, self._subcycles, volumes
            )
        return self.time_model.iteration_cost(loads, volumes)

    def _health_attrs(self, result: RunResult) -> dict:
        """Health signals for the iteration span (see the pipeline)."""
        imbalance = result.regrids[-1].imbalance if result.regrids else None
        return self.pipeline.health_attrs(len(result.regrids), imbalance)

    def run(self) -> RunResult:
        """Execute the configured number of iterations; returns the record."""
        with self.pipeline.run_frame(
            "SamrRuntime", iterations=self.config.iterations
        ):
            result = self._run_loop()
        if self.tracer.enabled:
            self.tracer.metrics.counter("iterations").inc(result.iterations)
        return result

    def _run_loop(self) -> RunResult:
        cfg = self.config
        pipeline = self.pipeline
        tracer = self.tracer
        learn = self.learn
        # Deviation-triggered sensing replaces the fixed cadence.
        interval = (
            cfg.sensing_interval
            if cfg.adaptive_sensing_threshold is None
            else 0
        )
        result = RunResult()
        # Sense once before the start.
        capacities = pipeline.effective_capacities(self._sense(result))
        loads, volumes = self._repartition(0, capacities, result)
        epoch = 0
        baseline: float | None = None  # adaptive-sensing reference time
        adaptive_pending = False
        last_sense_iter = 0
        for it in range(cfg.iterations):
            if self._recovery_due():
                # A fault (or recovery) landed between iterations: re-sense
                # and repartition over the surviving trusted set before
                # pricing anything against dead hardware.
                capacities = self._sense(result)
                loads, volumes = self._repartition(epoch, capacities, result)
                baseline = None
                adaptive_pending = False
                last_sense_iter = it
            sensed = False
            due = pipeline.sense_due(it, last_sense_iter, interval)
            due_adaptive = adaptive_pending and (
                cfg.sensing_interval == 0
                or it - last_sense_iter >= cfg.sensing_interval
            )
            if due or due_adaptive:
                capacities = pipeline.effective_capacities(
                    self._sense(result)
                )
                sensed = True
                adaptive_pending = False
                last_sense_iter = it
            if it > 0 and it % cfg.regrid_interval == 0:
                epoch += 1
                loads, volumes = self._repartition(epoch, capacities, result)
                baseline = None  # new epoch: iteration times shift anyway
            elif sensed and cfg.repartition_on_sense:
                repartition = True
                if learn.enabled and learn.config.payoff_gate:
                    # Price the sense-triggered redistribution: predicted
                    # imbalance cost over the rest of the epoch vs the
                    # modeled migration bill.  Cold models always pay
                    # (the paper's behavior).
                    horizon = cfg.regrid_interval - (
                        it % cfg.regrid_interval
                    )
                    decision = learn.repartition_decision(
                        loads,
                        capacities,
                        horizon,
                        iteration=it,
                        t=self.cluster.clock.now,
                    )
                    repartition = decision.repartition
                if repartition:
                    loads, volumes = self._repartition(
                        epoch, capacities, result, trigger="sense"
                    )
                    baseline = None
            iteration_start = self.cluster.clock.now
            try:
                cost = self._price(loads, volumes)
            except SimulationError:
                # A fault fired during this iteration's sense/migrate clock
                # advance, after capacities were computed: a dead rank still
                # owns work.  Abort the step, recover, re-price once.
                if not self._recovery_due():
                    raise
                tracer.event("fault.step_aborted", iteration=it)
                capacities = self._sense(result)
                loads, volumes = self._repartition(epoch, capacities, result)
                baseline = None
                adaptive_pending = False
                last_sense_iter = it
                iteration_start = self.cluster.clock.now
                cost = self._price(loads, volumes)
            pipeline.end_step(
                iteration_start,
                cost,
                step=it,
                loads=loads,
                capacities=capacities,
                histogram="iteration_seconds",
                attrs=lambda: {"iteration": it, **self._health_attrs(result)},
            )
            result.iteration_times.append(cost.total)
            result.compute_seconds += float(cost.compute.max())
            result.comm_seconds += float(cost.comm.max() + cost.sync)
            result.iterations += 1
            theta = cfg.adaptive_sensing_threshold
            if theta is not None:
                # Deviation from the post-repartition reference signals a
                # cluster load change worth re-sensing for.
                if baseline is None:
                    baseline = cost.total
                elif abs(cost.total - baseline) / baseline > theta:
                    adaptive_pending = True
        result.total_seconds = self.cluster.clock.now
        return result
