"""The benchmark's workloads: the paper's experiments, end to end.

Each workload turns a seed into inputs (:meth:`prepare`, part of set-up)
and runs one *round* of its experiment on them (:meth:`run_round`).  A
round is a list of operations -- a simulation run, a campaign cell, a
kernel run, a ledger verification -- each of which either raises, fails
a check that holds for every seed (:class:`CheckFailed`), or returns its
behaviour fingerprint: the simulated-second outputs, store digests and
counts that the harness compares exactly against a reference.

The experiments are driven through the per-run public entry points
(:func:`repro.runtime.experiment.run_once`, ``DistributedAmrRun``,
:func:`chaos_experiment`, ``CampaignRunner``) rather than the one-call
sweep helpers, so that every run is one counted operation with its own
fingerprint.  The loops mirror ``execution_time_comparison``,
``sensing_frequency_sweep`` and ``learn_ablation``.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.store import ResultStore
from repro.cluster import Cluster
from repro.kernels.rm3d import RM3DKernel
from repro.kernels.workloads import paper_rm3d_trace
from repro.learn import (
    DecisionLedger,
    LearnConfig,
    LearnController,
    reconcile,
    verify_decision,
)
from repro.monitor.service import ResourceMonitor
from repro.partition import ACEHeterogeneous
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.runtime.engine import RuntimeConfig, SamrRuntime
from repro.runtime.experiment import (
    CAMPAIGN_SCENARIOS,
    campaign_cell,
    chaos_experiment,
    make_partitioner,
    run_once,
)
from repro.telemetry.live import deterministic_tracer, write_cell_bundle
from repro.util.geometry import Box


class CheckFailed(Exception):
    """An operation's output broke a property that holds for every seed."""


def derive_seed(seed: int, label: str) -> int:
    """A stable per-purpose seed in [1, 10**6) derived from ``seed``."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 999_999 + 1


def run_values(result) -> dict[str, Any]:
    """Simulated-second outputs of one :class:`RunResult`."""
    return {
        "total": result.total_seconds,
        "compute": result.compute_seconds,
        "comm": result.comm_seconds,
        "migration": result.migration_seconds,
        "sensing": result.sensing_seconds,
        "mean_imbalance": result.mean_imbalance,
        "max_imbalance": result.max_imbalance,
        "iterations": result.iterations,
    }


@dataclass
class Round:
    """Operations of one round: fingerprints, failures, simulated steps."""

    ops: dict[str, Any] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    steps: int = 0

    def op(self, label: str, fn: Callable[[], tuple[Any, int]]) -> Any:
        """Run one operation; ``fn`` returns (fingerprint, steps)."""
        try:
            values, steps = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            self.ops[label] = None
            self.failures[label] = f"{type(exc).__name__}: {exc}"
            return None
        self.ops[label] = values
        self.steps += int(steps)
        return values


class _NoTrace:
    """Stand-in for the span recorder in untraced rounds."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1.0) -> None:
        pass


NO_TRACE = _NoTrace()


# ----------------------------------------------------------------------
class Fig7Sweep:
    """Fig. 7 / Table I: P in {4, 8, 16, 32}, ACEHeterogeneous vs
    ACEComposite, 40 iterations, static loaded Linux cluster."""

    name = "fig7-sweep"
    procs = (4, 8, 16, 32)
    partitioners = ("ACEHeterogeneous", "ACEComposite")
    iterations = 40

    def prepare(self, seed: int) -> dict[str, Any]:
        return {
            "cluster_seed": derive_seed(seed, "fig7"),
            "workload": paper_rm3d_trace(num_regrids=8),
        }

    def describe(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"cluster_seed": inputs["cluster_seed"]}

    def run_round(self, inputs, scratch: Path, trace=NO_TRACE, warm=False):
        rnd = Round()
        for procs in self.procs:
            for name in self.partitioners:

                def one(procs=procs, name=name):
                    result = run_once(
                        inputs["workload"],
                        Cluster.paper_linux_cluster(
                            procs, seed=inputs["cluster_seed"]
                        ),
                        make_partitioner(name),
                        RuntimeConfig(
                            iterations=self.iterations, regrid_interval=5
                        ),
                    )
                    return run_values(result), result.iterations

                rnd.op(f"P{procs}-{name}", one)
        return rnd


# ----------------------------------------------------------------------
class SensingLearned:
    """Table III sensing-frequency sweep plus the learned loop with a
    durable decision ledger, on the dynamic loaded Linux cluster."""

    name = "sensing-learned"
    frequencies = (10, 20, 30, 40)
    sweep_procs = 4
    sweep_iterations = 160
    learn_nodes = 8
    learn_iterations = 150
    learn_regrid = 7
    learn_sensing = 20

    def prepare(self, seed: int) -> dict[str, Any]:
        return {
            "sweep_seed": derive_seed(seed, "table3"),
            "learn_seed": derive_seed(seed, "ablation-learn"),
            "sweep_workload": paper_rm3d_trace(
                num_regrids=self.sweep_iterations // 5 + 2
            ),
            "learn_workload": paper_rm3d_trace(
                num_regrids=self.learn_iterations // self.learn_regrid + 2
            ),
        }

    def describe(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {k: inputs[k] for k in ("sweep_seed", "learn_seed")}

    @staticmethod
    def learn_config() -> LearnConfig:
        """The ablation's "all" variant: every learned behaviour on."""
        return LearnConfig(
            adaptive_sensing=True,
            payoff_gate=True,
            transient_forecast=True,
            fallback_interval=SensingLearned.learn_sensing,
            drift_tolerance=0.02,
        )

    @staticmethod
    def _run(workload, procs, seed, horizon, iterations, regrid, sensing,
             learn=None):
        """One ACEHeterogeneous run on the dynamic loaded Linux cluster."""
        cluster = Cluster.paper_linux_cluster(
            procs, seed=seed, dynamic=True, horizon_s=horizon
        )
        return SamrRuntime(
            workload,
            cluster,
            ACEHeterogeneous(),
            monitor=ResourceMonitor(cluster),
            config=RuntimeConfig(
                iterations=iterations,
                regrid_interval=regrid,
                sensing_interval=sensing,
            ),
            learn=learn,
        ).run()

    def _learn_run(self, inputs, horizon, sensing, learn=None):
        return self._run(
            inputs["learn_workload"], self.learn_nodes, inputs["learn_seed"],
            horizon, self.learn_iterations, self.learn_regrid, sensing, learn,
        )

    def calibrate_learn(self, inputs) -> tuple[dict[str, Any], int]:
        """Sense-once run on an unending load script (sets the horizon)."""
        result = self._learn_run(inputs, 1e9, 0)
        return run_values(result), result.iterations

    def learned_run(self, inputs, horizon: float, ledger_dir: Path | None):
        """One run of the learned loop; the ledger is optional."""
        ledger = DecisionLedger(ledger_dir) if ledger_dir is not None else None
        learn = LearnController(self.learn_config(), ledger=ledger)
        result = self._learn_run(inputs, horizon, self.learn_sensing, learn)
        summary = learn.summary()
        values = run_values(result)
        values["gate_decisions"] = summary["gate"]["decisions"]
        values["gate_skips"] = summary["gate"]["skips"]
        values["sensing_interval"] = summary["sensing_interval"]
        return values, result.iterations

    def run_round(self, inputs, scratch: Path, trace=NO_TRACE, warm=False):
        rnd = Round()

        def sweep_run(horizon: float, interval: int):
            result = self._run(
                inputs["sweep_workload"], self.sweep_procs,
                inputs["sweep_seed"], horizon, self.sweep_iterations, 5,
                interval,
            )
            return run_values(result), result.iterations

        cal = rnd.op("table3-calibrate", lambda: sweep_run(1e9, 0))
        for freq in self.frequencies:
            rnd.op(
                f"table3-f{freq}",
                lambda freq=freq: sweep_run(0.8 * cal["total"], freq),
            )

        cal = rnd.op("learn-calibrate", lambda: self.calibrate_learn(inputs))
        horizon = 0.8 * cal["total"] if cal else float("nan")

        def fixed_f():
            result = self._learn_run(inputs, horizon, self.learn_sensing)
            return run_values(result), result.iterations

        rnd.op("learn-fixed-f", fixed_f)
        ledger_dir = scratch / "ledger"
        rnd.op("learn-all", lambda: self.learned_run(inputs, horizon, ledger_dir))

        # Read path: a fresh ledger object reloads the fsynced log.
        rows: list[dict[str, Any]] = []

        def read_back():
            rows.extend(DecisionLedger(ledger_dir).rows())
            report = reconcile(rows)
            trace.count(
                "learn.ledger.bytes",
                (ledger_dir / DecisionLedger.DATA_NAME).stat().st_size,
            )
            values = {
                "records": report["records"],
                "counts": report["counts"],
                "gate": report["gate"],
            }
            return values, 0

        rnd.op("ledger-reconcile", read_back)
        for row in rows:
            if row.get("kind") != "gate":
                continue

            def verify(row=row):
                check = verify_decision(row)
                if not check["match"]:
                    raise CheckFailed(
                        f"gate record {check['seq']} replays differently "
                        f"in {check['mismatches']}"
                    )
                return {"repartition": check["replayed"]["repartition"]}, 0

            rnd.op(f"verify-gate-{row['seq']}", verify)
        return rnd


# ----------------------------------------------------------------------
def _array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class DistributedChaos:
    """Kernel-executing runs: RM3D under ``DistributedAmrRun`` on the
    paper's four-node cluster, and the kill-and-recover chaos run."""

    name = "distributed-chaos"
    shape = (32, 8, 8)
    steps = 8
    partitioners = ("ACEHeterogeneous", "ACEComposite")
    chaos_nodes = 8
    chaos_kill = 2
    chaos_steps = 12

    def prepare(self, seed: int) -> dict[str, Any]:
        # The fault plan's seed is the generated input.  The outage window
        # stays at chaos_experiment's default, so every seed does the same
        # amount of work (one restore and replay).
        return {"chaos_seed": derive_seed(seed, "chaos")}

    def describe(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"chaos_seed": inputs["chaos_seed"]}

    def _hierarchy(self) -> GridHierarchy:
        return GridHierarchy(
            Box((0, 0, 0), self.shape),
            RM3DKernel(domain_shape=self.shape),
            max_levels=3,
        )

    def run_round(self, inputs, scratch: Path, trace=NO_TRACE, warm=False):
        rnd = Round()
        reference: list[np.ndarray] = []

        def sequential():
            h = self._hierarchy()
            integ = BergerOligerIntegrator(h, regrid_interval=3, cfl=0.3)
            integ.setup()
            for _ in range(self.steps):
                integ.advance()
            reference.append(GhostFiller(h).fetch(h.domain, 0))
            return {"solution_sha256": _array_digest(reference[0])}, self.steps

        rnd.op("rm3d-sequential", sequential)
        for name in self.partitioners:

            def distributed(name=name):
                h = self._hierarchy()
                result = DistributedAmrRun(
                    h,
                    Cluster.paper_four_node(),
                    make_partitioner(name),
                    config=DistributedRunConfig(
                        steps=self.steps, regrid_interval=3, cfl=0.3
                    ),
                ).run()
                if not reference:
                    raise CheckFailed("no sequential reference to compare to")
                solution = GhostFiller(h).fetch(h.domain, 0)
                if not np.array_equal(solution, reference[0]):
                    raise CheckFailed(
                        f"{name} solution differs from the sequential one"
                    )
                return {
                    "total": result.total_seconds,
                    "sensing": result.sensing_seconds,
                    "migration": result.migration_seconds,
                    "steps": result.steps,
                    "num_regrids": result.num_regrids,
                }, result.steps

            rnd.op(f"rm3d-{name}", distributed)

        def chaos():
            report = chaos_experiment(
                num_nodes=self.chaos_nodes,
                steps=self.chaos_steps,
                kill=self.chaos_kill,
                seed=inputs["chaos_seed"],
                checkpoint_interval=3,
            )
            if not report["bitwise_identical"]:
                raise CheckFailed("chaos solution differs from sequential")
            if not report["num_restores"]:
                raise CheckFailed("the outage triggered no restore")
            keys = (
                "baseline_seconds",
                "chaos_seconds",
                "num_checkpoints",
                "num_restores",
                "num_recoveries",
                "replayed_steps",
                "recovery_seconds",
                "checkpoint_seconds",
            )
            # Sequential reference + fault-free baseline + chaos run.
            steps = 3 * self.chaos_steps + report["replayed_steps"]
            return {k: report[k] for k in keys}, steps

        rnd.op("chaos", chaos)
        return rnd


# ----------------------------------------------------------------------
def _tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class CampaignGrid:
    """A 24-cell campaign grid run inline with artifact bundles,
    interrupted halfway and resumed in a fresh runner."""

    name = "campaign-grid"
    scenarios = ("linux-dynamic", "heterogeneous-hw")
    partitioners = ("heterogeneous", "composite", "greedy")
    num_seeds = 4
    config = {"procs": 8, "iterations": 40}

    def prepare(self, seed: int) -> dict[str, Any]:
        seeds = tuple(
            derive_seed(seed, f"campaign/{i}") for i in range(self.num_seeds)
        )
        spec = CampaignSpec(
            name="perfbench",
            scenarios=self.scenarios,
            partitioners=self.partitioners,
            seeds=seeds,
            base_config=dict(self.config),
        )
        return {"spec": spec}

    def describe(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {"campaign_seeds": list(inputs["spec"].seeds)}

    def run_round(self, inputs, scratch: Path, trace=NO_TRACE, warm=False):
        """One grid.  The warm-up round runs it uninterrupted; timed
        rounds stop after half the cells and resume in a fresh runner, and
        the resumed store must be byte-identical to the warm-up's."""
        rnd = Round()
        spec = inputs["spec"]
        directory = scratch / "campaign"
        if warm:
            runner = CampaignRunner(spec, directory)
            statuses = [runner.run()]
        else:
            statuses = [
                CampaignRunner(spec, directory).run(
                    max_cells=spec.num_cells // 2
                )
            ]
            with trace.span("campaign.resume"):
                runner = CampaignRunner(spec, directory)
            statuses.append(runner.run())
        trace.count(
            "campaign.cells_failed", sum(s["failed"] for s in statuses)
        )
        state = runner.state
        for cell in spec.cells():
            label = f"cell-{cell.key}"
            if state.is_completed(cell.key):
                rnd.ops[label] = True
                continue
            rnd.ops[label] = None
            rnd.failures[label] = state.failed.get(
                cell.key, "cell never completed"
            )

        def store():
            records = ResultStore(directory).records()
            if not statuses[-1]["complete"]:
                raise CheckFailed("campaign did not complete after resume")
            steps = sum(int(r["metrics"]["iterations"]) for r in records)
            return {
                "records": len(records),
                "results_sha256": hashlib.sha256(
                    (directory / "results.jsonl").read_bytes()
                ).hexdigest(),
                "artifacts_sha256": _tree_digest(directory / "artifacts"),
            }, steps

        rnd.op("store", store)
        return rnd

    # -- ablation: the cost of the deterministic tracer + bundle ------
    #: Simulated outputs both ablation variants report (and must agree on).
    run_metrics = (
        "total_seconds",
        "compute_seconds",
        "comm_seconds",
        "migration_seconds",
        "sensing_seconds",
        "iterations",
    )

    def cell_with_telemetry(self, inputs, scratch: Path) -> dict[str, Any]:
        """One campaign cell as a worker runs it: deterministic tracer,
        health monitor and artifact bundle."""
        cell = inputs["spec"].cells()[0]
        tracer = deterministic_tracer()
        record = campaign_cell(
            cell.scenario, cell.partitioner, cell.seed, dict(cell.config),
            tracer=tracer,
        )
        write_cell_bundle(tracer, scratch / cell.key, cell_key=cell.key)
        return {k: record["metrics"][k] for k in self.run_metrics}

    def cell_without_telemetry(self, inputs) -> dict[str, Any]:
        """The same ``run_once`` as the cell, under the default no-op
        tracer and without the bundle (mirrors ``campaign_cell``)."""
        cell = inputs["spec"].cells()[0]
        config = dict(cell.config)
        iterations = int(config["iterations"])
        result = run_once(
            paper_rm3d_trace(num_regrids=iterations // 5 + 2),
            CAMPAIGN_SCENARIOS[cell.scenario](cell.seed, config),
            make_partitioner(cell.partitioner),
            RuntimeConfig(
                iterations=iterations, regrid_interval=5, sensing_interval=10
            ),
        )
        return {k: getattr(result, k) for k in self.run_metrics}


# ----------------------------------------------------------------------
class Composite:
    """Experiments run back to back as one workload.  A round runs every
    part's round once, in order; operation labels are prefixed with the
    part's name."""

    def __init__(self, name: str, parts: tuple):
        self.name = name
        self.parts = parts

    def prepare(self, seed: int) -> dict[str, Any]:
        return {part.name: part.prepare(seed) for part in self.parts}

    def describe(self, inputs: dict[str, Any]) -> dict[str, Any]:
        return {part.name: part.describe(inputs[part.name]) for part in self.parts}

    def run_round(self, inputs, scratch: Path, trace=NO_TRACE, warm=False):
        rnd = Round()
        for part in self.parts:
            directory = scratch / part.name
            directory.mkdir(parents=True, exist_ok=True)
            sub = part.run_round(
                inputs[part.name], directory, trace=trace, warm=warm
            )
            rnd.ops.update((f"{part.name}/{k}", v) for k, v in sub.ops.items())
            rnd.failures.update(
                (f"{part.name}/{k}", v) for k, v in sub.failures.items()
            )
            rnd.steps += sub.steps
        return rnd


def parts(workload, inputs) -> list[tuple[Any, dict[str, Any]]]:
    """(experiment, its inputs) pairs of a workload."""
    if isinstance(workload, Composite):
        return [(part, inputs[part.name]) for part in workload.parts]
    return [(workload, inputs)]


#: The benchmark's workloads.  The simulated-cluster experiments share one
#: workload so that each run is long enough to ride out the shared host's
#: speed phases; the kernel-executing runs, which bypass pricing, are the
#: other.
WORKLOADS = {
    w.name: w
    for w in (
        Composite(
            "sim-experiments", (Fig7Sweep(), SensingLearned(), CampaignGrid())
        ),
        DistributedChaos(),
    )
}


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
