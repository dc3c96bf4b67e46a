"""Runtime integration: the learned loop vs the unlearned invariant.

The load-bearing contract: with learning disabled (``learn=None`` or a
:class:`NullLearner`) the runtime must be *identical* to the pre-learn
code -- same simulated seconds, same sensing count, same regrid record
-- because every call site guards on ``learner.enabled``.  The golden
trace tests in tests/runtime/test_pipeline_replay.py pin the telemetry
bytes; these pin the result object and exercise the enabled paths.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.cluster import Cluster
from repro.kernels.advection import AdvectionKernel
from repro.kernels.workloads import paper_rm3d_trace
from repro.learn import LearnConfig, LearnController, NULL_LEARNER
from repro.partition import ACEHeterogeneous
from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
from repro.runtime import RuntimeConfig, SamrRuntime
from repro.runtime.distributed import DistributedAmrRun, DistributedRunConfig
from repro.telemetry.spans import Tracer
from repro.util.geometry import Box

ITERS = 30
REGRID = 7


def run_engine(learn=None, seed: int = 11, tracer=None, iters: int = ITERS):
    # The load-script horizon is sized to the run (~1.2 sim-seconds per
    # iteration) so the dynamic load actually moves -- with a huge
    # horizon the capacities are flat and the drift model has nothing
    # to fit (learn_ablation calibrates the same way).
    cluster = Cluster.paper_linux_cluster(
        8, seed=seed, dynamic=True, horizon_s=1.2 * iters
    )
    rt = SamrRuntime(
        paper_rm3d_trace(num_regrids=iters // REGRID + 2),
        cluster,
        ACEHeterogeneous(),
        config=RuntimeConfig(
            iterations=iters, regrid_interval=REGRID, sensing_interval=20
        ),
        learn=learn,
        tracer=tracer,
    )
    return rt.run()


def result_fingerprint(r) -> tuple:
    return (
        r.total_seconds,
        r.num_sensings,
        r.sensing_seconds,
        r.migration_seconds,
        tuple((rec.iteration, rec.trigger) for rec in r.regrids),
    )


class TestDisabledIdentity:
    def test_none_and_null_learner_identical(self):
        assert result_fingerprint(run_engine(None)) == result_fingerprint(
            run_engine(NULL_LEARNER)
        )

    def test_all_flags_off_identical_to_disabled(self):
        """An enabled controller with every behavior off only observes."""
        off = LearnController(
            LearnConfig(
                adaptive_sensing=False,
                payoff_gate=False,
                transient_forecast=False,
            )
        )
        assert result_fingerprint(run_engine(None)) == result_fingerprint(
            run_engine(off)
        )

    def test_distributed_disabled_identity(self):
        from repro.kernels.advection import AdvectionKernel
        from repro.runtime.distributed import DistributedRunConfig
        from repro.util.geometry import Box
        from repro.amr.hierarchy import GridHierarchy

        def run(learn):
            k = AdvectionKernel(
                velocity=(1.0, 0.5),
                pulse_center=(8.0, 8.0),
                pulse_width=2.0,
            )
            h = GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)
            cluster = Cluster.paper_linux_cluster(
                4, seed=3, dynamic=True, horizon_s=1e9
            )
            run_ = DistributedAmrRun(
                h,
                cluster,
                ACEHeterogeneous(),
                config=DistributedRunConfig(
                    steps=9, regrid_interval=3, sensing_interval=4
                ),
                learn=learn,
            )
            r = run_.run()
            return (r.total_seconds, r.num_sensings, r.migration_seconds)

        assert run(None) == run(NULL_LEARNER)


class TestEnabledLoop:
    def test_learned_run_completes_and_observes(self):
        learn = LearnController()
        r = run_engine(learn)
        assert r.iterations == ITERS
        s = learn.summary()
        assert not s["iter_model"]["cold"]
        assert s["iter_model"]["n"] == ITERS

    def test_adaptive_sensing_changes_cadence(self):
        # 60 iterations: enough sensings (capacity_min_points) for the
        # drift model to warm and the learned interval to engage.
        fixed = run_engine(None, iters=60)
        learn = LearnController(
            LearnConfig(
                adaptive_sensing=True,
                payoff_gate=False,
                transient_forecast=False,
            )
        )
        adaptive = run_engine(learn, iters=60)
        # The learned interval engaged (default would stay at f=20
        # and produce the fixed-count sensing schedule).
        assert learn.summary()["sensing_interval"] != 20
        assert adaptive.num_sensings != fixed.num_sensings

    def test_gate_records_decisions(self):
        learn = LearnController(
            LearnConfig(
                adaptive_sensing=False,
                payoff_gate=True,
                transient_forecast=False,
            )
        )
        run_engine(learn)
        assert learn.summary()["gate"]["decisions"] > 0

    def test_learn_telemetry_emitted_and_registered(self):
        from repro.telemetry.names import is_known_metric

        tracer = Tracer()
        run_engine(LearnController(), tracer=tracer)
        learn_events = {
            e.name for e in tracer.events if e.name.startswith("learn.")
        }
        assert "learn.sense_interval" in learn_events
        assert "learn.gate" in learn_events
        metric_names = {
            m.name for m in tracer.metrics if m.name.startswith("learn.")
        }
        assert "learn.observations" in metric_names
        assert all(is_known_metric(m) for m in metric_names)

    def test_disabled_run_emits_no_learn_telemetry(self):
        tracer = Tracer()
        run_engine(None, tracer=tracer)
        assert not any(
            e.name.startswith("learn.") for e in tracer.events
        )
        assert not any(
            m.name.startswith("learn.") for m in tracer.metrics
        )


def advection_hierarchy() -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (32, 32)), k, max_levels=3)


def sequential_solution(steps: int, regrid_interval: int) -> np.ndarray:
    h = advection_hierarchy()
    integ = BergerOligerIntegrator(h, regrid_interval=regrid_interval)
    integ.setup()
    for _ in range(steps):
        integ.advance()
    return GhostFiller(h).fetch(h.domain, 0)


class TestLearnedDistributedLoop:
    """The learned policies driving ``DistributedAmrRun`` on a real kernel."""

    def test_learned_run_is_pinned(self):
        """Every learned behavior on: cadence, gate and simulated time.

        The literals were recorded before the runtime loops were folded
        into the repartition pipeline; the refactor must not move them.
        """
        tracer = Tracer()
        h = advection_hierarchy()
        learn = LearnController(LearnConfig(fallback_interval=2))
        result = DistributedAmrRun(
            h,
            Cluster.paper_linux_cluster(
                4, seed=3, dynamic=True, horizon_s=20.0
            ),
            ACEHeterogeneous(),
            config=DistributedRunConfig(
                steps=30, regrid_interval=4, sensing_interval=3
            ),
            learn=learn,
            tracer=tracer,
        ).run()
        assert result.total_seconds == float.fromhex("0x1.b545f77a826f7p+2")
        assert result.num_sensings == 11
        assert result.migration_seconds == float.fromhex(
            "0x1.70798fb8f0211p-7"
        )
        assert [d.repartition for d in learn.gate_decisions] == [
            True, False, True, False, True, False, True, True, True, True,
        ]
        assert learn.summary()["sensing_interval"] == 80
        spans = repr(
            [(s.name, s.start_sim, s.end_sim) for s in tracer.spans]
        )
        assert hashlib.sha256(spans.encode()).hexdigest() == (
            "5c46de91525bfd50b27f59cd544c4c9c6570153e3e060ff8e3da35aca50e0f6c"
        )
        np.testing.assert_array_equal(
            GhostFiller(h).fetch(h.domain, 0),
            sequential_solution(steps=30, regrid_interval=4),
        )

    @pytest.mark.parametrize(
        "outage_at, recoveries",
        # At 3.0 s the node dies in the sense before a regrid step, and
        # the regrid partitions over the survivors instead.
        [(1.0, 1), (2.0, 1), (3.0, 0)],
    )
    def test_gate_survives_a_node_outage(self, outage_at, recoveries):
        """A node dying during a sense must not reach the payoff gate.

        The outage lands inside the sense's clock advance, after the
        step's recovery check; a gate that redistributed then would price
        migration off the dead node.  The recovery stage at the next step
        handles the fault instead, and the solution stays bitwise equal
        to the sequential one.
        """
        h = advection_hierarchy()
        cluster = Cluster.paper_linux_cluster(
            6, seed=3, dynamic=True, horizon_s=30.0
        )
        run = DistributedAmrRun(
            h,
            cluster,
            ACEHeterogeneous(),
            config=DistributedRunConfig(
                steps=24, regrid_interval=4, sensing_interval=3
            ),
            resilience=ResilienceConfig(checkpoint_interval=3),
            learn=LearnController(LearnConfig(fallback_interval=3)),
        )
        FaultInjector(cluster, monitor=run.monitor).arm(
            FaultPlan.node_outage([1], at=outage_at, duration=2.0, seed=5)
        )
        result = run.run()
        assert result.num_recoveries == recoveries
        np.testing.assert_array_equal(
            GhostFiller(h).fetch(h.domain, 0),
            sequential_solution(steps=24, regrid_interval=4),
        )
