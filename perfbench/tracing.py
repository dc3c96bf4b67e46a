"""Wall-clock spans around the public entry points of each layer.

The traced run installs wrappers around the functions listed in
:func:`layer_wraps` for the duration of one round and removes them
afterwards, so untraced rounds execute the program's own, unpatched code.
Each wrapper records one span -- (name, start, end, parent) -- into a
:class:`SpanRecorder` kept in memory; a re-entrant call of the same layer
function (a composite partitioner calling its inner scheme) is not
recorded twice, so ``busy_s`` never double counts.  Per-layer metrics are
derived from the spans at the end of the round:

- ``<layer>.calls``: number of recorded spans;
- ``<layer>.busy_s``: inclusive wall time;
- ``<layer>.self_s``: wall time minus the time of direct child spans.

Counts that the layer's return values carry (messages, boxes, splits,
bytes) are gathered by the wrappers' ``after`` hooks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Every per-layer metric a traced run emits, with its unit.  Layers a
#: workload bypasses report 0.  The order is the order of the output.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("cluster.state_of.calls", "count"),
    ("cluster.state_of.busy_s", "s"),
    ("cluster.state_of.distinct_frac", "frac"),
    ("comm.exchange_time.calls", "count"),
    ("comm.exchange_time.busy_s", "s"),
    ("comm.allreduce_time.busy_s", "s"),
    ("comm.migration_time.busy_s", "s"),
    ("comm.messages", "count"),
    ("timemodel.iteration_cost.calls", "count"),
    ("timemodel.iteration_cost.busy_s", "s"),
    ("timemodel.iteration_cost.self_s", "s"),
    ("amr.plan_exchange_volumes.calls", "count"),
    ("amr.plan_exchange_volumes.busy_s", "s"),
    ("amr.plan_exchange_volumes.boxes", "count"),
    ("amr.fill_level_ghosts.calls", "count"),
    ("amr.fill_level_ghosts.busy_s", "s"),
    ("amr.regrid.busy_s", "s"),
    ("kernels.step.calls", "count"),
    ("kernels.step.busy_s", "s"),
    ("kernels.cells_updated", "count"),
    ("partition.partition.calls", "count"),
    ("partition.partition.busy_s", "s"),
    ("partition.splits", "count"),
    ("hdda.apply_assignment.calls", "count"),
    ("hdda.apply_assignment.busy_s", "s"),
    ("hdda.blocks", "count"),
    ("monitor.probe_all.calls", "count"),
    ("monitor.probe_all.busy_s", "s"),
    ("learn.controller.busy_s", "s"),
    ("learn.gate.decisions", "count"),
    ("learn.gate.skip_frac", "frac"),
    ("learn.ledger.record.calls", "count"),
    ("learn.ledger.record.busy_s", "s"),
    ("learn.ledger.bytes", "B"),
    ("learn.ledger.overhead_frac", "frac"),
    ("learn.reconcile.busy_s", "s"),
    ("resilience.checkpoint.saves", "count"),
    ("resilience.checkpoint.save_busy_s", "s"),
    ("resilience.checkpoint.bytes", "B"),
    ("resilience.restores", "count"),
    ("resilience.restore_busy_s", "s"),
    ("resilience.replayed_steps", "count"),
    ("telemetry.spans", "count"),
    ("telemetry.write_cell_bundle.busy_s", "s"),
    ("telemetry.bundle_bytes", "B"),
    ("telemetry.overhead_frac", "frac"),
    ("campaign.execute_cell.calls", "count"),
    ("campaign.execute_cell.busy_s", "s"),
    ("campaign.store.append.busy_s", "s"),
    ("campaign.progress.append.busy_s", "s"),
    ("campaign.checkpoint.save.busy_s", "s"),
    ("campaign.resume.busy_s", "s"),
    ("campaign.cells_failed", "count"),
    ("runtime.run.busy_s", "s"),
    ("runtime.self_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
)

#: Span names whose ``calls``/``busy_s``/``self_s`` feed the table above.
_SPAN_METRICS = {
    "cluster.state_of": ("calls", "busy_s"),
    "comm.exchange_time": ("calls", "busy_s"),
    "comm.allreduce_time": ("busy_s",),
    "comm.migration_time": ("busy_s",),
    "timemodel.iteration_cost": ("calls", "busy_s", "self_s"),
    "amr.plan_exchange_volumes": ("calls", "busy_s"),
    "amr.fill_level_ghosts": ("calls", "busy_s"),
    "amr.regrid": ("busy_s",),
    "kernels.step": ("calls", "busy_s"),
    "partition.partition": ("calls", "busy_s"),
    "hdda.apply_assignment": ("calls", "busy_s"),
    "monitor.probe_all": ("calls", "busy_s"),
    "learn.controller": ("busy_s",),
    "learn.ledger.record": ("calls", "busy_s"),
    "learn.reconcile": ("busy_s",),
    "telemetry.write_cell_bundle": ("busy_s",),
    "campaign.execute_cell": ("calls", "busy_s"),
    "campaign.store.append": ("busy_s",),
    "campaign.progress.append": ("busy_s",),
    "campaign.checkpoint.save": ("busy_s",),
    "campaign.resume": ("busy_s",),
    "runtime.run": ("busy_s",),
    "resilience.checkpoint.save": ("calls", "busy_s"),
    "resilience.restore": ("calls", "busy_s"),
}
#: Span metrics published under another name.
_RENAMED = {
    "resilience.checkpoint.save.calls": "resilience.checkpoint.saves",
    "resilience.checkpoint.save.busy_s": "resilience.checkpoint.save_busy_s",
    "resilience.restore.calls": "resilience.restores",
    "resilience.restore.busy_s": "resilience.restore_busy_s",
}


class SpanRecorder:
    """In-memory span store plus the counters the wrappers feed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.state_keys: set[tuple[int, float]] = set()
        self.tracers: list[Any] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.names[self._stack[-1]] == name

    # -- derived metrics ---------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls / busy_s / self_s per span name."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        labels, inverse = np.unique(
            np.asarray(self.names, dtype=object).astype(str),
            return_inverse=True,
        )
        calls = np.bincount(inverse, minlength=len(labels))
        busy = np.bincount(inverse, weights=dur, minlength=len(labels))
        self_s = np.bincount(inverse, weights=own, minlength=len(labels))
        return {
            str(name): {
                "calls": float(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(labels)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this recorder can derive (0 if bypassed)."""
        out = {name: 0.0 for name, _ in PER_LAYER_METRICS}
        totals = self.span_totals()
        for name, fields in _SPAN_METRICS.items():
            for field in fields:
                key = f"{name}.{field}"
                value = totals.get(name, {}).get(field, 0.0)
                out[_RENAMED.get(key, key)] = value
        for name, value in self.counts.items():
            out[name] = float(value)
        calls = out["cluster.state_of.calls"]
        out["cluster.state_of.distinct_frac"] = (
            len(self.state_keys) / calls if calls else 0.0
        )
        decisions = self.counts.get("learn.gate.decisions", 0.0)
        out["learn.gate.skip_frac"] = (
            self.counts.get("learn.gate.skips", 0.0) / decisions
            if decisions
            else 0.0
        )
        out.pop("learn.gate.skips", None)
        out["telemetry.spans"] = float(sum(len(t.spans) for t in self.tracers))
        run = totals.get("runtime.run")
        out["runtime.self_frac"] = (
            run["self_s"] / run["busy_s"] if run and run["busy_s"] else 0.0
        )
        return out

    def write_jsonl(self, path: Path, first_id: int = 0) -> int:
        """Append the spans as ``{"id", "name", "start", "end", "parent"}``
        lines; returns the next free id."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                parent = self.parents[i]
                fh.write(
                    json.dumps(
                        {
                            "id": first_id + i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": first_id + parent if parent >= 0 else None,
                        }
                    )
                    + "\n"
                )
        return first_id + len(self.names)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Wrap:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``name=None`` records no span (the wrapper only feeds counters).
    ``before(rec, args, kwargs)`` and ``after(rec, args, kwargs, result)``
    run outside the timed call.
    """

    owner: Any
    attr: str
    name: str | None
    before: Callable | None = None
    after: Callable | None = None


def _wrapper(rec: SpanRecorder, spec: Wrap, fn: Callable) -> Callable:
    name, before, after = spec.name, spec.before, spec.after

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if name is None or rec._inside(name):
            result = fn(*args, **kwargs)
        else:
            if before is not None:
                before(rec, args, kwargs)
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapped


class Installed:
    """The patches of one traced round; :meth:`remove` undoes them all."""

    def __init__(self, rec: SpanRecorder, specs: list[Wrap]):
        self._undo: list[tuple[Any, str, Any]] = []
        functions: dict[int, Callable] = {}
        for spec in specs:
            original = getattr(spec.owner, spec.attr)
            wrapped = _wrapper(rec, spec, original)
            if isinstance(spec.owner, type):
                self._set(spec.owner, spec.attr, wrapped)
            else:
                functions[id(original)] = wrapped
        # A module-level function is replaced in every loaded module that
        # imported it by name, so each call site sees the wrapper.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                wrapped = functions.get(id(value))
                if wrapped is not None:
                    self._set(module, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- hooks ---------------------------------------------------------------
def _state_key(rec, args, kwargs):
    cluster, node = args[0], args[1] if len(args) > 1 else kwargs["node"]
    t = args[2] if len(args) > 2 else kwargs.get("t")
    rec.state_keys.add((int(node), cluster.clock.now if t is None else t))


def _messages(rec, args, kwargs, result):
    pair_bytes = args[1] if len(args) > 1 else kwargs["pair_bytes"]
    rec.count("comm.messages", sum(1 for s, d in pair_bytes if s != d))


def _boxes(rec, args, kwargs, result):
    boxes = args[0] if args else kwargs["boxes"]
    rec.count("amr.plan_exchange_volumes.boxes", len(boxes))


def _cells(rec, args, kwargs, result):
    kernel, u = args[0], args[1]
    g = kernel.ghost_width
    rec.count(
        "kernels.cells_updated", int(np.prod([n - 2 * g for n in u.shape[1:]]))
    )


def _splits(rec, args, kwargs, result):
    if not rec._inside("partition.partition"):
        rec.count("partition.splits", result.num_splits)


def _blocks(rec, args, kwargs, result):
    rec.count("hdda.blocks", args[0].total_blocks)


def _gate(rec, args, kwargs, result):
    rec.count("learn.gate.decisions")
    if not result.repartition:
        rec.count("learn.gate.skips")


def _checkpoint_bytes(rec, args, kwargs, result):
    rec.count("resilience.checkpoint.bytes", result.nbytes)


def _bundle_bytes(rec, args, kwargs, result):
    rec.count("telemetry.bundle_bytes", result["total_bytes"])


def _tracer_created(rec, args, kwargs, result):
    rec.tracers.append(args[0])


def _replayed(rec, args, kwargs, result):
    rec.count("resilience.replayed_steps", result.replayed_steps)


def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def layer_wraps() -> list[Wrap]:
    """The layer boundaries the traced run records."""
    import repro.kernels.advection  # noqa: F401 - register kernel classes
    import repro.kernels.buckley_leverett  # noqa: F401
    import repro.kernels.rm3d  # noqa: F401
    import repro.partition  # noqa: F401 - register every partitioner
    from repro.amr import ghost, regrid
    from repro.amr.api import AmrKernel
    from repro.campaign import orchestrator
    from repro.campaign.state import CampaignCheckpointer
    from repro.campaign.store import ResultStore
    from repro.cluster.cluster import Cluster
    from repro.comm.simmpi import SimCommunicator
    from repro.hdda.hdda import HDDA
    from repro.learn import audit
    from repro.learn.policy import LearnController, RepartitionGate
    from repro.monitor.service import ResourceMonitor
    from repro.partition.base import Partitioner
    from repro.resilience.checkpoint import CheckpointManager
    from repro.runtime.distributed import DistributedAmrRun
    from repro.runtime.engine import SamrRuntime
    from repro.runtime.timemodel import TimeModel
    from repro.telemetry import live
    from repro.telemetry.spans import Tracer

    wraps = [
        Wrap(Cluster, "state_of", "cluster.state_of", before=_state_key),
        Wrap(SimCommunicator, "exchange_time", "comm.exchange_time",
             after=_messages),
        Wrap(SimCommunicator, "allreduce_time", "comm.allreduce_time"),
        Wrap(SimCommunicator, "migration_time", "comm.migration_time"),
        Wrap(TimeModel, "iteration_cost", "timemodel.iteration_cost"),
        Wrap(ghost, "plan_exchange_volumes", "amr.plan_exchange_volumes",
             after=_boxes),
        Wrap(ghost.GhostFiller, "fill_level_ghosts", "amr.fill_level_ghosts"),
        Wrap(regrid, "regrid_hierarchy", "amr.regrid"),
        Wrap(regrid, "build_initial_hierarchy", "amr.regrid"),
        Wrap(HDDA, "apply_assignment", "hdda.apply_assignment",
             after=_blocks),
        Wrap(ResourceMonitor, "probe_all", "monitor.probe_all"),
        Wrap(RepartitionGate, "decide", None, after=_gate),
        Wrap(audit.DecisionLedger, "record", "learn.ledger.record"),
        Wrap(audit, "reconcile", "learn.reconcile"),
        Wrap(CheckpointManager, "save", "resilience.checkpoint.save",
             after=_checkpoint_bytes),
        Wrap(CheckpointManager, "restore_latest", "resilience.restore"),
        Wrap(live, "write_cell_bundle", "telemetry.write_cell_bundle",
             after=_bundle_bytes),
        Wrap(Tracer, "__init__", None, after=_tracer_created),
        Wrap(orchestrator, "execute_cell", "campaign.execute_cell"),
        Wrap(ResultStore, "append", "campaign.store.append"),
        Wrap(live.ProgressLog, "append", "campaign.progress.append"),
        Wrap(CampaignCheckpointer, "save", "campaign.checkpoint.save"),
        Wrap(SamrRuntime, "run", "runtime.run"),
        Wrap(DistributedAmrRun, "run", "runtime.run", after=_replayed),
    ]
    wraps += [
        Wrap(LearnController, attr, "learn.controller")
        for attr in (
            "observe_sense",
            "observe_iteration",
            "observe_repartition",
            "observe_recover",
            "sense_due",
            "repartition_decision",
            "effective_capacities",
        )
    ]
    wraps += [
        Wrap(cls, "step", "kernels.step", after=_cells)
        for cls in _subclasses(AmrKernel)
        if "step" in cls.__dict__
    ]
    wraps += [
        Wrap(cls, "partition", "partition.partition", after=_splits)
        for cls in _subclasses(Partitioner)
        if "partition" in cls.__dict__
    ]
    return wraps


def install(rec: SpanRecorder) -> Installed:
    return Installed(rec, layer_wraps())
