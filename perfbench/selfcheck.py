"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs one round of every workload (about half a minute) and exits non-zero
if any check fails:

- a perturbed fingerprint is counted as a failed operation;
- every metric name in BENCHMARK.json matches ``[A-Za-z0-9_.-]+`` and the
  lists match what the harness emits;
- every per-layer metric is emitted for every workload (0 where the
  layer is bypassed), the layer each workload exists for is non-zero,
  and removing the wrappers restores the original functions;
- changing the seed changes the generated inputs.
"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from pathlib import Path

import run  # sets up the import path for the program under src/
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = ("wall_s", "sim_steps_per_s", "setup_s", "peak_rss_mib")
#: Counters each workload must drive above zero when traced.
EXERCISED = {
    "sim-experiments": (
        "cluster.state_of.calls",
        "learn.ledger.record.calls",
        "campaign.execute_cell.calls",
    ),
    "distributed-chaos": ("kernels.step.calls", "resilience.restores"),
}


class CheckError(Exception):
    pass


def expect(condition: bool, message) -> None:
    if not condition:
        raise CheckError(message)


def check_perturbed_fingerprint(scratch: Path) -> None:
    name = "distributed-chaos"
    reference = run.committed_fingerprint(name)
    harness = run.Harness(workloads.WORKLOADS[name], run.DEFAULT_SEED, scratch)
    harness.round()
    expect(not harness.failures, harness.failures)
    perturbed = copy.deepcopy(reference)
    label = min(k for k, v in perturbed.items() if "total" in v)
    perturbed[label]["total"] = math.nextafter(perturbed[label]["total"], math.inf)
    harness.reference = perturbed
    harness.round()
    expect(len(harness.failures) == 1, harness.failures)
    expect(harness.failures[0].startswith(label), harness.failures)


def check_metric_names() -> None:
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(tuple(e2e) == END_TO_END, e2e)
    expect(tuple(layers) == tracing.PER_LAYER_METRICS, "per_layer list drifted")
    for name in e2e + [n for n, _ in layers]:
        expect(NAME.fullmatch(name), name)
    workload_names = sorted(w["name"] for w in spec["workloads"])
    expect(workload_names == sorted(workloads.WORKLOADS), workload_names)


def check_layers_emitted(scratch: Path) -> None:
    names = [n for n, _ in tracing.PER_LAYER_METRICS]
    originals = {
        (w.owner, w.attr): getattr(w.owner, w.attr) for w in tracing.layer_wraps()
    }
    for name, workload in workloads.WORKLOADS.items():
        harness = run.Harness(workload, 1, scratch / name)
        rec = tracing.SpanRecorder()
        installed = tracing.install(rec)
        try:
            harness.round(trace=rec)
        finally:
            installed.remove()
        expect(not harness.failures, (name, harness.failures))
        metrics = rec.layer_metrics()
        expect(list(metrics) == names, (name, set(metrics) ^ set(names)))
        expect(all(math.isfinite(v) for v in metrics.values()), name)
        for counter in EXERCISED[name]:
            expect(metrics[counter] > 0, (name, counter))
    for (owner, attr), fn in originals.items():
        expect(getattr(owner, attr) is fn, f"{attr} left wrapped")


def check_seed_changes_inputs() -> None:
    for name, workload in workloads.WORKLOADS.items():
        a = workload.describe(workload.prepare(0))
        b = workload.describe(workload.prepare(1))
        expect(a != b, f"{name}: seeds 0 and 1 generate the same inputs")


def main() -> int:
    scratch = run.CHECKOUT / ".perfbench_tmp" / "selfcheck"
    checks = [
        ("perturbed fingerprint fails", lambda: check_perturbed_fingerprint(scratch)),
        ("metric names", check_metric_names),
        ("per-layer metrics emitted", lambda: check_layers_emitted(scratch)),
        ("seed changes inputs", check_seed_changes_inputs),
    ]
    failed = 0
    try:
        for label, check in checks:
            try:
                check()
            except CheckError as exc:
                failed += 1
                print(f"FAIL {label}: {exc}")
            else:
                print(f"ok   {label}")
    finally:
        workloads.clear(scratch)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
