"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-experiments --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``wall_s``, ``sim_steps_per_s``, ``setup_s``,
``peak_rss_mib``); with ``--trace 1`` it carries the per-layer metrics of
``tracing.PER_LAYER_METRICS`` instead.  Lines above it are a readable
summary, including ``ops_failed_frac``.

One run is: set-up (import + input generation), one untimed warm-up
round, then timed rounds until ``--seconds`` have passed.  Every round's
operations are checked against a reference fingerprint -- the committed
``fingerprint.json`` for the default seed, the warm-up round otherwise --
and any operation that raises or mismatches counts as failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import repro  # noqa: E402,F401 - set-up cost is part of the measurement
import tracing  # noqa: E402
import workloads  # noqa: E402

#: The seed whose fingerprint is committed in ``fingerprint.json``.
DEFAULT_SEED = 0
FINGERPRINT_PATH = HERE / "fingerprint.json"
#: Fresh interpreters timed for ``setup_s`` (median reported).
SETUP_SAMPLES = 3
#: Alternating with/without pairs per ablation in the traced run.
ABLATION_PAIRS = 5


def canonical(values):
    """JSON round trip: tuples become lists, floats keep every digit."""
    return json.loads(json.dumps(values, sort_keys=True, default=float))


def committed_fingerprint(name: str) -> dict | None:
    data = json.loads(FINGERPRINT_PATH.read_text(encoding="utf-8"))
    return data["workloads"].get(name)


def check_round(rnd: workloads.Round, reference: dict | None) -> dict[str, str]:
    """Failed operations of ``rnd``: raised, or differ from ``reference``.

    An operation the reference expects but the round never ran counts as
    attempted and failed.
    """
    failures = dict(rnd.failures)
    if reference is None:
        return failures
    for label in set(reference) | set(rnd.ops):
        if label in failures:
            continue
        if label not in rnd.ops:
            failures[label] = "expected operation did not run"
            continue
        got = canonical(rnd.ops[label])
        if label not in reference:
            failures[label] = "operation has no reference fingerprint"
        elif got != reference[label]:
            failures[label] = f"fingerprint {got} != reference {reference[label]}"
    return failures


class Harness:
    """Runs rounds of one workload and keeps the operation accounting."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.inputs = workload.prepare(seed)
        self.scratch = scratch
        self.reference = (
            committed_fingerprint(workload.name) if seed == DEFAULT_SEED else None
        )
        self.attempted = 0
        self.failures: list[str] = []
        self._rounds = 0

    def round(self, trace=workloads.NO_TRACE, warm=False) -> tuple[float, int]:
        """One checked round; returns (wall seconds, simulated steps)."""
        directory = self.scratch / f"round{self._rounds}"
        self._rounds += 1
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        rnd = self.workload.run_round(
            self.inputs, directory, trace=trace, warm=warm
        )
        wall = time.perf_counter() - t0
        workloads.clear(directory)
        if warm and self.reference is None:
            # Other seeds: the warm-up round is the reference for the rest.
            failures = check_round(rnd, None)
            self.reference = {
                k: canonical(v) for k, v in rnd.ops.items() if k not in failures
            }
        else:
            failures = check_round(rnd, self.reference)
        self.attempted += len(set(rnd.ops) | set(failures))
        self.failures += [f"{k}: {v}" for k, v in sorted(failures.items())]
        return wall, rnd.steps

    def op(self, label: str, ok: bool, detail: str) -> None:
        """Account one operation the harness itself checks."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")


def measure_setup(name: str, seed: int) -> float:
    """Process start to ready-for-the-first-timed-call, in a fresh
    interpreter: ``import repro`` plus input generation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--setup-probe",
        ],
        cwd=CHECKOUT,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def timed_rounds(harness: Harness, seconds: float):
    """Rounds until ``seconds`` have passed (at least one)."""
    walls, steps = [], []
    start = time.perf_counter()
    while True:
        wall, n = harness.round()
        walls.append(wall)
        steps.append(n)
        if time.perf_counter() - start >= seconds:
            return walls, steps


def end_to_end(harness: Harness, args) -> dict:
    setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    walls, steps = timed_rounds(harness, args.seconds)
    rates = [n / w for n, w in zip(steps, walls)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rounds: {len(walls)}  walls_s: {[round(w, 4) for w in walls]}")
    print(f"setup samples_s: {[round(s, 4) for s in setup]}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "sim_steps_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def ablation(harness: Harness, with_fn, without_fn, label: str) -> float:
    """Median wall of ``with_fn`` over ``without_fn`` minus one, from
    alternating pairs.  Every call is an operation, and every call must
    produce the same simulated outputs as the first one."""
    walls = {True: [], False: []}
    outputs = []
    for i in range(2 * ABLATION_PAIRS):
        enabled = (i % 2 == 0) == (i // 2 % 2 == 0)  # order alternates per pair
        t0 = time.perf_counter()
        try:
            out = with_fn() if enabled else without_fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            harness.op(label, False, f"{type(exc).__name__}: {exc}")
            continue
        walls[enabled].append(time.perf_counter() - t0)
        outputs.append(canonical(out))
    for out in outputs:
        harness.op(
            label, out == outputs[0], f"outputs {out} differ from {outputs[0]}"
        )
    if not walls[True] or not walls[False]:
        return 0.0
    return statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0


def ablations(harness: Harness) -> dict[str, float]:
    """Optional layers switched off one at a time, measured from outside."""
    scratch = harness.scratch
    out = {}
    for w, inputs in workloads.parts(harness.workload, harness.inputs):
        if isinstance(w, workloads.CampaignGrid):
            out["telemetry.overhead_frac"] = ablation(
                harness,
                lambda: w.cell_with_telemetry(inputs, scratch),
                lambda: w.cell_without_telemetry(inputs),
                "ablation-telemetry",
            )
        if isinstance(w, workloads.SensingLearned):
            horizon = 0.8 * w.calibrate_learn(inputs)[0]["total"]
            ledgers = itertools.count()
            out["learn.ledger.overhead_frac"] = ablation(
                harness,
                lambda: w.learned_run(
                    inputs, horizon, scratch / f"ledger{next(ledgers)}"
                )[0],
                lambda: w.learned_run(inputs, horizon, None)[0],
                "ablation-ledger",
            )
    return out


def per_layer(harness: Harness, args) -> dict:
    """Traced run: untraced and traced rounds alternate; per-layer
    metrics are medians over the traced rounds."""
    metrics = ablations(harness)
    untraced, traced, recorders = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(harness.round()[0])
        rec = tracing.SpanRecorder()
        installed = tracing.install(rec)
        try:
            traced.append(harness.round(trace=rec)[0])
        finally:
            installed.remove()
        recorders.append(rec)
    spans_path = CHECKOUT / ".perfbench_out" / f"{args.workload}.spans.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.unlink(missing_ok=True)
    next_id = 0
    for rec in recorders:
        next_id = rec.write_jsonl(spans_path, next_id)
    layers = [rec.layer_metrics() for rec in recorders]
    result = {
        name: statistics.median(m[name] for m in layers)
        for name, _ in tracing.PER_LAYER_METRICS
    }
    result.update(metrics)
    result["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    print(f"traced rounds: {len(traced)}  spans: {spans_path}")
    units = dict(tracing.PER_LAYER_METRICS)
    return {name: (value, units[name]) for name, value in result.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import and generate inputs, print 'ready', exit (times setup_s)",
    )
    parser.add_argument(
        "--record-fingerprint",
        action="store_true",
        help="run one round at the default seed and commit its fingerprint",
    )
    return parser.parse_args(argv)


def record_fingerprint(harness: Harness) -> None:
    harness.reference = None
    harness.round(warm=True)
    if harness.failures:
        raise SystemExit(
            "refusing to record a failing round:\n" + "\n".join(harness.failures)
        )
    data = json.loads(FINGERPRINT_PATH.read_text(encoding="utf-8"))
    data["workloads"][harness.workload.name] = harness.reference
    FINGERPRINT_PATH.write_text(
        json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed)
        print("ready", flush=True)
        return 0
    scratch = CHECKOUT / ".perfbench_tmp" / str(os.getpid())
    harness = Harness(workload, args.seed, scratch)
    try:
        if args.record_fingerprint:
            if args.seed != DEFAULT_SEED:
                raise SystemExit(f"fingerprints are recorded at seed {DEFAULT_SEED}")
            record_fingerprint(harness)
            return 0
        harness.round(warm=True)
        metrics = per_layer(harness, args) if args.trace else end_to_end(harness, args)
    finally:
        workloads.clear(scratch)
    failed = len(harness.failures)
    for line in harness.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'ops_failed_frac':40s} {failed / harness.attempted:.6g} frac "
          f"({failed}/{harness.attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": harness.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
