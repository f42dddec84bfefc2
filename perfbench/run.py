"""Benchmark of the cliffdegen CLI: seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload lie_reconstruct --seed 1 --seconds 18 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: whole cycles of
the workload through ``cliffdegen.cli.main`` in this process, one op after
another, until at least ``MIN_OPS`` ops ran and their time at nominal
machine speed reaches ``--seconds``, and set-up time in fresh interpreters
in between.  With ``--trace 1`` it replays a fixed op list three times
(untraced, counting, spans) and reports the per-layer metrics.  Every op's
stdout is checked against its known answer.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

MIN_OPS = 100  # at least 10 latency samples beyond the 90th percentile
SETUP_PROBES = 7
TRACE_MIN_OPS = 50
HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
SPAN_DIR = HERE / "out"


class Tally:
    """Ops attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problem) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if self.failed <= 10:
            print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)
        return False

    def run(self, main, op) -> harness.Outcome:
        outcome = harness.execute(main, op)
        self.record(op.label, harness.problem(op, outcome))
        return outcome


def probe_setup(workload: str, seed: int):
    """(start, seconds) of one set-up probe: the time a fresh interpreter
    takes to import cliffdegen.cli and run the warm-up ops, as the probe
    measures it; None if the probe failed."""
    cmd = [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        print(f"perfbench: set-up probe failed: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return start, float(proc.stdout.split()[-1])


def warm_up(cli, workload, seed, tally):
    for op in workload.warmup_ops(seed) + list(workload.prime):
        tally.run(cli.main, op)


def timed_run(cli, workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Whole cycles until ``MIN_OPS`` ops ran and their time, scaled to the
    nominal machine speed, reaches ``seconds``; so the number of cycles does
    not follow the machine's drift.  The set-up probes are spread over the
    run.  Every time is scaled by the reference samples taken around it."""
    warm_up(cli, workload, seed, tally)
    speed = harness.SpeedTrack()
    probes = []  # (start, seconds), or None for a failed probe
    ops = []  # (start, seconds)
    completed = 0
    cycle = 0
    nominal = 0.0  # op time so far, at nominal speed
    start = time.perf_counter()

    def probe():
        speed.sample()
        found = probe_setup(workload.name, seed)
        tally.record("set-up probe", None if found else "probe failed")
        probes.append(found)
        speed.sample()

    while len(ops) < MIN_OPS or nominal < seconds:
        if len(probes) < SETUP_PROBES and nominal >= len(probes) * seconds / SETUP_PROBES:
            probe()
        for op in workload.cycle_ops(seed, cycle):
            speed.sample_if_due()
            outcome = harness.execute(cli.main, op)
            completed += tally.record(op.label, harness.problem(op, outcome))
            ops.append((outcome.start, outcome.seconds))
            nominal += outcome.seconds * speed.current()
        cycle += 1
    speed.sample()
    while len(probes) < SETUP_PROBES:
        probe()
    latencies = [s * speed.scale(t, s) for t, s in ops]
    setups = [s * speed.scale(t, s) for t, s in filter(None, probes)]
    print(
        f"perfbench: {workload.name} seed {seed}: {len(ops)} timed ops in {cycle} cycles, "
        f"{time.perf_counter() - start:.1f}s wall, {len(setups)} set-up samples, "
        f"{len(speed.values)} speed samples, unscaled ops/s {completed / sum(s for _, s in ops):.4f}, "
        f"mean scale {sum(latencies) / sum(s for _, s in ops):.4f}",
        file=sys.stderr,
    )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def trace_ops(cli, ops, tally: Tally):
    """Run ``ops`` untraced, then counted, then with spans.  Every pass checks
    the answers, and the traced passes must print byte-identical stdout.
    Returns (untraced outcomes, CallCounter, SpanRecorder, tracing overhead
    as traced over untraced ops/s, both scaled to nominal machine speed)."""
    speed = harness.SpeedTrack()

    def execute(main, op):
        speed.sample_if_due()
        return harness.execute(main, op)

    base = []
    for op in ops:
        base.append(execute(cli.main, op))
        tally.record(op.label, harness.problem(op, base[-1]))
    digests = [_digest(o.stdout) for o in base]

    def traced_pass(recorder, targets):
        main = recorder.wrap(tracing.ROOT_SPAN, cli.main)
        outcomes = []
        with tracing.instrument(targets, recorder.wrap) as missing:
            for i, op in enumerate(ops):
                recorder.op = i
                outcomes.append(execute(main, op))
                recorder.end_op()
                problem = harness.problem(op, outcomes[-1])
                if problem is None and _digest(outcomes[-1].stdout) != digests[i]:
                    problem = "stdout differs from the untraced run"
                tally.record(op.label, problem)
        for target in missing:
            print(f"perfbench: layer target {target} not found; its metrics read 0", file=sys.stderr)
        return outcomes

    counter = tracing.CallCounter()
    traced_pass(counter, {**tracing.SPAN_TARGETS, **tracing.COUNT_TARGETS})
    spans = tracing.SpanRecorder()
    traced = traced_pass(spans, tracing.SPAN_TARGETS)
    speed.sample()

    def scaled(outcomes):
        return sum(o.seconds * speed.scale(o.start, o.seconds) for o in outcomes)

    return base, counter, spans, scaled(base) / scaled(traced)


def traced_run(cli, workload, seed: int, tally: Tally) -> dict:
    """Trace a fixed op list (whole cycles, at least ``TRACE_MIN_OPS`` ops),
    so counts repeat exactly for a seed."""
    warm_up(cli, workload, seed, tally)
    ops = []
    cycle = 0
    while len(ops) < TRACE_MIN_OPS:
        ops += workload.cycle_ops(seed, cycle)
        cycle += 1
    base, counter, spans, overhead = trace_ops(cli, ops, tally)
    span_calls = spans.calls()
    for name in list(tracing.SPAN_TARGETS) + [tracing.ROOT_SPAN]:
        if span_calls[name] != counter.counts[name]:
            print(f"perfbench: {name}: {span_calls[name]} spans but {counter.counts[name]} counted calls", file=sys.stderr)
    SPAN_DIR.mkdir(exist_ok=True)
    spans.write(SPAN_DIR / f"spans-{workload.name}-{seed}.tsv")
    print(f"perfbench: {workload.name} seed {seed}: {len(ops)} ops traced, {len(spans.spans)} spans", file=sys.stderr)
    stdout_bytes = sum(len(o.stdout.encode()) for o in base)
    return tracing.layer_metrics(spans, counter, stdout_bytes, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = harness.load_cli()
    except (harness.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics = traced_run(cli, workload, args.seed, tally)
    else:
        metrics = timed_run(cli, workload, args.seed, args.seconds, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
