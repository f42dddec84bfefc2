"""Tests of the benchmark itself (not of cliffdegen).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = harness.load_cli()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _signature(ops):
    return [(op.label, op.argv, op.stdin, op.code) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    w = workloads.WORKLOADS[name]
    assert _signature(w.cycle_ops(7, 2)) == _signature(w.cycle_ops(7, 2))
    assert _signature(w.warmup_ops(7)) == _signature(w.warmup_ops(7))
    # the seed moves the inputs, never the mix of op slots
    other = w.cycle_ops(8, 2)
    assert [op.label for op in other] == [op.label for op in w.cycle_ops(7, 2)]
    assert [op.stdin for op in other] != [op.stdin for op in w.cycle_ops(7, 2)]


def _cheap_ops():
    """A few fast ops touching every workload's subcommands."""
    lie = workloads.WORKLOADS["lie_reconstruct"].cycle_ops(1, 0)[:2]
    deg = workloads.WORKLOADS["degeneration"].cycle_ops(1, 0)[:6]
    spin = [op for op in workloads.WORKLOADS["spin_local"].cycle_ops(1, 0) if "ell=1" in op.label or "m=3" in op.label or "n=2" in op.label]
    return lie + deg + spin


def test_corrupted_stdout_is_a_failed_op_and_the_run_goes_on():
    ops = _cheap_ops()
    good = [harness.execute(cli.main, op) for op in ops]
    assert all(harness.problem(op, o) is None for op, o in zip(ops, good))

    def corrupt(text, key, value):
        doc = json.loads(text)
        doc[key] = value
        return json.dumps(doc)

    for op, o in zip(ops, good):
        for bad in (
            o.stdout[: len(o.stdout) // 2],
            "",
            "[]",
            corrupt(o.stdout, "payload", {}),
            corrupt(o.stdout, "payload", None),
            corrupt(o.stdout, "verdict", "pass" if o.code else "fail"),
            corrupt(o.stdout, "subcommand", "selftest"),
        ):
            assert isinstance(op.problem(o.code, bad), str)
        assert isinstance(op.problem(o.code + 1, o.stdout), str)

    outputs = iter(["not json", corrupt(good[1].stdout, "payload", {})])

    def broken_main(argv):
        try:
            print(next(outputs))
        except StopIteration:
            raise RuntimeError("library crashed") from None
        return 0

    tally = run.Tally()
    for op in ops[:3]:
        tally.run(broken_main, op)
    tally.run(cli.main, ops[0])
    assert (tally.attempted, tally.failed) == (4, 3)


def test_self_time_on_nested_spans():
    spans = [
        ("op", -1, 0, 0, 100),
        ("a", 0, 0, 10, 40),
        ("b", 1, 0, 20, 30),
        ("a", 0, 0, 50, 60),
        ("b", 3, 0, 52, 55),
        ("op", -1, 1, 200, 210),
    ]
    got = tracing.self_seconds(spans)
    want = {"op": (100 - 30 - 10) + 10, "a": (30 - 10) + (10 - 3), "b": 10 + 3}
    assert got == pytest.approx({k: v * 1e-9 for k, v in want.items()})


def test_span_recorder_nests_and_restores():
    rec = tracing.SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    rec.op = 4
    assert outer(1) == 3
    names = [(s[0], s[1], s[2]) for s in rec.spans]
    assert names == [("outer", -1, 4), ("inner", 0, 4), ("inner", 0, 4)]
    assert rec.self_seconds()["outer"] >= 0


def test_speed_scale_uses_the_samples_near_the_interval():
    track = harness.SpeedTrack()
    track.times = [0.0, 1.0, 5.0, 10.0]
    track.values = [0.02, 0.04, 0.01, 0.02]
    ref = harness.REFERENCE_S
    assert track.scale(0.5, 0.2) == pytest.approx(ref / 0.03)
    assert track.scale(5.0, 0.0) == pytest.approx(ref / 0.01)
    assert track.scale(20.0, 0.0) == pytest.approx(ref / 0.0225)  # none near: all samples


def test_instrument_restores_every_binding():
    import cliffdegen.cli as c
    import cliffdegen.clifford as clifford
    import cliffdegen.linalg as linalg
    import cliffdegen.lipschitz as lipschitz
    import cliffdegen.spinor as spinor

    before = (c.json, lipschitz.geometric_product, spinor.geometric_product, linalg.SpanBasis.insert)
    counter = tracing.CallCounter()
    with tracing.instrument({**tracing.SPAN_TARGETS, **tracing.COUNT_TARGETS}, counter.wrap) as missing:
        assert missing == []
        assert c.json is not json and c.json.dumps is not json.dumps
        assert spinor.geometric_product is lipschitz.geometric_product
        assert lipschitz.geometric_product is not before[1]
    assert (c.json, lipschitz.geometric_product, spinor.geometric_product, linalg.SpanBasis.insert) == before
    assert lipschitz.geometric_product is clifford.geometric_product


def test_counting_and_span_passes_agree_and_stdout_is_unchanged():
    ops = _cheap_ops()
    tally = run.Tally()
    base, counter, spans, _ = run.trace_ops(cli, ops, tally)
    assert (tally.attempted, tally.failed) == (3 * len(ops), 0)
    calls = spans.calls()
    for name in list(tracing.SPAN_TARGETS) + [tracing.ROOT_SPAN]:
        assert calls[name] == counter.counts[name], name
    assert calls[tracing.ROOT_SPAN] == len(ops)
    assert counter.counts["rings.czero"] > 0
    # a second traced replay counts exactly the same
    _, counter2, spans2, _ = run.trace_ops(cli, ops, run.Tally())
    assert counter2.counts == counter.counts and spans2.calls() == calls
    metrics = tracing.layer_metrics(spans, counter, sum(len(o.stdout) for o in base), 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in metrics.items())


def test_timed_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    tally = run.Tally()
    metrics = run.timed_run(cli, workloads.WORKLOADS["lie_reconstruct"], 1, 0.0, tally)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie_reconstruct", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
