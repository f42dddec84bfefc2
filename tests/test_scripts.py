"""Smoke tests for the report scripts: each runs in process, returns 0 and
prints a header and one row per case."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, first_columns",
    [
        (
            "degeneration_sweep",
            ["--max-m", "5"],
            [
                "diag(1,..,1,t)     m=3",
                "diag(1,..,1,t,t)   m=3",
                "diag(t,..,t)       m=3",
                "diag(1,..,1,t^2)   m=3",
                "dense Q0+tI, corank 1  m=3     4        2        2",
                "diag(1,..,1,t)     m=5",
                "diag(1,..,1,t,t)   m=5",
                "diag(t,..,t)       m=5",
                "diag(1,..,1,t^2)   m=5",
                "dense Q0+tI, corank 3  m=5    16       14        4",
            ],
        ),
        ("branching_report", [], ["G2    D_7", "C3    D_7", "F4    D_13"]),
    ],
    ids=["degeneration_sweep", "branching_report"],
)
def test_script_prints_one_row_per_case(capsys, monkeypatch, name, argv, first_columns):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    assert load(name).main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(first_columns)
    for row, start in zip(rows, first_columns):
        assert row.startswith(start), row


def test_localmodel_caps_runs_each_class_in_a_fresh_process(capsys):
    """At n = 2: one row per class, each with its wall time, a peak RSS and
    the known payload."""
    assert load("localmodel_caps").main(["--n", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["case", "n"]
    assert [row[:20].strip() for row in rows] == [
        "sequiv conjugate",
        "sequiv unrelated",
        "simple reducible",
        "centralizer random",
    ]
    for row in rows:
        n, seconds, rss = row[20:].split()[:3]
        assert n == "2" and float(seconds) > 0 and int(rss) > 0
    assert rows[1].endswith('{"equivalent": false, "length_bound": 4}')


def test_stdout_digest_repeats_on_one_degeneration_cycle(capsys, monkeypatch):
    """One cycle of `degeneration` at one seed, after its four warm-up ops:
    one line per op with --per-op, then the workload's line, and the same
    bytes on a second run."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = load("stdout_digest")
    argv = ["--workload", "degeneration", "--seeds", "1", "--cycles", "1", "--per-op"]
    assert digest.main(argv) == 0
    first = capsys.readouterr().out
    *ops, total = first.splitlines()
    assert len(ops) == 18 and total.startswith("degeneration\t18 ops\t")
    assert all(line.split("\t")[2] in ("0", "2") for line in ops)
    assert digest.main(argv) == 0
    assert capsys.readouterr().out == first


# `scripts/stdout_digest.py --seeds 1 --cycles 1`: op count and digest per
# workload, so a change to what any benchmark op prints fails tier-1
WORKLOAD_PINS = {
    "degeneration": "18 ops\taf404cf79b01fa7fac9343f15047cfc72feb1f3002a09c649f155c995c0282f9",
    "lie_reconstruct": "9 ops\t02122fd514b6ee41b05a69b6455ebe8c1f1e84e0a01583576a0bae88464a6608",
    "spin_local": "59 ops\td983a01480f835aca893193d4d8e3ad60d3862d6b01124486fd132ba722ed6cf",
}


def test_stdout_digest_of_every_workload_is_pinned(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert load("stdout_digest").main(["--seeds", "1", "--cycles", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert dict(line.split("\t", 1) for line in lines) == WORKLOAD_PINS
