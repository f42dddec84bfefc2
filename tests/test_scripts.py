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
