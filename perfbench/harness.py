"""Loading cliffdegen from the checkout, running one CLI op in process, and
timing the reference loop that tracks the machine's speed."""

from __future__ import annotations

import bisect
import gc
import importlib
import io
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# typical reference-loop time on the machine baseline.json was measured on;
# timings are reported as if the machine ran at that speed
REFERENCE_S = 0.020
REFERENCE_EVERY_S = 0.25  # sampling period of the machine's speed
SPEED_WINDOW_S = 1.0  # samples this close to a timed interval set its scale


def reference_seconds() -> float:
    """Time of one fixed loop of Fraction and dict work, with the cyclic GC
    paused.  It runs no cliffdegen code, so it measures how fast the machine
    runs Python right now, which on a shared machine drifts by tens of
    percent over seconds to minutes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        third = Fraction(1, 3)
        for i in range(4000):
            acc[i % 97] = acc.get(i % 97, 0) + Fraction(i % 7 + 1, i % 5 + 1) * third
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Reference-loop samples taken between ops over a run, used to scale
    each timed interval to the nominal machine speed."""

    def __init__(self):
        self.times = []
        self.values = []
        self._last = 0.0
        self.sample()

    def sample(self):
        start = time.perf_counter()
        self.values.append(reference_seconds())
        self._last = time.perf_counter()
        self.times.append((start + self._last) / 2)

    def sample_if_due(self):
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def current(self) -> float:
        """Scale from the latest few samples, for decisions during a run."""
        return REFERENCE_S / statistics.fmean(self.values[-4:])

    def scale(self, start: float, seconds: float) -> float:
        """Factor for an interval starting at ``start``: REFERENCE_S over the
        mean reference time within SPEED_WINDOW_S of it (below 1 while the
        machine runs slow)."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + SPEED_WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.values[lo:hi] or self.values)


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import ``cliffdegen.cli`` from this checkout's ``src`` (never from an
    installed copy) and return the module."""
    if not (SRC / "cliffdegen" / "cli.py").is_file():
        raise ProgramMissing(f"no cliffdegen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("cliffdegen.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"imported cliffdegen from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Outcome:
    code: object  # exit code, or None when main raised
    stdout: str
    seconds: float
    error: str = None
    start: float = 0.0  # perf_counter at the call to main


def execute(main, op) -> Outcome:
    """Run ``main(argv)`` with the op's input on stdin; stdout is captured
    and stderr discarded.  Only the call to ``main`` is timed."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.stdin), out, io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        code = main(list(op.argv))
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(code, out.getvalue(), seconds, error, t0)


def problem(op, outcome: Outcome):
    """None when the op gave its known answer, else the reason."""
    if outcome.error is not None:
        return outcome.error
    return op.problem(outcome.code, outcome.stdout)
