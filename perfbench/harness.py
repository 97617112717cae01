"""Closed-loop runner: one client, one instance at a time, each under a cap.

A run has two phases.  The frontier phase attempts each frontier instance
once.  The stream phase then runs whole rounds of the workload's stream
(fresh seeded inputs every round) until `seconds` have passed.  Every
attempt is timed from the call to its verdict; the result is checked
afterwards, outside the timed section.  An attempt still running at its cap
is stopped by SIGALRM and recorded as undecided.

Times are reported in reference seconds.  On a shared host the processor's
speed can drift by up to 1.8x from one tenth of a second to the next, and
the drift slows all interpreted code alike.  So the runner times a fixed
calibration loop every CALIBRATE_EVERY_S of wall time and scales the attempts
between two calibrations by REFERENCE_CAL_S over the mean of the two loop
times.  One reference second is the wall time in which the loop takes
REFERENCE_CAL_S; caps are in reference seconds too.
"""
from __future__ import annotations

import math
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

PACKAGE_MODULES = ("bounds", "crossing", "verifier", "graph_lab", "cli")
REFERENCE_CAL_S = 150e-6   # the calibration loop's time in one reference second
CALIBRATE_EVERY_S = 0.005  # wall time between calibrations; each costs ~0.15-0.25 ms
SPOT_REPEATS = 5           # loop runs around a single timed section, such as a set-up


class Undecided(BaseException):
    """Raised in the measured call when its cap expires.  A BaseException,
    so that no `except Exception` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise Undecided()


@dataclass
class Instance:
    key: str                               # names the input, e.g. "Delta9 crit"
    call: Callable[[], object]             # the timed work
    check: Callable[[object], str | None]  # error text for a wrong answer, or None
    cap_s: float


@dataclass
class Attempt:
    key: str
    status: str       # "decided", "undecided" or "error"
    seconds: float    # measured wall time; the cap (reference seconds) if undecided
    error: str | None = None


def calibrate(repeats: int = 1) -> float:
    """Median wall seconds of `repeats` runs of a fixed interpreter loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(600):
            table[i & 63] = acc
            acc = (acc + i * 31) % 1000003
            acc += len(str(i))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference(wall_s: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds measured between two calibrations, in reference seconds."""
    return wall_s * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


def attempt(inst: Instance, wall_per_ref: float = 1.0) -> Attempt:
    """Run one instance under its cap (reference seconds, converted to wall
    time by `wall_per_ref`); check its answer afterwards.  `seconds` is wall
    time, except for an undecided attempt, whose is the cap."""
    signal.setitimer(signal.ITIMER_REAL, inst.cap_s * wall_per_ref)
    start = time.perf_counter()
    try:
        try:
            result = inst.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except Undecided:
        return Attempt(inst.key, "undecided", inst.cap_s)
    except Exception as exc:  # a raising instance is a failed instance
        return Attempt(inst.key, "error", time.perf_counter() - start,
                       f"{inst.key}: raised {exc!r}")
    try:
        error = inst.check(result)
    except Exception as exc:  # a malformed answer is a wrong answer
        error = f"checker raised {exc!r}"
    if error is not None:
        return Attempt(inst.key, "error", elapsed, f"{inst.key}: {error}")
    return Attempt(inst.key, "decided", elapsed)


def fresh_import(src_dir: str) -> dict:
    """Import albertson from src_dir afresh (dropping any earlier import) and
    return its modules by short name, plus the package as "albertson"."""
    for name in [m for m in sys.modules if m == "albertson" or m.startswith("albertson.")]:
        del sys.modules[name]
    if sys.path[0] != src_dir:
        sys.path.insert(0, src_dir)
    import importlib

    package = importlib.import_module("albertson")
    modules = {name: importlib.import_module(f"albertson.{name}") for name in PACKAGE_MODULES}
    modules["albertson"] = package
    return modules


class Run:
    """Outcome of every attempt of one run, kept compact so that memory does
    not grow with the number of attempts beyond 8 bytes each.

    Attempts are recorded in wall seconds and rescaled to reference seconds
    at the next calibration; `finish` rescales the last of them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = array("d")  # reference seconds; +inf for undecided and failed
        self.charged = 0.0           # reference seconds measured, the cap for undecided
        self.wall = 0.0              # wall seconds of the decided and failed attempts
        self.measured = 0.0          # the same in reference seconds
        self.decided = 0
        self.undecided: dict[str, int] = {}
        self.errors: list[str] = []
        self._cal = calibrate()
        self._cal_at = time.perf_counter()
        self._unscaled = 0           # latencies from this index on are still wall time
        self._unscaled_wall = 0.0

    def _calibrate(self) -> None:
        # one loop run per CALIBRATE_EVERY_S of wall time since the last
        # calibration, at most SPOT_REPEATS, so long attempts get a steadier one
        since = time.perf_counter() - self._cal_at
        cal = calibrate(max(1, min(SPOT_REPEATS, int(since / CALIBRATE_EVERY_S))))
        scale = to_reference(1.0, self._cal, cal)
        for i in range(self._unscaled, len(self.latencies)):
            self.latencies[i] *= scale
        self.wall += self._unscaled_wall
        self.measured += self._unscaled_wall * scale
        self.charged += self._unscaled_wall * scale
        self._unscaled, self._unscaled_wall = len(self.latencies), 0.0
        self._cal, self._cal_at = cal, time.perf_counter()

    def finish(self) -> None:
        """Rescale the attempts made since the last calibration."""
        if self._unscaled < len(self.latencies):
            self._calibrate()

    def record(self, result: Attempt) -> None:
        if result.status == "undecided":
            self.charged += result.seconds
            self.latencies.append(math.inf)
            self.undecided[result.key] = self.undecided.get(result.key, 0) + 1
            return
        self._unscaled_wall += result.seconds
        if result.status == "decided":
            self.decided += 1
            self.latencies.append(result.seconds)
            return
        self.latencies.append(math.inf)
        self.errors.append(result.error)

    def do(self, inst: Instance) -> None:
        if time.perf_counter() - self._cal_at >= CALIBRATE_EVERY_S:
            self._calibrate()
        if self.tracer is not None:
            self.tracer.instance = len(self.latencies)
        self.record(attempt(inst, self._cal / REFERENCE_CAL_S))

    def phase(self, frontier: Iterable[Instance], rounds: Callable[[int], list[Instance]],
              seconds: float) -> None:
        for inst in frontier:
            self.do(inst)
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            for inst in rounds(index):
                self.do(inst)
            index += 1
        self.finish()


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 0-based index into the sorted sample) of the highest
    whole percentile with at least 10 samples beyond it, by nearest rank.
    With fewer than 11 samples no percentile qualifies; the maximum is
    returned as percentile 100."""
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, rank - 1
    return 100, n - 1


def summarize(run: Run) -> dict:
    """End-to-end metrics of a run.  Undecided and failed attempts count as
    +inf in the latency distribution; throughput charges undecided attempts
    at their cap and failed ones at their measured time."""
    run.finish()
    n = len(run.latencies)
    latencies = sorted(run.latencies)
    q, index = tail_rank(n)
    return {
        "attempted": n,
        "failed": len(run.errors),
        "undecided": sum(run.undecided.values()),
        "decide_p50_ms": latencies[math.ceil(n / 2) - 1] * 1e3,
        "decide_tail_ms": latencies[index] * 1e3,
        "tail_percentile": q,
        "tail_beyond": n - index - 1,
        "decided_per_s": run.decided / run.charged,
        "decided_frac": run.decided / n,
        "error_frac": len(run.errors) / n,
    }


def median_setup(setup: Callable[[], object], times: int) -> tuple[object, float]:
    """Run `setup` several times; return the last result and the median
    time in reference seconds, each set-up calibrated before and after."""
    durations = []
    result = None
    calibrate()  # the first call runs cold
    cal = calibrate(SPOT_REPEATS)
    for _ in range(times):
        start = time.perf_counter()
        result = setup()
        wall = time.perf_counter() - start
        after = calibrate(SPOT_REPEATS)
        durations.append(to_reference(wall, cal, after))
        cal = after
    return result, statistics.median(durations)


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
