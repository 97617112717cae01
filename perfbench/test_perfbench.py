"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from perfbench import harness, oracle, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.fixture(scope="module", autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, harness._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _run(instances) -> harness.Run:
    run = harness.Run()
    for inst in instances:
        run.do(inst)
    return run


@pytest.fixture
def mods():
    return harness.fresh_import(SRC)


def test_planted_wrong_chromatic_number_counts_as_error(mods):
    wl = workloads.graph_certify(mods, 1, str(ROOT), False)
    real = mods["graph_lab"].chromatic_number
    mods["graph_lab"].chromatic_number = lambda g, max_n=None: real(g, max_n) + 1
    run = _run(wl.rounds(0))
    summary = harness.summarize(run)
    assert summary["failed"] == summary["attempted"] > 0
    assert summary["error_frac"] == 1.0
    assert all("want" in error for error in run.errors)


def test_planted_wrong_bound_counts_as_error(mods):
    wl = workloads.verify_sweep(mods, 1, str(ROOT), False)
    crossing = mods["crossing"]
    real = crossing.linear_lower

    def off_by_one(n, m):
        bound = real(n, m)
        return type(bound)(value=bound.value + 1, raw=bound.raw, method=bound.method)

    crossing.linear_lower = off_by_one
    run = _run(wl.rounds(0))
    summary = harness.summarize(run)
    # the batch of bound and counting queries fails on a bound; lemma357 stays right
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert run.errors[0].startswith("queries round=0: bound n=")


def test_correct_program_has_no_errors(mods):
    wl = workloads.verify_sweep(mods, 2, str(ROOT), False)
    run = _run(wl.frontier + wl.rounds(0))
    assert harness.summarize(run)["failed"] == 0, run.errors


def test_cap_fires_and_is_recorded_undecided(mods):
    wl = workloads.graph_certify(mods, 1, str(ROOT), False)
    frontier = next(inst for inst in wl.frontier if inst.key == "Delta12 chi")
    frontier.cap_s = 0.2
    start = time.perf_counter()
    result = harness.attempt(frontier)
    assert time.perf_counter() - start < 2
    assert (result.status, result.seconds) == ("undecided", 0.2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    quick = harness.Instance("quick", lambda: 1, lambda value: None, 0.2)
    run = _run([quick] * 20)
    run.record(result)
    summary = harness.summarize(run)
    assert run.undecided == {"Delta12 chi": 1}
    assert summary["decided_frac"] == 20 / 21
    assert math.isfinite(summary["decide_tail_ms"])
    # the undecided attempt is charged at its cap
    assert summary["decided_per_s"] < 20 / 0.2


def test_wall_time_is_scaled_to_reference_time(monkeypatch):
    # a host at half the reference speed: the loop takes twice REFERENCE_CAL_S
    monkeypatch.setattr(harness, "calibrate", lambda repeats=1: 2 * harness.REFERENCE_CAL_S)
    sleepy = harness.Instance("sleepy", lambda: time.sleep(0.07), lambda value: None, 0.05)
    run = _run([sleepy])
    summary = harness.summarize(run)
    # 0.07 wall s is 0.035 reference s, within the 0.05 s cap (0.1 wall s)
    assert summary["decided_frac"] == 1.0
    assert 0.035 <= summary["decide_p50_ms"] / 1e3 < 0.045
    assert run.wall >= 0.07 and run.measured == pytest.approx(run.wall / 2)
    assert harness.median_setup(lambda: time.sleep(0.02), 3)[1] == pytest.approx(0.01, rel=0.4)


@pytest.mark.parametrize("n, want", [(1000, (99, 989)), (100, (90, 89)), (105, (90, 94)),
                                     (20, (50, 9)), (11, (9, 0)), (5, (100, 4))])
def test_tail_rank(n, want):
    assert harness.tail_rank(n) == want


def test_tail_rank_is_the_highest_percentile_with_ten_beyond():
    for n in range(11, 3000):
        q, index = harness.tail_rank(n)
        assert n - index - 1 >= 10
        assert q == 99 or n - math.ceil((q + 1) * n / 100) < 10


def _snapshot(mods):
    graph_lab = mods["graph_lab"]
    owners = list(mods.values()) + [graph_lab.Graph, graph_lab.SubdivisionWitness]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_trace_wrappers_are_restored(mods):
    before = _snapshot(mods)
    assert tracing.find_wrappers(mods) == []
    tracer = tracing.Tracer(mods, harness.Undecided)
    try:
        installed = tracing.find_wrappers(mods)
        for name in ("albertson.verifier.optimize_p", "albertson.crossing.optimize_p",
                     "albertson.optimize_p", "albertson.cli.verify_albertson",
                     "Graph.without_edge", "SubdivisionWitness.verify"):
            assert name in installed
        mods["verifier"].verify_albertson(13)
        g = mods["graph_lab"].Graph(*oracle.delta(5))
        assert mods["graph_lab"].is_critical(g, 5)
    finally:
        tracer.restore()
    assert tracing.find_wrappers(mods) == []
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.metrics()
    assert metrics["crossing.optimize_p.calls"][0] > 0
    busy, own = (metrics[f"verifier.verify_albertson.{k}"][0] for k in ("busy_ms", "self_ms"))
    assert 0 < own < busy
    assert metrics["graph_lab.Graph.without_edge.calls"][0] == len(oracle.delta(5)[1])
    assert metrics["graph_lab.is_critical.yes.calls"][0] == 1
    assert metrics["graph_lab.is_critical.chromatic_number_ms"][0] > 0


def test_untraced_run_prints_a_correct_result():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "verify-sweep", "--seed", "3", "--seconds", "0.05"])
    assert code == 0
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == {"setup_s", "decide_p50_ms", "decide_tail_ms",
                                   "decided_per_s", "decided_frac", "peak_rss_mb"}


def test_refuses_to_run_without_the_program():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tk-search",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_constructions():
    for graph in (oracle.icosahedron(), oracle.apollonian(17, oracle.random.Random(1))):
        assert oracle.is_planar(graph)
    n, edges = oracle.mycielski(4)
    assert (n, len(edges)) == (11, 20)
    n, edges = oracle.delta(5)
    assert (n, len(edges)) == (9, 3 + 6 + 5 + 5)
    assert oracle.check_subdivision((3, frozenset({(0, 1), (1, 2), (0, 2)})), 3, (0, 1, 2),
                                    [((0, 1), (0, 1)), ((1, 2), (1, 2)), ((0, 2), (0, 2))]) is None
    assert oracle.check_subdivision((3, frozenset({(0, 1), (1, 2)})), 3, (0, 1, 2),
                                    [((0, 1), (0, 1)), ((1, 2), (1, 2)), ((0, 2), (0, 2))])
