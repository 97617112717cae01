"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `albertson` from `src/` of
that checkout and writes only under `.perfbench_out/` there.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it wraps the
program's public functions in spans and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 21
OVERHEAD_MIN_S = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sweep", "graph-certify", "tk-search", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _startup_probes(harness, src: str) -> dict:
    """Interpreter start-up and import cost, from fresh child processes, in
    reference milliseconds (each child calibrated before and after)."""
    env = dict(os.environ, PYTHONPATH=src)

    def child(args: list[str]) -> tuple[str, float, float]:
        """The child's stderr, its wall ms and the wall-to-reference factor."""
        before = harness.calibrate(harness.SPOT_REPEATS)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, check=True)
        wall_ms = (time.perf_counter() - start) * 1e3
        after = harness.calibrate(harness.SPOT_REPEATS)
        return proc.stderr, wall_ms, harness.to_reference(1.0, before, after)

    bare = []
    for _ in range(5):
        _, wall_ms, scale = child(["-c", "pass"])
        bare.append(wall_ms * scale)
    site, cli = [], []
    pattern = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \| ?(\s*)(\S+)$", re.MULTILINE)
    for _ in range(3):
        stderr, _, scale = child(["-X", "importtime", "-c", "import albertson.cli"])
        cumulative = {name: int(us) for us, _, name in pattern.findall(stderr)}
        site.append(cumulative.get("site", 0) / 1e3 * scale)
        cli.append(cumulative["albertson.cli"] / 1e3 * scale)
    return {"cli.import_ms": (statistics.median(cli), "ms"),
            "python.site_ms": (statistics.median(site), "ms"),
            "python.bare_start_ms": (statistics.median(bare), "ms")}


def _overhead(harness, tracing, mods, workload) -> float:
    """Traced over untraced time of the same instances, minus 1."""
    batch, untraced, index = [], 0.0, 10**6
    cal = harness.calibrate(harness.SPOT_REPEATS)
    while untraced < OVERHEAD_MIN_S and index < 10**6 + 200:
        for inst in workload.rounds(index):
            batch.append(inst)
            untraced += harness.attempt(inst).seconds
        index += 1
    after = harness.calibrate(harness.SPOT_REPEATS)
    untraced = harness.to_reference(untraced, cal, after)
    tracer = tracing.Tracer(mods, harness.Undecided)
    try:
        traced = sum(harness.attempt(inst).seconds for inst in batch)
    finally:
        tracer.restore()
    traced = harness.to_reference(traced, after, harness.calibrate(harness.SPOT_REPEATS))
    return traced / untraced - 1


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "albertson" / "__init__.py").is_file():
        print(f"error: {src} holds no albertson package to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, tracing, workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    harness.install_alarm()
    build = workloads.WORKLOADS[args.workload]

    def setup():
        mods = harness.fresh_import(str(src))
        workload = build(mods, args.seed, str(out_dir), bool(args.trace))
        workload.warmup()
        return mods, workload

    (mods, workload), setup_s = harness.median_setup(setup, SETUP_REPEATS)

    if args.trace:
        overhead = _overhead(harness, tracing, mods, workload)
        tracer = tracing.Tracer(mods, harness.Undecided)
        run = harness.Run(tracer)
        try:
            run.phase(workload.frontier, workload.rounds, args.seconds)
        finally:
            tracer.restore()
        scale = run.measured / run.wall  # wall to reference time over the whole run
        metrics = {name: (value * scale if unit == "ms" else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        metrics.update(_startup_probes(harness, str(src)))
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans} ({tracer.dropped} dropped)")
    else:
        installed = tracing.find_wrappers(mods)
        if installed:
            print(f"error: untraced run found trace wrappers: {installed}", file=sys.stderr)
            return 3
        run = harness.Run()
        run.phase(workload.frontier, workload.rounds, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        metrics = {"setup_s": (setup_s, "s")}

    summary = harness.summarize(run)
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} attempted, "
          f"{summary['undecided']} undecided, {summary['failed']} failed")
    print(f"{run.wall:.3f} wall s measured = {run.measured:.3f} reference s "
          f"(calibration loop: {harness.REFERENCE_CAL_S * 1e6:g} us per reference s)")
    if run.undecided:
        print("undecided: " + ", ".join(f"{key} x{count}" for key, count
                                         in sorted(run.undecided.items())))
    for error in run.errors[:20]:
        print(f"wrong: {error}", file=sys.stderr)
    if not args.trace:
        for name, unit in (("decide_p50_ms", "ms"), ("decide_tail_ms", "ms"),
                           ("decided_per_s", "1/s"), ("decided_frac", "fraction"),
                           ("error_frac", "fraction")):
            metrics[name] = (summary[name], unit)
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MiB")
        print(f"decide_tail_ms is p{summary['tail_percentile']} of {summary['attempted']} "
              f"samples, {summary['tail_beyond']} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    # error_frac is always 0 on a correct run; `failed` carries it instead.
    metrics.pop("error_frac", None)
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
