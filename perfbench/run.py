"""ctxdl benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from the seed, then runs passes over its fixed
cell list until the next pass would overrun ``--seconds``. Every cell's
verdict goes through the correctness gate after the pass, outside the timed
region. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead.

End-to-end times (set-up, pass and verdict times) are scaled to a host of
fixed speed by short calibration bursts run between the cells and between
the set-ups, outside the timed spans; ``calibrate.py`` says why and how.
Per-layer times are as measured. The last line of
standard output is one JSON object; the lines before it list every metric
with its unit, and every failed cell with its cause.

The library is imported from ``src/`` of the checkout that holds this file,
never from anywhere else. Scratch files go to ``.perfbench_out/`` there;
traced runs also leave their spans in it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "suite_s": "s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work_root: Path):
    """Import, generate inputs and write input files, several times.

    Returns the last set-up and the median set-up time, each set-up scaled
    by the calibration burst just before it. Every set-up but the last is
    discarded, with its files.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        work = Path(tempfile.mkdtemp(dir=work_root))
        scale = calibrate.scale(calibrate.burst())
        start = time.perf_counter()
        mods = workloads.load_modules()
        built = workloads.build(workload, mods, seed, work)
        times.append((time.perf_counter() - start) * scale)
        if len(times) < SETUP_REPEATS:
            shutil.rmtree(work)
    return mods, built, statistics.median(times)


class Pass:
    """One timed pass over the cell list, judged after the clock stops.

    ``seconds`` and ``times`` are as measured, without the calibration
    bursts; ``scale`` turns them into seconds of the reference host.
    """

    def __init__(self, built, mods, expected: dict, tracer=None):
        cells = built.cells
        results = []
        built.before_pass()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        gc.collect()  # every pass starts from the same heap, not from the last gate's garbage
        start = time.perf_counter()
        bursts = [calibrate.burst()]
        since_burst = 0.0
        for cell in cells:
            if since_burst >= calibrate.EVERY_S:
                bursts.append(calibrate.burst())
                since_burst = 0.0
            if tracer is not None:
                tracer.cell = cell.id
            t0 = time.perf_counter()
            try:
                result, exc = cell.run(), None
            except Exception as caught:  # a failed cell is recorded, never fatal
                result, exc = None, caught
            took = time.perf_counter() - t0
            since_burst += took
            results.append((took, result, exc))
        self.wall = time.perf_counter() - start
        self.seconds = self.wall - sum(bursts)
        self.scale = calibrate.scale(statistics.median(bursts))
        if tracer is not None:
            tracer.uninstall()
            self.layers = tracer.pass_metrics(self.seconds)
        budget_error = mods.semantics.BoundTooLargeError
        self.times = [t for t, _, _ in results]
        self.outcomes = [workloads.outcome_of(cell, result, exc, budget_error)
                         for cell, (_, result, exc) in zip(cells, results)]
        self.judged = [(cell.id, *workloads.judge(cell.id, outcome, expected.get(cell.id)))
                       for cell, outcome in zip(cells, self.outcomes)]
        built.after_pass()


def run_passes(built, mods, expected: dict, seconds: float, tracer=None):
    """Closed loop until the next pass would overrun; at least one pass of each kind.

    With a tracer, passes alternate untraced / traced; returns both lists.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            traced.append(current := Pass(built, mods, expected, tracer))
        else:
            plain.append(current := Pass(built, mods, expected))
        elapsed = time.perf_counter() - start
        done = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        if done and elapsed + current.wall > seconds:
            return plain, traced


def failure_summary(passes) -> tuple[Counter, dict, int]:
    statuses: Counter = Counter()
    causes: dict[tuple[str, str], tuple[str, int]] = {}
    for p in passes:
        for cell_id, status, cause in p.judged:
            statuses[status] += 1
            if status != "decided":
                previous = causes.get((status, cell_id), (cause, 0))
                causes[(status, cell_id)] = (previous[0], previous[1] + 1)
    attempted = sum(len(p.judged) for p in passes)
    return statuses, causes, attempted


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "ctxdl" / "__init__.py").is_file():
        print(f"perfbench: no ctxdl sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        mods, built, setup_s = set_up(args.workload, args.seed, work_root)
        if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: ctxdl was imported from {mods.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tracer = tracing.Tracer(mods) if args.trace else None
        plain, traced = run_passes(built, mods, expected, args.seconds, tracer)
        if tracer is not None:
            tracer.dump(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    passes = plain + traced
    statuses, causes, attempted = failure_summary(passes)
    cells = len(built.cells)
    print(f"workload {args.workload}  seed {args.seed}  cells/pass {cells}  "
          f"passes {len(plain)} untraced + {len(traced)} traced")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"  {label} pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in group))
            print(f"  {label} host speed scale: " + " ".join(f"{p.scale:.3f}" for p in group))
    for (status, cell_id), (cause, count) in sorted(causes.items()):
        print(f"  {status:10s} {cell_id:40s} {cause} ({count} of {len(passes)} passes)")
    failed = statuses["budget_out"] + statuses["error"] + statuses["wrong"]
    counts = {
        "budget_outs": len({c for s, c in causes if s == "budget_out"}),
        "errors": len({c for s, c in causes if s == "error"}),
        "wrong_verdicts": len({c for s, c in causes if s == "wrong"}),
    }
    times = [t * p.scale for p in plain for t in p.times]
    end_to_end = {
        "suite_s": statistics.median(p.seconds * p.scale for p in plain),
        "verdict_s_p50": statistics.median(times),
        "verdict_s_p90": statistics.quantiles(times, n=10)[8],
        "decided_ratio": statuses["decided"] / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print_metrics(f"end to end (untraced passes; {len(times)} verdict samples)",
                  {**end_to_end, **counts},
                  {**END_TO_END_UNITS, "budget_outs": "cells", "errors": "cells", "wrong_verdicts": "cells"})
    metrics = end_to_end
    units = END_TO_END_UNITS
    if traced:
        layers = {name: statistics.median(p.layers[name] for p in traced)
                  for name in tracing.METRIC_UNITS if name in traced[0].layers}
        layers["trace.traced_suite_s"] = statistics.median(p.seconds * p.scale for p in traced)
        layers["trace.untraced_suite_s"] = end_to_end["suite_s"]
        layers["trace.overhead_s"] = layers["trace.traced_suite_s"] - end_to_end["suite_s"]
        print_metrics("per layer (traced passes, median)", layers, tracing.METRIC_UNITS)
        metrics, units = layers, tracing.METRIC_UNITS
    result = {
        "correct": statuses["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
