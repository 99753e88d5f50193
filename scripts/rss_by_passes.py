"""Peak RSS of the benchmark process after a number of passes.

    python3 scripts/rss_by_passes.py CHECKOUT WORKLOAD N1,N2,... [--seed S]

Runs the benchmark's own set-up (``perfbench/run.set_up``: eleven imports of
the library in ``CHECKOUT/src`` and their inputs) and then passes
(``perfbench/run.Pass``) over ``WORKLOAD``'s cells in one process, keeping
every pass as ``run.py`` does. After the set-up and after the N-th pass for
each N given, it prints the peak RSS so far and the number of copies of the
library whose classes are still alive after a garbage collection (one
class, ``ctxdl.core.Term``, counted per copy). The last line of standard
output is one JSON object with the same figures.

``peak_rss_mb`` of a benchmark run grows with the number of passes that
fit into its time, so a faster library reads higher at equal memory per
pass; this separates the two. Comparing two checkouts:

    python3 scripts/rss_by_passes.py ../parent refute 100,200,300
    python3 scripts/rss_by_passes.py . refute 100,200,300
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import warnings
from pathlib import Path


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def live_copies() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, type) and o.__name__ == "Term" and o.__module__ == "ctxdl.core")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", type=Path)
    parser.add_argument("workload")
    parser.add_argument("passes", help="comma-separated pass counts, increasing")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    marks = [int(n) for n in args.passes.split(",")]
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    warnings.simplefilter("ignore")
    import run

    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[args.workload]
    work_root = Path(tempfile.mkdtemp(prefix="rss-"))
    try:
        mods, built, _ = run.set_up(args.workload, args.seed, work_root)
        rows = [{"passes": 0, "peak_rss_mb": round(peak_mb(), 2), "live_copies": live_copies()}]
        print(f"{args.workload} seed {args.seed}: after set-up  {rows[0]['peak_rss_mb']:8.2f} MB  "
              f"{rows[0]['live_copies']} live copies")
        kept = []
        for mark in marks:
            while len(kept) < mark:
                kept.append(run.Pass(built, mods, expected))
            row = {"passes": mark, "peak_rss_mb": round(peak_mb(), 2), "live_copies": live_copies()}
            rows.append(row)
            print(f"{args.workload} seed {args.seed}: after {mark:4d} passes {row['peak_rss_mb']:8.2f} MB  "
                  f"{row['live_copies']} live copies")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps({"checkout": str(args.checkout), "workload": args.workload, "seed": args.seed, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
