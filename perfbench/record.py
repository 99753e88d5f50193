"""Record every cell's verdict at the current commit into expected.json.

    python3 perfbench/record.py

Runs one untraced pass of each workload on the default seed. It refuses to
write the record when a witness fails to replay or a verdict contradicts a
hand-written known answer, so the record can only narrow those rules.
Budget-outs and errors are recorded as such. Only the benchmark's own
defining change should rewrite the record; a later change that moves a
verdict is judged against it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    warnings.simplefilter("ignore")
    run.OUT.mkdir(exist_ok=True)
    record = {}
    for name in sorted(workloads.WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT))
        try:
            mods = workloads.load_modules()
            built = workloads.build(name, mods, workloads.DEFAULT_SEED, work)
            one = run.Pass(built, mods, {})
        finally:
            shutil.rmtree(work)
        verdicts = {}
        for cell, outcome in zip(built.cells, one.outcomes):
            known = workloads.known_answer(cell.id)
            decided = outcome.verdict != "budget-out" and not outcome.verdict.startswith("error:")
            if outcome.problem or (decided and known is not None and outcome.verdict != known):
                print(f"{cell.id}: {outcome}; known answer {known}", file=sys.stderr)
                return 1
            verdicts[cell.id] = outcome.verdict
        record[name] = dict(sorted(verdicts.items()))
        print(f"{name}: {len(verdicts)} cells, {one.seconds:.2f} s")
    run.EXPECTED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
