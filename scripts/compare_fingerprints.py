"""Compare two fingerprints written by ``search_fingerprint.py``.

    python3 scripts/compare_fingerprints.py OLD_DIR NEW_DIR

Each directory holds ``verdicts.jsonl`` and ``counts.jsonl``. The comparison
fails (exit 1) when

* the two sides do not fingerprint the same calls, in the same order;
* a verdict or witness differs on a call that both sides decide, that is,
  where neither side ran out of budget;
* a call's two sides made different numbers of search calls;
* a call's candidate count rises: the total over its search calls, or, where
  both sides made the same search calls, the count of any one of them.

A call that only the new side decides, or whose count falls, is allowed and
counted in the summary, which also lists the first calls that only the new
side decides, with the budget the old side ran out of and the new verdict or
outcome, and the first calls whose count fell, with their old and new
totals. Exit 0 when nothing fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


LISTED = 20  # calls newly decided, and calls whose count fell, listed in the summary


def load(path: Path) -> dict[str, dict]:
    records: dict[str, dict] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            records[record["id"]] = record
    return records


def rises(old: list[int], new: list[int]) -> bool:
    return sum(new) > sum(old) or len(old) == len(new) and any(b > a for a, b in zip(old, new))


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """Print a summary and return the failures, one line each."""
    failures = []
    old_verdicts, new_verdicts = load(old_dir / "verdicts.jsonl"), load(new_dir / "verdicts.jsonl")
    old_counts, new_counts = load(old_dir / "counts.jsonl"), load(new_dir / "counts.jsonl")
    if list(old_verdicts) != list(new_verdicts):
        failures.append("the two sides fingerprint different calls")
    if list(old_counts) != list(new_counts):
        failures.append("the two sides count different calls")
    if failures:
        return failures

    decided = {"both": 0, "new only": 0, "old only": 0, "neither": 0}
    newly: list[str] = []
    for call_id, old in old_verdicts.items():
        new = new_verdicts[call_id]
        undecided = ("budget_out" in old, "budget_out" in new)
        decided[{(False, False): "both", (True, False): "new only",
                 (False, True): "old only", (True, True): "neither"}[undecided]] += 1
        if undecided == (False, False) and old != new:
            failures.append(f"{call_id}: verdict differs")
        elif undecided == (True, False):
            verdict = new["verdict"][0] if "verdict" in new else new.get("outcome")
            newly.append(f"{call_id}: budget {old['budget_out']} -> {verdict}")

    fell: list[str] = []
    same = rose = reshaped = 0
    for call_id, old in old_counts.items():
        old_ticks, new_ticks = old["ticks"], new_counts[call_id]["ticks"]
        if len(new_ticks) != len(old_ticks):
            reshaped += 1
            failures.append(f"{call_id}: {len(old_ticks)} -> {len(new_ticks)} search calls, "
                            f"{old_ticks} -> {new_ticks}")
        if rises(old_ticks, new_ticks):
            rose += 1
            failures.append(f"{call_id}: count rises, {old_ticks} -> {new_ticks}")
        elif new_ticks == old_ticks:
            same += 1
        elif len(new_ticks) == len(old_ticks):
            fell.append(f"{call_id}: {sum(old_ticks)} -> {sum(new_ticks)}")

    print(f"{len(old_verdicts)} lines, {len(old_counts)} counted calls")
    print("decided by " + ", ".join(f"{who}: {n}" for who, n in decided.items()))
    listed(newly, "new only")
    print(f"counts: {len(fell)} fell, {same} unchanged, {rose} rose")
    listed(fell, "fell")
    if reshaped:
        print(f"search calls differ in number on {reshaped} calls")
    return failures


def listed(lines: list[str], label: str) -> None:
    """Print the first `LISTED` lines under `label`, and how many more there are."""
    for line in lines[:LISTED]:
        print(f"  {label} {line}")
    if len(lines) > LISTED:
        print(f"  ... and {len(lines) - LISTED} more")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = compare(Path(argv[0]), Path(argv[1]))
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
