"""`scripts/compare_fingerprints.py` on small hand-written fingerprints."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_fingerprints.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_fingerprints", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_fingerprints = load_script()

WITNESS = ["SatisfiableAt", 1, None, "model witness {\n  domain 1 .\n}\n"]
OLD = [
    ({"id": "refute/1/a", "verdict": ["NoModelUpTo", None, 3, None]}, [120]),
    ({"id": "refute/1/b", "budget_out": 20000}, [20001]),
    ({"id": "witness/1/c", "outcome": "holds", "premises": [WITNESS], "conclusion": WITNESS}, [4, 9]),
    ({"id": "text/0", "text": "ontology o0 {\n}\n"}, None),
]


def write(root: Path, calls) -> Path:
    root.mkdir()
    with (root / "verdicts.jsonl").open("w") as verdicts, (root / "counts.jsonl").open("w") as counts:
        for record, ticks in calls:
            verdicts.write(json.dumps(record, sort_keys=True) + "\n")
            if ticks is not None:
                counts.write(json.dumps({"id": record["id"], "ticks": ticks}) + "\n")
    return root


def changed(index, record=None, ticks=None):
    calls = [(dict(r), t) for r, t in OLD]
    old_record, old_ticks = calls[index]
    calls[index] = (record if record is not None else old_record, ticks if ticks is not None else old_ticks)
    return calls


def run(tmp_path, new_calls, capsys):
    code = compare_fingerprints.main([str(write(tmp_path / "old", OLD)), str(write(tmp_path / "new", new_calls))])
    return code, capsys.readouterr().out


def test_identical_fingerprints_pass(tmp_path, capsys):
    code, out = run(tmp_path, OLD, capsys)
    assert code == 0
    assert "decided by both: 3, new only: 0, old only: 0, neither: 1" in out


def test_newly_decided_call_with_falling_count_passes(tmp_path, capsys):
    new = changed(1, {"id": "refute/1/b", "verdict": ["NoModelUpTo", None, 4, None]}, [800])
    code, out = run(tmp_path, new, capsys)
    assert code == 0
    assert "new only: 1" in out
    assert "1 fell" in out


def test_calls_only_the_new_side_decides_are_listed_with_the_old_budget(tmp_path, capsys):
    old = changed(2, {"id": "witness/1/c", "budget_out": 1000}, [4, 1001])
    new = changed(1, {"id": "refute/1/b", "verdict": ["NoModelUpTo", None, 4, None]}, [800])
    code = compare_fingerprints.main([str(write(tmp_path / "old", old)), str(write(tmp_path / "new", new))])
    out = capsys.readouterr().out
    assert code == 0
    assert ("decided by both: 2, new only: 2, old only: 0, neither: 0\n"
            "  new only refute/1/b: budget 20000 -> NoModelUpTo\n"
            "  new only witness/1/c: budget 1000 -> holds\n") in out


def test_calls_whose_count_fell_are_listed_with_old_and_new_totals(tmp_path, capsys):
    code, out = run(tmp_path, changed(2, ticks=[4, 5]), capsys)
    assert code == 0
    assert "counts: 1 fell, 2 unchanged, 0 rose\n  fell witness/1/c: 13 -> 9\n" in out


def test_only_the_first_twenty_fallen_calls_are_listed(tmp_path, capsys):
    old = [({"id": f"refute/1/{i:02d}", "verdict": ["NoModelUpTo", None, 3, None]}, [100 + i]) for i in range(23)]
    new = [(record, [ticks[0] - 1]) for record, ticks in old]
    code = compare_fingerprints.main([str(write(tmp_path / "old", old)), str(write(tmp_path / "new", new))])
    out = capsys.readouterr().out
    assert code == 0
    listed = [line for line in out.splitlines() if line.startswith("  fell ")]
    assert listed[0] == "  fell refute/1/00: 100 -> 99"
    assert listed[-1] == "  fell refute/1/19: 119 -> 118"
    assert len(listed) == 20
    assert out.endswith("  ... and 3 more\n")


@pytest.mark.parametrize("index, record", [
    (0, {"id": "refute/1/a", "verdict": ["SatisfiableAt", 2, None, "model witness {\n  domain 2 .\n}\n"]}),
    (2, {"id": "witness/1/c", "outcome": "holds", "premises": [WITNESS],
         "conclusion": WITNESS[:3] + ["model witness {\n  domain 1 .\n  conc A = {0} .\n}\n"]}),
    (3, {"id": "text/0", "text": "ontology o0 {\n  A sub B .\n}\n"}),
])
def test_changed_verdict_where_both_decide_fails(tmp_path, capsys, index, record):
    code, out = run(tmp_path, changed(index, record), capsys)
    assert code == 1
    assert f"FAIL {record['id']}: verdict differs" in out


@pytest.mark.parametrize("ticks", [[121], [3, 10], [4, 9, 1]])
def test_rising_count_fails(tmp_path, capsys, ticks):
    index = 0 if len(ticks) == 1 else 2
    code, out = run(tmp_path, changed(index, ticks=ticks), capsys)
    assert code == 1
    assert "count rises" in out


@pytest.mark.parametrize("ticks", [[13], [9], [2, 2, 9]])
def test_different_numbers_of_search_calls_fail(tmp_path, capsys, ticks):
    # The total does not rise, and no search call is compared with another.
    code, out = run(tmp_path, changed(2, ticks=ticks), capsys)
    assert code == 1
    assert f"FAIL witness/1/c: 2 -> {len(ticks)} search calls, [4, 9] -> {ticks}\n" in out
    assert "count rises" not in out
    assert "counts: 0 fell, 2 unchanged, 0 rose\n" in out
    assert out.endswith("search calls differ in number on 1 calls\nFAIL witness/1/c: "
                        f"2 -> {len(ticks)} search calls, [4, 9] -> {ticks}\n")


def test_more_search_calls_with_a_higher_total_fail_twice(tmp_path, capsys):
    code, out = run(tmp_path, changed(2, ticks=[4, 9, 1]), capsys)
    assert code == 1
    assert "FAIL witness/1/c: 2 -> 3 search calls, [4, 9] -> [4, 9, 1]\n" in out
    assert "FAIL witness/1/c: count rises, [4, 9] -> [4, 9, 1]\n" in out


def test_call_that_runs_out_of_budget_only_on_the_new_side_fails(tmp_path, capsys):
    # Both sides search with one budget, so losing a decided call raises its count.
    code, out = run(tmp_path, changed(0, {"id": "refute/1/a", "budget_out": 20000}, [20001]), capsys)
    assert code == 1
    assert "old only: 1" in out
    assert "FAIL refute/1/a: count rises, [120] -> [20001]" in out


def test_different_calls_fail(tmp_path, capsys):
    code, out = run(tmp_path, OLD[:2] + OLD[3:], capsys)
    assert code == 1
    assert "different calls" in out
