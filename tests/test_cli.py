import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxdl
from ctxdl import cli
from ctxdl.cli import run
from ctxdl.semantics import is_model
from ctxdl.textio import parse

IRREFLEXIVE = """ontology irreflexive {
  exists(capitalOf, top) sub forall(inv(capitalOf), bottom) .
  capitalOf(babylon, babylon) .
}
"""

BABYLON = """ontology babylon {
  capitalOf(babylon, babylonianEmpire) .
}
"""

PREMISE = """ontology premise {
  capitalOf rsub cityOf .
  capitalOf(babylon, babylonianEmpire) .
}
"""

CONCLUSION = """ontology conclusion {
  cityOf(babylon, babylonianEmpire) .
}
"""

CONTEXT = """annotation CA anchor a {
  validity(a, t) .
  Interval(t) .
  from(t, 609BC) .
  to(t, 539BC) .
  prov(a, w) .
  name(w, wikipedia) .
  Wiki(w) .
}
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("irreflexive.dl", IRREFLEXIVE),
        ("babylon.dl", BABYLON),
        ("premise.dl", PREMISE),
        ("conclusion.dl", CONCLUSION),
        ("ctx.dl", CONTEXT),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestContextualize:
    def test_writes_parseable_output(self, files, capsys):
        out = str(files["dir"] / "out.dl")
        code = run(
            [
                "contextualize", "--strategy", "ndterms",
                "-O", files["babylon.dl"], "-A", files["ctx.dl"], "-o", out,
            ]
        )
        assert code == 0
        [onto] = parse((files["dir"] / "out.dl").read_text()).ontologies()
        names = {t.name for t in onto.signature}
        assert "capitalOf@CA" in names
        assert "isContextualPartOf" in names

    def test_every_strategy_name(self, files):
        for strategy in ("ndterms", "ndfluents", "rdf", "nary", "nary-concept", "singleton"):
            out = str(files["dir"] / f"out-{strategy}.dl")
            code = run(
                [
                    "contextualize", "--strategy", strategy,
                    "-O", files["babylon.dl"], "-A", files["ctx.dl"], "-o", out,
                ]
            )
            assert code == 0

    def test_output_is_byte_deterministic(self, files):
        outs = []
        for name in ("first.dl", "second.dl"):
            out = str(files["dir"] / name)
            run(
                [
                    "contextualize", "--strategy", "singleton",
                    "-O", files["babylon.dl"], "-A", files["ctx.dl"], "-o", out,
                ]
            )
            outs.append((files["dir"] / name).read_bytes())
        assert outs[0] == outs[1]


class TestModels:
    def test_satisfiable_exits_zero(self, files, capsys):
        assert run(["models", files["babylon.dl"], "--bound", "2"]) == 0
        assert "satisfiable at size 1" in capsys.readouterr().out

    def test_inconsistent_exits_one(self, files, capsys):
        assert run(["models", files["irreflexive.dl"], "--bound", "3"]) == 1
        assert "no model up to size 3" in capsys.readouterr().out

    def test_witness_report(self, files):
        report = str(files["dir"] / "report.jsonl")
        run(["models", files["babylon.dl"], "--bound", "2", "--report", report])
        [record] = [json.loads(line) for line in open(report)]
        assert record["outcome"] == "satisfiable"
        assert record["witness"] is not None
        [model] = parse(open(record["witness"]).read()).models()
        assert model.size == 1

    def test_processes_appending_to_one_report_keep_their_witnesses(self, files):
        report = str(files["dir"] / "report.jsonl")
        inputs = [files["babylon.dl"], files["premise.dl"]]
        for path in inputs:
            done = ctxdl_process("models", path, "--bound", "2", "--report", report)
            assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in open(report)]
        assert [r["seq"] for r in records] == [1, 2]
        assert records[0]["witness"] != records[1]["witness"]
        for path, record in zip(inputs, records):
            [model] = parse(open(record["witness"]).read()).models()
            [ontology] = parse(open(path).read()).ontologies()
            assert is_model(model, ontology)
        assert sorted(p.name for p in files["dir"].iterdir() if ".tmp" in p.name) == []


class TestEntails:
    def test_entailed_exits_zero(self, files, capsys):
        code = run(["entails", "-P", files["premise.dl"], "-C", files["conclusion.dl"], "--bound", "3"])
        assert code == 0
        assert "no counterexample up to 3" in capsys.readouterr().out

    def test_not_entailed_exits_one(self, files):
        code = run(["entails", "-P", files["babylon.dl"], "-C", files["conclusion.dl"], "--bound", "3"])
        assert code == 1


class TestCheck:
    def test_rdf_inconsistency_violated(self, files, capsys):
        code = run(
            [
                "check", "--property", "inconsistency", "--strategy", "rdf",
                "-O", files["irreflexive.dl"], "-A", files["ctx.dl"], "--bound", "3",
            ]
        )
        assert code == 1
        assert "violated" in capsys.readouterr().out

    def test_ndterms_inconsistency_holds(self, files, capsys):
        code = run(
            [
                "check", "--property", "inconsistency", "--strategy", "ndterms",
                "-O", files["irreflexive.dl"], "-A", files["ctx.dl"], "--bound", "3",
            ]
        )
        assert code == 0

    def test_entailment_property_reports_witness(self, files):
        report = str(files["dir"] / "check.jsonl")
        code = run(
            [
                "check", "--property", "entailment", "--strategy", "rdf",
                "-P", files["premise.dl"], "-C", files["conclusion.dl"],
                "-A", files["ctx.dl"], "--bound", "3", "--report", report,
            ]
        )
        assert code == 1
        [record] = [json.loads(line) for line in open(report)]
        assert record["property"] == "entailment"
        assert record["strategy"] == "rdf"
        assert record["outcome"] == "violated"
        assert record["witness"]

    def test_soundness_holds(self, files):
        code = run(
            [
                "check", "--property", "soundness", "--strategy", "ndterms",
                "-O", files["babylon.dl"], "-A", files["ctx.dl"], "--bound", "3",
            ]
        )
        assert code == 0


class TestCombine:
    def test_two_contexts(self, files, tmp_path):
        other_ctx = tmp_path / "ctx2.dl"
        other_ctx.write_text("annotation CB anchor b2 {\n  source(b2, doc2) .\n}\n")
        out = str(tmp_path / "combined.dl")
        code = run(
            [
                "combine", "--strategy", "ndterms",
                "--pair", f"{files['babylon.dl']}:{files['ctx.dl']}",
                "--pair", f"{files['premise.dl']}:{other_ctx}",
                "-o", out,
            ]
        )
        assert code == 0
        [onto] = parse(open(out).read()).ontologies()
        names = {t.name for t in onto.signature}
        assert "capitalOf@CA" in names and "capitalOf@CB" in names


class TestAtomicOutput:
    """`-o` files are written through a temporary file and a rename: a
    failed write leaves the old file whole and no temporary behind."""

    @pytest.mark.parametrize("command", ["contextualize", "combine"])
    def test_failed_rename_keeps_the_old_file(self, files, monkeypatch, capsys, command):
        out = files["dir"] / "out.dl"
        out.write_text("old content\n")
        if command == "contextualize":
            argv = ["contextualize", "-O", files["babylon.dl"], "-A", files["ctx.dl"]]
        else:
            argv = ["combine", "--pair", f"{files['babylon.dl']}:{files['ctx.dl']}"]

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run([*argv, "--strategy", "ndterms", "-o", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == "old content\n"
        assert not list(files["dir"].glob("*.tmp"))


OTHER_CONTEXT = "annotation CB anchor b2 {\n  source(b2, doc2) .\n}\n"
DISCONNECTED = "annotation B anchor a {\n  validity(a, t) .\n  name(w, wikipedia) .\n}\n"

# Every subcommand x outcome: argv, exit status, stdout line, and the report
# record, whose `seq` is 1 and whose witness, where the record says True, is
# `{report}.witness1.model`. `{name}` stands for an input file, `{out}` for
# the -o file and `{report}` for the --report file.
CONTRACT = {
    "contextualize/ok": (
        ["contextualize", "--strategy", "ndterms", "-O", "{babylon.dl}", "-A", "{ctx.dl}", "-o", "{out}"],
        0, "wrote 26 axioms to {out}",
        {"command": "contextualize", "outcome": "ok", "bound": None, "strategy": "ndterms", "axioms": 26},
    ),
    "combine/ok": (
        ["combine", "--strategy", "ndfluents", "--pair", "{babylon.dl}:{ctx.dl}",
         "--pair", "{premise.dl}:{ctx2.dl}", "-o", "{out}"],
        0, "wrote 19 axioms to {out}",
        {"command": "combine", "outcome": "ok", "bound": None, "strategy": "ndfluents", "axioms": 19},
    ),
    "models/satisfiable": (
        ["models", "{babylon.dl}", "--bound", "2"],
        0, "satisfiable at size 1 (bound 2)",
        {"command": "models", "outcome": "satisfiable", "bound": 2, "size": 1, "witness": True},
    ),
    "models/no-model": (
        ["models", "{irreflexive.dl}", "--bound", "3"],
        1, "no model up to size 3",
        {"command": "models", "outcome": "no-model", "bound": 3},
    ),
    "entails/entailed": (
        ["entails", "-P", "{premise.dl}", "-C", "{conclusion.dl}", "--bound", "3"],
        0, "no counterexample up to 3",
        {"command": "entails", "outcome": "entailed", "bound": 3},
    ),
    "entails/not-entailed": (
        ["entails", "-P", "{babylon.dl}", "-C", "{conclusion.dl}", "--bound", "3"],
        1, "not entailed: countermodel of size 1",
        {"command": "entails", "outcome": "not-entailed", "bound": 3, "size": 1, "witness": True},
    ),
    "check/holds": (
        ["check", "--property", "soundness", "--strategy", "ndterms", "-O", "{babylon.dl}", "-A", "{ctx.dl}",
         "--bound", "2"],
        0, "soundness / ndterms: holds at bound 2",
        {"command": "check", "outcome": "holds", "bound": 2, "property": "soundness", "strategy": "ndterms",
         "witness": True},
    ),
    "check/holds-without-witness": (
        ["check", "--property", "inconsistency", "--strategy", "ndterms", "-O", "{irreflexive.dl}",
         "-A", "{ctx.dl}", "--bound", "3"],
        0, "inconsistency / ndterms: holds at bound 3",
        {"command": "check", "outcome": "holds", "bound": 3, "property": "inconsistency", "strategy": "ndterms"},
    ),
    "check/violated": (
        ["check", "--property", "entailment", "--strategy", "rdf", "-P", "{premise.dl}", "-C", "{conclusion.dl}",
         "-A", "{ctx.dl}", "--bound", "3"],
        1, "entailment / rdf: violated at bound 3",
        {"command": "check", "outcome": "violated", "bound": 3, "property": "entailment", "strategy": "rdf",
         "witness": True},
    ),
    "check/inconclusive": (
        ["check", "--property", "inconsistency", "--strategy", "rdf", "-O", "{babylon.dl}", "-A", "{ctx.dl}",
         "--bound", "2"],
        0, "inconsistency / rdf: inconclusive (vacuous at bound) at bound 2",
        {"command": "check", "outcome": "inconclusive", "bound": 2, "property": "inconsistency",
         "strategy": "rdf"},
    ),
    "validate/valid": (
        ["validate", "-A", "{ctx.dl}"],
        0, "annotation CA is valid: anchor a, 12 signature terms",
        None,
    ),
    "validate/invalid": (
        ["validate", "-A", "{bad.dl}"],
        1, "1:1: invalid annotation 'B': terms not connected to the anchor: name, w, wikipedia",
        None,
    ),
}

# The size and domain of each witness file, and the whole text of one.
WITNESS_SIZES = {"models/satisfiable": 1, "entails/not-entailed": 1, "check/holds": 1, "check/violated": 2}
BABYLON_WITNESS = """model witness {
  domain 1 .
  indiv babylon = 0 .
  indiv babylonianEmpire = 0 .
  indiv capitalOf = 0 .
  conc babylon = {} .
  conc babylonianEmpire = {} .
  conc capitalOf = {} .
  role babylon = {} .
  role babylonianEmpire = {} .
  role capitalOf = {(0, 0)} .
}
"""


@pytest.fixture
def contract_files(files):
    for name, text in [("ctx2.dl", OTHER_CONTEXT), ("bad.dl", DISCONNECTED)]:
        path = files["dir"] / name
        path.write_text(text)
        files[name] = str(path)
    files["out"] = str(files["dir"] / "out.dl")
    files["report"] = str(files["dir"] / "report.jsonl")
    return files


def _fill(text: str, paths: dict) -> str:
    for name, path in paths.items():
        text = text.replace("{" + name + "}", str(path))
    return text


class TestContract:
    """The whole observable result of each subcommand and outcome: exit
    status, stdout, stderr, the report line byte for byte, and the witness."""

    @pytest.mark.parametrize("case", sorted(CONTRACT))
    def test_subcommand_outcome(self, contract_files, capsys, case):
        argv, code, line, record = CONTRACT[case]
        argv = [_fill(arg, contract_files) for arg in argv]
        if record is not None:
            argv += ["--report", contract_files["report"]]
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert (out, err) == (_fill(line, contract_files) + "\n", "")
        report = Path(contract_files["report"])
        if record is None:
            assert not report.exists()
            return
        witness = f"{report}.witness1.model" if record.get("witness") else None
        expected = {**record, "seq": 1, "witness": witness}
        assert report.read_text() == json.dumps(expected, sort_keys=True) + "\n"
        witnesses = sorted(p.name for p in contract_files["dir"].glob("*.model"))
        if witness is None:
            assert witnesses == []
            return
        assert witnesses == ["report.jsonl.witness1.model"]
        text = Path(witness).read_text()
        [block] = parse(text).blocks
        assert (block.name, block.payload.size) == ("witness", WITNESS_SIZES[case])
        if case == "models/satisfiable":
            assert text == BABYLON_WITNESS

    def test_usage_error_writes_nothing(self, contract_files, capsys):
        assert run(["models", contract_files["babylon.dl"], "--bound", "0", "--report",
                    contract_files["report"]]) == 2
        assert not Path(contract_files["report"]).exists()

    @pytest.mark.parametrize("case", ["contextualize/ok", "combine/ok", "validate/valid"])
    def test_commands_without_search_ignore_the_budget(self, contract_files, monkeypatch, capsys, case):
        monkeypatch.setenv("CTXDL_BUDGET", "many")
        argv, code, line, _ = CONTRACT[case]
        assert run([_fill(arg, contract_files) for arg in argv]) == code
        assert capsys.readouterr().out == _fill(line, contract_files) + "\n"


class TestReportAppendFailure:
    """A record that cannot be appended leaves no witness without a record."""

    def test_failed_append_removes_the_witness(self, files, monkeypatch, capsys):
        def failing_append(file, mode="r", *args, **kwargs):
            if "a" in mode:
                raise OSError(28, "No space left on device")
            return builtins.open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_append, raising=False)
        report = files["dir"] / "r.jsonl"
        assert run(["models", files["babylon.dl"], "--bound", "2", "--report", str(report)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in files["dir"].iterdir() if p.suffix != ".dl") == []


class TestValidateAndErrors:
    def test_valid_annotation(self, files, capsys):
        assert run(["validate", "-A", files["ctx.dl"]]) == 0
        assert "is valid" in capsys.readouterr().out

    def test_disconnected_annotation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text("annotation B anchor a {\n  validity(a, t) .\n  name(w, wikipedia) .\n}\n")
        assert run(["validate", "-A", str(bad)]) == 1
        assert "invalid annotation" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "syntax.dl"
        bad.write_text("ontology broken { and( }\n")
        assert run(["models", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert run(["models", "/nonexistent/x.dl"]) == 2

    def test_bound_out_of_range_exits_two(self, files, capsys):
        assert run(["models", files["babylon.dl"], "--bound", "9"]) == 2

    def test_budget_env_override(self, files, monkeypatch, capsys):
        monkeypatch.setenv("CTXDL_BUDGET", "0")
        code = run(["models", files["irreflexive.dl"], "--bound", "3"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-5", "many"])
    def test_bad_budget_env_exits_two(self, files, monkeypatch, capsys, raw):
        monkeypatch.setenv("CTXDL_BUDGET", raw)
        assert run(["models", files["irreflexive.dl"], "--bound", "3"]) == 2
        err = capsys.readouterr().err
        assert f"CTXDL_BUDGET must be a non-negative integer, got {raw!r}" in err
        assert "explored" not in err

    def test_unknown_strategy_exits_two(self, files, capsys):
        out = str(files["dir"] / "out.dl")
        code = run(["contextualize", "--strategy", "x", "-O", files["babylon.dl"], "-A", files["ctx.dl"], "-o", out])
        assert code == 2
        assert "unknown strategy 'x'" in capsys.readouterr().err


class TestOnceBuiltParser:
    """One parser serves every call of a process: no call's arguments or
    defaults reach the next, and help and usage text are a fresh parser's."""

    def test_calls_do_not_leak_into_each_other(self, files, capsys):
        report = files["dir"] / "r.jsonl"
        assert run(["models", files["babylon.dl"], "--bound", "9"]) == 2
        assert run(["models", files["babylon.dl"], "--bound", "2"]) == 0
        assert not report.exists()
        assert run(["models", files["babylon.dl"], "--bound", "2", "--report", str(report)]) == 0
        assert len(report.read_text().splitlines()) == 1
        assert run(["models", files["babylon.dl"], "--bound", "2"]) == 0
        assert len(report.read_text().splitlines()) == 1
        out = capsys.readouterr().out
        assert out.count("satisfiable at size 1 (bound 2)") == 3

    @pytest.mark.parametrize("argv", [[], *([command] for command in cli._COMMANDS)])
    def test_help_is_a_fresh_parsers(self, files, capsys, argv):
        run(["models", files["babylon.dl"], "--report", str(files["dir"] / "r.jsonl")])
        run(["models", "--bound", "0"])
        capsys.readouterr()
        assert run([*argv, "--help"]) == 0
        once = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == once
        assert once.out.startswith("usage: ctxdl")

    def test_usage_error_is_a_fresh_parsers(self, files, capsys):
        argv = ["models", files["babylon.dl"], "--bound", "0"]
        run(["models", files["babylon.dl"], "--bound", "2"])
        capsys.readouterr()
        assert run(argv) == 2
        once = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == once
        assert "bound must be between 1 and 6" in once.err


@pytest.fixture
def unprintable(tmp_path):
    """Inputs whose rewrite has no text form: `ctx` renamed into context CA
    is the contextual term `ctx@CA`, whose name reads back as an anchor."""
    (tmp_path / "o.dl").write_text("ontology o { C(ctx) . }\n")
    (tmp_path / "a.dl").write_text("annotation CA anchor a { Src(a) . }\n")
    return tmp_path


class TestUnprintableRewrite:
    def test_contextualize_exits_two_without_output(self, unprintable, capsys):
        code = run(
            [
                "contextualize", "--strategy", "ndterms", "-O", str(unprintable / "o.dl"),
                "-A", str(unprintable / "a.dl"), "-o", str(unprintable / "out.dl"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ctx@CA" in err
        assert sorted(p.name for p in unprintable.iterdir()) == ["a.dl", "o.dl"]

    def test_check_exits_two_without_report_trail(self, unprintable, capsys):
        code = run(
            [
                "check", "--property", "soundness", "--strategy", "ndfluents", "-O", str(unprintable / "o.dl"),
                "-A", str(unprintable / "a.dl"), "--report", str(unprintable / "r.jsonl"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ctx@CA" in err
        # No report line, no witness file, no temporary file left behind.
        assert sorted(p.name for p in unprintable.iterdir()) == ["a.dl", "o.dl"]


def ctxdl_process(*args: str) -> subprocess.CompletedProcess:
    """`python -m ctxdl ARGS` in a fresh interpreter that imports this ctxdl."""
    src = str(Path(ctxdl.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ctxdl", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


class TestModuleEntryPoint:
    def test_python_dash_m_ctxdl_runs_the_cli(self, files):
        done = ctxdl_process("models", files["babylon.dl"], "--bound", "2")
        assert done.returncode == 0, done.stderr
        assert "satisfiable at size 1" in done.stdout
        usage = ctxdl_process()
        assert usage.returncode == 2
        assert "usage: ctxdl" in usage.stderr
