"""End-to-end checks of the command-line driver."""

from __future__ import annotations

import argparse
import json
import platform
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import natlist
from kanrel import bench, cli
from kanrel.interp import query_args, run
from kanrel.parser import load_corpus
from kanrel.pretty import format_term


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run ---


def test_run_prints_one_tuple_per_line(capsys):
    code, out, _ = run_cli(
        capsys, "run", "nat", "--rel", "addo", "--dir", "ioo",
        "--in", "S(S(O))", "-n", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "(S(S(O)), O, S(S(O)))",
        "(S(S(O)), S(O), S(S(S(O))))",
        "(S(S(O)), S(S(O)), S(S(S(S(O)))))",
    ]


def test_run_engines_agree_on_multisets(capsys):
    argv = ["run", "nat", "--rel", "addo", "--dir", "ooi", "--in", "S(S(S(O)))"]
    code, ref_out, _ = run_cli(capsys, *argv, "--engine", "ref")
    assert code == 0
    code, conv_out, _ = run_cli(capsys, *argv, "--engine", "converted")
    assert code == 0
    assert sorted(ref_out.splitlines()) == sorted(conv_out.splitlines())
    assert len(ref_out.splitlines()) == 4


def test_run_json_emits_constructor_trees(capsys):
    argv = [
        "run", "nat", "--rel", "addo", "--dir", "iio",
        "--in", "S(O)", "--in", "O", "--json",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        [
            {"ctor": "S", "args": [{"ctor": "O", "args": []}]},
            {"ctor": "O", "args": []},
            {"ctor": "S", "args": [{"ctor": "O", "args": []}]},
        ]
    ]
    # Identical invocations must be byte-identical.
    code, again, _ = run_cli(capsys, *argv)
    assert code == 0 and again == out


def json_tree(term) -> dict:
    return {"ctor": term.ctor, "args": [json_tree(a) for a in term.args]}


@pytest.mark.parametrize("engine", ["ref", "converted"])
def test_run_json_is_compact_json_of_the_trees(capsys, engine):
    # Six permutations of a three-element list: answers with two-argument
    # constructors, several per run.
    program = load_corpus("sort")
    ys = natlist([0, 1, 2])
    query = query_args(program.relation("sorto"), "oi", (ys,))
    payload = [[json_tree(t) for t in answer] for answer in run(program, "sorto", query)]
    code, out, _ = run_cli(
        capsys, "run", "sort", "--rel", "sorto", "--dir", "oi",
        "--in", format_term(ys), "--json", "--engine", engine,
    )
    assert len(payload) == 6
    assert (code, out) == (0, json.dumps(payload, separators=(",", ":")) + "\n")


def test_run_reads_files_outside_the_bundle(tmp_path, capsys):
    source = tmp_path / "pair.kan"
    source.write_text(
        "type Bit = Zero | One.\n"
        "rel flipo(a: Bit, b: Bit) = (a == Zero, b == One) | (a == One, b == Zero).\n"
    )
    code, out, _ = run_cli(
        capsys, "run", str(source), "--rel", "flipo", "--dir", "io", "--in", "One"
    )
    assert code == 0
    assert out == "(One, Zero)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "nosuch", "--rel", "addo", "--dir", "ioo", "--in", "O"],
        ["run", "nat", "--rel", "nosuch", "--dir", "io", "--in", "O"],
        ["run", "nat", "--rel", "addo", "--dir", "xo", "--in", "O"],
        ["run", "nat", "--rel", "addo", "--dir", "ioo"],
        ["run", "nat", "--rel", "addo", "--dir", "ioo", "--in", "S(_)"],
        ["run", "nat", "--rel", "addo", "--dir", "ioo", "--in", "Nil"],
        ["frobnicate"],
        ["run", "nat", "--rel", "addo", "--dir", "ioo", "--in", "O", "-n", "-1"],
        ["modes", "nat", "--rel", "addo", "--dir", "iio"],
    ],
    ids=[
        "file", "rel", "dir", "missing-in", "hole-in", "wrong-type", "command",
        "negative-n", "modes-command",
    ],
)
def test_user_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err
    assert "Traceback" not in err


@pytest.mark.parametrize("engine", ["ref", "converted"])
@pytest.mark.parametrize(
    "argv",
    [
        ["nat", "--rel", "addo", "--dir", "ioo", "--in", "x"],
        ["nat", "--rel", "addo", "--dir", "ioo", "--in", "Foo"],
        ["nat", "--rel", "addo", "--dir", "ioo", "--in", "S(O, O)"],
        ["sort", "--rel", "sorto", "--dir", "oi", "--in", "O"],
    ],
    ids=["variable", "unknown-ctor", "wrong-arity", "wrong-owner"],
)
def test_bad_input_exits_one(capsys, argv, engine):
    code, out, err = run_cli(capsys, "run", *argv, "--engine", engine)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_deep_ill_typed_input_exits_one():
    # Building the input term recursively raised RecursionError (exit 2).
    # A subprocess, as in the deep-answer tests below.
    deep = "S(" * 10_000 + "O" + ")" * 10_000
    for engine in ("ref", "converted"):
        proc = subprocess.run(
            [sys.executable, "-m", "kanrel", "run", "nat", "--rel", "addo",
             "--dir", "iio", "--engine", engine, "--in", deep, "--in", "Nil"],
            capture_output=True, text=True,
        )
        assert (engine, proc.returncode, proc.stdout) == (engine, 1, "")
        assert "Nil" in proc.stderr and "Traceback" not in proc.stderr, engine


def test_undeclared_parameter_type_is_a_user_error(tmp_path, capsys):
    source = tmp_path / "foo.kan"
    source.write_text("rel p(x: Foo) = x == x.\n")
    code, out, err = run_cli(capsys, "normalize", str(source))
    assert (code, out) == (1, "")
    assert "Foo" in err and "Traceback" not in err


def test_run_defaults_to_the_search_engine():
    argv = ["run", "nat", "--rel", "addo", "--dir", "iii"]
    assert cli.build_parser().parse_args(argv).engine == "ref"


@pytest.mark.parametrize("engine", ["ref", "converted"])
def test_run_without_answers_prints_nothing_and_exits_zero(capsys, engine):
    code, out, err = run_cli(
        capsys, "run", "nat", "--rel", "addo", "--dir", "iii",
        "--in", "S(O)", "--in", "S(O)", "--in", "S(O)", "--engine", engine,
    )
    assert (code, out, err) == (0, "", "")


def test_internal_error_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "ref_run", boom)
    code, _, err = run_cli(
        capsys, "run", "nat", "--rel", "addo", "--dir", "ioo", "--in", "O"
    )
    assert code == 2
    assert "invariant broken" in err


# --- displays ---


def test_normalize_surface_and_ir(capsys):
    code, surface, _ = run_cli(capsys, "normalize", "nat")
    assert code == 0
    assert "rel addo(x: Nat, y: Nat, z: Nat)" in surface
    code, again, _ = run_cli(capsys, "normalize", "nat")
    assert again == surface
    # The surface form is the only printed form of the flat clauses.
    code, out, err = run_cli(capsys, "normalize", "nat", "--ir")
    assert (code, out) == (1, "")
    assert err and "Traceback" not in err


def test_modes_shows_scheduled_clause_order(capsys):
    code, out, _ = run_cli(capsys, "convert", "nat", "--rel", "addo", "--dir", "iio")
    assert code == 0
    clause1 = out.split("    allOf:\n")[2].splitlines()
    assert [line.strip() for line in clause1[:3]] == [
        "match S(x2) = x",
        "(z2) := addo_iio(x2, y)",
        "z := S(z2)",
    ]


def test_convert_emits_directed_procedure(capsys):
    code, out, _ = run_cli(capsys, "convert", "nat", "--rel", "addo", "--dir", "ooi")
    assert code == 0
    assert out.startswith("proc addo_ooi(z) -> (x, y):")
    assert "match S(z2) = z" in out


# --- bench ---


def test_bench_rows_and_json(tmp_path, capsys, monkeypatch):
    rows = [r for r in bench.default_rows() if r.suite == "sort"][:1]
    monkeypatch.setattr(bench, "default_rows", lambda: rows)
    json_path = tmp_path / "rows.json"
    code, out, err = run_cli(capsys, "bench", "--json", str(json_path))
    assert code == 0
    assert "sorto@oi" in out and "ratio" in out
    records = json.loads(json_path.read_text())
    assert [r["engine"] for r in records] == ["ref", "converted"]
    assert records[0]["hash"] == records[1]["hash"]
    assert [r["reps"] for r in records] == [10, 10]
    assert f"wrote {json_path}" in err


def test_run_bench_script_writes_json(tmp_path, capsys, monkeypatch):
    rows = [r for r in bench.default_rows() if r.suite == "sort"][:1]
    monkeypatch.setattr(bench, "default_rows", lambda: rows)
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_bench.py"
    main = runpy.run_path(str(script))["main"]
    json_path = tmp_path / "rows.json"
    monkeypatch.setattr(sys, "argv", ["run_bench.py", "--reps", "2", "--json", str(json_path)])
    assert main() == 0
    records = json.loads(json_path.read_text())
    assert [r["engine"] for r in records] == ["ref", "converted"]
    for r in records:
        assert set(r) == {
            "suite", "query", "engine", "param", "median_ns", "reps",
            "answers", "hash", "python",
        }
        assert (r["suite"], r["query"], r["param"]) == ("sort", "sorto@oi", "len=3")
        assert r["reps"] == 2 and r["answers"] == 6
        assert r["median_ns"] > 0
        assert r["python"] == platform.python_version()
    assert records[0]["hash"] == records[1]["hash"]
    assert "sorto@oi" in capsys.readouterr().out


def test_bench_unknown_suite_is_user_error(capsys):
    code, _, err = run_cli(capsys, "bench", "nosuch")
    assert code == 1
    assert "nosuch" in err
    # The message lists the corpora that have a suite.
    assert "balance" in err


def test_hash_mismatch_exits_two(capsys, monkeypatch):
    def boom(rows, reps=10):
        raise bench.HashMismatch("engines disagree")

    monkeypatch.setattr(bench, "run_rows", boom)
    code, _, err = run_cli(capsys, "bench")
    assert code == 2
    assert "engines disagree" in err


def test_deep_answer_prints_on_both_engines():
    # Depth 7 900 inputs give a depth 15 800 answer.  The ref engine used to
    # overflow the C stack in deref here (exit 139), and printing it raised
    # RecursionError (exit 2).  A subprocess, so that a crash cannot take
    # the test run down with it.
    a = "S(" * 7900 + "O" + ")" * 7900
    want = f"({a}, {a}, {'S(' * 15800}O{')' * 15800})\n"
    for engine in ("ref", "converted"):
        proc = subprocess.run(
            [sys.executable, "-m", "kanrel", "run", "nat", "--rel", "addo",
             "--dir", "iio", "--engine", engine, "--in", a, "--in", a],
            capture_output=True, text=True,
        )
        assert (engine, proc.returncode, proc.stderr) == (engine, 0, "")
        assert proc.stdout == want, engine


def test_deep_answer_prints_as_json_on_both_engines():
    # Writing the trees recursively raised RecursionError (exit 2) here.
    # json.loads would recurse past the limit too, so the expected text is
    # built directly.
    a = "S(" * 7900 + "O" + ")" * 7900

    def nat_json(n: int) -> str:
        return '{"ctor":"S","args":[' * n + '{"ctor":"O","args":[]}' + "]}" * n

    want = "[[" + ",".join([nat_json(7900), nat_json(7900), nat_json(15800)]) + "]]\n"
    for engine in ("ref", "converted"):
        proc = subprocess.run(
            [sys.executable, "-m", "kanrel", "run", "nat", "--rel", "addo",
             "--dir", "iio", "--engine", engine, "--in", a, "--in", a, "--json"],
            capture_output=True, text=True,
        )
        assert (engine, proc.returncode, proc.stderr) == (engine, 0, "")
        assert proc.stdout == want, engine


# --- documentation ---


def test_readme_documents_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    documented = [
        line[len("### "):].strip()
        for line in section.splitlines()
        if line.startswith("### ")
    ]
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert documented == list(sub.choices)


# --- packaging ---


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kanrel", "run", "nat", "--rel", "addo",
         "--dir", "iii", "--in", "S(O)", "--in", "S(O)", "--in", "S(S(O))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(S(O), S(O), S(S(O)))\n"
