"""End-to-end checks of the command-line driver."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from kanrel import bench, cli


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
    ],
    ids=[
        "file", "rel", "dir", "missing-in", "hole-in", "wrong-type", "command",
        "negative-n",
    ],
)
def test_user_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err
    assert "Traceback" not in err


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
    code, ir, _ = run_cli(capsys, "normalize", "nat", "--ir")
    assert code == 0
    assert "clause 0" in ir and "addo(x2, y, z2)" in ir
    code, again, _ = run_cli(capsys, "normalize", "nat")
    assert again == surface


def test_modes_shows_scheduled_clause_order(capsys):
    code, out, _ = run_cli(capsys, "modes", "nat", "--rel", "addo", "--dir", "iio")
    assert code == 0
    clause1 = out.split("clause 1:\n")[1].splitlines()
    assert [line.strip() for line in clause1[:3]] == [
        "x^in == S(x2^out)",
        "addo(x2^in, y^in, z2^out)",
        "z^out == S(z2^in)",
    ]


def test_convert_emits_directed_procedure(capsys):
    code, out, _ = run_cli(capsys, "convert", "nat", "--rel", "addo", "--dir", "ooi")
    assert code == 0
    assert out.startswith("proc addo_ooi(z) -> (x, y):")
    assert "match S(z2) = z" in out


# --- bench ---


def test_bench_rows_and_csv(tmp_path, capsys, monkeypatch):
    rows = [r for r in bench.default_rows() if r.suite == "sort"][:1]
    monkeypatch.setattr(bench, "default_rows", lambda: rows)
    csv_path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "bench", "--csv", str(csv_path))
    assert code == 0
    assert "sorto@oi" in out and "ratio" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "suite,query,engine,param,median_ns,reps,answers_hash"
    assert len(lines) == 3
    ref_line, conv_line = lines[1].split(","), lines[2].split(",")
    assert ref_line[2] == "ref" and conv_line[2] == "converted"
    assert ref_line[6] == conv_line[6]
    assert int(ref_line[5]) == 10


def test_bench_unknown_suite_is_user_error(capsys):
    code, _, err = run_cli(capsys, "bench", "balance")
    assert code == 1
    assert "balance" in err


def test_hash_mismatch_exits_two(capsys, monkeypatch):
    def boom(rows, reps=10):
        raise bench.HashMismatch("engines disagree")

    monkeypatch.setattr(bench, "run_rows", boom)
    code, _, err = run_cli(capsys, "bench")
    assert code == 2
    assert "engines disagree" in err


# --- packaging ---


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kanrel", "run", "nat", "--rel", "addo",
         "--dir", "iii", "--in", "S(O)", "--in", "S(O)", "--in", "S(S(O))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(S(O), S(O), S(S(O)))\n"
