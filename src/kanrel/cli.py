"""Command-line driver for the pipeline.

Commands mirror the pipeline stages: ``run`` executes a query, ``normalize``
shows the flattened clauses, ``modes`` shows scheduled procedures,
``convert`` emits directed-procedure text, and ``bench`` times the bundled
corpus suites under both engines.

Exit codes: 0 on success, 1 on a user error (bad file, bad query, direction
that cannot be scheduled), 2 on an internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import bench as bench_mod
from .convert import DirectedEngine
from .goals import GoalError, Program
from .interp import query_args, run as ref_run
from .modes import ModeError, analyze
from .normal import embed, format_normal, normalize_program
from .parser import ParseError, corpus_names, load_corpus, parse_program, parse_query_terms
from .pretty import format_program, format_term
from .schema import SchemaError, Term, holes

USER_ERRORS = (ParseError, SchemaError, GoalError, ModeError, OSError)


class UserError(Exception):
    """Bad command-line input; reported without a traceback."""


def _load_program(spec: str) -> Program:
    """A path to a .kan file, or the bare name of a bundled corpus file."""
    path = Path(spec)
    if path.exists():
        return parse_program(path.read_text())
    if spec in corpus_names():
        return load_corpus(spec)
    raise UserError(
        f"{spec!r} is neither a file nor a bundled corpus"
        f" (bundled: {', '.join(corpus_names())})"
    )


def _check_direction(program: Program, rel: str, direction: str) -> None:
    params = program.relation(rel).params
    if len(direction) != len(params) or set(direction) - {"i", "o"}:
        raise UserError(
            f"--dir must be {len(params)} characters of 'i'/'o' for {rel},"
            f" got {direction!r}"
        )


def _parse_inputs(program: Program, rel: str, direction: str, texts: list[str]):
    params = program.relation(rel).params
    in_types = [p.type for p, m in zip(params, direction) if m == "i"]
    if len(texts) != len(in_types):
        raise UserError(
            f"{rel}@{direction} takes {len(in_types)} --in terms, got {len(texts)}"
        )
    ins = tuple(
        parse_query_terms(text, program.schema, [want])[0]
        for text, want in zip(texts, in_types)
    )
    for term in ins:
        if holes(term):
            raise UserError(f"--in terms must be ground, got {format_term(term)}")
    return ins


def _tree(term: Term) -> dict:
    return {"ctor": term.ctor, "args": [_tree(a) for a in term.args]}


def cmd_run(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 0:
        raise UserError(f"-n must be a non-negative answer limit, got {args.n}")
    program = _load_program(args.file)
    _check_direction(program, args.rel, args.dir)
    ins = _parse_inputs(program, args.rel, args.dir, args.inputs)
    if args.engine == "ref":
        query = query_args(program.relation(args.rel), args.dir, ins)
        answers = ref_run(program, args.rel, query, args.n)
    else:
        table = analyze(normalize_program(program), [(args.rel, args.dir)])
        answers = DirectedEngine(table).run(args.rel, args.dir, ins, args.n)
    if args.json:
        payload = [[_tree(t) for t in answer] for answer in answers]
        print(json.dumps(payload, indent=2))
    else:
        for answer in answers:
            print("(" + ", ".join(format_term(t) for t in answer) + ")")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    nprog = normalize_program(_load_program(args.file))
    text = format_normal(nprog) if args.ir else format_program(embed(nprog))
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def cmd_modes(args: argparse.Namespace) -> int:
    from .modes import format_directed_proc

    program = _load_program(args.file)
    _check_direction(program, args.rel, args.dir)
    table = analyze(normalize_program(program), [(args.rel, args.dir)])
    chunks = [
        format_directed_proc(table.procs[key], table.dets[key])
        for key in table.keys()
    ]
    print("\n\n".join(chunks))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from .convert import emit_text

    program = _load_program(args.file)
    _check_direction(program, args.rel, args.dir)
    table = analyze(normalize_program(program), [(args.rel, args.dir)])
    sys.stdout.write(emit_text(table, args.rel, args.dir))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.file is None:
        rows = bench_mod.default_rows()
    else:
        corpus = Path(args.file).stem
        try:
            rows = bench_mod.rows_for(corpus)
        except KeyError as e:
            raise UserError(str(e.args[0])) from None
    report = bench_mod.run_rows(rows)
    print(report.table())
    if args.csv:
        Path(args.csv).write_text(report.csv())
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanrel",
        description="Run and compile typed relational programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rel", required=True, help="relation name")
        p.add_argument("--dir", required=True, help="one i/o per argument, e.g. ioo")

    p_run = sub.add_parser("run", help="execute a query and print its answers")
    p_run.add_argument("file", help=".kan file or bundled corpus name")
    add_query_flags(p_run)
    p_run.add_argument(
        "--in", dest="inputs", action="append", default=[], metavar="TERM",
        help="ground term for the next 'i' position (repeatable)",
    )
    p_run.add_argument("-n", type=int, default=None, help="answer limit")
    p_run.add_argument("--engine", choices=("ref", "converted"), default="ref")
    p_run.add_argument("--json", action="store_true", help="emit constructor trees")
    p_run.set_defaults(func=cmd_run)

    p_norm = sub.add_parser("normalize", help="print the flattened program")
    p_norm.add_argument("file", help=".kan file or bundled corpus name")
    p_norm.add_argument(
        "--ir", action="store_true", help="print flat ops instead of surface syntax"
    )
    p_norm.set_defaults(func=cmd_normalize)

    p_modes = sub.add_parser("modes", help="print scheduled procedures")
    p_modes.add_argument("file", help=".kan file or bundled corpus name")
    add_query_flags(p_modes)
    p_modes.set_defaults(func=cmd_modes)

    p_conv = sub.add_parser("convert", help="emit directed-procedure text")
    p_conv.add_argument("file", help=".kan file or bundled corpus name")
    add_query_flags(p_conv)
    p_conv.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser("bench", help="time the corpus suites, both engines")
    p_bench.add_argument(
        "file", nargs="?", default=None,
        help="limit to the suite of one corpus file (default: all suites)",
    )
    p_bench.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage; that is a user error here.
        return 0 if not e.code else 1
    try:
        return args.func(args)
    except (UserError, *USER_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except bench_mod.HashMismatch as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
