"""Command-line driver for the pipeline.

Commands mirror the pipeline stages: ``run`` executes a query, ``normalize``
prints the flattened clauses in re-parseable surface syntax, ``convert``
prints the scheduled directed procedures with their determinism, and
``bench`` times the bundled corpus suites under both engines.

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
from .convert import DirectedEngine, emit_text
from .goals import GoalError, Program
from .interp import query_args, run as ref_run
from .modes import ModeError, analyze, check_direction
from .normal import embed, normalize_program
from .parser import ParseError, corpus_names, load_corpus, parse_ground_term, parse_program
from .pretty import format_program, format_term
from .schema import SchemaError, Term

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


def _parse_inputs(rel: str, direction: str, texts: list[str]) -> tuple[Term, ...]:
    want = direction.count("i")
    if len(texts) != want:
        raise UserError(f"{rel}@{direction} takes {want} --in terms, got {len(texts)}")
    return tuple(map(parse_ground_term, texts))


def _json_tree(term: Term) -> str:
    """Compact JSON of a ground term's constructor tree.

    The text is what ``json.dumps`` with ``separators=(",", ":")`` makes of
    ``{"ctor": ..., "args": [...]}``.  Iterative, so any depth prints.
    """
    out: list[str] = []
    # Terms still to write, and the literal text between them.
    pending: list[Term | str] = [term]
    while pending:
        t = pending.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        out.append(f'{{"ctor":{json.dumps(t.ctor)},"args":[')
        pending.append("]}")
        for i in range(len(t.args) - 1, -1, -1):
            pending.append(t.args[i])
            if i:
                pending.append(",")
    return "".join(out)


def cmd_run(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 0:
        raise UserError(f"-n must be a non-negative answer limit, got {args.n}")
    program = _load_program(args.file)
    relation = program.relation(args.rel)
    check_direction(args.dir, len(relation.params))
    ins = _parse_inputs(args.rel, args.dir, args.inputs)
    if args.engine == "ref":
        query = query_args(relation, args.dir, ins)
        answers = ref_run(program, args.rel, query, args.n)
    else:
        table = analyze(normalize_program(program), [(args.rel, args.dir)])
        answers = DirectedEngine(table).run(args.rel, args.dir, ins, args.n)
    if args.json:
        rows = ("[" + ",".join(map(_json_tree, answer)) + "]" for answer in answers)
        print("[" + ",".join(rows) + "]")
    else:
        for answer in answers:
            print("(" + ", ".join(format_term(t) for t in answer) + ")")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    nprog = normalize_program(_load_program(args.file))
    text = format_program(embed(nprog))
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
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
    if args.json:
        Path(args.json).write_text(json.dumps(report.records(), indent=1) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
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
    p_norm.set_defaults(func=cmd_normalize)

    p_conv = sub.add_parser(
        "convert", help="print the scheduled directed procedures"
    )
    p_conv.add_argument("file", help=".kan file or bundled corpus name")
    add_query_flags(p_conv)
    p_conv.set_defaults(func=cmd_convert)

    p_bench = sub.add_parser("bench", help="time the corpus suites, both engines")
    p_bench.add_argument(
        "file", nargs="?", default=None,
        help="limit to the suite of one corpus file (default: all suites)",
    )
    p_bench.add_argument(
        "--json", metavar="PATH",
        help="also write one JSON record per row and engine",
    )
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
