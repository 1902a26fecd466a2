"""The benchmark proper; ``run.py`` is its command line.

See ``run.py`` for what a run measures and prints.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from kanrel import convert, interp, modes, normal, parser, streams
from kanrel.schema import Hole, VarId
from workloads import Query

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

ENGINES = ("ref", "converted")
SETUP_REPS = 11
OP_BUDGET_S = 20.0  # one query on one engine, in the check pass
CHECK_BUDGET_S = 60.0  # the whole check pass
PROBE_BUDGET_S = 30.0
MIN_ROUNDS = 3  # timed rounds, even when the window is too short for them

# The speed of a shared host drifts by tens of percent (at times by a factor
# of three) in spells of several seconds, and all samples of a spell drift
# together, so no statistic over one run's samples removes it.  A fixed
# integer loop, timed right after every measured call, tracks that drift:
# each sample is scaled by REF_LOOP_S / (median of the loops that followed
# it), giving seconds on a host where the loop takes REF_LOOP_S, which is
# what it takes on a quiet 2-vCPU Xeon under Python 3.11.  Raw seconds and
# the factors are kept in the run's output file.
REF_LOOP_S = 0.0014
LOOP_EVERY_S = 0.05
MIN_LOOPS = 3


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def budget(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"over the {seconds:g} s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Yardstick:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def after(self, seconds: float) -> float:
        """Time the loop once per LOOP_EVERY_S of a measured interval (at
        least MIN_LOOPS times); the scale factor for that interval."""
        here = []
        for _ in range(max(MIN_LOOPS, round(seconds / LOOP_EVERY_S))):
            t0 = time.perf_counter()
            total = 0
            for i in range(40_000):
                total += i
            here.append(time.perf_counter() - t0)
        self.samples.extend(here)
        return REF_LOOP_S / statistics.median(here)

    def factor(self) -> float:
        """The scale factor for the whole run (1 when nothing could be timed)."""
        return REF_LOOP_S / statistics.median(self.samples) if self.samples else 1.0


Sample = tuple[float, float]  # (raw seconds, scale factor)


def _raw(samples: list[Sample]) -> float:
    return _median([raw for raw, _ in samples])


def _scaled(samples: list[Sample]) -> float:
    return _median([raw * factor for raw, factor in samples])


@dataclass
class Prepared:
    """One query, set up as ``kanrel run`` sets it up."""

    query: Query
    program: object
    engine: object
    ref_args: tuple
    setup: list[Sample] = field(default_factory=list)
    failure: str | None = None  # first failure of any op of this query

    def iterator(self, engine: str):
        q = self.query
        if engine == "ref":
            it = interp.answer_iter(self.program, q.rel, self.ref_args)
        else:
            it = self.engine.answer_iter(q.rel, q.direction, q.ins)
        return it if q.limit is None else itertools.islice(it, q.limit)


def query_args(program, q) -> tuple:
    """Ground ins at 'i' positions, typed holes at 'o' positions.

    The same arguments ``kanrel run --engine ref`` builds; its helper is
    private to the CLI, so the benchmark does not call it.
    """
    supply = iter(q.ins)
    return tuple(
        next(supply) if m == "i" else Hole(VarId(900 + pos, p.type))
        for pos, (p, m) in enumerate(zip(program.relation(q.rel).params, q.direction))
    )


def set_up(q, tracer=None, counts=None):
    """The four set-up calls of ``kanrel run --engine converted``.

    Returns the program, the engine and the seconds the four calls took.
    Traced, it also records a span per call, times ``residual_plan`` on its
    own (outside the four), and fills ``counts``.
    """
    gc.collect()
    marks = [time.perf_counter()]
    program = parser.load_corpus(q.corpus)
    marks.append(time.perf_counter())
    nprog = normal.normalize_program(program)
    marks.append(time.perf_counter())
    table = modes.analyze(nprog, [(q.rel, q.direction)])
    marks.append(time.perf_counter())
    engine = convert.DirectedEngine(table)
    marks.append(time.perf_counter())
    if tracer is not None:
        names = ("parser.load", "normal.normalize", "modes.analyze", "convert.engine_build")
        for name, start, end in zip(names, marks, marks[1:]):
            tracer.add(name, q.name, start, end)
        t0 = time.perf_counter()
        inline = convert.residual_plan(table)
        tracer.add("convert.residual_plan", q.name, t0, time.perf_counter())
        counts["normal.base_ops"] = normal.count_base_ops(nprog)
        counts["modes.procs"] = len(table.procs)
        counts["modes.nondet_procs"] = sum(d == modes.Det.NONDET for d in table.dets.values())
        counts["convert.inline_sources"] = len(inline)
    return program, engine, marks[-1] - marks[0]


def check(p: Prepared, engine: str) -> str | None:
    """Drain one query on one engine and judge every answer; None if all pass."""
    q = p.query
    seen = set()
    with budget(OP_BUDGET_S):
        for answer in p.iterator(engine):
            value = tuple(workloads.decode(t) for t in answer)
            if not q.valid(value):
                return f"answer rejected by the oracle: {str(value)[:120]}"
            if value in seen:
                return f"duplicate answer: {str(value)[:120]}"
            seen.add(value)
    if len(seen) != q.total:
        return f"{len(seen)} answers, expected {q.total}"
    if q.exact is not None and seen != q.exact:
        return "answer set differs from the oracle's"
    return None


def timed_drain(p: Prepared, engine: str) -> tuple[float, int]:
    gc.collect()
    t0 = time.perf_counter()
    count = 0
    for _ in p.iterator(engine):
        count += 1
    return time.perf_counter() - t0, count


def traced_query(p: Prepared, tracer) -> dict[str, float]:
    """One query in a traced round: set-up, then four counted drains."""
    q = p.query
    values: dict[str, float] = {}
    root = tracer.open("bench.query", q.name)
    program, engine, _ = set_up(q, tracer, values)
    schema = program.schema

    def drain(name: str, stream_fn, limit):
        gc.collect()
        span = tracer.open(name, q.name)
        d = tracing.drain_counted(stream_fn(), limit)
        seconds = tracer.close(span)
        return d, span, seconds

    d, span, values["interp.query_s"] = drain(
        "interp.query", lambda: interp.query_stream(program, q.rel, query_args(program, q)), q.limit
    )
    values["interp.first_answer_s"] = d.first_answer_at - span.start
    tracer.add("interp.first_answer", q.name, span.start, d.first_answer_at, span)
    values["streams.forces.ref"] = d.forces
    values["streams.answers.ref"] = d.answers
    ref_answers = d.answers

    d, span, values["convert.answers_s"] = drain(
        "convert.answers", lambda: engine.answers_stream(q.rel, q.direction, q.ins), q.limit
    )
    values["convert.first_answer_s"] = d.first_answer_at - span.start
    tracer.add("convert.first_answer", q.name, span.start, d.first_answer_at, span)
    values["streams.forces.converted"] = d.forces
    values["streams.answers.converted"] = d.answers
    conv_answers = d.answers

    # The same raw answers, grounded by the reference routine; counting the
    # raw answers it consumes tells the raw drain below where to stop.
    consumed = 0

    def ground(answer):
        nonlocal consumed
        consumed += 1
        return interp.ground_answers(answer, schema)

    _, _, values["interp.ground_s"] = drain(
        "interp.ground",
        lambda: streams.bind(engine.raw_stream(q.rel, q.direction, q.ins), ground),
        q.limit,
    )
    d, _, values["convert.raw_s"] = drain(
        "convert.raw", lambda: engine.raw_stream(q.rel, q.direction, q.ins), consumed
    )
    values["convert.raw_answers"] = d.answers
    tracer.close(root)
    for engine_name, got in (("ref", ref_answers), ("converted", conv_answers)):
        if got != q.total:
            raise AssertionError(f"{engine_name}: {got} answers, expected {q.total}")
    return values


def depth_probe() -> dict:
    cmd = [sys.executable, str(HERE / "depth_probe.py")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_BUDGET_S
        )
    except subprocess.TimeoutExpired:
        return {"exit": -1, "seconds": time.perf_counter() - t0, "answer_ok": False,
                "stderr_tail": f"over the {PROBE_BUDGET_S:g} s budget"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": -1, "seconds": time.perf_counter() - t0, "answer_ok": False,
                "stderr_tail": f"probe process exited {proc.returncode}"}
    return json.loads(lines[-1])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    queries = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    yardstick = Yardstick()

    # 1. set-up, repeated
    prepared = []
    for q in queries:
        p = Prepared(q, None, None, ())
        for _ in range(SETUP_REPS):
            try:
                p.program, p.engine, seconds = set_up(q)
            except Exception:
                p.failure = "set-up raised: " + traceback.format_exc(limit=2).splitlines()[-1]
                break
            p.setup.append((seconds, yardstick.after(seconds)))
        if p.failure is None:
            p.ref_args = query_args(p.program, q)
        prepared.append(p)

    probe = depth_probe() if args.workload == "nat_det" or args.trace else None

    # 2. the check pass, which opens the measuring window.  A query is timed
    # only when both of its ops pass; once one fails, the other counts as
    # failed too, since nothing of that query is measured.
    window_start = time.perf_counter()
    failed_ops = set()
    for p in prepared:
        for engine in ENGINES:
            if p.failure is None and time.perf_counter() - window_start > CHECK_BUDGET_S:
                p.failure = f"check pass over its {CHECK_BUDGET_S:g} s budget"
            if p.failure is None:
                try:
                    p.failure = check(p, engine)
                except Exception as e:
                    p.failure = f"raised {type(e).__name__}: {str(e)[:200]}"
                if p.failure is not None:
                    p.failure = f"{engine}: {p.failure}"
            if p.failure is not None:
                failed_ops.add((p.query.name, engine))
    live = [p for p in prepared if p.failure is None]

    # 3. rounds
    samples = {(p.query.name, e): [] for p in live for e in ENGINES}
    traced_rounds: list[dict[str, dict[str, float]]] = []
    round_spans: list[list] = []
    rounds = timed_rounds = 0
    while live:
        round_start = time.perf_counter()
        # A traced run alternates untraced and traced rounds, so that the
        # tracing overhead compares rounds run at nearly the same time.
        if args.trace and rounds % 2 == 1:
            first_span = len(tracer.spans)
            per_query = {}
            for p in live:
                if p.failure is not None:
                    continue
                t0 = time.perf_counter()
                try:
                    per_query[p.query.name] = traced_query(p, tracer)
                except Exception as exc:
                    p.failure = f"traced: raised {type(exc).__name__}: {str(exc)[:200]}"
                    failed_ops.update((p.query.name, e) for e in ENGINES)
                yardstick.after(time.perf_counter() - t0)
            traced_rounds.append(per_query)
            round_spans.append(tracer.spans[first_span:])
        else:
            order = ENGINES if timed_rounds % 2 == 0 else ENGINES[::-1]
            timed_rounds += 1
            for p in live:
                for engine in order:
                    seconds, count = timed_drain(p, engine)
                    if count != p.query.total:
                        p.failure = f"{engine}: timed drain gave {count} answers"
                        failed_ops.add((p.query.name, engine))
                    samples[p.query.name, engine].append((seconds, yardstick.after(seconds)))
        rounds += 1
        now = time.perf_counter()
        enough = traced_rounds if args.trace else rounds >= MIN_ROUNDS
        # Stop before a round that would overrun the window.
        if enough and now - window_start + (now - round_start) > args.seconds:
            break

    attempted = 2 * len(prepared)
    per_query = []
    for p in prepared:
        row = {"query": p.query.name, "answers": p.query.total, "failure": p.failure,
               "setup_s": _raw(p.setup), "setup_scaled_s": _scaled(p.setup),
               "setup_samples": p.setup}
        for e in ENGINES:
            row[f"{e}_samples"] = samples.get((p.query.name, e), [])
            row[f"{e}_s"] = _raw(row[f"{e}_samples"])
            row[f"{e}_scaled_s"] = _scaled(row[f"{e}_samples"])
        row["ratio"] = row["converted_s"] / row["ref_s"] if row["ref_s"] else None
        per_query.append(row)

    units = {m["name"]: m["unit"] for m in wanted}
    factor = yardstick.factor()
    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = sum(r["setup_scaled_s"] for r in per_query)
        metrics["ref.query_s"] = sum(r["ref_scaled_s"] for r in per_query)
        metrics["converted.query_s"] = sum(r["converted_scaled_s"] for r in per_query)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Per-layer times are raw spans scaled by the run's one factor.
        raw = _layer_metrics(traced_rounds, round_spans, per_query)
        untraced = sum(r["setup_s"] + r["ref_s"] + r["converted_s"] for r in per_query)
        raw["trace.overhead_s"] = raw.pop("trace.end_to_end_s") - untraced
        if probe is not None:
            raw["cli.depth_probe_s"] = probe["seconds"]
            raw["cli.depth_probe_exit"] = probe["exit"]
        metrics = {k: v * factor if units.get(k) == "s" else v for k, v in raw.items()}

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": timed_rounds, "traced_rounds": len(traced_rounds),
        "python": sys.version.split()[0],
        "speed_factor": factor, "loop_samples": len(yardstick.samples),
        "queries": per_query, "probe": probe, "metrics": metrics,
        "converted_over_ref": (sum(r["converted_s"] for r in per_query)
                               / max(sum(r["ref_s"] for r in per_query), 1e-12)),
        "failed_ops": sorted(map(list, failed_ops)),
    }
    if args.trace:
        result["traced_values"] = traced_rounds
        result["spans"] = [vars(s) for s in tracer.spans]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {', '.join(missing)}")
    _print_report(result, units, attempted, len(failed_ops))
    return {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


SPAN_METRIC = {
    "parser.load": "parser.load_s",
    "normal.normalize": "normal.normalize_s",
    "modes.analyze": "modes.analyze_s",
    "convert.residual_plan": "convert.residual_plan_s",
    "convert.engine_build": "convert.engine_build_s",
}
END_TO_END_SPANS = ("parser.load", "normal.normalize", "modes.analyze",
                    "convert.engine_build", "interp.query", "convert.answers")


def _layer_metrics(traced_rounds, round_spans, per_query) -> dict[str, float]:
    """Per-layer metrics: sums over queries of per-query medians over rounds.

    Counts must repeat exactly from round to round; a count that does not
    is a finding, and the run fails loudly instead of averaging it away.
    """
    for rnd, spans in zip(traced_rounds, round_spans):
        for s in spans:
            if s.name in SPAN_METRIC:
                rnd[s.query][SPAN_METRIC[s.name]] = s.end - s.start
    names = sorted({k for rnd in traced_rounds for vals in rnd.values() for k in vals})
    out: dict[str, float] = {}
    for name in names:
        total = 0.0
        for row in per_query:
            vals = [rnd[row["query"]][name] for rnd in traced_rounds if row["query"] in rnd]
            if not vals:
                continue
            if not name.endswith("_s") and len(set(vals)) != 1:
                raise SystemExit(f"error: {name} differs between rounds on {row['query']}: {vals}")
            value = _median(vals)
            row[name] = value
            total += value
        out[name] = total
    self_by_round = [tracing.self_times(spans) for spans in round_spans]
    for layer in sorted({k for d in self_by_round for k in d}):
        out[f"self_s.{layer}"] = _median([d.get(layer, 0.0) for d in self_by_round])
    out["trace.end_to_end_s"] = _median([
        sum(s.end - s.start for s in spans if s.name in END_TO_END_SPANS)
        for spans in round_spans
    ])
    out["trace.spans"] = len(round_spans[0]) if round_spans else 0
    return out


def _print_report(result: dict, units: dict[str, str], attempted: int, failed: int) -> None:
    rows = result["queries"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  rounds {result['rounds']} timed, {result['traced_rounds']} traced"
          f"  (medians over rounds, raw seconds; gc on)")
    print(f"{'query':<24} {'answers':>7} {'setup_s':>9} {'ref_s':>9} {'conv_s':>9} {'conv/ref':>9}")
    for r in rows:
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        print(f"{r['query']:<24} {r['answers']:>7} {r['setup_s']:>9.4f} {r['ref_s']:>9.4f}"
              f" {r['converted_s']:>9.4f} {ratio:>9}")
        if result["trace"] and "interp.query_s" in r:
            print(f"  traced: interp.query {r['interp.query_s']:.4f} s,"
                  f" convert.answers {r['convert.answers_s']:.4f} s,"
                  f" convert.raw {r['convert.raw_s']:.4f} s,"
                  f" interp.ground {r['interp.ground_s']:.4f} s,"
                  f" forces ref {r['streams.forces.ref']:.0f} / converted"
                  f" {r['streams.forces.converted']:.0f}")
        if r["failure"]:
            print(f"  FAILED {r['failure']}")
    probe = result["probe"]
    if probe is not None:
        print(f"depth probe (addo@iio converted, S^{probe.get('depth', '?')}(O) through cli.main):"
              f" exit {probe['exit']}, answer {'ok' if probe['answer_ok'] else 'wrong or missing'},"
              f" {probe['seconds']:.2f} s  {probe['stderr_tail']}")
    print(f"metrics; times in seconds at the reference host speed (run's factor"
          f" {result['speed_factor']:.4f}, from {result['loop_samples']} loop timings)")
    for name, unit in units.items():
        print(f"{name:<28} {result['metrics'][name]:.6g} {unit}")
    ops, bad = attempted, failed
    if probe is not None and result["workload"] == "nat_det":
        ops += 1
        bad += not (probe["exit"] == 0 and probe["answer_ok"])
    print(f"{'failed_frac':<28} {bad / ops:.4f}  ({bad} of {ops} ops"
          f"{', the depth probe included' if ops > attempted else ''})")
    print(f"converted/ref, whole workload (information only): {result['converted_over_ref']:.4f}")
