"""End-to-end and per-layer benchmark of the actualcause engine.

    python3 perfbench/run.py --workload corpus_decide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see perfbench/README.md for why each exists):

- corpus_decide: the 66 searched bundled cases by first-witness search, plus
  the stated-witness certification of the 19-voter case;
- corpus_witnesses: the 66 searched cases with every witness listed;
- surgery: conservativity, formula agreement, witness killing, the
  stability chain and equation respect, with no exhaustive cause search.

One process, no threads, a closed loop: one operation at a time, each
starting when the previous one returns.  The seed permutes the operations
of every pass and draws the run's formula-agreement sampler seed, so every
pass of a run does the same work.  A run measures whole passes until
`--seconds` have gone by, and at least enough passes for 200 operation
samples, so that ten or more lie beyond the 95th percentile.  A shared host
runs the same code at speeds that differ by up to a factor of two from one
minute to the next, so every reported time is scaled to a reference speed
by a kernel sampled beside the engine (`speed.py`).  `pass_s` is the median
pass of the run at that speed; the percentiles pool every operation.

`--trace 0` prints the end-to-end metrics and `fail_ratio` by name;
`--trace 1` runs the layer microbenchmarks, one untraced and one traced
pass, checks the exact counts against a second process on the next seed,
and prints the per-layer metrics.  Every answer is checked against its reference; the last line of
standard output is one JSON object, and the exit code is 1 when any answer
was wrong, 2 when the checkout holds no engine source.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common
import freeze
import speed
import workloads as wl
from tracer import Tracer

SETUP_PROBES = 15
MIN_SAMPLES = 200  # ten samples beyond the 95th percentile
MICRO_REPEATS = 7
SOLVE_CALLS_PER_REPEAT = 2000

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dsl.parse_ms": "ms",
    "dsl.query_parse_us": "us",
    "model.compile_ms": "ms",
    "model.solve_calls": "count",
    "model.solve_us.glymour_mechanisms": "us",
    "model.solve_us.livengood_17_2_0": "us",
    "model.solve_self_share": "ratio",
    "formula.eval_calls": "count",
    "formula.eval_ms": "ms",
    "formula.solves": "count",
    "causality.ac1.calls": "count",
    "causality.ac2a.calls": "count",
    "causality.ac2a.solves": "count",
    "causality.ac2a.self_ms": "ms",
    "causality.ac2a.flip_ratio": "ratio",
    "causality.ac2b.calls": "count",
    "causality.ac2b.solves": "count",
    "causality.ac2b.self_ms": "ms",
    "causality.ac2b.pass_ratio": "ratio",
    "causality.ac3.calls": "count",
    "causality.ac3.solves": "count",
    "causality.actual.solves": "count",
    "causality.certify.solves": "count",
    "causality.search.self_ms": "ms",
    "causality.normality.calls": "count",
    "causality.witnesses": "count",
    "transforms.conservative_ms": "ms",
    "transforms.conservative.solves": "count",
    "transforms.conservative_extended_ms": "ms",
    "transforms.agreement_ms": "ms",
    "transforms.kill_ms": "ms",
    "transforms.kill.rounds": "count",
    "transforms.stability_build_ms": "ms",
    "transforms.respects_ms": "ms",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead": "ratio",
    "trace.missing_spans": "count",
}

# counts that must repeat bit for bit across runs and seeds of one checkout;
# `formula.*` counts are left out, because the formula evaluator's work
# follows the random formulas that the agreement seed draws
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "count" and name.startswith(("model.", "causality.", "transforms."))
)


@dataclass(slots=True)
class Record:
    op: wl.Op
    result: object
    error: str | None
    seconds: float  # measured, sampler time taken out
    scale: float  # the speed factor over the operation (1 when unsampled)
    budget: object  # the operation's SearchBudget, or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description="actualcause benchmark")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one traced pass that prints only its exact counts; the traced run
    # starts one to compare its counts with another process and seed
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def load_engine():
    common.use_source()
    import actualcause

    common.check_imported(actualcause)
    return actualcause


def check_inputs(reference: dict, names) -> None:
    for name in names:
        if common.text_digest(common.model_text(name)) != reference["model_sha256"][name]:
            raise SystemExit(f"model {name}.cm differs from the one the reference was frozen on")


def cold_setup_s(workload: str) -> list[float]:
    """Several cold set-ups, each in a fresh interpreter, at reference speed."""
    probe = Path(__file__).with_name("coldstart.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def confirm_reference(ac, reference: dict, docs: dict) -> list[str]:
    """Re-derive the oracle-confirmed witness lists with the oracle."""
    oracle = common.load_oracle()
    wrong = []
    for case in reference["cases"]:
        if case.get("confirmed_by") == "oracle":
            found = freeze.oracle_witnesses(oracle, docs[case["model"]], case)
            if found != case["witnesses"]:
                wrong.append(f"{case['id']}: oracle disagrees with the reference witness list")
    return wrong


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ac, ops, tracer: Tracer | None = None,
             sampler: speed.Sampler | None = None) -> tuple[float, float, list[Record]]:
    """One pass: its seconds, its speed factor, and one record per operation."""
    clock = time.perf_counter
    records = []
    started = clock()
    pass_mark = sampler.mark() if sampler else None
    for op in ops:
        budget = ac.SearchBudget() if op.budgeted else None
        solves_before = dict(tracer.solves) if tracer else None
        mark = sampler.mark() if sampler else None
        t0 = clock()
        try:
            result, error = op.run(budget), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        seconds, scale = sampler.close(mark) if sampler else (t1 - t0, 1.0)
        records.append(Record(op, result, error, seconds, scale, budget))
        if tracer:
            tracer.op_span(op.kind, op.label, t0 - started, t1 - started, solves_before,
                           budget.used if budget else None)
    elapsed, scale = sampler.close(pass_mark) if sampler else (clock() - started, 1.0)
    return elapsed, scale, records


def failures(records: list[Record]) -> list[str]:
    out = []
    for rec in records:
        error = rec.error
        if error is None:
            try:
                error = rec.op.check(rec.result)
            except Exception as exc:  # a result the check cannot read is wrong
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        if error is not None:
            out.append(f"{rec.op.kind} {rec.op.label}: {error}")
    return out


def measure(ac, workload: wl.Workload, seconds: float, rng: random.Random):
    """Whole passes for `seconds` with the speed sampler running; returns
    each pass's wall time and its time at reference speed, every
    operation's time at reference speed, and the failures."""
    min_passes = math.ceil(MIN_SAMPLES / workload.ops_per_pass)
    walls, passes, samples, wrong = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            elapsed, scale, records = run_pass(ac, workload.order(rng), sampler=sampler)
            walls.append(elapsed)
            passes.append(elapsed * scale)
            samples.extend(rec.seconds * rec.scale for rec in records)
            attempted += len(records)
            wrong.extend(failures(records))
    return walls, passes, samples, attempted, wrong


# ---------------------------------------------------------------------------
# layer microbenchmarks
# ---------------------------------------------------------------------------

def microbenchmarks(ac, reference: dict, docs: dict, missing: list[str]) -> dict:
    """Layer timings from outside, each the median of MICRO_REPEATS at
    reference speed."""
    names = sorted(docs)
    texts = [common.model_text(n) for n in names]
    with speed.Sampler() as sampler:

        def timed(fn) -> float:
            mark = sampler.mark()
            fn()
            elapsed, scale = sampler.close(mark)
            return elapsed * scale

        def median_of(fn, per: int = 1) -> float:
            return statistics.median(timed(fn) for _ in range(MICRO_REPEATS)) / per

        def parse():
            for text in texts:
                ac.parse_model(text)

        def compile_() -> float:
            """First solve on fresh models minus a solve on warm ones."""
            fresh = [(ac.CausalModel(docs[n].model.signature, docs[n].model.equations),
                      docs[n].model, next(iter(docs[n].contexts.values()))) for n in names]
            return (timed(lambda: [ac.solve(new, ctx) for new, _, ctx in fresh])
                    - timed(lambda: [ac.solve(warm, ctx) for _, warm, ctx in fresh]))

        case_models = {
            name: (docs.get(name) or ac.parse_model(common.model_text(name))).model
            for name in {c["model"] for c in reference["cases"]}
        }
        queries = [(case_models[c["model"]], c["cause"], c["effect"])
                   for c in reference["cases"]]

        def query_parse():
            for model, cause, effect in queries:
                ac.parse_cause(cause, model)
                ac.parse_formula(effect, model)

        out = {
            "dsl.parse_ms": median_of(parse) * 1e3,
            "model.compile_ms": statistics.median(compile_() for _ in range(MICRO_REPEATS)) * 1e3,
            "dsl.query_parse_us": median_of(query_parse, len(queries)) * 1e6,
        }
        model_mod = importlib.import_module("actualcause.model")
        solve_values = getattr(model_mod, "solve_values", None)
        context_values = getattr(model_mod, "context_values", None)
        if solve_values is None or context_values is None:
            missing.append("actualcause.model.solve_values")
            return dict(out, **{f"model.solve_us.{name}": 0 for name in common.SOLVE_MODELS})
        for name in common.SOLVE_MODELS:
            doc = docs.get(name) or ac.parse_model(common.model_text(name))
            model = doc.model
            exo = context_values(model, next(iter(doc.contexts.values())))
            sets = [None] + [
                {i: v} for i, var in enumerate(model.endogenous_names)
                for v in model.range_of(var)
            ]
            rounds = max(1, SOLVE_CALLS_PER_REPEAT // len(sets))

            def solves():
                for _ in range(rounds):
                    for iv in sets:
                        solve_values(model, exo, iv)

            out[f"model.solve_us.{name}"] = median_of(solves, rounds * len(sets)) * 1e6
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _kind_ms(records, kinds) -> float:
    return sum(r.seconds for r in records if r.op.kind in kinds) * 1e3


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, records, traced_s, untraced_s, micro) -> dict:
    spans = tracer.ops
    facts: dict[str, int] = {}
    for rec in records:
        if rec.op.facts is not None and rec.error is None:
            for key, value in rec.op.facts(rec.result).items():
                facts[key] = facts.get(key, 0) + value
    solve_self = sum(tracer.self_s(f"solve.{layer}")
                     for layer in ("causality", "transforms", "formula"))
    t = tracer
    metrics = dict(micro)
    metrics.update({
        "model.solve_calls": t.solve_calls,
        "model.solve_self_share": _ratio(solve_self, traced_s),
        "formula.eval_calls": t.count("formula.eval"),
        "formula.eval_ms": t.total_s("formula.eval") * 1e3,
        "formula.solves": t.formula_solves,
        "causality.ac1.calls": t.count("causality.ac1"),
        "causality.ac2a.calls": t.count("causality.ac2a"),
        "causality.ac2a.solves": t.solves["ac2a"],
        "causality.ac2a.self_ms": t.self_s("causality.ac2a") * 1e3,
        "causality.ac2a.flip_ratio": _ratio(t.positive("causality.ac2a"), t.count("causality.ac2a")),
        "causality.ac2b.calls": t.count("causality.ac2b"),
        "causality.ac2b.solves": t.solves["ac2b"],
        "causality.ac2b.self_ms": t.self_s("causality.ac2b") * 1e3,
        "causality.ac2b.pass_ratio": _ratio(t.positive("causality.ac2b"), t.count("causality.ac2b")),
        "causality.ac3.calls": t.count("causality.ac3"),
        "causality.ac3.solves": t.solves["ac3"],
        "causality.actual.solves": t.solves["actual"],
        "causality.certify.solves": sum(s["solves"] for s in spans if s["kind"] == "certify"),
        "causality.search.self_ms": t.self_s("causality.search") * 1e3,
        "causality.normality.calls": t.count("causality.normality"),
        "causality.witnesses": facts.get("witnesses", 0),
        "transforms.conservative_ms": _kind_ms(records, {"conservative"}),
        "transforms.conservative.solves": sum(
            s["solves"] for s in spans if s["kind"] in ("conservative", "conservative_extended")),
        "transforms.conservative_extended_ms": _kind_ms(records, {"conservative_extended"}),
        "transforms.agreement_ms": _kind_ms(records, {"agreement"}),
        "transforms.kill_ms": _kind_ms(records, {"kill"}),
        "transforms.kill.rounds": facts.get("kill_rounds", 0),
        "transforms.stability_build_ms": _kind_ms(records, {"stability_build"}),
        "transforms.respects_ms": _kind_ms(records, {"respects"}),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead": _ratio(traced_s, untraced_s),
        "trace.missing_spans": len(t.missing),
    })
    return metrics


def budget_consistency(records, spans) -> list[str]:
    """Each budgeted operation's traced solves equal its budget's count."""
    out = []
    for rec, span in zip(records, spans):
        if rec.budget is not None and span["solves"] != rec.budget.used:
            out.append(f"{rec.op.kind} {rec.op.label}: traced {span['solves']} solves, "
                       f"budget counted {rec.budget.used}")
    return out


def traced_pass(ac, order):
    tracer = Tracer()
    with tracer.installed():
        traced_s, _, records = run_pass(ac, order, tracer)
    return tracer, traced_s, records


def exact_counts(tracer, records) -> dict:
    metrics = layer_metrics(tracer, records, 1.0, 1.0, {})
    return {name: metrics[name] for name in EXACT_COUNTS}


def exact_count_drift(workload: str, counts: dict, seed: int) -> list[str]:
    """Compare the exact counts with one traced pass in a fresh process
    that runs the workload with another seed."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--counts-only"],
        capture_output=True, text=True, timeout=150,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"the count run with seed {seed} failed: {done.stderr.strip()[-300:]}"]
    other = json.loads(lines[-1])
    return [f"{name}: {counts[name]} here, {other.get(name)} in a run with seed {seed}"
            for name in EXACT_COUNTS if counts[name] != other.get(name)]


def traced_run(ac, workload, reference, docs, rng, seed):
    missing: list[str] = []
    micro = microbenchmarks(ac, reference, docs, missing)
    order = workload.order(rng)
    untraced_s, _, plain = run_pass(ac, order)
    tracer, traced_s, records = traced_pass(ac, order)
    tracer.missing.extend(missing)
    spans = tracer.ops
    op_errors = failures(plain) + failures(records)
    metrics = layer_metrics(tracer, records, traced_s, untraced_s, micro)
    check_errors = budget_consistency(records, spans)
    if not op_errors and not check_errors:
        check_errors = exact_count_drift(workload.name, exact_counts(tracer, records), seed + 1)
    common.OUT.mkdir(exist_ok=True)
    detail = dict(tracer.dump(), workload=workload.name, seed=seed, metrics=metrics)
    out = common.OUT / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name} trace written to {out.relative_to(common.ROOT)}")
    for name in tracer.missing:
        print(f"{workload.name} missing span: {name} (its layer reads 0)")
    budgeted = sum(r.budget.used for r in records if r.budget is not None)
    print(f"{workload.name} solves: {tracer.solve_calls} traced = {budgeted} budgeted "
          f"+ {tracer.solve_calls - budgeted} unbudgeted")
    for kind in sorted({s["kind"] for s in spans}):
        split: dict[str, int] = {}
        for s in spans:
            if s["kind"] == kind:
                for clause, n in s["by_clause"].items():
                    split[clause] = split.get(clause, 0) + n
        print(f"{workload.name} solves in {kind} operations: {sum(split.values())} {split}")
    return metrics, 2 * len(records), op_errors, check_errors


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    ac = load_engine()
    reference = common.load_reference()
    names = common.workload_models(reference, args.workload)
    check_inputs(reference, names)
    docs = common.setup_documents(ac, names)
    rng = random.Random(args.seed)
    workload = wl.build(ac, args.workload, reference, docs, rng.randrange(1 << 31))
    if args.counts_only:
        tracer, _, records = traced_pass(ac, workload.order(rng))
        print(json.dumps(exact_counts(tracer, records)))
        return 0 if not failures(records) else 1
    check_errors = []
    if args.trace and args.workload == "corpus_witnesses":
        started = time.perf_counter()
        check_errors = confirm_reference(ac, reference, docs)
        print(f"{args.workload} oracle confirmed the reference in "
              f"{time.perf_counter() - started:.1f} s")

    if args.trace:
        values, attempted, op_errors, more = traced_run(ac, workload, reference, docs, rng,
                                                        args.seed)
        check_errors += more
        units = PER_LAYER
    else:
        setups = cold_setup_s(args.workload)
        print(f"{args.workload} set-up s per probe: " + " ".join(f"{t:.4f}" for t in setups))
        setup_s = statistics.median(setups)
        walls, passes, samples, attempted, op_errors = measure(
            ac, workload, args.seconds, rng)
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(passes),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_p95_ms": statistics.quantiles(samples, n=20)[18] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"{args.workload} {len(samples)} operations in {len(passes)} passes of "
              f"{workload.ops_per_pass}")
        print(f"{args.workload} wall s per pass: " + " ".join(f"{p:.4f}" for p in walls))
        print(f"{args.workload} reference s per pass: " + " ".join(f"{p:.4f}" for p in passes))
    wrong = op_errors + check_errors
    for line in wrong:
        print(f"{args.workload} WRONG {line}")
    failed = len(op_errors)
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in common.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if not lines or not lines[-1].startswith("{"):
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
