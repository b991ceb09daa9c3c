"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a meaningful
negative verdict (not a cause, not conservative, formula false, equations
not respected, corpus failures), 2 for engine errors, 64 for usage errors.
Run as a program (`main`), it restores the default SIGPIPE handler where
the platform has one, so output into a closed pipe ends it silently by
that signal, as `cat` does, rather than with a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import corpus as corpus_pkg
from .causality import (
    RuleVariant,
    SearchBudget,
    Verdict,
    Witness,
    is_actual_cause,
    find_all_causes,
)
from .dsl import (
    ModelDocument,
    parse_cause,
    parse_event,
    parse_formula,
    parse_model,
    print_model,
)
from .errors import EngineError
from .formula import eval_formula
from .model import solve
from .transforms import (
    is_conservative_extension,
    is_conservative_extension_extended,
    kill_all_witnesses,
    build_stability_model,
    respects_equations,
)

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _nonnegative_int(text: str, minimum: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        kind = "nonnegative" if minimum == 0 else "positive"
        raise argparse.ArgumentTypeError(f"{value} is not a {kind} integer")
    return value


def _positive_int(text: str) -> int:
    return _nonnegative_int(text, minimum=1)


def _variable_list(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no variable names in {text!r}")
    return names


def _load(path: str) -> ModelDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise EngineError(f"cannot read {path}: {exc.strerror}") from None
    return parse_model(text)


def _witness_json(witness: Witness) -> dict:
    return {
        "vars": list(witness.vars),
        "values": list(witness.values),
        "alt": list(witness.alt),
    }


def _verdict_json(verdict: Verdict, variant, model, context) -> dict:
    return {
        "is_cause": verdict.is_cause,
        "witnesses": [_witness_json(w) for w in verdict.witnesses],
        "failure_reason": verdict.failure_reason,
        "ac3_violation": verdict.ac3_violation,  # [name, value] pairs in JSON, or null
        "search_complete": verdict.search_complete,
        "variant": RuleVariant.coerce(variant).value,
        "model": model,
        "context": context,
    }


def _print_verdict(verdict: Verdict) -> None:
    print(f"is_cause: {'true' if verdict.is_cause else 'false'}")
    if verdict.failure_reason:
        print(f"failed: {verdict.failure_reason}")
    if verdict.ac3_violation:
        inner = " & ".join(f"{n}={v}" for n, v in verdict.ac3_violation)
        print(f"smaller cause: {inner}")
    for witness in verdict.witnesses:
        print(f"witness: {witness}")
    if not verdict.search_complete:
        print("note: witness list truncated by the search budget")


def _build_parser() -> _Parser:
    parser = _Parser(prog="actualcause", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_model(p):
        p.add_argument("-m", "--model", required=True, help="model file (.cm)")
        p.add_argument("-c", "--context", required=True, help="declared context name")

    p = sub.add_parser("solve", help="print the unique world of a context")
    with_model(p)

    p = sub.add_parser("eval", help="evaluate a formula in a context")
    with_model(p)
    p.add_argument("-f", "--formula", required=True)

    for name in ("cause", "causes"):
        p = sub.add_parser(
            name,
            help="decide one candidate cause" if name == "cause"
            else "enumerate all causes of an effect",
        )
        with_model(p)
        if name == "cause":
            p.add_argument("--cause", required=True, help="e.g. 'A=1' or 'A=1 & B=0'")
        p.add_argument("--effect", required=True, help="e.g. 'D=1'")
        p.add_argument(
            "--variant", default="updated",
            choices=[v.value for v in RuleVariant],
        )
        p.add_argument("--json", action="store_true")
        p.add_argument("--budget", type=_positive_int, default=None, help="solve-call cap")
        if name == "causes":
            p.add_argument("--max-conjuncts", type=_positive_int, default=None)

    p = sub.add_parser("conservative", help="check a conservative extension")
    p.add_argument("-m1", "--base", required=True, help="base model file")
    p.add_argument("-m2", "--extension", required=True, help="extension model file")

    p = sub.add_parser("ce", help="conservative extension check for extended models")
    p.add_argument("-m1", "--base", required=True)
    p.add_argument("-m2", "--extension", required=True)

    p = sub.add_parser("kill-witnesses", help="extend a model until a cause dies")
    with_model(p)
    p.add_argument("--cause", required=True, help="single conjunct, e.g. 'A=1'")
    p.add_argument("--effect", required=True, help="single event, e.g. 'D=1'")
    p.add_argument("--budget", type=_positive_int, default=None)

    p = sub.add_parser("stability", help="emit a member of the alternating chain")
    p.add_argument("--n", type=_nonnegative_int, required=True)

    p = sub.add_parser("respects", help="check that deviations are abnormal")
    with_model(p)
    p.add_argument("--vars", type=_variable_list, required=True,
                   help="comma-separated variable names")

    p = sub.add_parser("corpus", help="bundled example corpus")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    p_run = corpus_sub.add_parser("run", help="run every bundled case")
    p_run.add_argument("--budget", type=_positive_int, default=None)
    corpus_sub.add_parser("list", help="list bundled models and cases")
    return parser


def _cmd_solve(args) -> int:
    doc = _load(args.model)
    world = solve(doc.model, doc.context(args.context))
    for name, value in zip(world.names, world.values):
        print(f"{name} = {value}")
    return 0


def _cmd_eval(args) -> int:
    doc = _load(args.model)
    formula = parse_formula(args.formula, doc.model)
    holds = eval_formula(doc.model, doc.context(args.context), formula)
    print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_cause(args) -> int:
    doc = _load(args.model)
    variant = RuleVariant.coerce(args.variant)
    subject = doc.subject(variant)
    cause = parse_cause(args.cause, doc.model)
    effect = parse_formula(args.effect, doc.model)
    budget = SearchBudget(args.budget) if args.budget is not None else None
    verdict = is_actual_cause(
        subject, doc.context(args.context), cause, effect, variant, budget=budget
    )
    if args.json:
        print(json.dumps(_verdict_json(verdict, variant, doc.name, args.context)))
    else:
        _print_verdict(verdict)
    return 0 if verdict.is_cause else 1


def _cmd_causes(args) -> int:
    doc = _load(args.model)
    variant = RuleVariant.coerce(args.variant)
    subject = doc.subject(variant)
    effect = parse_formula(args.effect, doc.model)
    budget = SearchBudget(args.budget) if args.budget is not None else None
    results = find_all_causes(
        subject, doc.context(args.context), effect, variant,
        budget=budget, max_conjuncts=args.max_conjuncts,
    )
    if args.json:
        payload = [
            {
                "cause": cause,
                **_verdict_json(verdict, variant, doc.name, args.context),
            }
            for cause, verdict in results
        ]
        print(json.dumps(payload))
    else:
        if not results:
            print("no causes found")
        for cause, verdict in results:
            text = " & ".join(f"{n}={v}" for n, v in cause.items())
            print(f"cause: {text}  (first witness: {verdict.witnesses[0]})")
    return 0 if results else 1


def _values(assignment: dict[str, int]) -> str:
    return "{" + ", ".join(f"{n}={v}" for n, v in assignment.items()) + "}"


def _counterexample(ce) -> str:
    """A plain conservativity counterexample, as both commands print it."""
    return (f"context {_values(ce.context)}, variable {ce.variable}, "
            f"setting {_values(ce.setting)}, base {ce.value_base}, "
            f"extension {ce.value_extension}")


def _cmd_conservative(args) -> int:
    base = _load(args.base)
    extension = _load(args.extension)
    report = is_conservative_extension(extension.model, base.model)
    if report.is_conservative:
        print("conservative: true")
        return 0
    print("conservative: false")
    print(f"counterexample: {_counterexample(report.counterexample)}")
    return 1


def _cmd_ce(args) -> int:
    base = _load(args.base)
    extension = _load(args.extension)
    report = is_conservative_extension_extended(extension.extended(), base.extended())
    if report.is_conservative:
        print("conservative: true")
        return 0
    print("conservative: false")
    if report.counterexample is not None:
        print(f"equation counterexample: {_counterexample(report.counterexample)}")
    if report.ce_counterexample is not None:
        ce = report.ce_counterexample
        print(f"normality-threshold counterexample: context {_values(ce.context)}, "
              f"setting {_values(ce.setting)}: base {str(ce.normal_in_base).lower()}, "
              f"extension {str(ce.normal_in_extension).lower()}")
    return 1


def _cmd_kill(args) -> int:
    doc = _load(args.model)
    cause = parse_cause(args.cause, doc.model)
    effect = parse_event(args.effect, doc.model)
    budget = SearchBudget(args.budget) if args.budget is not None else None
    result = kill_all_witnesses(
        doc.model, doc.context(args.context), cause, effect, budget=budget
    )
    out = ModelDocument(doc.name + "_killed", result, doc.contexts, doc.normality)
    sys.stdout.write(print_model(out))
    return 0


def _cmd_stability(args) -> int:
    model, contexts = build_stability_model(args.n)
    sys.stdout.write(print_model(ModelDocument(f"stability_{args.n}", model, contexts)))
    return 0


def _cmd_respects(args) -> int:
    doc = _load(args.model)
    report = respects_equations(doc.extended(), doc.context(args.context), args.vars)
    print("true" if report.respects else "false")
    if report.violating_world is not None:
        print(f"violating world: {report.violating_world}")
    return 0 if report.respects else 1


def _cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        for name in corpus_pkg.model_names():
            print(f"model {name}")
        for case in corpus_pkg.CASES:
            stated = "  [stated witness]" if case.witness is not None else ""
            print(f"case {case.id}: {case.cause} -> {case.effect} "
                  f"[{case.variant}] expect {case.expect}{stated}")
        return 0
    report = corpus_pkg.verify_corpus(budget_limit=args.budget)
    for r in report.results:
        mark = "PASS" if r.ok else "FAIL"
        line = (f"  {mark}  {r.case.id:22s} expected={r.expected:9s} "
                f"actual={r.actual:9s} {r.seconds:6.2f}s")
        if r.error:
            line += f"  {r.error}"
        print(line)
    passed, failed = report.counts
    print(f"corpus: {passed} passed, {failed} failed")
    return 0 if report.all_passed else 1


_HANDLERS = {
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "cause": _cmd_cause,
    "causes": _cmd_causes,
    "conservative": _cmd_conservative,
    "ce": _cmd_ce,
    "kill-witnesses": _cmd_kill,
    "stability": _cmd_stability,
    "respects": _cmd_respects,
    "corpus": _cmd_corpus,
}


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        return _HANDLERS[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_command())


if __name__ == "__main__":
    main()
