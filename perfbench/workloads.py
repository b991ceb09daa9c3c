"""The three workloads as lists of operations, each with its reference check.

An operation is one query to its verdict or one model-surgery call.  It is
timed alone; its check runs afterwards, outside the timed region, against
answers that do not come from the engine under test: the hand-written case
verdicts and the frozen witness lists of `reference.json`, or the known
answers of the surgery results listed in `common`.

Operations are grouped; a group whose later operations consume an earlier
one's result (a killed model, a stability member) keeps its order, and the
seed permutes the groups of each pass.  The formula-agreement sampler seed
is drawn once per run from the same seed, so that every pass of a run does
the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import common


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[object], object]  # receives a fresh SearchBudget when budgeted
    check: Callable[[object], str | None]
    budgeted: bool = False  # every solve of the op is charged to that budget
    facts: Callable[[object], dict] | None = None


@dataclass
class Workload:
    name: str
    groups: list[list[Op]]

    @property
    def ops_per_pass(self) -> int:
        return sum(len(g) for g in self.groups)

    def order(self, rng: random.Random) -> list[Op]:
        """The operations of one pass, in the order the seed draws."""
        groups = list(self.groups)
        rng.shuffle(groups)
        return [op for group in groups for op in group]


def _query(ac, doc, case):
    """Parse one case's query the way the corpus runner does."""
    variant = ac.RuleVariant.coerce(case["variant"])
    subject = doc.extended() if variant is ac.RuleVariant.EXTENDED else doc.model
    cause = ac.parse_cause(case["cause"], doc.model)
    effect = ac.parse_formula(case["effect"], doc.model)
    return subject, doc.context(case["context"]), cause, effect, variant


def _verdict_check(case, all_witnesses: bool):
    expect = case["expect"] == "cause"
    reference = case["witnesses"]

    def check(verdict) -> str | None:
        if verdict.is_cause != expect:
            return f"verdict is_cause={verdict.is_cause}, expected {case['expect']}"
        got = [common.witness_json(w) for w in verdict.witnesses]
        if all_witnesses:
            if not verdict.search_complete:
                return "witness scan truncated"
            if got != reference:
                return f"witness list differs from the reference ({len(got)} vs {len(reference)})"
        elif bool(got) != bool(reference) or (got and got[0] != reference[0]):
            return f"first witness {got[:1]} differs from the reference {reference[:1]}"
        return None

    return check


def _witness_count(verdict) -> dict:
    return {"witnesses": len(verdict.witnesses)}


def _decide_op(ac, doc, case, all_witnesses: bool) -> Op:
    def run(budget):
        subject, context, cause, effect, variant = _query(ac, doc, case)
        return ac.is_actual_cause(subject, context, cause, effect, variant,
                                  budget=budget, find_all_witnesses=all_witnesses)

    kind = "witnesses" if all_witnesses else "decide"
    return Op(kind, case["id"], run, _verdict_check(case, all_witnesses),
              budgeted=True, facts=_witness_count)


def _certify_op(ac, doc, case) -> Op:
    """Stated-witness certification, as `corpus run --include-heavy` does it."""
    vars_, values, alt = case["witness"]

    def run(_budget):
        subject, context, cause, effect, variant = _query(ac, doc, case)
        witness = ac.Witness(tuple(vars_), tuple(values), tuple(alt))
        return (
            ac.check_ac1(subject, context, cause, effect)
            and ac.check_ac2a(subject, context, cause, effect, witness, variant)
            and ac.check_ac2b(subject, context, cause, effect, witness, variant)
            and len(cause) == 1
        )

    expect = case["expect"] == "cause"

    def check(certified):
        return None if certified == expect else f"certified={certified}, expected {case['expect']}"

    return Op("certify", case["id"], run, check)


def corpus_workload(ac, name: str, reference: dict, docs: dict) -> Workload:
    all_witnesses = name == "corpus_witnesses"
    groups = []
    for case in reference["cases"]:
        doc = docs.get(case["model"])
        if case["witness"] is not None:
            if not all_witnesses:
                groups.append([_certify_op(ac, doc, case)])
        else:
            groups.append([_decide_op(ac, doc, case, all_witnesses)])
    return Workload(name, groups)


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def _expect(label: str, want):
    def check(got):
        return None if got == want else f"{label}: got {got!r}, expected {want!r}"
    return check


def surgery_workload(ac, reference: dict, docs: dict, agreement_seed: int) -> Workload:
    groups: list[list[Op]] = []
    pairs = reference["conservative_pairs"]

    for ext_name, base_name in pairs:
        ext, base = docs[ext_name], docs[base_name]
        label = f"{ext_name}>{base_name}"
        groups.append([Op(
            "conservative", label,
            lambda _b, e=ext, b=base: ac.is_conservative_extension(e.model, b.model).is_conservative,
            _expect("conservative", True),
        )])
        groups.append([Op(
            "agreement", label,
            lambda _b, e=ext, b=base: ac.check_formula_agreement(
                e.model, b.model, samples=common.AGREEMENT_SAMPLES,
                seed=agreement_seed).agrees,
            _expect("formula agreement", True),
        )])
        if ext.normality is not None and base.normality is not None:
            groups.append([Op(
                "conservative_extended", label,
                lambda _b, e=ext, b=base: ac.is_conservative_extension_extended(
                    e.extended(), b.extended()).is_conservative,
                _expect("conservative with normality", True),
            )])

    groups.append(_kill_group(ac, docs[common.KILL_MODEL]))
    groups.append(_stability_group(ac))
    for name in common.RESPECT_DOCUMENTS:
        groups.extend(_respect_document_groups(ac, docs[name]))
    return Workload("surgery", groups)


def _kill_group(ac, doc) -> list[Op]:
    """Witness killing on the loaded gun: A=1 -> D=1 (acceptance criterion 3)."""
    context = doc.context("u")
    phi = ac.parse_formula("D=1", doc.model)
    state = {}

    def kill(_budget):
        state["killed"] = ac.kill_all_witnesses(doc.model, context, {"A": 1}, ("D", 1))
        return len(state["killed"].meta["witness_kills"])

    def kill_check(rounds):
        return None if rounds <= 5 else f"witness killing took {rounds} rounds"

    def verdict(cause):
        return lambda budget: ac.is_actual_cause(
            state["killed"], context, cause, phi, "original", budget=budget).is_cause

    return [
        Op("kill", "hopkins_pearl A=1", kill, kill_check, facts=lambda r: {"kill_rounds": r}),
        Op("conservative_built", "killed>hopkins_pearl",
           lambda _b: ac.is_conservative_extension(state["killed"], doc.model).is_conservative,
           _expect("killed model conservative", True)),
        Op("verdict", "killed A=1", verdict({"A": 1}), _expect("A is a cause", False),
           budgeted=True),
        Op("verdict", "killed C=1", verdict({"C": 1}), _expect("C is a cause", True),
           budgeted=True),
    ]


def _stability_names(n: int) -> list[str]:
    return (["A", "B"] + [f"X{j}" for j in range(1, (n + 1) // 2 + 1)]
            + [f"Y{j}" for j in range(1, n // 2 + 1)])


def _stability_group(ac) -> list[Op]:
    """Build the chain, check it, and block its odd members (criteria 4 and 5)."""
    members: dict[int, tuple] = {}
    orders: dict[int, object] = {}
    count = common.STABILITY_MEMBERS
    ops = []

    def build(n):
        def run(_budget):
            members[n] = ac.build_stability_model(n)
            model, contexts = members[n]
            return sorted(model.endogenous_names), sorted(contexts)
        want = (sorted(_stability_names(n)), ["u0", "u1"])
        return Op("stability_build", f"member {n}", run, _expect(f"member {n} shape", want))

    def chain(n):
        return Op("conservative_built", f"member {n + 1}>{n}",
                  lambda _b: ac.is_conservative_extension(
                      members[n + 1][0], members[n][0]).is_conservative,
                  _expect(f"member {n + 1} conservative over {n}", True))

    def phi(n):
        return ac.parse_formula("B=1", members[n][0])

    def alternation(n):
        return Op("verdict", f"member {n} A=1",
                  lambda budget: ac.is_actual_cause(
                      members[n][0], members[n][1]["u1"], {"A": 1}, phi(n), "updated",
                      budget=budget, find_all_witnesses=False).is_cause,
                  _expect(f"member {n} verdict", common.ALTERNATION[n]), budgeted=True)

    def respect(n):
        newest = f"X{(n + 1) // 2}"

        def order(_budget):
            model, contexts = members[n]
            orders[n] = ac.normality_from_respect(model, contexts["u1"], [newest])
            return orders[n].rank(ac.solve(model, contexts["u1"]))

        def respects(_budget):
            model, contexts = members[n]
            extended = ac.ExtendedCausalModel(model, orders[n])
            return ac.respects_equations(extended, contexts["u1"], [newest]).respects

        def blocked(budget):
            model, contexts = members[n]
            return ac.is_actual_cause(ac.ExtendedCausalModel(model, orders[n]), contexts["u1"],
                                      {"A": 1}, phi(n), "extended", budget=budget).is_cause

        return [
            Op("respects", f"member {n} order", order, _expect("actual world rank", 0)),
            Op("respects", f"member {n} respects", respects, _expect("respects", True)),
            Op("verdict", f"member {n} extended A=1", blocked, _expect("cause", False),
               budgeted=True),
        ]

    ops += [build(n) for n in range(count)]
    ops += [chain(n) for n in range(count - 1)]
    ops += [alternation(n) for n in range(len(common.ALTERNATION))]
    for n in common.RESPECT_MEMBERS:
        ops += respect(n)
    return ops


def _respect_document_groups(ac, doc) -> list[list[Op]]:
    """The `respect_equations` documents: the built order respects its
    variables, the flat order does not."""
    decl = doc.normality
    context = doc.context(decl.context)
    variables = list(decl.variables)
    state = {}

    def order(_budget):
        state["order"] = ac.normality_from_respect(doc.model, context, variables)
        return state["order"].rank(ac.solve(doc.model, context))

    def respects(_budget):
        extended = ac.ExtendedCausalModel(doc.model, state["order"])
        return ac.respects_equations(extended, context, variables).respects

    def flat(_budget):
        extended = ac.ExtendedCausalModel(doc.model, ac.NormalityOrder.flat())
        report = ac.respects_equations(extended, context, variables)
        return report.respects, report.violating_world is not None

    return [
        [Op("respects", f"{doc.name} order", order, _expect("actual world rank", 0)),
         Op("respects", f"{doc.name} respects", respects, _expect("respects", True))],
        [Op("respects", f"{doc.name} flat", flat, _expect("flat order respects", (False, True)))],
    ]


def build(ac, name: str, reference: dict, docs: dict, agreement_seed: int) -> Workload:
    if name == "surgery":
        return surgery_workload(ac, reference, docs, agreement_seed)
    return corpus_workload(ac, name, reference, docs)
