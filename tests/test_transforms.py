"""Model surgery: conservative extensions, witness killing, stability."""

import copy
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from actualcause import model as md
from actualcause.causality import (
    ExtendedCausalModel,
    NormalityOrder,
    SearchBudget,
    Witness,
    check_ac2a,
    find_all_causes,
    find_witnesses,
    is_actual_cause,
)
from actualcause import formula as fm
from actualcause import transforms
from actualcause.errors import (
    EngineError,
    NotAWitness,
    PreconditionViolated,
    SignatureMismatch,
    ValueOutOfRange,
    WitnessEqualsActual,
)
from actualcause.corpus import CASES, CONSERVATIVE_PAIRS, model_path
from actualcause.dsl import parse_cause, parse_formula, parse_model
from actualcause.formula import Held, PrimitiveEvent, eval_formula
from actualcause.model import solve
from actualcause.transforms import (
    AgreementReport,
    CECounterexample,
    Counterexample,
    ExtensionReport,
    RespectReport,
    build_stability_model,
    check_formula_agreement,
    deviating_variables,
    is_conservative_extension,
    is_conservative_extension_extended,
    kill_all_witnesses,
    kill_witness,
    normality_from_respect,
    random_causal_formula,
    respects_equations,
)
from oracle import (
    EXTENSION_KINDS,
    first_escape,
    interpret,
    naive_formula_holds,
    naive_solve,
    random_effect,
    random_extension_pair,
    random_context,
    random_multivalued_model,
)


# -- conservative extensions ---------------------------------------------------

def test_detailed_rock_throwing_is_conservative(doc):
    report = is_conservative_extension(
        doc("rock_throwing_detailed").model, doc("rock_throwing_naive").model
    )
    assert report.is_conservative and report.counterexample is None


def test_cheating_extension_is_caught(doc):
    report = is_conservative_extension(
        doc("rock_throwing_cheat").model, doc("rock_throwing_detailed").model
    )
    assert not report.is_conservative
    ce = report.counterexample
    assert ce.variable == "BS"
    assert ce.setting["SH"] == 0 and ce.setting["BH"] == 1 and ce.setting["BT"] == 0
    assert ce.value_base != ce.value_extension
    # the counterexample translates into a formula the two models disagree on
    prefix = tuple(ce.setting.items())
    probe = Held(prefix, PrimitiveEvent(ce.variable, ce.value_base))
    assert eval_formula(doc("rock_throwing_detailed").model, ce.context, probe)
    assert not eval_formula(doc("rock_throwing_cheat").model, ce.context, probe)


def test_stability_chain_is_conservative():
    members = [build_stability_model(n)[0] for n in range(7)]
    for small, big in zip(members, members[1:]):
        assert is_conservative_extension(big, small).is_conservative


def test_signature_mismatch_detected(doc):
    with pytest.raises(SignatureMismatch):
        is_conservative_extension(
            doc("spohn_switch").model, doc("spohn_alternate").model
        )
    with pytest.raises(SignatureMismatch):
        is_conservative_extension(
            doc("rock_throwing_naive").model, doc("hopkins_pearl").model
        )


def test_conservativity_reads_contexts_in_each_models_exogenous_order():
    # one model, its exogenous variables declared in the other order
    base = md.make_model({"U": (0, 1), "V": (0, 1)}, {"A": (0, 1)}, {"A": md.Var("U")})
    swapped = md.make_model({"V": (0, 1), "U": (0, 1)}, {"A": (0, 1)}, {"A": md.Var("U")})
    assert is_conservative_extension(swapped, base).is_conservative
    by_a = NormalityOrder.from_ranks(lambda w: w["A"])
    assert is_conservative_extension_extended(
        ExtendedCausalModel(swapped, by_a), ExtendedCausalModel(base, by_a)
    ).is_conservative
    # a real difference is still found, its context named in the base's order
    other = md.make_model({"V": (0, 1), "U": (0, 1)}, {"A": (0, 1)}, {"A": md.Var("V")})
    for report in (
        is_conservative_extension(other, base),
        is_conservative_extension_extended(
            ExtendedCausalModel(other, by_a), ExtendedCausalModel(base, by_a)),
    ):
        assert not report.is_conservative
        ce = report.counterexample
        assert list(ce.context.items()) == [("U", 0), ("V", 1)]
        assert (ce.variable, ce.value_base, ce.value_extension) == ("A", 0, 1)
    # agreement projects each context into the extension's order too
    assert check_formula_agreement(swapped, base, samples=50, seed=0).agrees
    report = check_formula_agreement(other, base, samples=50, seed=0)
    assert report == _looped_agreement(other, base, 50, 0)
    assert not report.agrees and report.context == {"U": 0, "V": 1}
    assert report.formula == PrimitiveEvent("A", 1)
    assert (report.value_base, report.value_extension) == (False, True)


def test_formula_agreement_on_conservative_pairs(doc):
    report = check_formula_agreement(
        doc("rock_throwing_detailed").model, doc("rock_throwing_naive").model,
        samples=200, seed=7,
    )
    assert report.agrees and report.formula is None


def test_formula_agreement_depth_zero(doc):
    base = doc("rock_throwing_naive").model
    ext = doc("rock_throwing_detailed").model
    for ctx in base.contexts():
        for name in base.endogenous_names:
            for value in base.range_of(name):
                event = PrimitiveEvent(name, value)
                assert eval_formula(base, ctx, event) == eval_formula(ext, ctx, event)


def test_formula_agreement_flags_the_cheat(doc):
    report = check_formula_agreement(
        doc("rock_throwing_cheat").model, doc("rock_throwing_detailed").model,
        samples=200, seed=7,
    )
    assert not report.agrees
    assert report.formula is not None
    assert eval_formula(
        doc("rock_throwing_detailed").model, report.context, report.formula
    ) == report.value_base
    assert eval_formula(
        doc("rock_throwing_cheat").model, report.context, report.formula
    ) == report.value_extension
    assert report.value_base != report.value_extension


def test_formula_agreement_draws_on_a_pair_refused_only_under_four_settings(monkeypatch):
    """The plain check refuses the pair only where all four of A-D are set
    to 1, which no drawn prefix, of at most 3 variables, can reach; so
    agreement does not take the refusal for a disagreement, but draws, and
    every drawn formula agrees."""
    ones = md.conj([md.Cmp("=", md.Var(n), md.Const(1)) for n in "ABCD"])
    base = md.make_model({"U": (0, 1)}, {n: (0, 1) for n in "ABCDX"},
                         {**{n: md.Const(0) for n in "ABCD"}, "X": md.Var("U")})
    extension = md.make_model(
        {"U": (0, 1)}, {**{n: (0, 1) for n in "ABCD"}, "N": (0, 1), "X": (0, 1)},
        {**{n: md.Const(0) for n in "ABCD"}, "N": md.Case(((ones, md.Const(1)),), md.Const(0)),
         "X": md.Case(((md.Cmp("=", md.Var("N"), md.Const(1)), md.Const(1)),), md.Var("U"))})
    report = is_conservative_extension(extension, base)
    assert not report.is_conservative
    assert report.counterexample.setting == {"A": 1, "B": 1, "C": 1, "D": 1}
    names = base.endogenous_names
    for k in range(4):
        for chosen in itertools.combinations(names, k):
            for values in itertools.product((0, 1), repeat=k):
                setting = dict(zip(chosen, values))
                for ctx in base.contexts():
                    world = naive_solve(extension, ctx, setting)
                    assert {n: world[n] for n in names} == naive_solve(base, ctx, setting)
    drawn, real_draw = [], transforms.random_causal_formula
    monkeypatch.setattr(transforms, "random_causal_formula",
                        lambda *args: drawn.append(args) or real_draw(*args))
    for seed in range(5):
        drawn.clear()
        assert check_formula_agreement(extension, base, samples=200, seed=seed).agrees, seed
        assert len(drawn) == 200, seed


def _naive_agreement(extension, base, samples, seed, holds=naive_formula_holds):
    """`check_formula_agreement` read literally: the same formulas, each
    decided from scratch in every context, by the oracle unless `holds`
    names another evaluator."""
    rng = random.Random(seed)
    for _ in range(samples):
        candidate = random_causal_formula(rng, base)
        for ctx in base.contexts():
            in_base = holds(base, ctx, candidate)
            in_ext = holds(extension, ctx, candidate)
            if in_base != in_ext:
                return AgreementReport(False, samples, candidate, ctx, in_base, in_ext)
    return AgreementReport(True, samples)


def _with_equations(model, changes, extra=()):
    endogenous = dict(model.signature.endogenous)
    endogenous.update((name, (0, 1)) for name in extra)
    return md.make_model(
        dict(model.signature.exogenous), endogenous, {**dict(model.equations), **changes}
    )


def test_formula_agreement_matches_oracle_on_random_pairs():
    """Conservative pairs (one extra isolated variable) and perturbed pairs
    (one equation replaced by a constant) give the report, first
    disagreeing formula and context included, that the oracle gives."""
    disagreements = 0
    for seed in range(40):
        rng = random.Random(9000 + seed)
        base = random_multivalued_model(rng)
        isolated = _with_equations(base, {"Z": md.Const(1)}, extra=("Z",))
        name = rng.choice(base.endogenous_names)
        perturbed = _with_equations(base, {name: md.Const(rng.choice(base.range_of(name)))})
        for extension in (isolated, perturbed):
            report = check_formula_agreement(extension, base, samples=30, seed=seed)
            assert report == _naive_agreement(extension, base, 30, seed), seed
            assert report.agrees or extension is perturbed
            disagreements += not report.agrees
    assert disagreements >= 20, disagreements


def _with_isolated_variable(rng, base):
    """The base with a fresh variable `Z`, declared at a random place, whose
    equation is a constant and which no equation reads."""
    endogenous = list(base.signature.endogenous)
    values = rng.choice(((0, 1), (0, 1, 2), (-1, 0, 1)))
    endogenous.insert(rng.randrange(len(endogenous) + 1), ("Z", values))
    return md.make_model(
        dict(base.signature.exogenous), dict(endogenous),
        {**dict(base.equations), "Z": md.Const(rng.choice(values))},
    )


def test_an_isolated_fresh_variable_changes_no_verdict():
    """Metamorphic: adding a variable that reads nothing and that nothing
    reads is a conservative extension, keeps every formula's truth value and
    every first-witness verdict.  A scan for every witness finds the base's
    witnesses in the base's order, and besides them only base witnesses
    with `Z` added to the contingency."""
    causes = with_z = 0
    for seed in range(60):
        rng = random.Random(4300 + seed)
        base = random_multivalued_model(rng)
        extension = _with_isolated_variable(rng, base)
        assert is_conservative_extension(extension, base).is_conservative, seed
        assert check_formula_agreement(extension, base, samples=30, seed=seed).agrees, seed
        names = base.endogenous_names
        ctx = {n: rng.choice(base.range_of(n)) for n in base.exogenous_names}
        world = solve(base, ctx)
        phi = random_effect(rng, base, names[-2:])
        for x, variant in itertools.product(names[:-1], ("original", "updated")):
            cause = {x: world[x]}
            first = is_actual_cause(base, ctx, cause, phi, variant, find_all_witnesses=False)
            assert is_actual_cause(
                extension, ctx, cause, phi, variant, find_all_witnesses=False) == first, seed
            every = is_actual_cause(base, ctx, cause, phi, variant)
            got = is_actual_cause(extension, ctx, cause, phi, variant)
            assert replace(got, witnesses=tuple(
                w for w in got.witnesses if "Z" not in w.vars)) == every, seed
            for w in got.witnesses:
                if "Z" in w.vars:
                    kept = [k for k, v in enumerate(w.vars) if v != "Z"]
                    reduced = Witness(tuple(w.vars[k] for k in kept),
                                      tuple(w.values[k] for k in kept), w.alt)
                    assert reduced in every.witnesses, seed
                    with_z += 1
            causes += every.is_cause
    assert causes >= 40 and with_z >= 1000, (causes, with_z)


def _refuse_non_total(*models):
    """Raise the oracle's first escape of the first model that is not
    total, as building its runtime does."""
    for model in models:
        escape = first_escape(model)
        if escape is not None:
            raise ValueOutOfRange(*escape)


def _naive_conservativity(extension, base):
    """`is_conservative_extension` read literally on the oracle: every
    context, base variable and total setting of the other base variables,
    each world found by filtering assignments, once neither model is
    refused for an equation that can leave its range."""
    _refuse_non_total(base, extension)
    names = base.endogenous_names
    for values in itertools.product(*map(base.range_of, base.exogenous_names)):
        ctx = dict(zip(base.exogenous_names, values))
        for x in names:
            others = [n for n in names if n != x]
            for setting in itertools.product(*map(base.range_of, others)):
                iv = dict(zip(others, setting))
                got_base = naive_solve(base, ctx, iv)[x]
                got_ext = naive_solve(extension, ctx, iv)[x]
                if got_base != got_ext:
                    return ExtensionReport(False, Counterexample(ctx, x, iv, got_base, got_ext))
    return ExtensionReport(True)


def _base_settings(base):
    """Every partial setting of the base variables, by size, then
    combination, then values."""
    names = base.endogenous_names
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            for values in itertools.product(*map(base.range_of, combo)):
                yield dict(zip(combo, values))


def _naive_extended_conservativity(extension, base):
    """`is_conservative_extension_extended` read literally on the oracle:
    the plain reference, then, in every context, every partial setting of
    the base variables solved in both models and compared with the actual
    world under each model's own order."""
    report = _naive_conservativity(extension.base, base.base)
    if not report.is_conservative:
        return report

    def world(model, ctx, setting):
        return md.World(model.endogenous_names, tuple(naive_solve(model, ctx, setting).values()))

    b, e = base.base, extension.base
    for values in itertools.product(*map(b.range_of, b.exogenous_names)):
        ctx = dict(zip(b.exogenous_names, values))
        actual_b, actual_e = world(b, ctx, {}), world(e, ctx, {})
        for iv in _base_settings(b):
            normal_b = base.order.at_least_as_normal(world(b, ctx, iv), actual_b)
            normal_e = extension.order.at_least_as_normal(world(e, ctx, iv), actual_e)
            if normal_b != normal_e:
                return ExtensionReport(False, None, CECounterexample(ctx, iv, normal_b, normal_e))
    return ExtensionReport(True)


ORDER_KINDS = ("shared", "independent", "respect")


def _random_orders(rng, kind, extension, base):
    """Orders for the base and the extension, in that order: one rank over
    base variables for both ("shared"), two drawn apart ("independent"),
    or each model's own `normality_from_respect` order in one random
    context ("respect")."""
    if kind == "respect":
        ctx = random_context(rng, base)
        return tuple(
            normality_from_respect(m, ctx, rng.sample(m.endogenous_names, rng.randint(0, 2)))
            for m in (base, extension)
        )

    def ranks():
        chosen = rng.sample(base.endogenous_names, rng.randint(1, 2))
        weights = {n: {v: rng.randint(0, 2) for v in base.range_of(n)} for n in chosen}
        return NormalityOrder.from_ranks(lambda w: sum(t[w[n]] for n, t in weights.items()))

    first = ranks()
    return first, first if kind == "shared" else ranks()


def _outcome(check, *args):
    """The report, or the type of the error raised."""
    try:
        return check(*args)
    except EngineError as exc:
        return type(exc)


def _looped_agreement(extension, base, samples, seed):
    """Every formula evaluated by `eval_formula` in both models in every
    context, each from scratch, with no rows shared between formulas."""
    return _naive_agreement(extension, base, samples, seed, holds=eval_formula)


def test_surgery_checks_match_references_on_random_extension_pairs():
    """The three checks give the reports, first counterexample and first
    disagreeing formula and context included, and raise the errors that the
    references give, on faithful, rewired and overflow pairs, the last
    often refused for an equation that leaves its range; the extended
    check, on the first half of the pairs, under shared, independent and
    respect-built orders."""
    seen = set()
    for seed in range(150):
        kind = EXTENSION_KINDS[seed % 3]
        rng = random.Random(7000 + seed)
        base, extension = random_extension_pair(rng, kind)
        report = _outcome(is_conservative_extension, extension, base)
        assert report == _outcome(_naive_conservativity, extension, base), (seed, kind)
        agreement = _outcome(check_formula_agreement, extension, base, 40, seed)
        assert agreement == _outcome(_looped_agreement, extension, base, 40, seed), (seed, kind)
        seen.add(("conservative", getattr(report, "is_conservative", report)))
        seen.add(("agreement", getattr(agreement, "agrees", agreement)))
        if seed >= 75:
            continue
        try:
            in_base, in_ext = _random_orders(rng, ORDER_KINDS[seed // 3 % 3], extension, base)
        except ValueOutOfRange:  # a respect order of a refused model
            in_base = in_ext = NormalityOrder.flat()
        pair = ExtendedCausalModel(extension, in_ext), ExtendedCausalModel(base, in_base)
        extended = _outcome(is_conservative_extension_extended, *pair)
        assert extended == _outcome(_naive_extended_conservativity, *pair), (seed, kind)
        if isinstance(extended, ExtensionReport) and extended.ce_counterexample:
            extended = "threshold"
        seen.add(("extended", getattr(extended, "is_conservative", extended)))
    assert seen == {
        (check, result)
        for check in ("conservative", "agreement", "extended")
        for result in (True, False, ValueOutOfRange)
    } | {("extended", "threshold")}, seen


def test_conservative_extensions_keep_every_base_world():
    """The lemma the extended check rests on.  On a pair the plain check
    accepts, every partial setting of the base variables gives the base the
    extension's world restricted to the base, and no formula disagrees.  On
    a pair it refuses, the counterexample is a disagreeing formula:
    `[setting](X = value_base)` holds in the base and fails in the
    extension."""
    accepted = refused = 0
    for seed in range(60):
        base, extension = random_extension_pair(
            random.Random(9000 + seed), EXTENSION_KINDS[seed % 3]
        )
        report = _outcome(is_conservative_extension, extension, base)
        if report is ValueOutOfRange:
            continue
        if report.is_conservative:
            accepted += 1
            for ctx in base.contexts():
                for iv in _base_settings(base):
                    in_ext = naive_solve(extension, ctx, iv)
                    assert naive_solve(base, ctx, iv) == {
                        n: in_ext[n] for n in base.endogenous_names
                    }, (seed, ctx, iv)
            assert check_formula_agreement(extension, base, 40, seed).agrees, seed
        else:
            refused += 1
            ce = report.counterexample
            formula = Held(tuple(ce.setting.items()), PrimitiveEvent(ce.variable, ce.value_base))
            assert eval_formula(base, ce.context, formula), seed
            assert not eval_formula(extension, ce.context, formula), seed
    assert accepted >= 20 and refused >= 5, (accepted, refused)


def test_a_refused_extension_disagrees_on_its_counterexample_formula():
    """The lemma read backwards: a pair that `is_conservative_extension`
    refuses disagrees on a formula over the base variables.  From the
    counterexample (u, X, setting), `[setting](X = value_base)` holds in
    the base and fails in the extension in context u, by `eval_formula`
    and by the oracle."""
    refused = 0
    for seed in range(400):
        base, extension = random_extension_pair(
            random.Random(9500 + seed), ("rewired", "overflow")[seed % 2]
        )
        report = _outcome(is_conservative_extension, extension, base)
        if report is ValueOutOfRange or report.is_conservative:
            continue
        refused += 1
        ce = report.counterexample
        formula = Held(tuple(ce.setting.items()), PrimitiveEvent(ce.variable, ce.value_base))
        assert fm.formula_variables(formula) <= set(base.endogenous_names), seed
        for model, holds in ((base, True), (extension, False)):
            assert eval_formula(model, ce.context, formula) is holds, (seed, model)
            assert naive_formula_holds(model, ce.context, formula) is holds, (seed, model)
    assert refused >= 60, refused


def _random_candidates(rng, model, cause, count):
    """`count` random witnesses over the base variables outside `cause`,
    each with alternate cause values other than the cause's."""
    others = [n for n in model.endogenous_names if n not in cause]
    alts = [alt for alt in itertools.product(*map(model.range_of, cause))
            if alt != tuple(cause.values())]
    for _ in range(count):
        picked = set(rng.sample(others, rng.randint(0, len(others))))
        contingency = tuple(n for n in others if n in picked)
        yield Witness(contingency, tuple(rng.choice(model.range_of(n)) for n in contingency),
                      rng.choice(alts))


def test_a_conservative_extension_keeps_each_base_witness_counterfactual(doc):
    """A base witness intervenes on base variables only, and a conservative
    extension gives the world of every such setting the base's values on
    the base variables (the paper's lemma), so the effect, which reads base
    variables, flips in both models or in neither: AC2(a) cannot kill a base
    witness.  Each base corpus case is posed again on its extension, where
    the extension declares its context.  Under the extended rules both
    orders must pass `is_conservative_extension_extended`; an extension
    with no order is asked for the counterfactual alone."""
    rng = random.Random(3)
    kept = 0
    for ext_name, base_name in CONSERVATIVE_PAIRS:
        base, extension = doc(base_name), doc(ext_name)
        for case in CASES:
            if case.model != base_name or case.context not in extension.contexts:
                continue
            variant, subjects = case.variant, (base.model, extension.model)
            if variant == "extended" and extension.normality is None:
                variant = "updated"
            elif variant == "extended":
                subjects = base.extended(), extension.extended()
                assert is_conservative_extension_extended(*subjects[::-1]).is_conservative
            ctx = base.context(case.context)
            cause = parse_cause(case.cause, base.model)
            phi = parse_formula(case.effect, base.model)
            witnesses = find_witnesses(subjects[0], ctx, cause, phi, variant)
            for witness in [*witnesses, *_random_candidates(rng, base.model, cause, 10)]:
                outcomes = [check_ac2a(s, ctx, cause, phi, witness, variant) for s in subjects]
                assert outcomes[0] == outcomes[1], (case.id, ext_name, witness)
            kept += len(witnesses)
    assert kept > 150, kept


def test_a_faithful_extension_keeps_every_base_counterfactual():
    """The same lemma on random "faithful" extensions, which route one base
    equation through a new copy variable: every witness over the base
    variables keeps its AC2(a) outcome."""
    witnesses = flips = 0
    for seed in range(60):
        rng = random.Random(9800 + seed)
        base, extension = random_extension_pair(rng, "faithful")
        assert is_conservative_extension(extension, base).is_conservative, seed
        ctx = random_context(rng, base)
        world = solve(base, ctx)
        phi = random_effect(rng, base, base.endogenous_names[-2:])
        for name in base.endogenous_names[:-1]:
            cause = {name: world[name]}
            found = find_witnesses(base, ctx, cause, phi)
            for witness in [*found, *_random_candidates(rng, base, cause, 10)]:
                outcome = check_ac2a(base, ctx, cause, phi, witness)
                assert check_ac2a(extension, ctx, cause, phi, witness) == outcome, seed
                flips += outcome
            witnesses += len(found)
    assert witnesses > 50 and flips > witnesses, (witnesses, flips)


def test_agreement_draws_and_decides_nothing_on_an_accepted_pair(doc, monkeypatch):
    """On a pair the plain check accepts, no formula is drawn, and none is
    decided in either model."""
    decided, real_holds = [], fm.holds
    monkeypatch.setattr(fm, "holds", lambda *args: decided.append(args) or real_holds(*args))
    drawn, real_draw = [], transforms.random_causal_formula
    monkeypatch.setattr(transforms, "random_causal_formula",
                        lambda *args: drawn.append(args) or real_draw(*args))
    detailed = doc("rock_throwing_detailed").model
    report = check_formula_agreement(
        detailed, doc("rock_throwing_naive").model, samples=50, seed=3
    )
    assert report.agrees and decided == [] and drawn == []
    # a base of one variable
    one = md.make_model({"U": (0, 1)}, {"A": (0, 1)}, {"A": md.Var("U")})
    wider = md.make_model({"U": (0, 1)}, {"N": (0, 1), "A": (0, 1)},
                          {"N": md.Var("U"), "A": md.Var("N")})
    assert check_formula_agreement(wider, one, samples=50, seed=3).agrees
    assert decided == [] and drawn == []
    # a refused pair draws and decides, so the counters see both
    cheat = doc("rock_throwing_cheat").model
    assert not check_formula_agreement(cheat, detailed, samples=200, seed=7).agrees
    assert decided and drawn


def test_conservativity_enumerates_only_the_settings_that_matter(doc, solved_rows):
    pair = doc("glymour_mechanisms").model, doc("glymour_naive").model
    calls = solved_rows(*pair)
    report = is_conservative_extension(*pair)
    # every total setting of the other variables in every context would be
    # 12,288 solves, the settings that can reach X 2,368, those of the
    # variables whose equation the extension rewrites 64 (84 when the
    # unchanged ones were solved too)
    assert report.is_conservative and len(calls) == 64, len(calls)


def test_conservativity_solves_the_bundled_pairs_in_804_rows(doc, solved_rows):
    """The 15 bundled conservative pairs, each X whose equation the
    extension rewrites solved only under the settings of its reach and in
    the first context of each class: 1,040 rows when the X left unchanged
    were solved too, 21,412 when every base variable any new equation read
    was enumerated in every context."""
    models = {name: doc(name).model for pair in CONSERVATIVE_PAIRS for name in pair}
    calls = solved_rows(*models.values())
    for ext_name, base_name in CONSERVATIVE_PAIRS:
        pair = models[ext_name], models[base_name]
        assert is_conservative_extension(*pair).is_conservative, ext_name
    assert len(calls) == 804, len(calls)


def test_conservativity_keeps_no_list_of_every_context(solved_rows):
    """14 binary exogenous variables U1..U14, each read by one base
    variable, and a new variable N that carries O's equation.  The voters'
    equations are unchanged, so only O is solved: 4 rows.  In a second
    extension each voter's equation is rewritten as another expression of
    the same value, so every voter is solved too: each X's contexts vary
    only the U in its reach, so the check neither solves nor holds the
    16,384 contexts (listing them all took a 6 MB peak)."""
    n = 14
    exogenous = {f"U{i}": (0, 1) for i in range(1, n + 1)}
    voters = {f"V{i}": md.Var(f"U{i}") for i in range(1, n + 1)}
    rewritten = {name: md.Not(md.Not(expr)) for name, expr in voters.items()}
    endogenous = dict.fromkeys([*voters, "O"], (0, 1))
    base = md.make_model(exogenous, endogenous, {**voters, "O": md.Var("V1")})
    for equations, rows in ((voters, 4), (rewritten, 60)):
        extension = md.make_model(exogenous, {**endogenous, "N": (0, 1)},
                                  {**equations, "N": md.Var("V1"), "O": md.Var("N")})
        calls = solved_rows(extension, base)
        tracemalloc.start()
        try:
            report = is_conservative_extension(extension, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_conservative
        assert len(calls) == rows, (rows, len(calls))
        assert peak < 500_000, peak


def test_an_unchanged_full_size_vote_is_decided_without_a_solve(solved_rows):
    """`livengood_17_2_0` checked against a second parse of itself: every
    equation is equal but not the same object, so no variable is solved,
    although a plan for O alone would have 3^19 settings.  An extension that
    only adds variables no base equation reads is accepted with no row
    either."""
    text = model_path("livengood_17_2_0").read_text(encoding="utf-8")
    base, extension = parse_model(text).model, parse_model(text).model
    assert all(a == b and a is not b
               for (_, a), (_, b) in zip(base.equations, extension.equations))
    wider = md.make_model(
        dict(base.signature.exogenous),
        {**dict(base.signature.endogenous), "N": (0, 1, 2, 3), "M": (0, 1)},
        {**dict(extension.equations), "N": md.Var("O"),
         "M": md.Cmp("=", md.Var("N"), md.Var("UV1"))})
    calls = solved_rows(base, extension, wider, cap=0)
    assert is_conservative_extension(extension, base) == ExtensionReport(True)
    assert is_conservative_extension(wider, base) == ExtensionReport(True)
    assert calls == []


def _with_copied_equations(extension, base):
    """`extension` with each equation that equals the base's replaced by a
    deep copy, an equal expression that is not the same object."""
    equations = dict(base.equations)
    copied = {n: copy.deepcopy(e) if equations.get(n) == e else e
              for n, e in extension.equations}
    assert all(copied[n] is not e for n, e in base.equations if copied[n] == e)
    return md.make_model(dict(extension.signature.exogenous),
                         dict(extension.signature.endogenous), copied)


def test_unchanged_equations_are_skipped_by_equality_on_random_pairs(solved_rows):
    """On 240 fresh random pairs, 80 of each kind, of up to 4 base
    variables, the check gives the reference's report, first counterexample or error type,
    both as built, where the unchanged equations are the base's own
    objects, and with them replaced by deep copies, which solves the same
    rows."""
    seen, skipped = set(), 0
    for seed in range(240):
        kind = EXTENSION_KINDS[seed % 3]
        base, extension = random_extension_pair(random.Random(31_000 + seed), kind,
                                                max_endogenous=3 + seed % 2)
        want = _outcome(_naive_conservativity, extension, base)
        copied = _with_copied_equations(extension, base)
        skipped += sum(e == copied.equation_of(n) for n, e in base.equations)
        rows = []
        for model in (extension, copied):
            try:
                calls = solved_rows(model, base)
            except ValueOutOfRange:  # refused as its runtime is built
                calls = []
            assert _outcome(is_conservative_extension, model, base) == want, (seed, kind)
            rows.append(len(calls))
        assert rows[0] == rows[1], (seed, kind, rows)
        seen.add((kind, getattr(want, "is_conservative", want)))
    assert skipped > 400, skipped
    assert {result for _, result in seen} == {True, False, ValueOutOfRange}, seen


def test_conservativity_enumerates_what_the_extension_reads():
    """C reads only A in the base, but in the extension B too, directly or
    through a new variable N, so B's values must be enumerated for C: the
    models differ only at B = 1."""
    exogenous, endogenous = {"U": (0, 1)}, {"A": (0, 1), "B": (0, 1), "C": (0, 1)}
    equations = {"A": md.Var("U"), "B": md.Var("U")}
    base = md.make_model(exogenous, endogenous, {**equations, "C": md.Var("A")})
    for reads in ("B", "N"):
        test = md.Cmp("=", md.Var(reads), md.Const(1))
        extension = md.make_model(exogenous, {**endogenous, "N": (0, 1)}, {
            **equations, "N": md.Var("B") if reads == "N" else md.Const(0),
            "C": md.Case(arms=((test, md.Const(0)),), default=md.Var("A")),
        })
        report = is_conservative_extension(extension, base)
        assert report == _naive_conservativity(extension, base)
        assert report.counterexample == Counterexample({"U": 0}, "C", {"A": 1, "B": 1}, 1, 0)


def _context_first_conservativity(extension, base):
    """`is_conservative_extension` as a loop over contexts, then X, then
    every total setting of the other base variables, with no pruning, each
    solved by `solve_values` in the base and then in the extension: the
    first failure met is reported."""
    base_rt, ext_rt = base._runtime(), extension._runtime()
    names = base_rt.endo_names
    for exo, exo_ext in transforms._context_pairs(extension, base):
        for x in names:
            others = [n for n in names if n != x]
            for setting in itertools.product(*map(base.range_of, others)):
                got_base = md.solve_values(base, exo, {
                    base_rt.endo_index[n]: v for n, v in zip(others, setting)
                })[base_rt.endo_index[x]]
                got_ext = md.solve_values(extension, exo_ext, {
                    ext_rt.endo_index[n]: v for n, v in zip(others, setting)
                })[ext_rt.endo_index[x]]
                if got_base != got_ext:
                    return ExtensionReport(False, Counterexample(
                        dict(zip(base_rt.exo_names, exo)), x, dict(zip(others, setting)),
                        got_base, got_ext))
    return ExtensionReport(True)


def _exact_outcome(check, *args):
    """The report, or the error raised with its variable, value and
    assignment."""
    try:
        return check(*args)
    except ValueOutOfRange as exc:
        return ValueOutOfRange, exc.variable, exc.value, exc.assignment


def _rewritten_pair(contexts, ext_a, ext_b, base_a=md.Const(0)):
    """A base with A = `base_a` and B = 0, both over (0, 1), in the contexts
    U of `contexts`, and an extension that only gives A and B other
    equations."""
    exogenous, endogenous = {"U": contexts}, {"A": (0, 1), "B": (0, 1)}
    base = md.make_model(exogenous, endogenous, {"A": base_a, "B": md.Const(0)})
    return md.make_model(exogenous, endogenous, {"A": ext_a, "B": ext_b}), base


def test_conservativity_fails_first_where_the_context_first_loop_did():
    """The check runs X and the settings outside, the contexts inside, and
    prunes both, yet it reports the same first counterexample as the loop
    over every context first, then X, then every total setting, or is
    refused with the same escape: on the random pairs, overflow kinds
    included, 100 of them with up to 4 exogenous variables, so that an X
    has several classes of contexts; and on pairs where counterexamples of
    two X, or of two settings of one X, compete in one context or in two."""
    outcomes = set()
    draws = [(7000 + seed, 2) for seed in range(150)] + [(7500 + seed, 4) for seed in range(100)]
    for seed, max_exogenous in draws:
        kind = EXTENSION_KINDS[seed % 3]
        base, extension = random_extension_pair(
            random.Random(seed), kind, max_exogenous=max_exogenous)
        got = _exact_outcome(is_conservative_extension, extension, base)
        assert got == _exact_outcome(_context_first_conservativity, extension, base), seed
        outcomes.add((max_exogenous, getattr(got, "is_conservative", ValueOutOfRange)))
    assert outcomes == {(m, o) for m in (2, 4) for o in (True, False, ValueOutOfRange)}

    def is_u(k):
        return md.Cmp("=", md.Var("U"), md.Const(k))

    def when(*arms):  # 1 where one of the tests holds, else 0
        return md.Case(tuple((md.conj(tests), md.Const(1)) for tests in arms), md.Const(0))

    b_is = [md.Cmp("=", md.Var("B"), md.Const(k)) for k in (0, 1)]
    cases = [
        # in U=1, X=A differs before X=B does
        (_rewritten_pair((0, 1), is_u(1), is_u(1)), ({"U": 1}, "A", {"B": 0})),
        # X=A differs in U=2, X=B in U=1
        (_rewritten_pair((0, 1, 2), is_u(2), is_u(1)), ({"U": 1}, "B", {"A": 0})),
        # for X=A, setting B=0 differs in U=2, the later B=1 in U=1
        (_rewritten_pair((0, 1, 2), when((b_is[0], is_u(2)), (b_is[1], is_u(1))), md.Const(0)),
         ({"U": 1}, "A", {"B": 1})),
    ]
    for (extension, base), want in cases:
        got = is_conservative_extension(extension, base)
        assert got == _context_first_conservativity(extension, base)
        ce = got.counterexample
        assert (ce.context, ce.variable, ce.setting) == want, got


def test_conservativity_fails_first_in_a_later_class_of_contexts():
    """X reads exogenous variables only through new variables, so only the
    contexts that differ on them are solved for X, and the first
    counterexample lies in a later class than the first context's.  The
    check finds it where the loop over every context and total setting
    does: with one exogenous variable read through N; with two read
    through a chain N1 -> N2 that also reads the base variable B, which X
    reads only that way, and the extension declaring its exogenous
    variables in another order; with one that only the base equation
    reads; and with two X whose classes differ, declared in either order,
    the one that fails in the earlier context winning."""
    def eq(name, k):
        return md.Cmp("=", md.Var(name), md.Const(k))

    def make(exogenous, endogenous, equations):
        return md.make_model(exogenous, dict.fromkeys(endogenous, (0, 1)), equations)

    cases = []
    # X reads U only through N
    exogenous = {"U": (0, 1), "W": (0, 1)}
    base = make(exogenous, ["A", "X"], {"A": md.Var("W"), "X": md.Var("A")})
    extension = make(exogenous, ["A", "N", "X"], {
        "A": md.Var("W"), "N": md.Var("U"),
        "X": md.Case(((md.conj([eq("N", 1), eq("A", 1)]), md.Const(0)),), md.Var("A"))})
    cases.append((extension, base, ({"U": 1, "W": 0}, "X", {"A": 1})))
    # X reads U, W and B only through N1 -> N2; A, C and Z lie outside its reach
    exogenous = {"U": (0, 1), "W": (0, 1, 2), "Z": (0, 1)}
    equations = {"A": md.Var("U"), "B": md.Var("Z"), "C": md.Const(0)}
    base = make(exogenous, ["A", "B", "X", "C"], {**equations, "X": md.Const(0)})
    extension = make(dict(reversed(exogenous.items())), ["A", "B", "N1", "N2", "X", "C"], {
        **equations, "N1": md.Var("U"),
        "N2": md.Case(((md.conj([eq("W", 2), eq("B", 1)]), md.Var("N1")),), md.Const(0)),
        "X": md.Var("N2")})
    cases.append((extension, base, ({"U": 1, "W": 2, "Z": 0}, "X", {"A": 0, "B": 1, "C": 0})))
    # X reads W in the base only
    exogenous = {"U": (0, 1), "W": (0, 1)}
    base = make(exogenous, ["X"], {"X": md.Var("W")})
    cases.append((make(exogenous, ["X"], {"X": md.Const(0)}), base, ({"U": 0, "W": 1}, "X", {})))
    # P fails first in context (U=0, W=1), through M; Q in (U=1, W=0), through N
    news = {"M": md.Var("W"), "N": md.Var("U")}
    for names in (["P", "Q"], ["Q", "P"]):
        base = make(exogenous, names, {"P": md.Const(0), "Q": md.Const(0)})
        extension = make(exogenous, [*news, *names],
                         {**news, "P": md.Var("M"), "Q": md.Var("N")})
        cases.append((extension, base, ({"U": 0, "W": 1}, "P", {"Q": 0})))
    for extension, base, want in cases:
        got = is_conservative_extension(extension, base)
        assert got == _context_first_conservativity(extension, base)
        ce = got.counterexample
        assert (ce.context, ce.variable, ce.setting) == want, got


def test_agreement_refuses_a_sample_count_below_one(doc):
    base, ext = doc("rock_throwing_naive").model, doc("rock_throwing_detailed").model
    for samples in (0, -3):
        with pytest.raises(EngineError, match="sample count"):
            check_formula_agreement(ext, base, samples=samples)


def test_extended_conservativity_scanner_chain(doc):
    base = doc("scanner_vote").extended()
    middle = doc("scanner_vote_direct").extended()
    last = doc("scanner_vote_both").extended()
    assert is_conservative_extension_extended(middle, base).is_conservative
    assert is_conservative_extension_extended(last, middle).is_conservative


def test_extended_conservativity_ranks_the_actual_world_once(doc, monkeypatch):
    """A respect-built order ranks a world by a deviation check.  Each
    comparison ranks the intervened world, while the actual world it is
    compared with is ranked once per context: 66 and 260 checks where
    ranking both worlds every time made 128 and 512."""
    checks = []
    real = transforms._deviations
    monkeypatch.setattr(transforms, "_deviations", lambda *a: checks.append(a) or real(*a))
    for (extension, base), want in (
        (("scanner_vote_direct", "scanner_vote"), 66),
        (("scanner_vote_both", "scanner_vote_direct"), 260),
    ):
        checks.clear()
        pair = doc(extension).extended(), doc(base).extended()
        assert is_conservative_extension_extended(*pair).is_conservative
        assert len(checks) == want, (extension, base, len(checks))


def test_extended_conservativity_raises_where_only_every_base_setting_overflows():
    """The new variable N = A + B leaves its range (0, 1) only under A=1,
    B=1, a setting of every base variable that the plain check never makes.
    The extension is refused when its runtime is built, so the plain check
    raises as well as the extended one, naming N, the value 2 and the
    assignment, as the references do."""
    exogenous, endogenous = {"U": (0, 1)}, {"A": (0, 1), "B": (0, 1)}
    equations = {"A": md.Const(0), "B": md.Const(0)}
    base = md.make_model(exogenous, endogenous, equations)
    extension = md.make_model(exogenous, {**endogenous, "N": (0, 1)},
                              {**equations, "N": md.Sum((md.Var("A"), md.Var("B")))})
    flat = NormalityOrder.flat()
    pair = ExtendedCausalModel(extension, flat), ExtendedCausalModel(base, flat)
    want = ValueOutOfRange, "N", 2, {"A": 1, "B": 1}
    assert _exact_outcome(is_conservative_extension, extension, base) == want
    assert _exact_outcome(_naive_conservativity, extension, base) == want
    assert _exact_outcome(is_conservative_extension_extended, *pair) == want
    assert _exact_outcome(_naive_extended_conservativity, *pair) == want


def test_extended_conservativity_solves_each_total_setting_once(doc, monkeypatch):
    """After the plain check's 16 and 16 runs (36 and 44 when the
    variables whose equation is unchanged were solved too), each total
    setting of the base variables is solved once in the extension, 64 and
    128 runs, and the actual world is read from them: 80 and 144 solver
    runs, where solving every partial setting made 524 and 1,504.  The
    rank functions' own deviation checks are not counted."""
    documents = {name: doc(name) for name in ("scanner_vote", "scanner_vote_direct",
                                              "scanner_vote_both")}
    runs, checks = [], []
    for document in documents.values():
        rt = document.model._runtime()
        monkeypatch.setattr(rt, "solve", lambda exo, get, real=rt.solve: runs.append(exo)
                            or real(exo, get))
    real = transforms._deviations
    monkeypatch.setattr(transforms, "_deviations", lambda *a: checks.append(a) or real(*a))
    for (extension, base), want in (
        (("scanner_vote_direct", "scanner_vote"), 80),
        (("scanner_vote_both", "scanner_vote_direct"), 144),
    ):
        runs.clear()
        checks.clear()
        pair = documents[extension].extended(), documents[base].extended()
        assert is_conservative_extension_extended(*pair).is_conservative
        assert len(runs) - len(checks) == want, (extension, len(runs), len(checks))


def _raising_order(rng, model):
    """A rank over one or two base variables that cannot rank the worlds
    where one base variable takes one value of its range, and says which."""
    names = model.endogenous_names
    name = rng.choice(names)
    bad = rng.choice(model.range_of(name))
    weights = {n: {v: rng.randint(0, 2) for v in model.range_of(n)}
               for n in rng.sample(names, rng.randint(1, 2))}

    def rank(world):
        if world[name] == bad:
            raise EngineError(f"cannot rank {world}")
        return sum(t[world[n]] for n, t in weights.items())

    return NormalityOrder.from_ranks(rank)


def test_extended_conservativity_matches_the_reference_on_multivalued_pairs():
    """The extended check gives the reference's report, or raises the error
    with the message it raises, on pairs of up to 4 base variables with up
    to 3 values each, under shared, independent and respect-built orders
    and under orders that cannot rank some worlds, whose first error names
    the first world compared that they cannot rank."""
    seen = set()
    for seed in range(40):
        rng = random.Random(9000 + seed)
        base, extension = random_extension_pair(rng, EXTENSION_KINDS[seed % 3], max_endogenous=4)
        kind = ("shared", "independent", "respect", "raising")[seed // 3 % 4]
        try:
            if kind == "raising":
                in_base = _raising_order(rng, base)
                in_ext = _raising_order(rng, base) if rng.random() < 0.5 else in_base
            else:
                in_base, in_ext = _random_orders(rng, kind, extension, base)
        except ValueOutOfRange:  # a respect order of a refused model
            in_base = in_ext = NormalityOrder.flat()
        pair = ExtendedCausalModel(extension, in_ext), ExtendedCausalModel(base, in_base)
        outcomes = []
        for check in (is_conservative_extension_extended, _naive_extended_conservativity):
            try:
                outcomes.append(check(*pair))
            except EngineError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (seed, kind)
        got = outcomes[0]
        if isinstance(got, ExtensionReport):
            seen.add("threshold" if got.ce_counterexample else got.is_conservative)
        else:
            seen.add("cannot rank" if got[1].startswith("cannot rank") else got[0])
    assert seen == {True, False, "threshold", "cannot rank", ValueOutOfRange}, seen


def test_extended_conservativity_flat_pair(doc):
    base = ExtendedCausalModel(doc("rock_throwing_naive").model, NormalityOrder.flat())
    ext = ExtendedCausalModel(doc("rock_throwing_detailed").model, NormalityOrder.flat())
    assert is_conservative_extension_extended(ext, base).is_conservative


def test_extended_conservativity_threshold_counterexample(doc):
    # same conservative base pair, but the extension suddenly calls every
    # changed world abnormal: the thresholds disagree
    base = ExtendedCausalModel(doc("rock_throwing_naive").model, NormalityOrder.flat())
    naughty = ExtendedCausalModel(
        doc("rock_throwing_detailed").model,
        NormalityOrder.from_ranks(lambda w: 0 if w["BS"] == 1 else 1),
    )
    report = is_conservative_extension_extended(naughty, base)
    assert not report.is_conservative and report.ce_counterexample is not None


# -- deviations and equation respect -------------------------------------------

def test_actual_world_never_deviates(doc):
    for name in ("rock_throwing_detailed", "scanner_vote_both", "stability_3"):
        document = doc(name)
        for ctx in document.contexts.values():
            assert deviating_variables(document.model, ctx, solve(document.model, ctx)) == []


def test_deviation_detected_on_forced_hit(rt_detailed):
    world = solve(rt_detailed.model, {"U": 1})
    tweaked = dict(world.as_dict())
    tweaked["BH"] = 1
    records = deviating_variables(rt_detailed.model, {"U": 1}, tweaked)
    assert [(r.variable, r.expected, r.actual) for r in records] == [("BH", 0, 1)]


def test_deviation_on_stability_trigger():
    model, contexts = build_stability_model(1)
    world = {"A": 1, "B": 1, "X1": 0}
    records = deviating_variables(model, contexts["u1"], world)
    assert [r.variable for r in records] == ["X1"]
    assert records[0].expected == 1


def test_deviations_match_the_oracle_on_random_worlds():
    """Each record names a variable whose equation, read by the oracle's
    interpreter on the world's values, yields another value, with that
    value: on multi-valued models and on the total extensions of overflow
    pairs, whose sums the solver evaluates for forced variables too."""
    rng = random.Random(31)
    deviations = 0
    for trial in range(120):
        model = random_multivalued_model(rng)
        if trial % 2:
            extension = random_extension_pair(rng, "overflow")[1]
            model = extension if first_escape(extension) is None else model
        names = model.endogenous_names
        ctx = random_context(rng, model)
        for _ in range(4):
            world = md.World(names, tuple(rng.choice(model.range_of(n)) for n in names))
            env = {**ctx, **world.as_dict()}
            expected = []
            for name, equation in model.equations:
                raw = interpret(equation, env)
                if raw != world[name]:
                    expected.append((world, name, raw, world[name]))
            given = world if rng.random() < 0.5 else world.as_dict()
            records = deviating_variables(model, ctx, given)
            assert [(r.world, r.variable, r.expected, r.actual) for r in records] == expected
            deviations += len(records)
    assert deviations >= 500, deviations


def test_no_variables_make_no_deviation_check(doc, monkeypatch):
    """With no variables, `respects_equations` enumerates no world and the
    rank of `normality_from_respect` runs no solver."""
    direct = doc("scanner_vote_direct")
    model, ctx = direct.model, direct.context("u")
    extended = direct.extended()
    rt = model._runtime()
    calls = []
    real = rt.solve
    monkeypatch.setattr(rt, "solve", lambda *a: calls.append(a) or real(*a))
    assert respects_equations(extended, ctx, []) == RespectReport(True)
    order = normality_from_respect(model, ctx, ())
    assert all(order.rank(w) == 0 for w in model.worlds())
    assert calls == []


def test_respect_reports(doc):
    direct = doc("scanner_vote_direct")
    assert respects_equations(direct.extended(), direct.context("u"), ["D'"]).respects
    flat = ExtendedCausalModel(direct.model, NormalityOrder.flat())
    report = respects_equations(flat, direct.context("u"), ["D'"])
    assert not report.respects and report.violating_world is not None


def test_normality_from_respect_builder(doc):
    model = doc("scanner_vote_direct").model
    ctx = {"U": 1}
    empty = normality_from_respect(model, ctx, [])
    worlds = list(model.worlds())
    assert all(empty.rank(w) == 0 for w in worlds)
    order = normality_from_respect(model, ctx, ["D'"])
    extended = ExtendedCausalModel(model, order)
    assert respects_equations(extended, ctx, ["D'"]).respects

    stab, contexts = build_stability_model(1)
    stab_order = normality_from_respect(stab, contexts["u1"], ["X1"])
    for w in stab.worlds():
        assert stab_order.rank(w) == (1 if w["X1"] == 0 else 0)


def test_normality_from_respect_two_variable_sets(doc):
    model = doc("scanner_vote_both").model
    ctx = {"U": 1}
    both = normality_from_respect(model, ctx, ["D'", "D''"])
    for w in model.worlds():
        first_off = w["D'"] != (1 if (w["B"] and not w["A"]) else 0)
        second_off = w["D''"] != (1 if (w["D"] and not w["A"]) else 0)
        assert both.rank(w) == (1 if (first_off or second_off) else 0)
    extended = ExtendedCausalModel(model, both)
    assert respects_equations(extended, ctx, ["D'", "D''"]).respects


# -- witness killing -------------------------------------------------------------

def test_kill_witness_matches_named_route(hopkins):
    u = hopkins.context("u")
    witness = Witness(("B", "C"), (1, 0), (0,))
    killed = kill_witness(hopkins.model, u, {"A": 1}, ("D", 1), witness)
    # the watchdog nearly coincides with the named route E = A & B: they
    # differ exactly when everything fires at once
    index = killed._runtime().endo_index
    differences = []
    for a, b, c in itertools.product((0, 1), repeat=3):
        forced = {index["A"]: a, index["B"]: b, index["C"]: c}
        got = md.solve_values(killed, (0, 0, 0), forced)[index["NW1"]]
        named_route = 1 if (a and b) else 0
        if got != named_route:
            differences.append((a, b, c))
    assert differences == [(1, 1, 1)]
    # output is conservative and the witness family is dead
    assert is_conservative_extension(killed, hopkins.model).is_conservative
    phi = PrimitiveEvent("D", 1)
    for w in find_witnesses(killed, u, {"A": 1}, phi, "original"):
        overlap = set(w.vars) & {"B", "C"}
        assert not (
            {"B", "C"} <= set(w.vars)
            and w.values[w.vars.index("B")] == 1
            and w.values[w.vars.index("C")] == 0
            and w.alt == (0,)
        )


def test_kill_witness_validation(hopkins, rt_detailed):
    u = hopkins.context("u")
    with pytest.raises(WitnessEqualsActual):
        kill_witness(hopkins.model, u, {"A": 1}, ("D", 1),
                     Witness(("B", "C"), (0, 1), (0,)))
    with pytest.raises(NotAWitness):
        kill_witness(hopkins.model, u, {"A": 1}, ("D", 1),
                     Witness(("B",), (1,), (0,)))
    with pytest.raises(EngineError):
        kill_witness(hopkins.model, u, {"A": 1, "C": 1}, ("D", 1),
                     Witness(("B",), (1,), (0, 0)))


def test_kill_all_witnesses_hopkins(hopkins):
    u = hopkins.context("u")
    phi = PrimitiveEvent("D", 1)
    killed = kill_all_witnesses(hopkins.model, u, {"A": 1}, ("D", 1))
    assert len(killed.meta["witness_kills"]) == 1  # single witness, one round
    assert is_conservative_extension(killed, hopkins.model).is_conservative
    assert not is_actual_cause(killed, u, {"A": 1}, phi, "original").is_cause
    assert is_actual_cause(killed, u, {"C": 1}, phi, "original").is_cause
    assert is_actual_cause(killed, u, {"C": 1}, phi, "updated").is_cause


def test_kill_all_witnesses_round_limit_counts_kills(hopkins):
    # one kill kills the cause, so a limit of one round is enough: the model
    # is checked after every kill, the last one included
    u = hopkins.context("u")
    once = kill_all_witnesses(hopkins.model, u, {"A": 1}, ("D", 1), max_rounds=1)
    assert once == kill_all_witnesses(hopkins.model, u, {"A": 1}, ("D", 1))
    assert len(once.meta["witness_kills"]) == 1


# drawn by `random_multivalued_model(random.Random(106), max_endogenous=5)`,
# with its context from the same generator; frozen here so that a change to
# the generator cannot drop the case
TWO_KILLS = """\
model two_kills
exogenous U1: {1,2}
endogenous V1: {0,1} = case { U1 <= 2 & U1 >= 1 -> 1; U1 <= 1 -> 1; default -> 1 }
endogenous V2: {1,2} = case { U1 < 1 -> 1; U1 + V1 < 2 -> 2; default -> 2 }
endogenous V3: {1,2} = case { U1 != 1 -> U1; V2 != 2 | !(V1 + U1 <= 3) -> 2; default -> 2 }
endogenous V4: {0,1,2} = case { !(V3 = 2 & U1 != 1) -> 0; default -> 0 }
endogenous V5: {-1,0,1} = case { U1 != 2 & (V3 = 1 & V2 + V4 > 1) -> V1; default -> 0 }
context u { U1 = 1 }
"""


def test_kill_all_witnesses_past_its_first_round():
    # the first kill leaves a witness that reads the first watchdog, so the
    # cause dies only in round two
    doc = parse_model(TWO_KILLS)
    u = doc.context("u")
    killed = kill_all_witnesses(doc.model, u, {"V4": 0}, ("V5", 0))
    kills = killed.meta["witness_kills"]
    assert [k["variable"] for k in kills] == ["NW1", "NW2"]
    assert "NW1" in kills[1]["witness"]["vars"]
    assert is_conservative_extension(killed, doc.model).is_conservative
    assert not is_actual_cause(killed, u, {"V4": 0}, PrimitiveEvent("V5", 0), "original").is_cause
    with pytest.raises(EngineError, match=r"^witness killing did not converge in 1 rounds$"):
        kill_all_witnesses(doc.model, u, {"V4": 0}, ("V5", 0), max_rounds=1)


def test_kill_all_witnesses_reuses_the_precondition_verdict(hopkins):
    # the original-rules verdict of the precondition opens round one, so the
    # loop charges one first-witness query (10 solves) less than it would by
    # asking it again on the same model
    budget = SearchBudget()
    kill_all_witnesses(hopkins.model, hopkins.context("u"), {"A": 1}, ("D", 1), budget=budget)
    assert budget.used == 74


def test_kill_all_witnesses_refuses_a_pair_cause_before_any_solve(hopkins):
    budget = SearchBudget()
    with pytest.raises(EngineError, match="single-conjunct causes"):
        kill_all_witnesses(hopkins.model, hopkins.context("u"), {"A": 1, "C": 1}, ("D", 1),
                           budget=budget)
    assert budget.used == 0


def test_killed_model_causes_restrict_to_original_causes(hopkins):
    u = hopkins.context("u")
    phi = PrimitiveEvent("D", 1)
    killed = kill_all_witnesses(hopkins.model, u, {"A": 1}, ("D", 1))
    for variant in ("original", "updated"):
        before = find_all_causes(hopkins.model, u, phi, variant)
        after = find_all_causes(killed, u, phi, variant)
        original_vars = set(hopkins.model.endogenous_names)
        before_sets = {frozenset(c.items()) for c, _ in before}
        for cause, verdict in after:
            if set(cause) <= original_vars:
                assert frozenset(cause.items()) in before_sets
                # and the witness carries over once restricted
                for w in verdict.witnesses[:1]:
                    restricted = [
                        (n, v) for n, v in zip(w.vars, w.values)
                        if n in original_vars
                    ]
                    carried = Witness(
                        tuple(n for n, _ in restricted),
                        tuple(v for _, v in restricted),
                        w.alt,
                    )
                    from actualcause.causality import check_ac2a, check_ac2b
                    assert check_ac2a(hopkins.model, u, cause, phi, carried, variant)
                    assert check_ac2b(hopkins.model, u, cause, phi, carried, variant)


def test_kill_all_witnesses_on_generated_instances():
    # random seeds known to yield a fixed-contingency-only cause; the
    # construction must kill it while staying conservative, and every cause
    # of the killed model over old variables must restrict to an old cause
    from actualcause.model import solve
    from oracle import random_binary_model, random_context
    import random

    seeds = [(33084, "V2"), (33143, "V3"), (34040, "V2"), (34404, "V3"),
             (35234, "V3"), (36008, "V2"), (36703, "V1")]
    for seed, var in seeds:
        rng = random.Random(seed)
        model = random_binary_model(rng, max_endogenous=4)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        effect_var = model.endogenous_names[-1]
        phi = PrimitiveEvent(effect_var, world[effect_var])
        cause = {var: world[var]}
        assert is_actual_cause(model, ctx, cause, phi, "original",
                               find_all_witnesses=False).is_cause
        assert not is_actual_cause(model, ctx, cause, phi, "updated",
                                   find_all_witnesses=False).is_cause
        killed = kill_all_witnesses(model, ctx, cause, (effect_var, world[effect_var]))
        assert is_conservative_extension(killed, model).is_conservative, seed
        assert not is_actual_cause(killed, ctx, cause, phi, "original").is_cause
        old_vars = set(model.endogenous_names)
        before = {
            frozenset(c.items())
            for c, _ in find_all_causes(model, ctx, phi, "original")
        }
        for c, _ in find_all_causes(killed, ctx, phi, "original"):
            if set(c) <= old_vars:
                assert frozenset(c.items()) in before, (seed, c)


def test_extended_variant_matches_filtered_reference():
    # a witness passes the extended rules exactly when it passes the plain
    # updated rules and its witness world clears the normality threshold
    from actualcause.causality import witness_world
    from actualcause.model import solve
    from oracle import naive_witnesses, naive_solve, event_holds
    from oracle import random_binary_model, random_context
    import random

    for i in range(60):
        rng = random.Random(750_000 + i)
        model = random_binary_model(rng, max_endogenous=4)
        names = model.endogenous_names
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        mask = tuple(rng.randint(0, 2) for _ in names)

        def rank(w, mask=mask):
            return sum(a * b for a, b in zip(w.values, mask)) % 3

        extended = ExtendedCausalModel(model, NormalityOrder.from_ranks(rank))
        phi = PrimitiveEvent(names[-1], world[names[-1]])
        var = rng.choice(names[:-1])
        cause = {var: world[var]}
        got = is_actual_cause(extended, ctx, cause, phi, "extended").is_cause
        threshold = rank(world)
        passing = any(
            rank(witness_world(model, ctx, cause, Witness(w_vars, w_vals, alt)))
            <= threshold
            for (w_vars, w_vals, alt) in naive_witnesses(
                model, ctx, cause, phi, original=False
            )
        )
        base_world = naive_solve(model, ctx)
        want = passing and base_world[var] == world[var] and event_holds(base_world, phi)
        assert got == want, i


def test_kill_all_witnesses_preconditions(doc, rt_naive):
    u1 = {"U": 1}
    detailed = doc("rock_throwing_detailed").model
    with pytest.raises(PreconditionViolated):
        kill_all_witnesses(detailed, u1, {"BT": 1}, ("BS", 1))  # not a cause at all
    with pytest.raises(PreconditionViolated):
        kill_all_witnesses(rt_naive.model, u1, {"ST": 1}, ("BS", 1))  # updated too


# -- stability family -------------------------------------------------------------

def test_kill_all_witnesses_refuses_a_round_limit_below_one(hopkins, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking the round limit")

    monkeypatch.setattr(transforms, "is_actual_cause", no_search)
    for rounds in (0, -1):
        with pytest.raises(EngineError, match="round limit"):
            kill_all_witnesses(
                hopkins.model, hopkins.context("u"), {"A": 1}, ("D", 1), max_rounds=rounds
            )


def test_stability_members_have_expected_shape():
    m0, ctxs = build_stability_model(0)
    assert m0.endogenous_names == ("A", "B")
    assert ctxs == {"u0": {"U": 0}, "u1": {"U": 1}}
    m5, _ = build_stability_model(5)
    assert m5.endogenous_names == ("A", "B", "X1", "X2", "X3", "Y1", "Y2")
    with pytest.raises(EngineError):
        build_stability_model(-1)


def test_stability_verdict_alternates():
    phi = PrimitiveEvent("B", 1)
    for n in range(7):
        model, ctxs = build_stability_model(n)
        verdict = is_actual_cause(model, ctxs["u1"], {"A": 1}, phi, "updated",
                                  find_all_witnesses=False)
        assert verdict.is_cause == (n % 2 == 1), n
        if verdict.is_cause:
            top_x = f"X{(n + 1) // 2}"
            assert verdict.witnesses[0] == Witness((top_x,), (0,), (0,))


def test_stability_off_context_is_quiet():
    phi = PrimitiveEvent("B", 1)
    for n in (0, 1, 2):
        model, ctxs = build_stability_model(n)
        world = solve(model, ctxs["u0"])
        assert world["B"] == 0
        assert not is_actual_cause(model, ctxs["u0"], {"A": 1}, phi).is_cause


def test_respected_trigger_blocks_the_odd_members():
    phi = PrimitiveEvent("B", 1)
    for n in (1, 3, 5):
        model, ctxs = build_stability_model(n)
        newest = f"X{(n + 1) // 2}"
        order = normality_from_respect(model, ctxs["u1"], [newest])
        extended = ExtendedCausalModel(model, order)
        assert not is_actual_cause(extended, ctxs["u1"], {"A": 1}, phi,
                                   "extended").is_cause, n


def test_single_conjunct_noncauses_stay_noncauses_across_respecting_pairs(doc):
    pairs = [("scanner_vote", "scanner_vote_direct", ("D'",)),
             ("scanner_vote_direct", "scanner_vote_both", ("D''",))]
    for base_name, ext_name, new_vars in pairs:
        base_doc, ext_doc = doc(base_name), doc(ext_name)
        base, ext = base_doc.extended(), ext_doc.extended()
        ctx = base_doc.context("u")
        world = solve(base.base, ctx)
        phi = PrimitiveEvent("WIN", 1)
        for var in base.base.endogenous_names:
            if var == "WIN":
                continue
            cause = {var: world[var]}
            in_base = is_actual_cause(base, ctx, cause, phi, "extended").is_cause
            in_ext = is_actual_cause(ext, ctx, cause, phi, "extended").is_cause
            if not in_base:
                assert not in_ext, (ext_name, var)


def test_no_single_conjunct_flips_twice_across_scanner_chain(doc):
    chain = [doc(n) for n in
             ("scanner_vote", "scanner_vote_direct", "scanner_vote_both")]
    ctx = {"U": 1}
    phi = PrimitiveEvent("WIN", 1)
    world = solve(chain[0].model, ctx)
    for var in chain[0].model.endogenous_names:
        if var == "WIN":
            continue
        verdicts = [
            is_actual_cause(d.extended(), ctx, {var: world[var]}, phi,
                            "extended").is_cause
            for d in chain
        ]
        assert verdicts != [True, False, True], var
    # the two-conjunct pair does flip out and back, which is the allowed shape
    pair_verdicts = [
        is_actual_cause(d.extended(), ctx, {"B": 1, "C": 1}, phi, "extended").is_cause
        for d in chain
    ]
    assert pair_verdicts == [False, True, False]
