"""Actual-cause decisions: clause checks, verdicts, enumeration, grading."""

import itertools
import random

import pytest

from actualcause import causality
from actualcause.causality import (
    ExtendedCausalModel,
    NormalityOrder,
    SearchBudget,
    Witness,
    best_witnesses,
    check_ac1,
    check_ac2a,
    check_ac2b,
    find_all_causes,
    find_witnesses,
    is_actual_cause,
    witness_world,
)
from actualcause.errors import (
    EngineError,
    MalformedPhi,
    MissingNormalityOrder,
    NoWitness,
    SearchBudgetExceeded,
)
from actualcause.formula import And, Held, Or, PrimitiveEvent
from actualcause.model import Var, World, make_model, solve
from actualcause.transforms import build_stability_model
from oracle import naive_is_cause, naive_witnesses, random_binary_model, random_context

BS1 = PrimitiveEvent("BS", 1)
D1 = PrimitiveEvent("D", 1)


# -- AC1 ---------------------------------------------------------------------

def test_ac1(rt_naive, hopkins):
    assert check_ac1(rt_naive.model, {"U": 1}, {"ST": 1}, BS1)
    assert not check_ac1(rt_naive.model, {"U": 0}, {"ST": 1}, BS1)
    assert not check_ac1(hopkins.model, hopkins.context("u"), {"B": 1}, D1)


def test_phi_must_be_intervention_free(rt_naive):
    with pytest.raises(MalformedPhi):
        check_ac1(rt_naive.model, {"U": 1}, {"ST": 1},
                  Held((("BT", 0),), BS1))
    with pytest.raises(MalformedPhi):
        is_actual_cause(rt_naive.model, {"U": 1}, {"ST": 1},
                        Held((("BT", 0),), BS1))


# -- AC2(a) ------------------------------------------------------------------

def test_ac2a_hopkins_contingency(hopkins):
    witness = Witness(("B", "C"), (1, 0), (0,))
    assert check_ac2a(hopkins.model, hopkins.context("u"), {"A": 1}, D1, witness)


def test_ac2a_fails_when_backup_fires(rt_detailed):
    witness = Witness((), (), (0,))
    assert not check_ac2a(rt_detailed.model, {"U": 1}, {"BT": 1}, BS1, witness)


def test_ac2a_extended_rejects_abnormal_witness_world(doc):
    bogus = doc("bogus_prevention")
    witness = Witness(("B",), (0,), (0,))  # needs the poisoning world A=0
    assert check_ac2a(bogus.model, bogus.context("u"), {"A": 1},
                      PrimitiveEvent("VS", 1), witness, "updated")
    assert not check_ac2a(bogus.extended(), bogus.context("u"), {"A": 1},
                          PrimitiveEvent("VS", 1), witness, "extended")


def test_ac2a_extended_needs_an_order(rt_naive):
    with pytest.raises(MissingNormalityOrder):
        check_ac2a(rt_naive.model, {"U": 1}, {"ST": 1}, BS1,
                   Witness((), (), (0,)), "extended")


# -- AC2(b) ------------------------------------------------------------------

def test_ac2b_variant_split_on_hopkins(hopkins):
    u = hopkins.context("u")
    witness = Witness(("B", "C"), (1, 0), (0,))
    assert check_ac2b(hopkins.model, u, {"A": 1}, D1, witness, "original")
    assert not check_ac2b(hopkins.model, u, {"A": 1}, D1, witness, "updated")


def test_ac2b_reset_kills_preempted_thrower(rt_detailed):
    witness = Witness(("ST",), (0,), (0,))
    assert not check_ac2b(rt_detailed.model, {"U": 1}, {"BT": 1}, BS1,
                          witness, "updated")


def test_ac2b_trivial_self_cause(rt_naive):
    witness = Witness((), (), (0,))
    assert check_ac2b(rt_naive.model, {"U": 1}, {"ST": 1},
                      PrimitiveEvent("ST", 1), witness, "updated")


# -- full verdicts ------------------------------------------------------------

def test_rock_throwing_verdicts(rt_naive, rt_detailed):
    u = {"U": 1}
    assert is_actual_cause(rt_naive.model, u, {"ST": 1}, BS1).is_cause
    assert is_actual_cause(rt_naive.model, u, {"BT": 1}, BS1).is_cause
    assert is_actual_cause(rt_detailed.model, u, {"ST": 1}, BS1).is_cause
    verdict = is_actual_cause(rt_detailed.model, u, {"BT": 1}, BS1)
    assert not verdict.is_cause and verdict.witnesses == ()


def test_spohn_verdicts(doc):
    switch = doc("spohn_switch")
    u = switch.context("u")
    phi = PrimitiveEvent("C", 1)
    assert not is_actual_cause(switch.model, u, {"A": 1}, phi).is_cause
    assert is_actual_cause(switch.model, u, {"B": 1}, phi).is_cause
    assert is_actual_cause(switch.model, u, {"S": 1}, phi).is_cause


def test_scanner_pair_only_in_middle_model(doc):
    u = {"U": 1}
    phi = PrimitiveEvent("WIN", 1)
    pair = {"B": 1, "C": 1}
    base = doc("scanner_vote").extended()
    verdict = is_actual_cause(base, u, pair, phi, "extended")
    assert not verdict.is_cause and verdict.failure_reason == "AC3"
    assert dict(verdict.ac3_violation) in ({"B": 1}, {"C": 1})
    middle = doc("scanner_vote_direct").extended()
    assert is_actual_cause(middle, u, pair, phi, "extended").is_cause
    for single in ("B", "C"):
        assert not is_actual_cause(middle, u, {single: 1}, phi, "extended").is_cause
    # enumeration decides the pair in the session that decided both scanners
    assert [c for c, _ in find_all_causes(middle, u, phi, "extended")] == [
        {"A": 1}, {"D": 1}, pair
    ]


def test_verdict_reports_updated_failure_stage(hopkins):
    verdict = is_actual_cause(hopkins.model, hopkins.context("u"),
                              {"A": 1}, D1, "updated")
    assert not verdict.is_cause and verdict.failure_reason == "AC2(b)"
    verdict = is_actual_cause(hopkins.model, hopkins.context("u"),
                              {"A": 1}, D1, "original")
    assert verdict.is_cause
    assert verdict.witnesses == (Witness(("B", "C"), (1, 0), (0,)),)


def test_extended_failure_stage_is_normality(doc):
    livengood = doc("livengood_normality")
    # every counterfactual route for R1's vote needs some abnormal ballot,
    # so with one other ballot pinned normal the deepest failure is the
    # normality clause
    bogus = doc("bogus_prevention")
    verdict = is_actual_cause(bogus.extended(), bogus.context("u"),
                              {"A": 1}, PrimitiveEvent("VS", 1), "extended")
    assert not verdict.is_cause and verdict.failure_reason == "AC2(a+)"


def test_find_all_causes_glymour_naive(doc):
    ranch = doc("glymour_naive")
    found = find_all_causes(ranch.model, ranch.context("u"), PrimitiveEvent("O", 1))
    assert [c for c, _ in found] == [
        {"A1": 1}, {"A2": 1}, {"A3": 0}, {"A4": 0}, {"A5": 0}
    ]


def test_find_all_causes_glymour_mechanisms(doc):
    ranch = doc("glymour_mechanisms")
    found = find_all_causes(ranch.model, ranch.context("u"), PrimitiveEvent("O", 1))
    sets = [c for c, _ in found]
    for wanted in ({"A1": 1}, {"A2": 1}, {"M2": 1}):
        assert wanted in sets
    for losing in ({"A3": 0}, {"A4": 0}, {"A5": 0}):
        assert losing not in sets


def test_find_all_causes_stability_zero():
    model, contexts = build_stability_model(0)
    found = find_all_causes(model, contexts["u1"], PrimitiveEvent("B", 1))
    assert {"A": 1} not in [c for c, _ in found]


def test_find_all_causes_respects_minimality(doc):
    scanner = doc("scanner_vote")
    found = find_all_causes(scanner.model, {"U": 1}, PrimitiveEvent("WIN", 1))
    sets = [frozenset(c) for c, _ in found]
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            assert not (a < b or b < a)


def test_budget_exhaustion_is_an_error(doc):
    plurality = doc("livengood_5_2_0")
    with pytest.raises(SearchBudgetExceeded):
        is_actual_cause(
            plurality.model, plurality.context("u"), {"V1": 0},
            PrimitiveEvent("O", 0), budget=SearchBudget(5),
        )


def test_budget_truncates_after_first_witness(rt_naive):
    # enough budget to find one witness, not enough to finish the scan
    verdict = is_actual_cause(rt_naive.model, {"U": 1}, {"ST": 1}, BS1,
                              budget=SearchBudget(7))
    assert verdict.is_cause and not verdict.search_complete
    assert len(verdict.witnesses) >= 1


@pytest.mark.parametrize("limit", [0, -5])
def test_non_positive_budget_is_refused(limit):
    with pytest.raises(EngineError, match="positive"):
        SearchBudget(limit)


def _count_solves(monkeypatch):
    calls = [0]
    real = causality.solve_values

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(causality, "solve_values", counted)
    return calls


@pytest.mark.parametrize("limit", [0, -1])
def test_non_positive_max_conjuncts_is_refused_before_any_solve(
    rt_naive, monkeypatch, limit
):
    calls = _count_solves(monkeypatch)
    with pytest.raises(EngineError, match="positive"):
        find_all_causes(rt_naive.model, {"U": 1}, BS1, max_conjuncts=limit)
    assert calls[0] == 0


def test_every_solve_is_charged_to_the_budget(doc, monkeypatch):
    calls = _count_solves(monkeypatch)
    ranch = doc("glymour_naive")
    budget = SearchBudget()
    find_all_causes(ranch.model, ranch.context("u"), PrimitiveEvent("O", 1), budget=budget)
    assert calls[0] == budget.used

    scanner = doc("scanner_vote")
    calls[0] = 0
    budget = SearchBudget()
    verdict = is_actual_cause(scanner.extended(), scanner.context("u"), {"B": 1, "C": 1},
                              PrimitiveEvent("WIN", 1), "extended", budget)
    assert verdict.failure_reason == "AC3"
    assert calls[0] == budget.used

    # witness grading solves each witness world once more, on the same budget
    bogus = doc("bogus_prevention")
    calls[0] = 0
    budget = SearchBudget()
    best = best_witnesses(bogus.extended(), bogus.context("u"), {"B": 1},
                          PrimitiveEvent("VS", 1), budget)
    assert best and calls[0] == budget.used


def test_witness_must_not_overlap_cause(hopkins):
    from actualcause.errors import EngineError

    with pytest.raises(EngineError):
        check_ac2a(hopkins.model, hopkins.context("u"), {"A": 1}, D1,
                   Witness(("A",), (0,), (0,)))


def test_models_without_exogenous_variables():
    from actualcause.model import Const, Var, make_model
    from actualcause.formula import valid_in_model

    model = make_model({}, {"A": (0, 1), "B": (0, 1)},
                       {"A": Const(1), "B": Var("A")})
    assert solve(model, {}).as_dict() == {"A": 1, "B": 1}
    assert valid_in_model(model, PrimitiveEvent("B", 1))
    assert is_actual_cause(model, {}, {"A": 1}, PrimitiveEvent("B", 1)).is_cause


def test_witness_world_helper(rt_detailed):
    w = Witness(("ST",), (0,), (0,))
    world = witness_world(rt_detailed.model, {"U": 1}, {"BT": 1}, w)
    assert world.as_dict() == {"ST": 0, "BT": 0, "SH": 0, "BH": 0, "BS": 0}


# -- grading -------------------------------------------------------------------

def test_best_witness_flat_order_keeps_everything(rt_naive):
    flat = ExtendedCausalModel(rt_naive.model, NormalityOrder.flat())
    witnesses = find_witnesses(rt_naive.model, {"U": 1}, {"ST": 1}, BS1)
    best = best_witnesses(flat, {"U": 1}, {"ST": 1}, BS1)
    assert [w for w, _ in best] == witnesses


def test_best_witness_ranks_district_voters(doc):
    livengood = doc("livengood_normality")
    extended = livengood.extended()
    u = livengood.context("u1")
    phi = PrimitiveEvent("O", 2)
    jill = best_witnesses(extended, u, {"Jill": 0}, phi)
    jack = best_witnesses(extended, u, {"Jack": 0}, phi)
    rank = extended.order.rank
    best_jill = min(rank(s) for _, s in jill)
    best_jack = min(rank(s) for _, s in jack)
    assert best_jill < best_jack


def test_best_witness_bogus_prevention_stays_abnormal(doc):
    bogus = doc("bogus_prevention")
    best = best_witnesses(bogus.extended(), bogus.context("u"),
                          {"B": 1}, PrimitiveEvent("VS", 1))
    assert best and all(s["A"] == 0 for _, s in best)


def test_best_witness_requires_some_witness(rt_detailed):
    flat = ExtendedCausalModel(rt_detailed.model, NormalityOrder.flat())
    with pytest.raises(NoWitness):
        best_witnesses(flat, {"U": 1}, {"BT": 1}, BS1)


# -- normality order forms -----------------------------------------------------

def test_rank_table_order():
    from actualcause.errors import EngineError
    from actualcause.transforms import build_stability_model

    model, contexts = build_stability_model(0)
    worlds = list(model.worlds())
    table = {w: (0 if w["A"] == w["B"] else 1) for w in worlds}
    order = NormalityOrder.from_ranks(table)
    matched = [w for w in worlds if table[w] == 0]
    skewed = [w for w in worlds if table[w] == 1]
    assert order.at_least_as_normal(matched[0], skewed[0])
    assert not order.at_least_as_normal(skewed[0], matched[0])
    assert order.rank(matched[0]) == 0
    with pytest.raises(EngineError):
        order.rank(World(("A", "B"), (5, 5)))  # unranked world
    ext = ExtendedCausalModel(model, order)
    verdict = is_actual_cause(ext, contexts["u1"], {"A": 1},
                              PrimitiveEvent("B", 1), "extended")
    assert not verdict.is_cause


def test_relation_order_closure():
    a = World(("X",), (0,))
    b = World(("X",), (1,))
    c = World(("X",), (2,))
    order = NormalityOrder.from_relation([(a, b), (b, c)])
    assert order.at_least_as_normal(a, c)  # transitivity
    assert order.at_least_as_normal(b, b)  # reflexivity
    assert not order.at_least_as_normal(c, a)
    assert order.strictly_more_normal(a, c)
    made = make_model({"U": (0, 1, 2)}, {"X": (0, 1, 2)}, {"X": Var("U")})
    ext = ExtendedCausalModel(made, order)
    # incomparable counts as failure: alternate worlds b, c are not above a
    verdict = is_actual_cause(ext, {"U": 0}, {"X": 0}, PrimitiveEvent("X", 0),
                              "extended")
    assert not verdict.is_cause


def test_extended_with_flat_order_matches_updated(doc):
    for name in ("rock_throwing_detailed", "hopkins_pearl", "spohn_switch"):
        document = doc(name)
        model = document.model
        flat = ExtendedCausalModel(model, NormalityOrder.flat())
        for ctx in document.contexts.values():
            world = solve(model, ctx)
            for var in model.endogenous_names:
                phi_var = model.endogenous_names[-1]
                if var == phi_var:
                    continue
                phi = PrimitiveEvent(phi_var, world[phi_var])
                cause = {var: world[var]}
                plain = is_actual_cause(model, ctx, cause, phi, "updated")
                ext = is_actual_cause(flat, ctx, cause, phi, "extended")
                assert plain.is_cause == ext.is_cause
                assert plain.witnesses == ext.witnesses


# -- cross-checks against the reference ----------------------------------------

def test_witness_sets_match_reference(doc):
    cases = [
        ("rock_throwing_detailed", "u1", {"ST": 1}, BS1),
        ("rock_throwing_detailed", "u1", {"BT": 1}, BS1),
        ("hopkins_pearl", "u", {"A": 1}, D1),
        ("bogus_prevention", "u", {"B": 1}, PrimitiveEvent("VS", 1)),
    ]
    for name, ctx_name, cause, phi in cases:
        document = doc(name)
        ctx = document.context(ctx_name)
        for variant, original in (("original", True), ("updated", False)):
            mine = {
                (w.vars, w.values, w.alt)
                for w in find_witnesses(document.model, ctx, cause, phi, variant)
            }
            theirs = set(naive_witnesses(document.model, ctx, cause, phi, original))
            assert mine == theirs, (name, variant)


def test_random_models_match_reference_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        model = random_binary_model(rng, max_endogenous=4)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        effect_var = model.endogenous_names[-1]
        phi = PrimitiveEvent(effect_var, world[effect_var])
        for var in model.endogenous_names[:-1]:
            cause = {var: world[var]}
            for variant, original in (("original", True), ("updated", False)):
                got = is_actual_cause(model, ctx, cause, phi, variant).is_cause
                want = naive_is_cause(model, ctx, cause, phi, original)
                assert got == want, (model, ctx, cause, variant)


def test_find_all_causes_matches_reference():
    rng = random.Random(31)
    for round_ in range(60):
        model = random_binary_model(rng, max_endogenous=4)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        names = model.endogenous_names
        a, b = names[-1], names[-2]
        if round_ % 3 == 0 or len(names) < 3:
            # false in the actual world about half of the time
            phi, eligible = PrimitiveEvent(a, rng.randint(0, 1)), names[:-1]
        elif round_ % 3 == 1:
            phi = And(PrimitiveEvent(a, world[a]), PrimitiveEvent(b, world[b]))
            eligible = names[:-2]
        else:
            phi = Or(PrimitiveEvent(b, rng.randint(0, 1)), PrimitiveEvent(a, world[a]))
            eligible = names[:-2]
        candidates = [
            {n: world[n] for n in combo}
            for size in range(1, len(eligible) + 1)
            for combo in itertools.combinations(eligible, size)
        ]
        for variant, original in (("original", True), ("updated", False)):
            found = find_all_causes(model, ctx, phi, variant)
            want = [c for c in candidates if naive_is_cause(model, ctx, c, phi, original)]
            assert [c for c, _ in found] == want, (model, ctx, phi, variant)
            for cause, verdict in found:
                mine = {(w.vars, w.values, w.alt) for w in verdict.witnesses}
                assert mine == set(naive_witnesses(model, ctx, cause, phi, original))


def test_multi_conjunct_causes_match_reference():
    rng = random.Random(77)
    checked = 0
    while checked < 12:
        model = random_binary_model(rng, max_endogenous=4)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        names = model.endogenous_names
        if len(names) < 3:
            continue
        phi = PrimitiveEvent(names[-1], world[names[-1]])
        cause = {n: world[n] for n in names[:2]}
        for variant, original in (("original", True), ("updated", False)):
            got = is_actual_cause(model, ctx, cause, phi, variant).is_cause
            want = naive_is_cause(model, ctx, cause, phi, original)
            assert got == want
        checked += 1


def test_updated_witnesses_pass_original_restore_clause(doc):
    # the subset-robust restore clause implies the fixed-contingency one
    for name in ("rock_throwing_detailed", "hopkins_pearl", "spohn_switch"):
        document = doc(name)
        model = document.model
        for ctx in document.contexts.values():
            world = solve(model, ctx)
            phi_var = model.endogenous_names[-1]
            phi = PrimitiveEvent(phi_var, world[phi_var])
            for var in model.endogenous_names[:-1]:
                cause = {var: world[var]}
                for w in find_witnesses(model, ctx, cause, phi, "updated"):
                    assert check_ac2b(model, ctx, cause, phi, w, "original")
                # singleton causes carry over wholesale
                if is_actual_cause(model, ctx, cause, phi, "updated").is_cause:
                    assert is_actual_cause(model, ctx, cause, phi, "original").is_cause
