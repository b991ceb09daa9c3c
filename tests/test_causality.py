"""Actual-cause decisions: clause checks, verdicts, enumeration, grading."""

import functools
import itertools
import random
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import pytest

from actualcause import causality
from actualcause.causality import (
    ExtendedCausalModel,
    NormalityOrder,
    RuleVariant,
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
from actualcause.formula import And, Held, Or, PrimitiveEvent, formula_variables
from actualcause.model import Case, Cmp, Const, Sum, Var, World, make_model, solve
from actualcause.transforms import build_stability_model
from oracle import (
    event_holds,
    naive_is_cause,
    naive_restore_holds,
    naive_solve,
    naive_witness_world,
    naive_witnesses,
    random_binary_model,
    random_context,
    random_effect,
    random_multivalued_model,
    random_symmetric_model,
)

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


def test_an_effect_with_a_prefix_is_refused_before_any_solve(rt_naive):
    for phi in (Held((("BT", 0),), BS1), And(BS1, Or(BS1, Held((("BT", 0),), BS1)))):
        budget = SearchBudget()
        with pytest.raises(MalformedPhi, match="must not contain interventions"):
            is_actual_cause(rt_naive.model, {"U": 1}, {"ST": 1}, phi, budget=budget)
        assert budget.used == 0


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
    # one solve short of the first witness: the cap is read off the query,
    # so a cut in its solves cannot turn the error into a truncated verdict
    plurality = doc("livengood_5_2_0")
    query = (plurality.model, plurality.context("u"), {"V1": 0}, PrimitiveEvent("O", 0))
    first = SearchBudget()
    assert is_actual_cause(*query, budget=first, find_all_witnesses=False).is_cause
    assert first.used > 1
    with pytest.raises(SearchBudgetExceeded):
        is_actual_cause(*query, budget=SearchBudget(first.used - 1))


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


def test_a_bound_query_carries_every_attribute_of_its_session(doc):
    # `bind` copies the session field by field, so an attribute it forgets
    # would only fail where something reads it
    scanner = doc("scanner_vote")
    session = causality._Query(scanner.extended(), scanner.context("u"),
                               PrimitiveEvent("WIN", 1), "extended", None)
    bound = session.bind({"B": 1, "C": 1})
    shared = vars(session)
    assert shared.keys() <= vars(bound).keys()
    assert all(getattr(bound, name) is value for name, value in shared.items())
    # and a query bound again from a bound one shares them too
    again = bound.bind({"B": 1})
    assert all(getattr(again, name) is value for name, value in shared.items())


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


# -- AC2(b) pruning and memo against the reference ----------------------------
#
# The restore check only tries reset sets among the descendants of what the
# restore intervention moves and the ancestors of the effect; these models
# have multi-valued ranges, so values move in more than one direction.

def _random_case(rng):
    """A random multi-valued model, context and effect over its last two
    variables, with the actual world."""
    model = random_multivalued_model(rng)
    ctx = random_context(rng, model)
    world = solve(model, ctx)
    phi = random_effect(rng, model, model.endogenous_names[-2:])
    return model, ctx, world, phi


def _triples(witnesses):
    return [(w.vars, w.values, w.alt) for w in witnesses]


def test_multivalued_witnesses_match_reference():
    rng = random.Random(4041)
    for _ in range(40):
        model, ctx, world, phi = _random_case(rng)
        names = model.endogenous_names
        causes = [{n: world[n]} for n in names[:-1]]
        if len(names) > 2:
            pair = rng.sample(names[:-1], 2)
            causes.append({n: world[n] for n in names if n in pair})
        for cause in causes:
            for variant, original in (("original", True), ("updated", False)):
                mine = _triples(find_witnesses(model, ctx, cause, phi, variant))
                assert mine == naive_witnesses(model, ctx, cause, phi, original), (
                    model, ctx, cause, phi, variant)


def test_extended_witnesses_match_filtered_reference():
    rng = random.Random(4042)
    for _ in range(30):
        model, ctx, world, phi = _random_case(rng)
        names = model.endogenous_names
        ranks = {w: rng.randint(0, 2) for w in model.worlds()}
        extended = ExtendedCausalModel(model, NormalityOrder.from_ranks(ranks))
        actual_rank = ranks[world]
        # the last cause is not at its actual value: X = x moves the world
        moved = rng.choice(names[:-1])
        causes = [{n: world[n]} for n in names[:-1]]
        causes.append({moved: rng.choice([v for v in model.range_of(moved)
                                          if v != world[moved]])})
        for cause in causes:
            want = []
            for contingency, w_values, alt in naive_witnesses(model, ctx, cause, phi, False):
                flipped = naive_witness_world(model, ctx, cause, contingency, w_values, alt)
                if ranks[World(names, tuple(flipped[n] for n in names))] <= actual_rank:
                    want.append((contingency, w_values, alt))
            mine = _triples(find_witnesses(extended, ctx, cause, phi, "extended"))
            assert mine == want, (model, ctx, cause, phi)


def test_restore_check_of_a_moved_cause_matches_literal_check():
    # a cause whose stated values are not the actual ones moves its own
    # descendants, so resets among them must be tried even with W' empty
    rng = random.Random(4043)
    checked = 0
    for _ in range(60):
        model, ctx, world, phi = _random_case(rng)
        names = model.endogenous_names
        picked = rng.sample(names[:-1], min(2, len(names) - 1))
        # in declaration order, the order of the witness's alternate values
        cause = {n: rng.choice(model.range_of(n)) for n in names if n in picked}
        if all(cause[n] == world[n] for n in cause):
            continue
        others = [n for n in names if n not in cause]
        for size in range(min(2, len(others)) + 1):
            for contingency in itertools.combinations(others, size):
                w_values = tuple(rng.choice(model.range_of(n)) for n in contingency)
                witness = Witness(contingency, w_values, tuple(world[n] for n in cause))
                for variant, original in (("original", True), ("updated", False)):
                    got = check_ac2b(model, ctx, cause, phi, witness, variant)
                    want = naive_restore_holds(model, ctx, cause, phi, contingency,
                                               w_values, original)
                    assert got == want, (model, ctx, cause, phi, witness, variant)
                    checked += 1
    assert checked > 200


# -- AC2(b) reset sets that hold every moved variable of the effect -----------
#
# A reset set Z' holding every variable of φ in desc(M) leaves φ at its actual
# outcome, so the engine decides it with no solve: true when φ holds in the
# actual world, a refutation when it does not.  The effects below read two or
# three variables, which the cause or the contingency may hold.

def _reads(expr):
    """The variables an equation reads."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, tuple):
        return set().union(*map(_reads, expr))
    if is_dataclass(expr):
        return set().union(*(_reads(getattr(expr, f.name)) for f in fields(expr)))
    return set()


def _descendants(model, roots):
    """`roots` and every endogenous variable downstream of one of them."""
    out = set(roots)
    for name in model.endogenous_names:
        if _reads(model.equation_of(name)) & out:
            out.add(name)
    return out


def _effect_case(rng):
    """A random multi-valued model, context, actual world and an effect
    that reads two or three of its variables, with their names."""
    model = random_multivalued_model(rng)
    ctx = random_context(rng, model)
    names = model.endogenous_names
    chosen = rng.sample(names, min(len(names), rng.choice((2, 3))))
    while True:
        phi = random_effect(rng, model, chosen, depth=3)
        read = formula_variables(phi)
        if len(read) >= 2:
            return model, ctx, solve(model, ctx), phi, read


def test_restore_sets_holding_the_moved_effect_match_reference():
    rng = random.Random(4048)
    seen = Counter()
    for _ in range(50):
        model, ctx, world, phi, read = _effect_case(rng)
        names = model.endogenous_names
        holds = event_holds(world, phi)
        causes = [{n: world[n]} for n in names]
        moved = rng.choice(names)
        causes.append({moved: rng.choice([v for v in model.range_of(moved)
                                          if v != world[moved]])})
        for cause in causes:
            kinds = {"φ false"} if not holds else set()
            if read & set(cause):
                kinds.add("cause holds φ")
            for variant, original in (("original", True), ("updated", False)):
                mine = _triples(find_witnesses(model, ctx, cause, phi, variant))
                assert mine == naive_witnesses(model, ctx, cause, phi, original), (
                    model, ctx, cause, phi, variant)
            others = [n for n in names if n not in cause]
            for size in range(min(2, len(others)) + 1):
                for contingency in itertools.combinations(others, size):
                    w_values = tuple(rng.choice(model.range_of(n)) for n in contingency)
                    witness = Witness(contingency, w_values, tuple(world[n] for n in cause))
                    for variant, original in (("original", True), ("updated", False)):
                        got = check_ac2b(model, ctx, cause, phi, witness, variant)
                        want = naive_restore_holds(model, ctx, cause, phi, contingency,
                                                   w_values, original)
                        assert got == want, (model, ctx, cause, phi, witness, variant)
                    seen.update(kinds | ({"W holds φ"} if read & set(contingency) else set()))
    assert set(seen) == {"cause holds φ", "W holds φ", "φ false"}, seen
    assert min(seen.values()) > 50, seen


def test_a_reset_set_holding_part_of_the_moved_effect_is_solved():
    # C = 1 moves A and B, both read by φ; φ holds with nothing reset and
    # with both reset, but fails with A alone reset, since B follows A
    model = make_model({"U": (0, 1)}, {"C": (0, 1), "A": (0, 1), "B": (0, 1)},
                       {"C": Var("U"), "A": Var("C"), "B": Cmp("=", Var("A"), Var("C"))})
    phi = Or(PrimitiveEvent("B", 1), And(PrimitiveEvent("A", 1), PrimitiveEvent("B", 0)))
    witness = Witness((), (), (0,))
    assert not naive_restore_holds(model, {"U": 0}, {"C": 1}, phi, (), (), False)
    assert not check_ac2b(model, {"U": 0}, {"C": 1}, phi, witness)


def test_no_restore_solve_resets_every_moved_effect_variable(doc, monkeypatch):
    # every AC2(b) solve leaves some variable of φ in desc(M) unreset, M being
    # the cause and contingency variables forced off their actual values
    restoring, checked, current = [], [0], {}
    real_ac2b, real_solve = causality._Query.ac2b, causality.solve_values

    def ac2b(self, w_idx, w_vals):
        restoring.append({self.rt.endo_names[i] for i in w_idx + self.cause_idx})
        try:
            return real_ac2b(self, w_idx, w_vals)
        finally:
            restoring.pop()

    def solve_values(model, exo, interventions=None):
        if restoring:
            fixed, world = restoring[-1], current["world"]
            forced = {model.endogenous_names[i]: v for i, v in interventions.items()}
            moved = {n for n in fixed if n in forced and forced[n] != world[n]}
            reach = current["read"] & _descendants(model, moved)
            assert reach and not reach <= set(forced) - fixed, (model, forced, reach)
            checked[0] += 1
        return real_solve(model, exo, interventions)

    monkeypatch.setattr(causality._Query, "ac2b", ac2b)
    monkeypatch.setattr(causality, "solve_values", solve_values)
    rng = random.Random(4049)
    queries = []
    for _ in range(40):
        model, ctx, world, phi, read = _effect_case(rng)
        queries += [(model, ctx, {n: world[n]}, phi) for n in model.endogenous_names]
    for name, ctx, cause, effect in (("hopkins_pearl", "u", {"A": 1}, D1),
                                     ("glymour_mechanisms", "u", {"A4": 0}, PrimitiveEvent("O", 1)),
                                     ("livengood_5_2_0", "u", {"V1": 0}, PrimitiveEvent("O", 0))):
        queries.append((doc(name).model, doc(name).context(ctx), cause, effect))
    for model, ctx, cause, phi in queries:
        current.update(world=solve(model, ctx), read=formula_variables(phi))
        for variant in ("original", "updated"):
            find_witnesses(model, ctx, cause, phi, variant)
    assert checked[0] > 1000, checked


def test_certifying_the_stated_plurality_witness_is_cheap(doc, monkeypatch):
    # only the moved voters' descendants can undo the outcome, so the
    # restore check is 2^8 subsets of the contingency, not 2^19 reset sets
    calls = _count_solves(monkeypatch)
    plurality = doc("livengood_17_2_0")
    witness = Witness(tuple(f"V{i}" for i in range(1, 9)), (2,) * 8, (2,))
    assert check_ac2b(plurality.model, plurality.context("u"), {"V18": 1},
                      PrimitiveEvent("O", 0), witness)
    assert calls[0] <= 1024


# -- AC2(b) nogoods against the reference ---------------------------------------
#
# A failed restore world refutes every later contingency that contains its
# W' = w' and misses its reset set, so the search skips those before their
# AC2(a) solve.  Skips must leave the witness lists and the deepest failing
# clause exactly as the literal definition gives them.

def _reference_scan(model, ctx, cause, phi, original, rank=None):
    """Witnesses in canonical order and the deepest failing clause, read off
    the oracle's clauses; `rank` (world -> rank) adds the normality test."""
    names = model.endogenous_names
    actual = naive_solve(model, ctx)
    witnesses, deepest = [], "AC2(a)"
    for contingency, w_values, alt in _all_candidates(model, cause):
        flipped = naive_witness_world(model, ctx, cause, contingency, w_values, alt)
        if event_holds(flipped, phi):
            continue
        if rank is not None and rank(flipped) > rank(actual):
            deepest = "AC2(a+)" if deepest == "AC2(a)" else deepest
            continue
        if naive_restore_holds(model, ctx, cause, phi, contingency, w_values, original):
            witnesses.append((contingency, w_values, alt))
        else:
            deepest = "AC2(b')" if original else "AC2(b)"
    return witnesses, deepest


def _all_candidates(model, cause):
    rest = [n for n in model.endogenous_names if n not in cause]
    for k in range(len(rest) + 1):
        for contingency in itertools.combinations(rest, k):
            for w_values in itertools.product(*[model.range_of(n) for n in contingency]):
                for alt in itertools.product(*[model.range_of(n) for n in cause]):
                    if alt != tuple(cause.values()):
                        yield contingency, w_values, alt


def _reference_reason(model, ctx, cause, phi, original, rank):
    actual = naive_solve(model, ctx)
    if any(actual[n] != v for n, v in cause.items()) or not event_holds(actual, phi):
        return "AC1"
    witnesses, deepest = _reference_scan(model, ctx, cause, phi, original, rank)
    if not witnesses:
        return deepest
    for size in range(1, len(cause)):
        for sub in itertools.combinations(cause, size):
            sub_cause = {n: cause[n] for n in sub}
            if _reference_scan(model, ctx, sub_cause, phi, original, rank)[0]:
                return "AC3"
    return None


def test_nogood_skips_match_reference():
    rng = random.Random(4044)
    for round_ in range(36):
        if round_ % 2:
            model, ctx, world, phi = _random_case(rng)
        else:
            model = random_binary_model(rng, max_endogenous=4)
            ctx = random_context(rng, model)
            world = solve(model, ctx)
            phi = random_effect(rng, model, model.endogenous_names[-2:])
        names = model.endogenous_names
        causes = [{n: world[n]} for n in names[:-1]]
        if len(names) > 2:
            pair = rng.sample(names[:-1], 2)
            causes.append({n: world[n] for n in names if n in pair})
            # a pair with one conjunct moved off its actual value
            causes.append({n: (rng.choice(model.range_of(n)) if n == pair[0] else world[n])
                           for n in names if n in pair})
        moved = rng.choice(names[:-1])
        causes.append({moved: rng.choice([v for v in model.range_of(moved)
                                          if v != world[moved]])})
        ranks = {w.values: rng.randint(0, 2) for w in model.worlds()}
        extended = ExtendedCausalModel(
            model, NormalityOrder.from_ranks(lambda w: ranks[w.values]))
        for cause in causes:
            for variant in ("original", "updated", "extended"):
                subject = extended if variant == "extended" else model
                original = variant == "original"
                rank = (lambda w: ranks[tuple(w[n] for n in names)]) if variant == "extended" else None
                want, _ = _reference_scan(model, ctx, cause, phi, original, rank)
                mine = _triples(find_witnesses(subject, ctx, cause, phi, variant))
                assert mine == want, (model, ctx, cause, phi, variant)
                verdict = is_actual_cause(subject, ctx, cause, phi, variant)
                assert verdict.failure_reason == _reference_reason(
                    model, ctx, cause, phi, original, rank), (model, ctx, cause, phi, variant)


def test_nogood_reset_set_must_miss_the_contingency():
    # with A moved to 1, resetting B to its actual 0 refutes W = {} but not
    # W = {B}, where B is held at 1 and cannot be reset
    model = make_model({"U": (0, 1)}, {"A": (0, 1), "B": (0, 1)},
                       {"A": Var("U"), "B": Var("A")})
    phi = And(PrimitiveEvent("A", 1), PrimitiveEvent("B", 1))
    for variant, original in (("original", True), ("updated", False)):
        mine = _triples(find_witnesses(model, {"U": 0}, {"A": 1}, phi, variant))
        assert mine == naive_witnesses(model, {"U": 0}, {"A": 1}, phi, original)
        assert mine == [(("B",), (1,), (0,))]


def test_prefix_cut_yields_exactly_the_unrefuted_product():
    # W is variables 0..n-1 at positions 0..n-1; nogoods are drawn over a
    # few more variables, so some read outside W or reset inside it and
    # must not apply.  A nogood learned between yields applies from the
    # next tuple on, as when `ac2b` fails in the middle of a scan: the
    # enumerator reads the live store and is never restarted.  Every
    # variable descends from X, so `_ranges` prunes no range (and reads no
    # ancestor or actual value), and a group whose refuted values cover its
    # W' ranges is dead: as in `search`, it skips the whole scan of each W
    # it covers.
    rng = random.Random(1414)
    store = SimpleNamespace(variant=RuleVariant.UPDATED, nogoods={}, learned=0, dead=[],
                            x_desc=-1, anc=None, actual=None, floor=())
    store._ranges = functools.partial(causality._Query._ranges, store)
    seen = Counter()
    for _ in range(400):
        n = rng.choice((0, 1, 2, 3, 3, 4))
        ranges = [sorted(rng.sample((-1, 0, 1, 2), rng.choice((0, 1, 2, 2, 3, 3))))
                  for _ in range(n)]
        w_idx, w_mask = tuple(range(n)), (1 << n) - 1
        store.nogoods, store.learned, store.dead, learned = {}, 0, [], []
        store.rt = SimpleNamespace(endo_ranges=ranges + [(-1, 0, 1, 2)] * 2)

        def learn():
            w_vars = sorted(rng.sample(range(n + 2), min(n + 2, rng.choice((0, 1, 1, 2, 2, 3)))))
            items = tuple((i, rng.choice((-1, 0, 1, 2))) for i in w_vars)
            reset = tuple(sorted(rng.sample(range(n + 3), rng.randint(0, 2))))
            causality._Query._refuted(store, items, reset)
            learned.append((items, reset))

        def refuted(values):
            return any(all(i < n for i, _ in items) and all(i >= n for i in reset)
                       and all(values[i] == v for i, v in items)
                       for items, reset in learned)

        for _ in range(rng.randint(0, 4)):
            learn()
        assert store.learned == len(learned)
        wanted = (values for values in itertools.product(*ranges) if not refuted(values))
        dead = causality._covers(store.dead, w_mask)
        if not dead and not any(causality._refuting(store.nogoods, w_idx, w_mask)):
            assert not any(refuted(values) for values in itertools.product(*ranges))
        seen["dead skip"] += dead
        seen["empty range"] += not all(ranges)
        seen["W = {}"] += not n
        for values in () if dead else causality._Query._unrefuted(store, w_idx, w_mask, ranges):
            assert values == next(wanted), (ranges, learned)
            seen["yielded"] += 1
            if rng.random() < 0.4:
                learn()
                seen["learned mid-scan"] += 1
        assert next(wanted, None) is None, (ranges, learned)
        seen["skipped"] += sum(1 for values in itertools.product(*ranges) if refuted(values))
    assert min(seen.values()) >= 20, seen


def test_negative_glymour_verdict_is_cheap(doc, monkeypatch):
    # the restore worlds that refute A4's contingencies are learned once and
    # skip the contingencies they refute before their AC2(a) solve
    calls = _count_solves(monkeypatch)
    mechanisms = doc("glymour_mechanisms")
    verdict = is_actual_cause(mechanisms.model, mechanisms.context("u"), {"A4": 0},
                              PrimitiveEvent("O", 1), "updated")
    assert not verdict.is_cause and verdict.failure_reason == "AC2(b)"
    assert calls[0] <= 3000


# -- no-op contingency items against the reference ------------------------------
#
# A W item held at its actual value outside desc(X) and outside the
# descendants of every moved W item changes no world: the search never
# builds such a contingency, and the all-witness scan copies into its place
# the witnesses of the contingency without it.  Items at their actual value
# inside those descendants cut a path, so they must still be searched.

def _actual_item_kinds(model, world, cause, contingency, w_values):
    """Where the contingency's items at their actual values lie: inside
    desc(X), inside the descendants of a moved W item, or outside both."""
    anc = {}
    for name, expr in model.equations:  # random models list parents first
        anc[name] = {name}.union(*(anc[p] for p in expr.variables() if p in anc))
    moved = {n for n, v in zip(contingency, w_values) if v != world[n]}
    kinds = set()
    for name, value in zip(contingency, w_values):
        if value == world[name]:
            kinds.add("desc(X)" if anc[name] & set(cause)
                      else "desc(moved W)" if anc[name] & moved else "no-op")
    return kinds


def test_no_op_items_match_reference():
    rng = random.Random(4045)
    seen = set()
    for round_ in range(30):
        if round_ % 2:
            model, ctx, world, phi = _random_case(rng)
        else:
            model = random_binary_model(rng, max_endogenous=5)
            ctx = random_context(rng, model)
            world = solve(model, ctx)
            phi = random_effect(rng, model, model.endogenous_names[-2:])
        names = model.endogenous_names
        causes = [{n: world[n]} for n in names[:-1]]
        if len(names) > 2:
            pair = rng.sample(names[:-1], 2)
            causes.append({n: world[n] for n in names if n in pair})
            causes.append({n: (rng.choice([v for v in model.range_of(n) if v != world[n]])
                               if n == pair[0] else world[n])
                           for n in names if n in pair})
        moved = rng.choice(names[:-1])
        causes.append({moved: rng.choice([v for v in model.range_of(moved)
                                          if v != world[moved]])})
        ranks = {w.values: rng.randint(0, 2) for w in model.worlds()}
        extended = ExtendedCausalModel(
            model, NormalityOrder.from_ranks(lambda w: ranks[w.values]))
        for cause in causes:
            for variant in ("original", "updated", "extended"):
                subject = extended if variant == "extended" else model
                original = variant == "original"
                if variant == "extended":
                    rank = lambda w: ranks[tuple(w[n] for n in names)]
                    want, _ = _reference_scan(model, ctx, cause, phi, original, rank)
                else:
                    rank = None
                    want = naive_witnesses(model, ctx, cause, phi, original)
                reason = _reference_reason(model, ctx, cause, phi, original, rank)
                assert _triples(find_witnesses(subject, ctx, cause, phi, variant)) == want
                for find_all in (True, False):
                    verdict = is_actual_cause(subject, ctx, cause, phi, variant,
                                              find_all_witnesses=find_all)
                    listed = [] if reason == "AC1" else want if find_all else want[:1]
                    assert verdict.failure_reason == reason, (model, ctx, cause, phi, variant)
                    assert _triples(verdict.witnesses) == listed, (model, ctx, cause, phi, variant)
                for contingency, w_values, _ in want:
                    seen |= _actual_item_kinds(model, world, cause, contingency, w_values)
    assert seen == {"desc(X)", "desc(moved W)", "no-op"}


@pytest.mark.parametrize("name, ctx, cause, effect, variant, bound", [
    # the mechanism variables outside desc(A4) sit at their actual values in
    # most contingencies (1,544 solves when each was solved)
    ("glymour_mechanisms", "u", {"A4": 0}, PrimitiveEvent("O", 1), "updated", 300),
    # the voters outside desc(Jack) likewise (11,638 solves)
    ("livengood_normality", "u1", {"Jack": 0}, PrimitiveEvent("O", 2), "extended", 2500),
], ids=["glymour_mech_a4", "liv_norm_jack"])
def test_no_op_contingencies_cost_no_solves(doc, monkeypatch, name, ctx, cause, effect,
                                            variant, bound):
    calls = _count_solves(monkeypatch)
    document = doc(name)
    subject = document.extended() if variant == "extended" else document.model
    verdict = is_actual_cause(subject, document.context(ctx), cause, effect, variant,
                              find_all_witnesses=False)
    assert not verdict.is_cause and verdict.failure_reason == "AC2(b)"
    assert calls[0] <= bound


# -- dead nogood groups against the reference -----------------------------------
#
# A nogood group whose refuted values cover every value its W' variables
# take in a scan refutes whole contingency sets: the search skips their
# value scans.  A skipped set must still place the witnesses it copies from
# a smaller contingency, which hold actual values outside the pruned ranges.

def test_dead_set_skips_match_reference(monkeypatch):
    scanned = []
    real = causality._Query._unrefuted

    def recording(self, w_idx, w_mask, w_ranges):
        scanned.append(w_mask)
        return real(self, w_idx, w_mask, w_ranges)

    monkeypatch.setattr(causality._Query, "_unrefuted", recording)
    rng = random.Random(4046)
    seen = Counter()
    for _ in range(40):
        model = random_multivalued_model(rng)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        names = model.endogenous_names
        # the effect also asks one variable to keep its actual value, so
        # every move of that variable fails the restore check: its group
        # dies, and the sets it covers hold copies where it is a no-op
        kept = rng.choice(names[:-1])
        phi = And(PrimitiveEvent(kept, world[kept]), random_effect(rng, model, names[-2:]))
        ranks = {w.values: rng.randint(0, 2) for w in model.worlds()}
        extended = ExtendedCausalModel(
            model, NormalityOrder.from_ranks(lambda w: ranks[w.values]))
        rank = lambda w: ranks[tuple(w[n] for n in names)]
        causes = [{n: world[n]} for n in names[:-1]]
        moved = rng.choice(names[:-1])
        causes.append({moved: rng.choice([v for v in model.range_of(moved)
                                          if v != world[moved]])})
        for cause in causes:
            # every contingency set over the other variables, by bit mask
            rest = [i for i, n in enumerate(names) if n not in cause]
            sets = {sum(1 << i for i in c): tuple(names[i] for i in c)
                    for k in range(len(rest) + 1) for c in itertools.combinations(rest, k)}
            for variant, subject, ranked in (("updated", model, None),
                                             ("extended", extended, rank)):
                want, _ = _reference_scan(model, ctx, cause, phi, False, ranked)
                reason = _reference_reason(model, ctx, cause, phi, False, ranked)
                scanned.clear()
                assert _triples(find_witnesses(subject, ctx, cause, phi, variant)) == want, (
                    model, ctx, cause, phi, variant)
                # an every-witness scan visits every set: each one it did
                # not scan was skipped whole by a dead group
                skipped = sets.keys() - set(scanned)
                hit = {contingency for contingency, _, _ in want}
                seen["dead skip"] += len(skipped)
                seen["dead set with copies"] += sum(sets[m] in hit for m in skipped)
                for find_all in (True, False):
                    verdict = is_actual_cause(subject, ctx, cause, phi, variant,
                                              find_all_witnesses=find_all)
                    listed = [] if reason == "AC1" else want if find_all else want[:1]
                    assert verdict.failure_reason == reason, (model, ctx, cause, phi, variant)
                    assert _triples(verdict.witnesses) == listed, (model, ctx, cause, phi, variant)
    assert min(seen["dead skip"], seen["dead set with copies"]) >= 20, seen


# -- interchangeable variables against the reference ---------------------------
#
# The search scans one state per orbit of interchangeable variables and
# places the images of each witness it finds without a solve.  Contexts that
# give the members' private parents different values, causes and effects
# that name a member, and rank tables that read one break the symmetry: the
# witness lists and the failing clause must stay as the literal definition
# gives them.

def _orbit_minimal(query, contingency, w_values):
    index = query.rt.endo_index
    held = {index[n]: v for n, v in zip(contingency, w_values)}
    for members in query.classes:
        inside = [i for i in members if i in held]
        if inside != list(members[:len(inside)]):
            return False
        if [held[i] for i in inside] != sorted(held[i] for i in inside):
            return False
    return True


def test_orbit_scans_match_reference():
    rng = random.Random(4047)
    seen = Counter()
    for _ in range(24):
        model, members = random_symmetric_model(rng)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        phi = random_effect(rng, model, rng.choice(
            (["T"], ["T", "O"], ["T", members[-1]], [members[0], "O"], [members[0], "T"])))
        read = rng.choice(((), ("A",), ("A", "T"), (members[0],), ("O", members[-1])))
        table = {values: rng.randint(0, 2)
                 for values in itertools.product(*(model.range_of(n) for n in read))}

        def rank(w, read=read, table=table):
            return table[tuple(w[n] for n in read)]

        order = NormalityOrder(rank_fn=rank)
        order._reads = frozenset(read)
        extended = ExtendedCausalModel(model, order)
        causes = [{n: world[n]} for n in ("A", members[0], members[-1], "T")]
        causes.append({n: world[n] for n in ("A", members[1])})
        causes.append({members[1]: rng.choice([v for v in model.range_of(members[1])
                                               if v != world[members[1]]])})
        for cause in causes:
            for variant in ("original", "updated", "extended"):
                subject = extended if variant == "extended" else model
                original = variant == "original"
                ranked = rank if variant == "extended" else None
                want, _ = _reference_scan(model, ctx, cause, phi, original, ranked)
                reason = _reference_reason(model, ctx, cause, phi, original, ranked)
                for find_all in (True, False):
                    verdict = is_actual_cause(subject, ctx, cause, phi, variant,
                                              find_all_witnesses=find_all)
                    listed = [] if reason == "AC1" else want if find_all else want[:1]
                    case = (model, ctx, cause, phi, variant, read, find_all)
                    assert verdict.failure_reason == reason, case
                    assert _triples(verdict.witnesses) == listed, case
                query = causality._Query(subject, ctx, phi, variant, None).bind(cause)
                if query.classes:
                    seen["orbits"] += 1
                    seen["images"] += sum(not _orbit_minimal(query, c, v) for c, v, _ in want)
                    split = len({ctx[f"P{j}"] for j in range(1, len(members) + 1)}) > 1 \
                        if "P1" in ctx else False
                    seen["context split"] += split
                else:
                    seen["no orbit"] += 1
    assert min(seen.values()) >= 20, seen


def test_private_parents_pair_in_declaration_order():
    # each member reads two private parents; S2 reads its pair the other
    # way round in the flipped model, another function of the two, so
    # the swap that pairs P1 with P2 and Q1 with Q2 is no automorphism
    # there, even in a context that gives both pairs the same values
    ctx = {"P1": 1, "Q1": 0, "P2": 1, "Q2": 0}
    phi = PrimitiveEvent("T", 1)
    for flipped in (False, True):
        first, second = ("Q2", "P2") if flipped else ("P2", "Q2")
        model = make_model(
            {n: (0, 1) for n in ctx},
            {"S1": (0, 1), "S2": (0, 1), "T": (0, 1)},
            {"S1": Case(((Cmp("=", Var("P1"), Const(1)), Const(0)),), Var("Q1")),
             "S2": Case(((Cmp("=", Var(first), Const(1)), Const(0)),), Var(second)),
             "T": Cmp(">=", Sum((Var("S1"), Var("S2"))), Const(1))})
        query = causality._Query(model, ctx, phi, "updated", None).bind({"T": 1})
        assert query.classes == (() if flipped else ((0, 1),))
        cause = {"S1": solve(model, ctx)["S1"]}
        assert _triples(find_witnesses(model, ctx, cause, phi)) == naive_witnesses(
            model, ctx, cause, phi, False)


def test_a_reader_or_a_range_of_one_member_only_keeps_them_apart():
    # T reads S1 and S2 alike.  In the first model O reads S2 alone, so the
    # swap of S1 and S2 changes O's equation, though every equation the swap
    # test reads for S1 is unchanged; in the second S2 can take a value S1
    # cannot, and S2 = 2 is the only witness.  Neither pair is a class.
    read_apart = make_model(
        {"U": (0, 1)},
        {"A": (0, 1), "S1": (0, 1), "S2": (0, 1), "T": (0, 1), "O": (0, 1)},
        {"A": Var("U"), "S1": Var("A"), "S2": Var("A"),
         "T": Cmp(">=", Sum((Var("S1"), Var("S2"))), Const(1)), "O": Var("S2")})
    ranged_apart = make_model(
        {"U": (0, 1)},
        {"A": (0, 1), "S1": (0, 1), "S2": (0, 1, 2), "T": (0, 1)},
        {"A": Var("U"), "S1": Var("A"), "S2": Var("A"),
         "T": Cmp(">=", Sum((Var("S1"), Var("S2"))), Const(3))})
    for model, ctx, cause, phis in (
        (read_apart, {"U": 1}, {"A": 1},
         (PrimitiveEvent("O", 1), And(PrimitiveEvent("O", 1), PrimitiveEvent("T", 1)))),
        (ranged_apart, {"U": 0}, {"A": 0}, (PrimitiveEvent("T", 0),)),
    ):
        for phi in phis:
            assert causality._Query(model, ctx, phi, "updated", None).bind(cause).classes == ()
            for original in (True, False):
                variant = "original" if original else "updated"
                assert _triples(find_witnesses(model, ctx, cause, phi, variant)) == (
                    naive_witnesses(model, ctx, cause, phi, original))


def test_a_rank_table_records_the_variables_it_reads(doc):
    assert doc("livengood_normality").order()._reads == {"Jack", "Jill"}
    assert doc("bogus_prevention").order()._reads is not None
    assert NormalityOrder.flat()._reads == frozenset()
    assert NormalityOrder.from_ranks(lambda w: 0)._reads is None
    assert NormalityOrder(rank_fn=lambda w: 0)._reads is None


def _budget_outcomes(args, variant):
    """Decide `is_actual_cause(*args, variant)` under every limit from 1 to
    one past its unbounded count.  Each result must be the unbounded
    verdict, that verdict with a non-empty canonical prefix of its witnesses
    marked truncated, or a budget error; returns the unbounded verdict and
    how often each came up."""
    budget = SearchBudget()
    full = is_actual_cause(*args, variant, budget=budget)
    seen = Counter()
    for limit in range(1, budget.used + 2):
        try:
            verdict = is_actual_cause(*args, variant, budget=SearchBudget(limit))
        except SearchBudgetExceeded:
            seen["error"] += 1
            continue
        if verdict.search_complete:
            assert verdict == full, limit
            seen["exact"] += 1
        else:
            assert verdict.witnesses, limit
            assert verdict == replace(full, witnesses=verdict.witnesses, search_complete=False)
            assert verdict.witnesses == full.witnesses[:len(verdict.witnesses)], limit
            seen["truncated"] += 1
    return full, seen


def test_budget_keeps_its_contract_over_copied_witnesses(doc):
    # 44 of A1's 50 witnesses copy a smaller contingency's alternate values;
    # under every limit the verdict is exact, a canonical prefix marked
    # truncated, or a budget error
    ranch = doc("glymour_naive")
    args = (ranch.model, ranch.context("u"), {"A1": 1}, PrimitiveEvent("O", 1))
    full, seen = _budget_outcomes(args, "updated")
    assert full.is_cause and full.search_complete and len(full.witnesses) == 50
    assert seen["truncated"]

    # and on random multi-valued queries, one- and two-conjunct causes
    # under both rule variants
    total = Counter()
    for seed in range(60):
        rng = random.Random(9100 + seed)
        model, ctx, world, phi = _random_case(rng)
        names = model.endogenous_names[:-1]
        picks = [rng.sample(names, 1)] + ([rng.sample(names, 2)] if len(names) > 1 else [])
        for picked in picks:
            cause = {n: world[n] for n in names if n in picked}
            for variant in ("original", "updated"):
                total += _budget_outcomes((model, ctx, cause, phi), variant)[1]
    assert set(total) == {"exact", "truncated", "error"} and total["truncated"] > 100, total


# -- renaming and reordering declarations ----------------------------------------
#
# Names carry no meaning, and declaration order only fixes the canonical
# order of witnesses and of a cause's conjuncts.  Renaming every variable
# must leave each verdict exactly as it was, names aside; reordering the
# declarations must leave the verdict, the failing clause and the witness
# set, listed in any order.

def _renamed(node, names):
    """A model expression or effect formula over the renamed variables."""
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, PrimitiveEvent):
        return PrimitiveEvent(names[node.var], node.value)
    if isinstance(node, tuple):
        return tuple(_renamed(part, names) for part in node)
    if is_dataclass(node):
        return replace(node, **{f.name: _renamed(getattr(node, f.name), names)
                                for f in fields(node)})
    return node


def _redeclared(model, names, exo_order, endo_order):
    """`model` with variables renamed by `names`, declared in the given orders."""
    return make_model(
        {names[n]: model.range_of(n) for n in exo_order},
        {names[n]: model.range_of(n) for n in endo_order},
        {names[n]: _renamed(model.equation_of(n), names) for n in endo_order},
    )


def _witness_set(witnesses, cause_names):
    """Witnesses as a sorted list of (contingency items, alternate cause
    items); `cause_names` lists the cause in its model's declaration order,
    the order of each `alt`."""
    return sorted(
        (tuple(sorted(zip(w.vars, w.values))), tuple(sorted(zip(cause_names, w.alt))))
        for w in witnesses
    )


def test_renaming_or_reordering_declarations_changes_no_verdict():
    rng = random.Random(1415)
    kinds = Counter()
    for _ in range(60):
        model = random_multivalued_model(rng, max_endogenous=5)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        phi = random_effect(rng, model, model.endogenous_names[-2:])
        exo, endo = model.exogenous_names, model.endogenous_names
        ranks = {w.values: rng.randint(0, 2) for w in model.worlds()}
        causes = [{n: world[n]} for n in endo[:-1]]
        pair = rng.sample(endo[:-1], 2) if len(endo) > 2 else endo[:1]
        causes.append({n: world[n] for n in pair})
        moved = rng.choice(endo[:-1])
        causes.append({moved: rng.choice([v for v in model.range_of(moved) if v != world[moved]])})
        same = {n: n for n in exo + endo}
        fresh = {n: f"R{k}" for k, n in enumerate(rng.sample(exo + endo, len(exo + endo)))}
        renamed = (fresh, exo, endo)
        reordered = (same, rng.sample(exo, len(exo)), rng.sample(endo, len(endo)))
        for names, exo_order, endo_order in (renamed, reordered):
            other = _redeclared(model, names, exo_order, endo_order)
            subjects = {
                "original": (model, other),
                "updated": (model, other),
                "extended": (
                    ExtendedCausalModel(model, NormalityOrder.from_ranks(
                        lambda w: ranks[w.values])),
                    ExtendedCausalModel(other, NormalityOrder.from_ranks(
                        lambda w, names=names: ranks[tuple(w[names[n]] for n in endo)])),
                ),
            }
            other_ctx = {names[n]: v for n, v in ctx.items()}
            other_phi = _renamed(phi, names)
            for cause in causes:
                other_cause = {names[n]: v for n, v in cause.items()}
                for variant, (mine, theirs) in subjects.items():
                    for find_all in (True, False):
                        want = is_actual_cause(mine, ctx, cause, phi, variant,
                                               find_all_witnesses=find_all)
                        got = is_actual_cause(theirs, other_ctx, other_cause, other_phi,
                                              variant, find_all_witnesses=find_all)
                        case = (model, ctx, cause, phi, variant, names, endo_order)
                        assert (got.is_cause, got.failure_reason, got.search_complete) == (
                            want.is_cause, want.failure_reason, want.search_complete), case
                        if names is fresh:
                            # declaration order kept: every list is kept as it was
                            assert got == replace(
                                want,
                                witnesses=tuple(
                                    Witness(tuple(names[n] for n in w.vars), w.values, w.alt)
                                    for w in want.witnesses),
                                ac3_violation=want.ac3_violation and tuple(
                                    (names[n], v) for n, v in want.ac3_violation),
                            ), case
                        elif find_all:
                            assert _witness_set(
                                got.witnesses, [n for n in endo_order if n in cause]
                            ) == _witness_set(
                                want.witnesses, [n for n in endo if n in cause]
                            ), case
                        kinds[want.failure_reason] += 1
    assert set(kinds) == {None, "AC1", "AC2(a)", "AC2(a+)", "AC2(b)", "AC2(b')", "AC3"}, kinds
