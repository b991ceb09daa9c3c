"""Formula language: satisfaction, validity, algebraic equivalences."""

import random

import pytest

from actualcause.causality import is_actual_cause
from actualcause.corpus import model_names
from actualcause.errors import EngineError, MalformedPhi, UnknownVariable, ValueOutOfRange
from actualcause.formula import (
    And,
    Held,
    Not,
    Or,
    PrimitiveEvent,
    compile_event_formula,
    eval_formula,
    events_conj,
    valid_in_model,
    validate_formula,
)
from actualcause.dsl import parse_formula
from actualcause.model import Var, make_model
from actualcause.transforms import random_causal_formula, random_event_formula
from oracle import event_holds, naive_formula_holds


def test_hopkins_counterfactual(hopkins):
    phi = Held((("A", 1), ("C", 0)), PrimitiveEvent("D", 0))
    assert eval_formula(hopkins.model, hopkins.context("u"), phi) is True


def test_naive_bottle_shatters(rt_naive):
    assert eval_formula(rt_naive.model, {"U": 1}, PrimitiveEvent("BS", 1)) is True
    assert eval_formula(rt_naive.model, {"U": 0}, PrimitiveEvent("BS", 1)) is False


def test_double_intervention(rt_detailed):
    phi = Held((("ST", 0), ("BT", 0)), PrimitiveEvent("BS", 0))
    assert eval_formula(rt_detailed.model, {"U": 1}, phi) is True


def test_validity_by_context_enumeration(rt_naive):
    assert valid_in_model(rt_naive.model, Held((("ST", 1),), PrimitiveEvent("BS", 1)))
    assert not valid_in_model(rt_naive.model, PrimitiveEvent("BS", 1))


def test_validity_single_variable_model():
    model = make_model({"U": (0, 1)}, {"A": (0, 1)}, {"A": Var("U")})
    assert valid_in_model(model, Held((("A", 1),), PrimitiveEvent("A", 1)))


def test_empty_prefix_is_plain_evaluation(rt_detailed):
    rng = random.Random(3)
    ctxs = [{"U": 0}, {"U": 1}]
    for _ in range(50):
        body = random_event_formula(rng, rt_detailed.model)
        for ctx in ctxs:
            wrapped = Held((), body)
            assert eval_formula(rt_detailed.model, ctx, wrapped) == eval_formula(
                rt_detailed.model, ctx, body
            )


def test_de_morgan_and_double_negation(doc):
    rng = random.Random(11)
    for name in ("rock_throwing_detailed", "spohn_switch", "weslake_naive"):
        model = doc(name).model
        for _ in range(40):
            left = random_causal_formula(rng, model)
            right = random_causal_formula(rng, model)
            for ctx in model.contexts():
                lhs = eval_formula(model, ctx, Not(And(left, right)))
                rhs = eval_formula(model, ctx, Or(Not(left), Not(right)))
                assert lhs == rhs
                assert eval_formula(model, ctx, Not(Not(left))) == eval_formula(
                    model, ctx, left
                )


def test_prefix_distributes_over_conjunction(doc):
    rng = random.Random(23)
    model = doc("hopkins_pearl").model
    names = model.endogenous_names
    for _ in range(60):
        k = rng.randint(0, 3)
        chosen = rng.sample(names, k)
        settings = tuple((n, rng.choice(model.range_of(n))) for n in chosen)
        body_a = random_event_formula(rng, model)
        body_b = random_event_formula(rng, model)
        for ctx in model.contexts():
            joint = eval_formula(model, ctx, Held(settings, And(body_a, body_b)))
            split = eval_formula(
                model, ctx, And(Held(settings, body_a), Held(settings, body_b))
            )
            assert joint == split


def test_matches_reference_satisfaction(doc):
    rng = random.Random(41)
    for name in ("rock_throwing_naive", "hopkins_pearl_e", "scanner_vote"):
        model = doc(name).model
        for _ in range(30):
            candidate = random_causal_formula(rng, model)
            for ctx in model.contexts():
                assert eval_formula(model, ctx, candidate) == naive_formula_holds(
                    model, ctx, candidate
                )


def test_events_conj_builder(hopkins):
    built = events_conj([("A", 1), ("B", 0)])
    assert eval_formula(hopkins.model, hopkins.context("u"), built) is True
    with pytest.raises(MalformedPhi):
        events_conj([])


def test_validation_rejects_bad_formulas(hopkins):
    model = hopkins.model
    with pytest.raises(UnknownVariable):
        validate_formula(model, PrimitiveEvent("UA", 1))  # exogenous query
    with pytest.raises(UnknownVariable):
        validate_formula(model, PrimitiveEvent("NOPE", 1))
    with pytest.raises(ValueOutOfRange):
        validate_formula(model, PrimitiveEvent("A", 9))
    with pytest.raises(MalformedPhi):
        validate_formula(
            model,
            Held((("A", 1),), Held((("B", 1),), PrimitiveEvent("D", 1))),
        )
    with pytest.raises(MalformedPhi):
        validate_formula(model, Held((("A", 1), ("A", 0)), PrimitiveEvent("D", 1)))


def test_compiled_effect_matches_reference(doc):
    """The compiled effect is 1 exactly where the oracle says it holds, on
    every world of each corpus model with at most six endogenous variables."""
    rng = random.Random(23)
    checked = 0
    for name in model_names():
        model = doc(name).model
        if len(model.endogenous_names) > 6:
            continue
        formulas = [random_event_formula(rng, model) for _ in range(12)]
        compiled = [compile_event_formula(model, f) for f in formulas]
        for world in model.worlds():
            for f, holds in zip(formulas, compiled):
                assert holds(world.values, ()) == int(event_holds(world, f))
        checked += 1
    assert checked >= 10


def test_long_and_deep_effects(rt_naive):
    model = rt_naive.model
    # a chain of one connective compiles flat, however long
    chain = parse_formula(" & ".join(["BS=1"] * 300), model)
    assert is_actual_cause(model, {"U": 1}, {"ST": 1}, chain).is_cause

    deep = PrimitiveEvent("BS", 1)
    for level in range(150):
        deep = Not(deep) if level % 2 else And(deep, PrimitiveEvent("ST", 1))
    holds = compile_event_formula(model, deep)
    for world in model.worlds():
        assert holds(world.values, ()) == int(event_holds(world, deep))

    too_deep = PrimitiveEvent("BS", 1)
    for _ in range(5000):
        too_deep = Not(too_deep)
    validate_formula(model, too_deep)
    with pytest.raises(EngineError, match="nested too deeply"):
        compile_event_formula(model, too_deep)
    with pytest.raises(EngineError, match="nested too deeply"):
        eval_formula(model, {"U": 1}, too_deep)
