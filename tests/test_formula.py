"""Formula language: satisfaction, validity, algebraic equivalences."""

import hashlib
import random

import pytest

from actualcause import formula, transforms
from actualcause.causality import check_ac1, find_all_causes, is_actual_cause
from actualcause.corpus import model_names
from actualcause.errors import EngineError, MalformedPhi, UnknownVariable, ValueOutOfRange
from actualcause.formula import (
    And,
    Held,
    Not,
    Or,
    PrimitiveEvent,
    eval_formula,
    events_conj,
    valid_in_model,
    validate_formula,
)
from actualcause.dsl import parse_formula, print_formula
from actualcause.model import Var, make_model
from actualcause.transforms import (
    check_formula_agreement,
    is_conservative_extension,
    random_causal_formula,
)
from oracle import (
    EXTENSION_KINDS,
    event_holds,
    first_escape,
    naive_formula_holds,
    naive_is_cause,
    random_extension_pair,
    settings_read,
)


def random_event_formula(rng, model, depth=3):
    """A random intervention-free boolean combination of events, drawn as
    `random_causal_formula` draws each atom's body: the same `random`,
    `randrange` and `choice` calls in the same order.  `STREAM_DIGESTS`
    pins what each seed names."""
    names = model.endogenous_names
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        i = rng.randrange(len(names))
        return PrimitiveEvent(names[i], rng.choice(model.range_of(names[i])))
    if roll < 0.6:
        return Not(random_event_formula(rng, model, depth - 1))
    left = random_event_formula(rng, model, depth - 1)
    return (And if roll < 0.8 else Or)(left, random_event_formula(rng, model, depth - 1))


def test_hopkins_counterfactual(hopkins):
    phi = Held((("A", 1), ("C", 0)), PrimitiveEvent("D", 0))
    assert eval_formula(hopkins.model, hopkins.context("u"), phi) is True


def test_one_intervention_written_in_two_orders_is_solved_once(solved_rows, hopkins):
    solved = solved_rows(hopkins.model)
    phi = parse_formula("[A<-1, C<-0](D=0) & [C<-0, A<-1](D=0)", hopkins.model)
    assert eval_formula(hopkins.model, hopkins.context("u"), phi) is True
    assert len(solved) == 1
    # in every context at once, one row each; where B = 1, D = 1
    solved.clear()
    assert valid_in_model(hopkins.model, phi) is False
    assert len(set(solved)) == len(solved) == len(list(hopkins.model.contexts()))


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
            everywhere = True
            for ctx in model.contexts():
                want = naive_formula_holds(model, ctx, candidate)
                assert eval_formula(model, ctx, candidate) == want
                everywhere &= want
            assert valid_in_model(model, candidate) == everywhere


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


def test_effect_walk_matches_reference(doc):
    """The walk that decides effects holds exactly where the oracle says it
    does, on every world of each corpus model with at most six endogenous
    variables."""
    rng = random.Random(23)
    checked = 0
    for name in model_names():
        model = doc(name).model
        if len(model.endogenous_names) > 6:
            continue
        index = model._runtime().endo_index
        formulas = [random_event_formula(rng, model) for _ in range(12)]
        for world in model.worlds():
            for f in formulas:
                assert formula.holds(f, index, world.values) is event_holds(world, f)
        checked += 1
    assert checked >= 10


def test_long_and_deep_effects(rt_naive):
    model = rt_naive.model
    # a chain of one connective is decided on a stack, however long
    chain = parse_formula(" & ".join(["BS=1"] * 300), model)
    assert is_actual_cause(model, {"U": 1}, {"ST": 1}, chain).is_cause

    deep = PrimitiveEvent("BS", 1)
    for level in range(150):
        deep = Not(deep) if level % 2 else And(deep, PrimitiveEvent("ST", 1))
    verdicts = []
    for u in (0, 1):
        for cause in ({"ST": u}, {"BT": u}, {"BS": u}, {"ST": u, "BT": u}):
            verdict = is_actual_cause(model, {"U": u}, cause, deep).is_cause
            assert verdict == naive_is_cause(model, {"U": u}, cause, deep, False), (u, cause)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_effects_too_deep_to_walk_are_engine_errors(rt_naive):
    """An effect nested deeper than Python can recurse is an `EngineError`
    whatever AC1's outcome, and also where only a world off the actual one
    reaches the deep branch."""
    model = rt_naive.model
    too_deep = PrimitiveEvent("BS", 1)
    for _ in range(5000):
        too_deep = Not(too_deep)
    validate_formula(model, too_deep)
    with pytest.raises(EngineError, match="nested too deeply"):
        eval_formula(model, {"U": 1}, too_deep)
    # ST = 1 holds in U = 1 and not in U = 0
    for context in ({"U": 1}, {"U": 0}):
        for decide, args in (
            (is_actual_cause, (model, context, {"ST": 1}, too_deep)),
            (find_all_causes, (model, context, too_deep)),
            (check_ac1, (model, context, {"ST": 1}, too_deep)),
        ):
            with pytest.raises(EngineError, match="nested too deeply"):
                decide(*args)
    # in U = 1 the bottle shatters, so only a world where neither rock is
    # thrown reads the deep branch
    off_actual = Or(PrimitiveEvent("BS", 1), too_deep)
    with pytest.raises(EngineError, match="nested too deeply"):
        is_actual_cause(model, {"U": 1}, {"ST": 1}, off_actual)
    with pytest.raises(EngineError, match="nested too deeply"):
        find_all_causes(model, {"U": 1}, off_actual)


def test_agreement_solves_each_context_and_prefix_once(solved_rows, rt_naive, rt_detailed):
    # a conservative pair is decided by the plain check alone, each row
    # once, fewer rows than a draw of 200 formulas solving each (context,
    # prefix) once would take
    solved = solved_rows(rt_detailed.model, rt_naive.model)
    report = check_formula_agreement(rt_detailed.model, rt_naive.model, samples=200, seed=7)
    assert report.agrees
    assert len(solved) == len(set(solved)) <= 150


@pytest.fixture
def agreement_solves(solved_rows, monkeypatch):
    """`decide(extension, base, samples, seed)` decides agreement on the pair
    and checks what it solved: first exactly the rows that
    `is_conservative_extension` solves alone on it; then, on a pair that
    check accepts, nothing and no draw, and on one it refuses the rows
    `_agreement_rows` names, each once.  It returns the report's `agrees`,
    or `ValueOutOfRange` where both checks raise it."""
    drawn, real_draw = [], transforms.random_causal_formula
    monkeypatch.setattr(transforms, "random_causal_formula",
                        lambda *args: drawn.append(args) or real_draw(*args))

    def outcome(check):
        try:
            return check()
        except ValueOutOfRange:
            return ValueOutOfRange

    def decide(extension, base, samples, seed):
        # a model that is not total has no runtime, so it solves nothing
        solved = solved_rows(*[m for m in (extension, base) if first_escape(m) is None])
        plain = outcome(lambda: is_conservative_extension(extension, base).is_conservative)
        plain_rows = list(solved)
        solved.clear()
        drawn.clear()
        agrees = outcome(lambda: check_formula_agreement(extension, base, samples, seed).agrees)
        assert solved[:len(plain_rows)] == plain_rows, seed
        rest = solved[len(plain_rows):]
        if plain is False:
            assert drawn, seed
            assert len(rest) == len(set(rest)), seed
            assert set(rest) == _agreement_rows(extension, base, samples, seed), seed
        else:  # accepted, or refused with the same error before any solve
            assert (rest, drawn, agrees) == ([], [], plain), seed
            assert plain is True or plain_rows == [], seed
        return agrees

    return decide


def test_agreement_solves_each_world_once_on_disagreeing_pairs(agreement_solves, doc):
    # the rows of each model serve every drawn formula, so a prefix that
    # several formulas share is solved once in each context
    pairs = [(doc("rock_throwing_cheat").model, doc("rock_throwing_detailed").model)] * 10
    for seed in range(30):
        base, extension = random_extension_pair(random.Random(8000 + seed), "rewired")
        pairs.append((extension, base))
    disagreements = 0
    for seed, (extension, base) in enumerate(pairs):
        disagreements += not agreement_solves(extension, base, 200, seed)
    assert disagreements >= 20, disagreements


def _agreement_rows(extension, base, samples, seed):
    """The rows `check_formula_agreement` solves after the plain check
    refuses the pair, by a loop over the formulas it draws up to the first
    that a context decides apart: each distinct prefix in every context of
    both models."""
    rows, contexts, rng = set(), list(base.contexts()), random.Random(seed)

    def row(model, context, settings):
        index = model.endogenous_names.index
        return (model, tuple(context[n] for n in model.exogenous_names),
                tuple(sorted((index(n), x) for n, x in settings)))

    for _ in range(samples):
        phi = random_causal_formula(rng, base)
        for settings in settings_read(phi):
            rows.update(row(m, c, settings) for m in (base, extension) for c in contexts)
        if any(eval_formula(base, c, phi) != eval_formula(extension, c, phi) for c in contexts):
            break
    return rows


def test_agreement_solves_the_rows_of_the_drawn_prefixes(agreement_solves):
    """Agreement solves the plain check's rows, and on a pair that check
    refuses the rows `_agreement_rows` names and nothing more to decide the
    drawn formulas, on pairs of every kind, each once; a pair with a model
    that is not total is refused before any solve."""
    outcomes = set()
    for seed in range(60):
        base, extension = random_extension_pair(random.Random(6000 + seed), EXTENSION_KINDS[seed % 3])
        total = first_escape(base) is None and first_escape(extension) is None
        outcome = agreement_solves(extension, base, 40, seed)
        assert (outcome is ValueOutOfRange) is not total, seed
        outcomes.add(outcome)
    assert outcomes == {True, False, ValueOutOfRange}


def test_drawn_formulas_validate(doc):
    # formula agreement never validates a drawn formula before
    # `formula._verdicts` decides it, so every drawn formula must be valid
    rng = random.Random(12)
    for name in model_names():
        model = doc(name).model
        for depth in range(4):
            for _ in range(25):
                validate_formula(model, random_causal_formula(rng, model, depth))


# SHA-256 of the printed first 50 formulas of `random.Random(seed)` at each
# depth, for seeds 0-3 and depths 0-3, by drawing function and model
STREAM_DIGESTS = {
    ("random_causal_formula", "glymour_naive"):
        "8aed5c47d728472f21b522df0700a337da7fec46a041984062ae753b712e48d1",
    ("random_causal_formula", "weslake_naive"):
        "ca9be461c40254f2042732a0855702f2548dab671f5fa7456c48885921a30812",
    ("random_causal_formula", "hopkins_pearl"):
        "682e37ae055aa1962663a746d5b1a548dad3e1a171996d306b284a379c949020",
    ("random_event_formula", "glymour_naive"):
        "273702f4e05908b90231e8035bdb2128325d614cb5451c0a080212c5d1dd084e",
    ("random_event_formula", "weslake_naive"):
        "b08e4897b35d88d8c2cb6966845aa1c86cf470816eb594e99de178e88562f376",
    ("random_event_formula", "hopkins_pearl"):
        "fa5c6569429a873751bc1a8f21a556f36493905933acf2606d21db0fd650ee9d",
}


@pytest.mark.parametrize("draw", [random_causal_formula, random_event_formula])
def test_each_seed_draws_the_pinned_formulas(doc, draw):
    """A seed names the same formulas from one version to the next, so an
    agreement report can be reproduced.  The digests were computed at commit
    4f7a03b, before formulas were drawn as recipes."""
    for name in ("glymour_naive", "weslake_naive", "hopkins_pearl"):
        model, digest = doc(name).model, hashlib.sha256()
        for seed in range(4):
            for depth in range(4):
                rng = random.Random(seed)
                for _ in range(50):
                    digest.update(print_formula(draw(rng, model, depth)).encode() + b"\n")
        assert digest.hexdigest() == STREAM_DIGESTS[draw.__name__, name], name


def _right_chain(kind, operands):
    """`a kind (b kind (c ...))`, nested to the right."""
    out = operands[-1]
    for operand in reversed(operands[:-1]):
        out = kind(operand, out)
    return out


@pytest.mark.parametrize("kind", [And, Or])
def test_long_right_nested_chains_are_decided(hopkins, kind):
    # a chain is opened on both sides, so one nested to the right is walked
    # however long it is, bare and under an intervention; in u, D = 1, and
    # under C <- 0, D = 0
    model, u = hopkins.model, hopkins.context("u")
    d1, d0 = PrimitiveEvent("D", 1), PrimitiveEvent("D", 0)
    # the operand that leaves the chain undecided, and the one that decides it
    bare = (d1, d0) if kind is And else (d0, d1)
    held = bare[::-1]
    decided = kind is Or
    cases = [
        (_right_chain(kind, [bare[0]] * 2000), not decided),
        (_right_chain(kind, [bare[0]] * 1999 + [bare[1]]), decided),
        (Held((("C", 0),), _right_chain(kind, [held[0]] * 2000)), not decided),
        (Held((("C", 0),), _right_chain(kind, [held[0]] * 1999 + [held[1]])), decided),
    ]
    for phi, want in cases:
        assert eval_formula(model, u, phi) is want
