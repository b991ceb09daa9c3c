"""Structural model construction, recursiveness, solving, interventions."""

import itertools
import random

import pytest

from actualcause.errors import (
    CyclicModel,
    DuplicateDefinition,
    EngineError,
    UnknownVariable,
    ValueOutOfRange,
)
from actualcause.model import (
    And,
    Case,
    Cmp,
    Const,
    Not,
    Or,
    Sum,
    Var,
    check_recursive,
    compile_expression,
    context_values,
    intervene,
    make_model,
    solve,
    solve_values,
)
from actualcause.dsl import parse_model
from oracle import (
    first_escape,
    interpret,
    naive_solve,
    naive_worlds,
    random_binary_model,
    random_context,
    random_extension_pair,
    random_multivalued_model,
    random_symmetric_model,
)


def test_recursive_order_rock_throwing(rt_naive):
    order = check_recursive(rt_naive.model)
    assert order == ["ST", "BT", "BS"]
    assert order.index("BS") == len(order) - 1


def test_two_cycle_reported():
    model = make_model(
        {"U": (0, 1)},
        {"A": (0, 1), "B": (0, 1)},
        {"A": Var("B"), "B": Var("A")},
    )
    with pytest.raises(CyclicModel) as err:
        check_recursive(model)
    assert err.value.cycle == ["A", "B"]


def test_single_variable_no_dependencies():
    model = make_model({"U": (0, 1)}, {"A": (0, 1)}, {"A": Var("U")})
    assert check_recursive(model) == ["A"]


def test_dead_case_branch_still_counts_as_dependency():
    # B is referenced only under an unreachable guard, yet the edge exists
    model = make_model(
        {"U": (0, 1)},
        {"A": (0, 1), "B": (0, 1)},
        {
            "A": Case(arms=((Const(0), Var("B")),), default=Const(0)),
            "B": Var("A"),
        },
    )
    with pytest.raises(CyclicModel):
        check_recursive(model)


def test_solve_detailed_rock_throwing(rt_detailed):
    world = solve(rt_detailed.model, {"U": 1})
    assert world.as_dict() == {"ST": 1, "BT": 1, "SH": 1, "BH": 0, "BS": 1}


def test_solve_hopkins_context(hopkins):
    world = solve(hopkins.model, hopkins.context("u"))
    assert world["D"] == 1 and world["B"] == 0


def test_solve_stability_zero():
    from actualcause.transforms import build_stability_model

    model, contexts = build_stability_model(0)
    world = solve(model, contexts["u0"])
    assert world["A"] == 0 and world["B"] == 0


def test_empty_intervention_is_identity(rt_naive):
    assert intervene(rt_naive.model, {}) == rt_naive.model


def test_no_intervention_is_the_empty_intervention(rt_detailed):
    model = rt_detailed.model
    exo = context_values(model, {"U": 1})
    assert solve_values(model, exo) == solve_values(model, exo, None) == solve_values(model, exo, {})
    assert solve_values(model, exo) == solve(model, {"U": 1}).values


def test_intervention_preempted_thrower(rt_detailed):
    hit = solve(intervene(rt_detailed.model, {"ST": 0}), {"U": 1})
    assert hit["SH"] == 0 and hit["BH"] == 1 and hit["BS"] == 1


def test_intervention_overrides_equation(rt_naive):
    world = solve(intervene(rt_naive.model, {"BS": 0}), {"U": 1})
    assert world.as_dict() == {"ST": 1, "BT": 1, "BS": 0}


def test_intervention_validation(rt_naive):
    with pytest.raises(UnknownVariable):
        intervene(rt_naive.model, {"ZZ": 1})
    with pytest.raises(ValueOutOfRange):
        intervene(rt_naive.model, {"BS": 7})


def test_context_validation(rt_naive):
    with pytest.raises(UnknownVariable):
        solve(rt_naive.model, {})
    with pytest.raises(ValueOutOfRange):
        solve(rt_naive.model, {"U": 3})
    with pytest.raises(UnknownVariable):
        solve(rt_naive.model, {"U": 1, "EXTRA": 0})


def test_signature_validation():
    with pytest.raises(EngineError):
        make_model({"U": (0, 1)}, {"A": ()}, {"A": Const(0)})
    with pytest.raises(EngineError):
        make_model({"U": (0, 1)}, {"A": (1, 0)}, {"A": Const(0)})
    with pytest.raises(DuplicateDefinition):
        make_model({"A": (0, 1)}, {"A": (0, 1)}, {"A": Const(0)})
    with pytest.raises(UnknownVariable):
        make_model({"U": (0, 1)}, {"A": (0, 1)}, {"A": Var("GHOST")})
    with pytest.raises(EngineError):
        make_model({"U": (0, 1)}, {"A": (0, 1)}, {})


def test_out_of_range_equation_value_raises():
    """An equation that can leave its range is refused whenever the
    runtime is built, by `check_recursive`, `parse_model` or the first
    solve, with the variable, the value and its parents' values."""
    model = make_model({"U": (0, 1)}, {"A": (0, 1)}, {"A": Sum((Var("U"), Const(5)))})
    text = "model m\nexogenous U: {0,1}\nendogenous A: {0,1} = U + 5\n"
    for build in (check_recursive, lambda m: solve(m, {"U": 1}),
                  lambda m: solve_values(m, (1,)), lambda m: parse_model(text)):
        with pytest.raises(ValueOutOfRange) as err:
            build(model)
        assert (err.value.variable, err.value.value, err.value.assignment) == ("A", 5, {"U": 0})
        assert str(err.value) == "value 5 is not in the range of 'A', given by its equation at U=0"
    with pytest.raises(ValueOutOfRange, match=r"of 'A', given by its equation$"):
        check_recursive(make_model({}, {"A": (0, 1)}, {"A": Const(2)}))


def _compiled(expr, env):
    names = list(env)
    fn = compile_expression(expr, {n: f"v[{i}]" for i, n in enumerate(names)})
    return fn([env[n] for n in names], ())


def test_expression_evaluation_semantics():
    env = {"A": -1, "B": 0}
    assert _compiled(Not(Var("A")), env) == 0  # any nonzero is true
    assert _compiled(Not(Var("B")), env) == 1
    assert _compiled(And((Var("A"), Const(1))), env) == 1
    assert _compiled(Or((Var("B"), Const(0))), env) == 0
    assert _compiled(Cmp("<=", Var("A"), Var("B")), env) == 1
    assert _compiled(Sum((Var("A"), Const(2))), env) == 1
    picked = Case(arms=((Var("B"), Const(9)), (Const(1), Var("A"))), default=Const(7))
    assert _compiled(picked, env) == -1  # first true guard wins


# -- invariants -------------------------------------------------------------

def _corpus_models():
    from actualcause.corpus import load_document, model_names

    for name in model_names():
        if name == "livengood_17_2_0":
            continue  # 3^19 contexts; covered by its own case
        yield load_document(name)


def test_actual_value_interventions_are_noop():
    for doc in _corpus_models():
        for ctx in doc.contexts.values():
            world = solve(doc.model, ctx)
            names = list(world.names)
            rng = random.Random(17)
            for _ in range(5):
                chosen = rng.sample(names, rng.randint(0, len(names)))
                pinned = intervene(doc.model, {n: world[n] for n in chosen})
                assert solve(pinned, ctx) == world


def test_solve_respects_every_equation():
    for doc in _corpus_models():
        for ctx in doc.contexts.values():
            world = solve(doc.model, ctx)
            env = dict(ctx)
            env.update(world.as_dict())
            for name, expr in doc.model.equations:
                assert interpret(expr, env) == world[name], (doc.name, name)


def test_normality_ranks_take_the_first_matching_arm():
    from actualcause.corpus import load_document

    for name in ("bogus_prevention", "livengood_normality", "scanner_vote"):
        doc = load_document(name)
        decl, order = doc.normality, doc.order()
        assert decl.kind == "ranks", name
        for world in doc.model.worlds():
            env = world.as_dict()
            want = next(
                (rank for guard, rank in decl.arms if interpret(guard, env) != 0),
                decl.default,
            )
            assert order.rank(world) == want, (name, world)


def test_recursive_verdict_is_declaration_order_insensitive():
    rng = random.Random(5)
    for doc in list(_corpus_models())[:8]:
        endo = list(doc.model.signature.endogenous)
        eqs = dict(doc.model.equations)
        for _ in range(3):
            rng.shuffle(endo)
            shuffled = make_model(
                dict(doc.model.signature.exogenous),
                dict(endo),
                {n: eqs[n] for n, _ in endo},
            )
            check_recursive(shuffled)  # must not raise
    cyc = {"A": Var("B"), "B": Var("A")}
    for order in (["A", "B"], ["B", "A"]):
        model = make_model({"U": (0, 1)}, {n: (0, 1) for n in order},
                           {n: cyc[n] for n in order})
        with pytest.raises(CyclicModel):
            check_recursive(model)


def test_intervene_idempotent_and_commutative(rt_detailed):
    m = rt_detailed.model
    a, b = {"ST": 0}, {"BH": 1}
    assert intervene(intervene(m, a), a) == intervene(m, a)
    assert intervene(intervene(m, a), b) == intervene(intervene(m, b), a)


def test_topological_solver_matches_world_enumeration():
    rng = random.Random(99)
    for _ in range(40):
        model = random_binary_model(rng)
        ctx = random_context(rng, model)
        world = solve(model, ctx)
        assert world.as_dict() == naive_solve(model, ctx)
        pin = {model.endogenous_names[0]: rng.randint(0, 1)}
        assert (
            solve(intervene(model, pin), ctx).as_dict()
            == naive_solve(model, ctx, pin)
        )


def test_compiled_equations_match_interpreter():
    rng = random.Random(7)
    for _ in range(30):
        model = random_binary_model(rng)
        rt = model._runtime()
        for combo in itertools.product((0, 1), repeat=len(rt.exo_names)):
            ctx = dict(zip(rt.exo_names, combo))
            world = solve(model, ctx)
            env = {**ctx, **world.as_dict()}
            for name, expr in model.equations:
                assert interpret(expr, env) == world[name]


# -- the generated solver ------------------------------------------------------

def _settings(rng, model):
    """No intervention, two random ones, and one forcing every variable."""
    names = model.endogenous_names
    out = [{}]
    for _ in range(2):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        out.append({n: rng.choice(model.range_of(n)) for n in chosen})
    out.append({n: rng.choice(model.range_of(n)) for n in names})
    return out


def _check_solver_against_oracle(model, rng):
    rt = model._runtime()
    for context in model.contexts():
        exo = context_values(model, context)
        for forced in _settings(rng, model):
            by_index = {rt.endo_index[n]: v for n, v in forced.items()}
            values = solve_values(model, exo, by_index)
            assert [dict(zip(rt.endo_names, values))] == naive_worlds(model, context, forced)


def test_generated_solver_matches_oracle_on_random_models():
    """Multi-valued models, and the extensions of "overflow" pairs that
    are total, whose sums the value-set rule may leave unproven."""
    rng = random.Random(11)
    for _ in range(100):
        _check_solver_against_oracle(random_multivalued_model(rng), rng)
    total = 0
    for _ in range(100):
        base, extension = random_extension_pair(rng, "overflow")
        _check_solver_against_oracle(base, rng)
        if first_escape(extension) is None:
            _check_solver_against_oracle(extension, rng)
            total += 1
    assert total >= 30, total


def test_long_chain_solves_in_one_generated_function():
    n = 3000
    endogenous = {f"A{i}": (0, 1) for i in range(n - 1)}
    equations = {"A0": Var("U")}
    equations.update({f"A{i}": Not(Var(f"A{i - 1}")) for i in range(1, n - 1)})
    # the last link adds one, into a range that holds both its values
    equations[f"A{n - 1}"] = Sum((Var(f"A{n - 2}"), Const(1)))
    model = make_model({"U": (0, 1)}, {**endogenous, f"A{n - 1}": (1, 2)}, equations)
    assert solve_values(model, (0,)) == tuple(i % 2 for i in range(n - 1)) + (1,)
    assert solve_values(model, (1,))[-2:] == (1, 2)
    # forcing the middle of the chain flips everything below it
    values = solve_values(model, (1,), {1500: 0})
    assert values[1499:1502] == (0, 0, 1) and values[-2:] == (0, 1)
    # into (0, 1) the last link leaves its range where its input is 1
    overflowing = make_model({"U": (0, 1)}, {**endogenous, f"A{n - 1}": (0, 1)}, equations)
    with pytest.raises(ValueOutOfRange) as err:
        check_recursive(overflowing)
    assert (err.value.variable, err.value.value) == (f"A{n - 1}", 2)
    assert err.value.assignment == {f"A{n - 2}": 1}


@pytest.mark.parametrize("exogenous, endogenous, equations, escape", [
    # a copy of a wider-ranged endogenous variable
    ({"U": (0, 1, 2)}, {"A": (0, 1, 2), "B": (0, 1)},
     {"A": Var("U"), "B": Var("A")}, ("B", 2, {"A": 2})),
    # a copy of a wider-ranged exogenous variable
    ({"U": (0, 1, 2)}, {"B": (0, 1)}, {"B": Var("U")}, ("B", 2, {"U": 2})),
    # a case arm with an out-of-range constant
    ({"U": (0, 1)}, {"A": (0, 1)},
     {"A": Case(arms=((Cmp("=", Var("U"), Const(1)), Const(5)),), default=Const(0))},
     ("A", 5, {"U": 1})),
    # a boolean equation into a range without 0
    ({"U": (0, 1)}, {"A": (1, 2)}, {"A": Cmp("=", Var("U"), Const(1))}, ("A", 0, {"U": 0})),
    # a sum
    ({"U": (0, 1)}, {"A": (0, 1)}, {"A": Sum((Var("U"), Var("U")))}, ("A", 2, {"U": 1})),
], ids=["endogenous-copy", "exogenous-copy", "case-arm", "boolean", "sum"])
def test_unproven_equations_keep_their_range_test(exogenous, endogenous, equations, escape):
    """An equation the value-set rule does not prove is tested at every
    assignment of its parents when the runtime is built, and one that
    leaves its range there refuses the model."""
    model = make_model(exogenous, endogenous, equations)
    with pytest.raises(ValueOutOfRange) as err:
        check_recursive(model)
    assert (err.value.variable, err.value.value, err.value.assignment) == escape


def test_range_closure_rule():
    from actualcause.model import _value_set

    ranges = {"U": frozenset((0, 1, 2)), "B": frozenset((0, 1))}
    assert _value_set(Const(2), ranges) == {2}
    assert _value_set(Cmp("=", Var("U"), Const(2)), ranges) == {0, 1}
    assert _value_set(Or((Var("U"), Not(Var("B")))), ranges) == {0, 1}
    assert _value_set(Var("U"), ranges) == {0, 1, 2}
    # a case gives its arms and default, whatever its guards read
    assert _value_set(Case(((Var("U"), Var("B")),), Const(5)), ranges) == {0, 1, 5}
    # a sum gives the set sum of its items
    assert _value_set(Sum((Var("U"), Var("B"), Const(-1))), ranges) == {-1, 0, 1, 2}
    assert _value_set(Sum((Not(Var("U")), Var("U"))), ranges) == {0, 1, 2, 3}
    # a sum whose set would grow past the cap is not proven, nor a case over it
    wide = {f"W{k}": frozenset((0, 1 << k)) for k in range(17)}
    sum_of_powers = Sum(tuple(Var(n) for n in wide))
    assert len(_value_set(Sum(sum_of_powers.items[:16]), wide)) == 2 ** 16
    assert _value_set(sum_of_powers, wide) is None
    assert _value_set(Case(((Const(1), sum_of_powers),), Const(0)), wide) is None


def test_an_unproven_equation_past_the_enumeration_cap_is_refused():
    """An equation with more parent assignments than the check enumerates
    is refused, by name, unless the value-set rule proves it."""
    parents = {f"W{k}": (0, 1) for k in range(17)}
    total = {"S": (0, 1), "T": tuple(range(18))}
    proven = {"S": Or(tuple(map(Var, parents))), "T": Sum(tuple(map(Var, parents)))}
    check_recursive(make_model(parents, total, proven))
    model = make_model(parents, {"S": (0, 1)}, {"S": Sum(tuple(map(Var, parents)))})
    with pytest.raises(EngineError, match="equation of 'S' stays in its range") as err:
        check_recursive(model)
    assert not isinstance(err.value, ValueOutOfRange)


def test_totality_check_matches_the_oracle_on_random_models():
    """A model is refused exactly when the oracle finds an equation that
    leaves its range at some assignment of its parents, and the refusal
    names the oracle's first escape: on binary, multi-valued and symmetric
    models, total by construction, and on the extensions of "overflow"
    pairs, some of them total only because a guard keeps their sum in
    range."""
    rng = random.Random(23)
    refused = accepted = 0
    for trial in range(400):
        kind = trial % 4
        if kind == 0:
            model = random_binary_model(rng)
        elif kind == 1:
            model = random_multivalued_model(rng)
        elif kind == 2:
            model = random_symmetric_model(rng)[0]
        else:
            model = random_extension_pair(rng, "overflow")[1]
        escape = first_escape(model)
        if escape is None:
            check_recursive(model)
            accepted += kind == 3
        else:
            with pytest.raises(ValueOutOfRange) as err:
                check_recursive(model)
            assert (err.value.variable, err.value.value, err.value.assignment) == escape, trial
            refused += 1
    assert refused >= 50 and accepted >= 10, (refused, accepted)
