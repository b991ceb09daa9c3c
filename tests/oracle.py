"""Independent reference implementation used to cross-check the engine.

Deliberately shares nothing with the engine's evaluation path: equations
are interpreted recursively rather than compiled, models are solved by
enumerating whole worlds and filtering by equation satisfaction, and the
cause decision walks the three-clause definition literally, partition by
partition.  Slow on purpose; only run at small scale.
"""

from __future__ import annotations

import itertools
import random
import weakref

from actualcause import formula as fm
from actualcause import model as md


def interpret(expr, env):
    """Recursive expression interpreter (no code generation)."""
    if isinstance(expr, md.Const):
        return expr.value
    if isinstance(expr, md.Var):
        return env[expr.name]
    if isinstance(expr, md.Cmp):
        a, b = interpret(expr.lhs, env), interpret(expr.rhs, env)
        return int({
            "=": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[expr.op])
    if isinstance(expr, md.Not):
        return int(interpret(expr.operand, env) == 0)
    if isinstance(expr, md.And):
        return int(all(interpret(i, env) != 0 for i in expr.items))
    if isinstance(expr, md.Or):
        return int(any(interpret(i, env) != 0 for i in expr.items))
    if isinstance(expr, md.Sum):
        return sum(interpret(i, env) for i in expr.items)
    if isinstance(expr, md.Case):
        for guard, value in expr.arms:
            if interpret(guard, env) != 0:
                return interpret(value, env)
        return interpret(expr.default, env)
    raise TypeError(type(expr).__name__)


def first_escape(model):
    """The first value an equation gives outside its variable's range, as
    (variable, value, parent assignment), or None when every equation is
    total.  Equations are read in declaration order, and each one's parent
    assignments in lexicographic order, its parents being the variables it
    reads in declaration order, exogenous first."""
    declared = model.signature.exogenous + model.signature.endogenous
    for name, expr in model.equations:
        reads = expr.variables()
        parents = [(n, r) for n, r in declared if n in reads]
        for values in itertools.product(*[r for _, r in parents]):
            env = dict(zip([n for n, _ in parents], values))
            value = interpret(expr, env)
            if value not in model.range_of(name):
                return name, value, env
    return None


def naive_solve(model, context, interventions=None):
    """Unique world by filtering all assignments against the equations."""
    solutions = naive_worlds(model, context, interventions)
    assert len(solutions) == 1, f"expected a unique world, found {len(solutions)}"
    return solutions[0]


# model -> (context, interventions) -> the worlds found.  A model is a frozen
# value, so equal models share their worlds, and the entry of a model goes
# when the model does.
_WORLDS = weakref.WeakKeyDictionary()


def naive_worlds(model, context, interventions=None):
    """Every assignment that satisfies the equations: one world in a
    recursive model, none when an equation leaves its variable's range.
    The search is made once per model, context and interventions; each
    call gets its own copies of the worlds."""
    iv = dict(interventions or {})
    known = _WORLDS.get(model)
    if known is None:
        known = _WORLDS[model] = {}
    key = frozenset(context.items()), frozenset(iv.items())
    if key not in known:
        known[key] = _filtered_worlds(model, context, iv)
    return [dict(world) for world in known[key]]


def _filtered_worlds(model, context, iv):
    names = model.endogenous_names
    equations = dict(model.equations)
    ranges = [model.range_of(n) for n in names]
    solutions = []
    for combo in itertools.product(*ranges):
        env = dict(context)
        env.update(zip(names, combo))
        ok = True
        for name, value in zip(names, combo):
            want = iv[name] if name in iv else interpret(equations[name], env)
            if value != want:
                ok = False
                break
        if ok:
            solutions.append(dict(zip(names, combo)))
    return solutions


def event_holds(world, phi):
    if isinstance(phi, fm.PrimitiveEvent):
        return world[phi.var] == phi.value
    if isinstance(phi, fm.Not):
        return not event_holds(world, phi.operand)
    if isinstance(phi, fm.And):
        return event_holds(world, phi.left) and event_holds(world, phi.right)
    if isinstance(phi, fm.Or):
        return event_holds(world, phi.left) or event_holds(world, phi.right)
    raise TypeError(type(phi).__name__)


def naive_formula_holds(model, context, phi):
    """Satisfaction including intervention prefixes."""
    if isinstance(phi, fm.Held):
        world = naive_solve(model, context, dict(phi.settings))
        return event_holds(world, phi.body)
    if isinstance(phi, fm.PrimitiveEvent):
        return event_holds(naive_solve(model, context), phi)
    if isinstance(phi, fm.Not):
        return not naive_formula_holds(model, context, phi.operand)
    if isinstance(phi, fm.And):
        return (naive_formula_holds(model, context, phi.left)
                and naive_formula_holds(model, context, phi.right))
    if isinstance(phi, fm.Or):
        return (naive_formula_holds(model, context, phi.left)
                or naive_formula_holds(model, context, phi.right))
    raise TypeError(type(phi).__name__)


def settings_read(phi):
    """Each intervention that an event of `phi` is read under, () outside any."""
    if isinstance(phi, fm.Held):
        return {phi.settings}
    if isinstance(phi, fm.PrimitiveEvent):
        return {()}
    if isinstance(phi, fm.Not):
        return settings_read(phi.operand)
    return settings_read(phi.left) | settings_read(phi.right)


def naive_restore_holds(model, context, cause, phi, contingency, w_values, original):
    """The restore clause read literally: with the cause at its stated values,
    the off-path set (all of it under the original rules, any part of it
    otherwise) re-imposed, and any set of the remaining variables reset to
    its actual values, the effect holds."""
    actual = naive_solve(model, context)
    z_vars = [n for n in model.endogenous_names if n not in contingency and n not in cause]
    w_choices = (
        [tuple(contingency)]
        if original
        else [
            c
            for k in range(len(contingency) + 1)
            for c in itertools.combinations(contingency, k)
        ]
    )
    for chosen in w_choices:
        for k in range(len(z_vars) + 1):
            for resets in itertools.combinations(z_vars, k):
                iv = dict(cause)
                iv.update((n, w_values[contingency.index(n)]) for n in chosen)
                iv.update((n, actual[n]) for n in resets)
                if not event_holds(naive_solve(model, context, iv), phi):
                    return False
    return True


def naive_witness_world(model, context, cause, contingency, w_values, alt):
    """The world with the contingency and the alternate cause values imposed."""
    flip = dict(zip(contingency, w_values))
    flip.update(zip(cause.keys(), alt))
    return naive_solve(model, context, flip)


def _ac2_holds(model, context, cause, phi, contingency, w_values, alt, original):
    if event_holds(naive_witness_world(model, context, cause, contingency, w_values, alt), phi):
        return False
    return naive_restore_holds(model, context, cause, phi, contingency, w_values, original)


def naive_witnesses(model, context, cause, phi, original):
    """Every witness tuple passing the two AC2 clauses."""
    rest = [n for n in model.endogenous_names if n not in cause]
    out = []
    for k in range(len(rest) + 1):
        for contingency in itertools.combinations(rest, k):
            ranges = [model.range_of(n) for n in contingency]
            for w_values in itertools.product(*ranges):
                for alt in itertools.product(*[model.range_of(n) for n in cause]):
                    if alt == tuple(cause.values()):
                        continue
                    if _ac2_holds(model, context, cause, phi, contingency,
                                  w_values, alt, original):
                        out.append((contingency, w_values, alt))
    return out


def naive_is_cause(model, context, cause, phi, original):
    world = naive_solve(model, context)
    if any(world[n] != v for n, v in cause.items()) or not event_holds(world, phi):
        return False
    if not naive_witnesses(model, context, cause, phi, original):
        return False
    names = list(cause)
    for size in range(1, len(names)):
        for subset in itertools.combinations(names, size):
            sub = {n: cause[n] for n in subset}
            if naive_witnesses(model, context, sub, phi, original):
                return False
    return True


# ---------------------------------------------------------------------------
# Random finite models for differential testing
# ---------------------------------------------------------------------------

def random_boolean_expression(rng: random.Random, allowed, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.30 or not allowed:
        if rng.random() < 0.35 or not allowed:
            return md.Const(rng.randint(0, 1))
        return md.Var(rng.choice(allowed))
    if roll < 0.45:
        return md.Not(random_boolean_expression(rng, allowed, depth - 1))
    if roll < 0.62:
        return md.And((
            random_boolean_expression(rng, allowed, depth - 1),
            random_boolean_expression(rng, allowed, depth - 1),
        ))
    if roll < 0.79:
        return md.Or((
            random_boolean_expression(rng, allowed, depth - 1),
            random_boolean_expression(rng, allowed, depth - 1),
        ))
    if roll < 0.90:
        return md.Cmp("=", md.Var(rng.choice(allowed)), md.Const(rng.randint(0, 1)))
    return md.Case(
        arms=((
            random_boolean_expression(rng, allowed, depth - 1),
            random_boolean_expression(rng, allowed, depth - 1),
        ),),
        default=random_boolean_expression(rng, allowed, depth - 1),
    )


def random_binary_model(rng: random.Random, max_endogenous=5, max_exogenous=2):
    n_endo = rng.randint(2, max_endogenous)
    n_exo = rng.randint(1, max_exogenous)
    exogenous = {f"U{i}": (0, 1) for i in range(1, n_exo + 1)}
    names = [f"V{i}" for i in range(1, n_endo + 1)]
    equations = {}
    for i, name in enumerate(names):
        allowed = list(exogenous) + names[:i]
        equations[name] = random_boolean_expression(rng, allowed, depth=3)
    return md.make_model(exogenous, {n: (0, 1) for n in names}, equations)


def _random_guard(rng: random.Random, parents, ranges, depth):
    """A 0/1-valued test on parent values: comparisons with constants or
    with a sum of two parents, under boolean connectives."""
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        if len(parents) > 1 and rng.random() < 0.25:
            a, b = rng.sample(parents, 2)
            low = min(ranges[a]) + min(ranges[b])
            high = max(ranges[a]) + max(ranges[b])
            return md.Cmp(op, md.Sum((md.Var(a), md.Var(b))), md.Const(rng.randint(low, high)))
        var = rng.choice(parents)
        return md.Cmp(op, md.Var(var), md.Const(rng.choice(ranges[var])))
    if roll < 0.65:
        return md.Not(_random_guard(rng, parents, ranges, depth - 1))
    kind = md.And if roll < 0.85 else md.Or
    return kind((
        _random_guard(rng, parents, ranges, depth - 1),
        _random_guard(rng, parents, ranges, depth - 1),
    ))


def random_multivalued_model(rng: random.Random, max_endogenous=4, max_exogenous=2):
    """A random model whose variables range over two or three integers.

    Each equation is a first-match `case` whose arms yield constants of the
    variable's range or the value of a parent with a range inside it, so
    every equation stays in range under every intervention.
    """
    choices = ((0, 1), (0, 1, 2), (-1, 0, 1), (1, 2))
    n_endo = rng.randint(2, max_endogenous)
    n_exo = rng.randint(1, max_exogenous)
    ranges = {f"U{i}": rng.choice(choices) for i in range(1, n_exo + 1)}
    exogenous = dict(ranges)
    names = [f"V{i}" for i in range(1, n_endo + 1)]
    endogenous, equations = {}, {}
    for name in names:
        own = rng.choice(choices)
        parents = list(ranges)
        copyable = [p for p in parents if set(ranges[p]) <= set(own)]

        def value():
            if copyable and rng.random() < 0.4:
                return md.Var(rng.choice(copyable))
            return md.Const(rng.choice(own))

        arms = tuple(
            (_random_guard(rng, parents, ranges, 2), value())
            for _ in range(rng.randint(1, 2))
        )
        equations[name] = md.Case(arms=arms, default=value())
        endogenous[name] = own
        ranges[name] = own
    return md.make_model(exogenous, endogenous, equations)


def random_effect(rng: random.Random, model, names, depth=2):
    """A random boolean combination of events over the given variables,
    agreements `a <-> b` of two events among them."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        var = rng.choice(names)
        return fm.PrimitiveEvent(var, rng.choice(model.range_of(var)))
    if roll < 0.5:
        a, b = (random_effect(rng, model, names, 0) for _ in range(2))
        return fm.Or(fm.And(a, b), fm.And(fm.Not(a), fm.Not(b)))
    if roll < 0.6:
        return fm.Not(random_effect(rng, model, names, depth - 1))
    kind = fm.And if roll < 0.8 else fm.Or
    return kind(random_effect(rng, model, names, depth - 1),
                random_effect(rng, model, names, depth - 1))


def random_context(rng: random.Random, model):
    return {n: rng.choice(model.range_of(n)) for n in model.exogenous_names}


EXTENSION_KINDS = ("faithful", "rewired", "overflow")


def random_extension_pair(rng: random.Random, kind: str, max_endogenous=3, max_exogenous=2):
    """A random multi-valued base model and an extension of it of one kind.

    - "faithful": one base equation is routed through a new copy variable
      that carries it, which keeps every base relation;
    - "rewired": one base equation is overridden when a new variable that
      reads the base is 1 and a test of the base holds, which usually
      changes some relation;
    - "overflow": a new variable `Sum`s two others under a guard into the
      range (0, 1), which it can leave, and one base equation is routed
      through a copy variable or rewired to read the sum.  Where the sum can
      leave the range the extension is not total, and the engine refuses it
      when its runtime is built; these are the tests' non-total models.

    New variables sit at random places among the endogenous variables, and
    the base's 1 to `max_exogenous` exogenous variables are declared in a
    random order in the extension.
    """
    if kind not in EXTENSION_KINDS:
        raise ValueError(kind)
    base = random_multivalued_model(rng, max_endogenous, max_exogenous)
    ranges = dict(base.signature.exogenous + base.signature.endogenous)
    names = list(base.endogenous_names)
    equations = dict(base.equations)
    target = rng.choice(names)
    # the variables a new equation may read without closing a cycle
    upstream = list(base.exogenous_names) + names[:names.index(target)]
    new = {}
    if kind == "faithful":
        new["N1"] = (ranges[target], equations[target])
        equations[target] = md.Var("N1")
    else:
        guard = _random_guard(rng, upstream, ranges, 1)
        if kind == "rewired":
            when = md.Const(1)
        else:
            when = md.Sum(tuple(md.Var(rng.choice(upstream)) for _ in range(2)))
        new["N1"] = ((0, 1), md.Case(arms=((guard, when),), default=md.Const(0)))
        if kind == "overflow" and rng.random() < 0.5:
            new["N2"] = (ranges[target], equations[target])
            equations[target] = md.Var("N2")
        else:
            # the test also reads the base directly, perhaps a variable that
            # the base equation does not read
            tested = names[:names.index(target)] or upstream
            on = md.And((md.Cmp("=", md.Var("N1"), md.Const(1)),
                         _random_guard(rng, tested, ranges, 0)))
            value = md.Const(rng.choice(ranges[target]))
            equations[target] = md.Case(arms=((on, value),), default=equations[target])
    order = list(names)
    for name in new:
        order.insert(rng.randrange(len(order) + 1), name)
    endogenous = {n: new[n][0] if n in new else ranges[n] for n in order}
    equations.update((n, eq) for n, (_, eq) in new.items())
    exogenous = list(base.signature.exogenous)
    rng.shuffle(exogenous)
    extension = md.make_model(dict(exogenous), endogenous, {n: equations[n] for n in order})
    return base, extension


def random_symmetric_model(rng: random.Random):
    """A small random model with two or three planted interchangeable
    variables S1, S2, ... (three-valued only when there are two).  They
    share one equation template, a case on a guard over the shared
    exogenous U and an upstream A, whose default reads each member's own
    private exogenous P1, P2, ... or, in about a third of the models, a
    constant.  Readers T and O treat the members alike, through a sum of one
    test on each or a conjunction or disjunction of those tests.  Returns
    the model and the member names."""
    size = rng.choice((2, 3))
    own = rng.choice(((0, 1), (0, 1, 2))) if size == 2 else (0, 1)
    private = rng.random() < 0.7
    exogenous = {"U": (0, 1)}
    members = [f"S{j}" for j in range(1, size + 1)]
    if private:
        exogenous.update((f"P{j}", own) for j in range(1, size + 1))
    endogenous = {"A": (0, 1)}
    equations = {"A": md.Cmp("=", md.Var("U"), md.Const(rng.randint(0, 1)))}
    # a guard that can go either way, so that the default is read in some
    # worlds and not in others
    guard = md.Cmp("=", md.Var(rng.choice(("U", "A"))), md.Const(rng.randint(0, 1)))
    value = md.Const(rng.choice(own))
    fallback = md.Const(rng.choice(own))
    for j, name in enumerate(members, 1):
        endogenous[name] = own
        default = md.Var(f"P{j}") if private else fallback
        equations[name] = md.Case(arms=((guard, value),), default=default)
    # one test per member, its sides and the order of the tests drawn at
    # random, which changes no reading of them
    tested = md.Const(rng.choice(own[1:]))
    tests = [md.Cmp("=", *rng.sample((md.Var(name), tested), 2)) for name in members]
    rng.shuffle(tests)
    roll = rng.random()
    if roll < 0.4:
        reader = md.Cmp(rng.choice((">=", "<=", "=")), md.Sum(tuple(tests)),
                        md.Const(rng.randint(1, size)))
    else:
        reader = (md.And if roll < 0.7 else md.Or)(tuple(tests))
    endogenous["T"] = (0, 1)
    equations["T"] = md.Or((reader, md.Cmp("=", md.Var("A"), md.Const(1)))) \
        if rng.random() < 0.3 else reader
    endogenous["O"] = (0, 1)
    equations["O"] = md.Case(
        arms=((_random_guard(rng, ["A", "T"], {"A": (0, 1), "T": (0, 1)}, 1),
               md.Const(rng.randint(0, 1))),),
        default=md.Var("T"))
    return md.make_model(exogenous, endogenous, equations), members
