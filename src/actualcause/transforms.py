"""Model surgery and meta-level checks.

Covers conservative-extension checking (plain and normality-aware), the
witness-killing variable construction and its iteration, the alternating
stability model family, and the machinery that makes deviation from the
equations abnormal.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import formula as fm
from .causality import (
    ExtendedCausalModel,
    NormalityOrder,
    RuleVariant,
    SearchBudget,
    Witness,
    _certifies,
    _witness_query,
    is_actual_cause,
)
from .errors import (
    EngineError,
    NotAWitness,
    PreconditionViolated,
    SignatureMismatch,
    UnknownVariable,
    WitnessEqualsActual,
    _check_count,
)
from .model import (
    And,
    CausalModel,
    Case,
    Cmp,
    Const,
    Expression,
    Var,
    World,
    _equation_values,
    _setting_index,
    _own_values,
    conj,
    context_values,
    disj,
    make_model,
    solve_values,
)

__all__ = [
    "Counterexample",
    "CECounterexample",
    "ExtensionReport",
    "AgreementReport",
    "DeviationRecord",
    "RespectReport",
    "is_conservative_extension",
    "check_formula_agreement",
    "is_conservative_extension_extended",
    "deviating_variables",
    "respects_equations",
    "normality_from_respect",
    "kill_witness",
    "kill_all_witnesses",
    "build_stability_model",
]


# ---------------------------------------------------------------------------
# Conservative extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    context: dict[str, int]
    variable: str
    setting: dict[str, int]
    value_base: int
    value_extension: int


@dataclass(frozen=True)
class CECounterexample:
    context: dict[str, int]
    setting: dict[str, int]
    normal_in_base: bool
    normal_in_extension: bool


@dataclass(frozen=True)
class ExtensionReport:
    is_conservative: bool
    counterexample: Counterexample | None = None
    ce_counterexample: CECounterexample | None = None


def _require_models(kind: type, *models) -> None:
    """Refuse a model of another kind than `kind`, as `causality._unwrap` does."""
    for model in models:
        if not isinstance(model, kind):
            got, want = type(model).__name__, kind.__name__
            raise EngineError(f"not a causal model: {got} (expected {want})")


def _context_pairs(extension: CausalModel, base: CausalModel, free=None):
    """Every context, as the base's exogenous values in the base's
    declaration order and in the extension's, which may differ; with a set
    of names `free`, only the exogenous variables in it vary and every
    other one stays at its first value.  Ranges strictly increase, so the
    contexts come in increasing order of their base values."""
    base_rt = base._runtime()
    where = [base_rt.exo_index[n] for n in extension._runtime().exo_names]
    ranges = [r if free is None or n in free else r[:1]
              for n, r in zip(base_rt.exo_names, base_rt.exo_ranges)]
    for exo in itertools.product(*ranges):
        yield exo, tuple([exo[k] for k in where])


def is_conservative_extension(
    extension: CausalModel, base: CausalModel
) -> ExtensionReport:
    """Exhaustively test that the extension leaves the base untouched.

    For every context, every base variable X, and every total setting of the
    other base variables, X must take the same value in both models (new
    variables simply follow their equations under those interventions).

    Only the settings and contexts that can move X are enumerated.  With
    the other base variables set, X's value in the base depends only on the
    variables its base equation reads.  In the extension it depends on
    those its equation reads, and on the new variables it reads.  A new
    variable X reads follows from what its own equation reads: base
    variables, which are set, exogenous ones, and new ones, which follow in
    turn (none reads X, or the extension would be cyclic).  So X's values
    in both models are a function of the variables in its reach: those
    that X's equation reads in either model, and those read by the new
    variables that feed X through new variables only.  Every equation is
    total (`model._check_totality`), so no value of a variable outside the
    reach can stop a solve.

    Hence a variable outside the reach, a base variable in the setting or
    an exogenous one in the context alike, takes only the first value of its
    range.  Moving every such variable of a counterexample to its first
    value leaves X's two values as they were and gives a context and a
    setting each no later, in lexicographic order, than before, since
    ranges strictly increase.  So the first counterexample in (context, X,
    setting) order has every such variable at its first value, and is
    among those enumerated.

    The plan, each X and then each of its settings, is the outer loop; each
    setting, written in place into one intervention per model, is solved
    in X's contexts in increasing order.  The counterexample reported is
    still the first in (context, X, setting) order, the one a loop over
    every context, X and total setting would meet: the least context where
    some setting makes X's values differ wins, and among the settings that
    fail there the first in the plan, which is met first.  After a failure
    the later settings are solved only in the contexts before it, so
    nothing more is solved once the first context has failed.  A refused
    pair may therefore enumerate the whole plan rather than stop at its
    first failure; that costs no more than an accepted pair of the same models.

    An X whose extension equation equals (`==`) its base one is skipped.
    That equation reads only base names, which the extension keeps with
    their ranges and the same exogenous signature (checked first); so under
    any setting of the other base variables, in a shared context, X reads
    the same inputs in both models and takes the same value.  It is never a
    counterexample, and both runtimes, with their totality checks, are
    built before the loop, so reports and errors are as without the skip.
    """
    _require_models(CausalModel, extension, base)
    if dict(extension.signature.exogenous) != dict(base.signature.exogenous):
        raise SignatureMismatch("the exogenous signatures differ")
    ext_endo = dict(extension.signature.endogenous)
    for name, rng in base.signature.endogenous:
        if name not in ext_endo:
            raise SignatureMismatch(f"extension drops endogenous variable {name!r}")
        if ext_endo[name] != rng:
            raise SignatureMismatch(f"range of {name!r} differs between the models")
    base_rt = base._runtime()
    ext_rt = extension._runtime()
    base_names = base_rt.endo_names

    def reach(name):
        """The variables `name` reads in the extension, and the reach of
        each new variable among them."""
        deps = ext_rt.deps[name]
        return set(deps).union(ext_rt.exo_deps[name], *[feeds[d] for d in deps if d in feeds])

    feeds: dict[str, set] = {}  # new variable -> its reach
    for i in ext_rt.order:
        if ext_rt.endo_names[i] not in base_rt.endo_index:
            feeds[ext_rt.endo_names[i]] = reach(ext_rt.endo_names[i])
    bound = None  # the base context of the first failure
    first = None  # its counterexample
    base_solve, ext_solve = base_rt.solve, ext_rt.solve
    for x_name in base_names:
        x_base, x_ext = base_rt.endo_index[x_name], ext_rt.endo_index[x_name]
        if base_rt.exprs[x_base] == ext_rt.exprs[x_ext]:
            continue
        reads = reach(x_name).union(base_rt.deps[x_name], base_rt.exo_deps[x_name])
        # X's contexts, before the first failure's
        contexts = [c for c in _context_pairs(extension, base, reads)
                    if bound is None or c[0] < bound]
        # the other base variables, their indices in each model, and their
        # ranges, restricted to the first value outside the reach
        others = [n for n in base_names if n != x_name]
        base_idx = [base_rt.endo_index[n] for n in others]
        ext_idx = [ext_rt.endo_index[n] for n in others]
        ranges = [base_rt.endo_ranges[i] if n in reads else base_rt.endo_ranges[i][:1]
                  for n, i in zip(others, base_idx)]
        base_iv, ext_iv = {}, {}  # the setting, updated in place
        base_get, ext_get = base_iv.get, ext_iv.get
        for setting in itertools.product(*ranges):
            if not contexts:
                break
            base_iv.update(zip(base_idx, setting))
            ext_iv.update(zip(ext_idx, setting))
            for exo, exo_ext in contexts:
                got_base = base_solve(exo, base_get)[x_base]
                got_ext = ext_solve(exo_ext, ext_get)[x_ext]
                if got_base != got_ext:
                    bound, context = exo, dict(zip(base_rt.exo_names, exo))
                    first = Counterexample(context, x_name, dict(zip(others, setting)),
                                           got_base, got_ext)
                    contexts = [c for c in contexts if c[0] < exo]
                    break
    return ExtensionReport(first is None, first)


@dataclass(frozen=True)
class AgreementReport:
    agrees: bool
    samples: int
    formula: fm.CausalFormula | None = None
    context: dict[str, int] | None = None
    value_base: bool | None = None
    value_extension: bool | None = None


def random_causal_formula(rng: random.Random, model: CausalModel, depth: int = 3):
    """A random causal formula over the model's endogenous variables: one
    or two atoms, each a combination of events nested at most `depth` deep
    under a prefix of at most 3 distinct settings or none, negated or
    joined by a connective.  It calls `rng`'s `random`, `randrange`,
    `choice` and `sample` in a fixed order, so a seed names the same
    formulas from one version to the next; the tests' `STREAM_DIGESTS`
    pins them."""
    rt = model._runtime()
    names, ranges = rt.endo_names, rt.endo_ranges

    def events(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            i = rng.randrange(len(names))
            return fm.PrimitiveEvent(names[i], rng.choice(ranges[i]))
        if roll < 0.6:
            return fm.Not(events(depth - 1))
        return (fm.And if roll < 0.8 else fm.Or)(events(depth - 1), events(depth - 1))

    def atom():
        body = events(depth)
        k = rng.randrange(min(3, len(names)) + 1)
        if k == 0:
            return body
        chosen = sorted(rng.sample(range(len(names)), k))
        return fm.Held(tuple([(names[i], rng.choice(ranges[i])) for i in chosen]), body)

    roll = rng.random()
    if roll < 0.6:
        return atom()
    if roll < 0.75:
        return fm.Not(atom())
    return (fm.And if roll < 0.9 else fm.Or)(atom(), atom())


def check_formula_agreement(
    extension: CausalModel,
    base: CausalModel,
    samples: int = 200,
    seed: int = 0,
) -> AgreementReport:
    """Whether the two models satisfy the same formulas over the base
    variables, in every context, as a conservative extension does (the
    lemma): decided by the plain check where it accepts, else by a
    randomized spot check.

    The formulas are those `random_causal_formula` draws from the seed, a
    nonnegative int.  Each event of one reads a base variable in the world
    of its prefix, a setting of at most 3 base variables or none, so the
    formula has one truth value in both models wherever the two worlds of
    each of its prefixes agree on the base variables.  Once
    `is_conservative_extension` accepts, no such worlds differ (proof in
    `is_conservative_extension_extended`), so every formula would agree,
    and the same report is returned with nothing drawn.  A pair refused
    only under 4 or more set base variables is drawn and agrees.

    Each drawn formula is decided in both models by `formula._verdicts`,
    context by context in order, and the first context where the two
    verdicts differ is reported.  One mapping of rows per model serves
    every draw, so each distinct prefix is solved once per model, in every
    context.  A drawn formula is never validated: it uses the base's own
    names and ranges, which the extension shares, its `Held` settings are
    distinct, and nothing nests, so `validate_formula` cannot fail on it.
    """
    _check_count(samples, 1, "the sample count must be a positive integer, not {}")
    _check_count(seed, 0, "the seed must be a nonnegative integer, not {}")
    if is_conservative_extension(extension, base).is_conservative:
        return AgreementReport(True, samples)
    rng = random.Random(seed)
    base_exos, ext_exos = zip(*_context_pairs(extension, base))
    base_rows, ext_rows = {}, {}  # set of settings -> each model's worlds
    for _ in range(samples):
        candidate = random_causal_formula(rng, base)
        in_base = fm._verdicts(base, candidate, base_exos, base_rows)
        in_ext = fm._verdicts(extension, candidate, ext_exos, ext_rows)
        for exo, value_base, value_ext in zip(base_exos, in_base, in_ext):
            if value_base != value_ext:
                context = dict(zip(base.exogenous_names, exo))
                return AgreementReport(False, samples, candidate, context, value_base, value_ext)
    return AgreementReport(True, samples)


def is_conservative_extension_extended(
    extension: ExtendedCausalModel, base: ExtendedCausalModel
) -> ExtensionReport:
    """The plain check plus agreement of the two normality thresholds.

    In every context, each order, whichever context it was built for,
    compares the world of every setting of base variables in its own model
    with the actual world; the two must agree.  The first failing setting,
    by size, then combination, then values, is reported.

    Once the plain check has passed, the base world is the extension's
    world restricted to the base.  For a base variable X the setting leaves
    unset, that world is also the extension's under the total setting of
    the other base variables at their values there, since X and the new
    variables obey their equations in it; there the plain check (which
    covers every total setting, by its docstring) found X to take the same
    value in the base.  So the restriction satisfies every base equation
    the setting leaves in place, and a recursive model has one such world.

    Only total settings s are solved, one extension run each that forces
    them and records every equation's value (`model._equation_values`):
    the world of s, and D(s), the base variables whose equation disagrees
    with s there.  Z = z gives the world of s exactly when z is s on Z and
    Z contains D(s), since the base variables outside Z obey their
    equations; so every setting's world is a total setting's, first given
    by D(s) at s's values.  Both comparisons, base first, depend on the
    world alone, so comparing each world once, sorted by (|D(s)|, D(s), s
    on D(s)), finds the first failing setting, and the first error an
    order raises, that comparing every setting finds.  The first world is
    the actual one, the only one with no deviation.
    """
    _require_models(ExtendedCausalModel, extension, base)
    report = is_conservative_extension(extension.base, base.base)
    if not report.is_conservative:
        return report
    b, e = base.base, extension.base
    b_rt, e_rt = b._runtime(), e._runtime()
    names = b_rt.endo_names
    to_ext = [e_rt.endo_index[n] for n in names]
    ranges = [b.range_of(n) if n in b_rt.endo_index else (None,) for n in e_rt.endo_names]

    def worlds(solved):
        """The base world and the extension's world of an extension solve."""
        return World(names, tuple([solved[j] for j in to_ext])), World(e_rt.endo_names, solved)

    for exo, exo_ext in _context_pairs(e, b):
        met = []  # (sort key, world) of each total setting
        for values in itertools.product(*ranges):
            solved, raw = _equation_values(e_rt, exo_ext, values)
            dev = tuple([k for k, j in enumerate(to_ext) if raw[j] != values[j]])
            met.append(((len(dev), dev, tuple([values[to_ext[k]] for k in dev])), solved))
        met.sort()
        u_base, u_ext = worlds(met[0][1])
        for (_, dev, vals), solved in met:
            s_b, s_e = worlds(solved)
            normal_b = base.order.at_least_as_normal(s_b, u_base)
            normal_e = extension.order.at_least_as_normal(s_e, u_ext)
            if normal_b != normal_e:
                setting = {names[k]: v for k, v in zip(dev, vals)}
                ce = CECounterexample(dict(zip(b_rt.exo_names, exo)), setting, normal_b, normal_e)
                return ExtensionReport(False, None, ce)
    return ExtensionReport(True)


# ---------------------------------------------------------------------------
# Deviations from the equations and normality built from them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationRecord:
    world: World
    variable: str
    expected: int
    actual: int


@dataclass(frozen=True)
class RespectReport:
    respects: bool
    violating_world: World | None = None


def _deviations(rt, exo, values, idxs) -> list[tuple[int, int]]:
    """(index, equation value) for each variable of `idxs` whose equation,
    with every variable held at `values`, yields another value: one solver
    run with every variable forced (`model._equation_values`)."""
    raw = _equation_values(rt, exo, values)[1]
    return [(i, raw[i]) for i in idxs if raw[i] != values[i]]


def _respect_inputs(model: CausalModel, context: Mapping[str, int], variables: Iterable[str]):
    """The runtime, the context's values and the indices of the named
    endogenous variables of a respect check, checked in that order.  A bare
    string is refused rather than read as its characters."""
    rt = model._runtime()
    exo = context_values(model, context)
    if isinstance(variables, str):
        raise EngineError(f"variables must be a collection of names, not {variables!r}")
    idxs = tuple(_setting_index(rt, v, None, "not an endogenous variable") for v in variables)
    return rt, exo, idxs


def deviating_variables(
    model: CausalModel, context: Mapping[str, int], world
) -> list[DeviationRecord]:
    """Variables whose value in the world differs from what their equation
    yields when everything else is pinned to the world's values.  The world,
    a `World` of the model or a mapping, is checked as a context is."""
    _require_models(CausalModel, model)
    rt = model._runtime()
    exo = context_values(model, context)
    if isinstance(world, World):
        world = dict(zip(rt.endo_names, _own_values(rt, world)))
    for name, value in world.items():
        _setting_index(rt, name, value, "not an endogenous variable")
    for name in rt.endo_names:
        if name not in world:
            raise UnknownVariable(name, "world does not assign it")
    values = tuple([world[n] for n in rt.endo_names])
    as_world = World(rt.endo_names, values)
    return [
        DeviationRecord(as_world, rt.endo_names[i], raw, values[i])
        for i, raw in _deviations(rt, exo, values, range(len(values)))
    ]


def respects_equations(
    model: ExtendedCausalModel,
    context: Mapping[str, int],
    variables: Iterable[str],
) -> RespectReport:
    """True when every world that deviates on one of the variables is not
    at least as normal as the actual world.  With no variables nothing can
    deviate, and no world is enumerated."""
    _require_models(ExtendedCausalModel, model)
    base, order = model.base, model.order
    rt, exo, idxs = _respect_inputs(base, context, variables)
    if not idxs:
        return RespectReport(True)
    s_u = World(rt.endo_names, solve_values(base, exo))
    for s in base.worlds():
        if _deviations(rt, exo, s.values, idxs) and order.at_least_as_normal(s, s_u):
            return RespectReport(False, s)
    return RespectReport(True)


def normality_from_respect(
    model: CausalModel, context: Mapping[str, int], variables: Iterable[str]
) -> NormalityOrder:
    """Rank order that makes deviation on the given variables abnormal.

    Worlds where every listed variable obeys its equation rank 0; any world
    with a deviation ranks 1.  With no variables this is total equivalence,
    and ranking a world runs no solver.
    """
    _require_models(CausalModel, model)
    rt, exo, idxs = _respect_inputs(model, context, variables)

    def rank(world: World) -> int:
        values = _own_values(rt, world)
        return 1 if idxs and _deviations(rt, exo, values, idxs) else 0

    return NormalityOrder.from_ranks(rank)


# ---------------------------------------------------------------------------
# Witness killing
# ---------------------------------------------------------------------------

def _kill_target(cause: Mapping[str, int], effect) -> tuple[tuple[str, int], tuple[str, int]]:
    """The cause conjunct and the effect of a witness kill, checked before
    any solve: one conjunct, and a `PrimitiveEvent` or a (variable, value)
    pair."""
    if len(cause) != 1:
        raise EngineError("witness killing works on single-conjunct causes")
    if isinstance(effect, fm.PrimitiveEvent):
        effect = effect.var, effect.value
    elif not (isinstance(effect, tuple) and len(effect) == 2):
        raise EngineError(
            f"an effect is a PrimitiveEvent or a (variable, value) pair, not {effect!r}"
        )
    (x,) = cause.items()
    return x, effect


def _fresh_witness_var(model: CausalModel) -> str:
    taken = {n for n, _ in model.signature.exogenous + model.signature.endogenous}
    k = 1
    while f"NW{k}" in taken:
        k += 1
    return f"NW{k}"


def kill_witness(
    model: CausalModel,
    context: Mapping[str, int],
    cause: Mapping[str, int],
    effect,
    witness: Witness,
) -> CausalModel:
    """Add one watchdog variable that invalidates a specific witness.

    The new variable is 1 exactly when the cause variable sits at its actual
    value and the contingency set sits at the witness values.  The effect
    variable keeps its old equation except in two assignments, where forcing
    the watchdog off (respectively on) pins the effect away from
    (respectively at) its actual value.  The result is a conservative
    extension in which the given witness, and every witness extending it,
    is dead under the original-variant rules.
    """
    _require_models(CausalModel, model)
    (x_name, x_val), (y_name, y_val) = _kill_target(cause, effect)
    if x_name == y_name:
        raise NotAWitness("cause and effect must be distinct variables")
    phi = fm.PrimitiveEvent(y_name, y_val)

    query, w_idx = _witness_query(model, context, cause, phi, witness, RuleVariant.ORIGINAL)
    if witness.values == tuple([query.actual[i] for i in w_idx]):
        raise WitnessEqualsActual(
            "the contingency values equal the actual values; nothing to kill"
        )
    if not _certifies(query, w_idx, witness):
        raise NotAWitness("the tuple does not certify the cause under the original rules")
    rt, exo = query.rt, query.exo

    nw = _fresh_witness_var(model)
    x_alt = witness.alt[0]
    w_map = dict(zip(witness.vars, witness.values))
    z_names = [
        n for n in rt.endo_names if n not in w_map and n not in (x_name, y_name)
    ]

    def forced_values(x_value: int) -> dict[str, int]:
        solved = solve_values(model, exo, query.witness_iv(w_idx, witness.values, (x_value,)))
        return {n: solved[rt.endo_index[n]] for n in z_names}

    z_at_x = forced_values(x_val)
    z_at_alt = forced_values(x_alt)
    y_range = rt.endo_ranges[rt.endo_index[y_name]]
    y_off = min(v for v in y_range if v != y_val)

    def eq(name: str, value: int) -> Expression:
        return Cmp("=", Var(name), Const(value))

    trigger = conj([eq(x_name, x_val)] + [eq(n, v) for n, v in w_map.items()])
    nw_equation = Case(arms=((trigger, Const(1)),), default=Const(0))

    cond_off = conj(
        [eq(x_name, x_val)]
        + [eq(n, v) for n, v in w_map.items()]
        + [eq(n, z_at_x[n]) for n in z_names]
        + [eq(nw, 0)]
    )
    cond_on = conj(
        [eq(x_name, x_alt)]
        + [eq(n, v) for n, v in w_map.items()]
        + [eq(n, z_at_alt[n]) for n in z_names]
        + [eq(nw, 1)]
    )
    y_equation = Case(
        arms=((cond_off, Const(y_off)), (cond_on, Const(y_val))),
        default=model.equation_of(y_name),
    )

    exogenous = dict(model.signature.exogenous)
    endogenous = dict(model.signature.endogenous)
    endogenous[nw] = (0, 1)
    equations = dict(model.equations)
    equations[y_name] = y_equation
    equations[nw] = nw_equation
    meta = dict(model.meta)
    history = list(meta.get("witness_kills", ()))
    history.append(
        {
            "variable": nw,
            "context": dict(context),
            "cause": {x_name: x_val},
            "effect": {y_name: y_val},
            "witness": {
                "vars": list(witness.vars),
                "values": list(witness.values),
                "alt": list(witness.alt),
            },
        }
    )
    meta["witness_kills"] = history
    return make_model(exogenous, endogenous, equations, meta)


def kill_all_witnesses(
    model: CausalModel,
    context: Mapping[str, int],
    cause: Mapping[str, int],
    effect,
    budget: SearchBudget | None = None,
    max_rounds: int = 64,
) -> CausalModel:
    """Iterate the watchdog construction until the cause dies.

    Requires a cause under the original rules that is not one under the
    updated rules.  Each round kills the canonically first surviving witness;
    the cause must die within `max_rounds` kills, or `EngineError` is raised.
    """
    _check_count(max_rounds, 1, "the round limit must be a positive integer, not {}")
    _require_models(CausalModel, model)
    _, (y_name, y_val) = _kill_target(cause, effect)
    phi = fm.PrimitiveEvent(y_name, y_val)
    budget = budget if budget is not None else SearchBudget()
    under_original = is_actual_cause(
        model, context, cause, phi, RuleVariant.ORIGINAL, budget, find_all_witnesses=False
    )
    if not under_original.is_cause:
        raise PreconditionViolated("not a cause under the original rules")
    under_updated = is_actual_cause(
        model, context, cause, phi, RuleVariant.UPDATED, budget, find_all_witnesses=False
    )
    if under_updated.is_cause:
        raise PreconditionViolated("still a cause under the updated rules")

    # the precondition's verdict opens round one
    current, verdict = model, under_original
    for _ in range(max_rounds):
        current = kill_witness(current, context, cause, effect, verdict.witnesses[0])
        verdict = is_actual_cause(
            current, context, cause, phi, RuleVariant.ORIGINAL, budget, find_all_witnesses=False
        )
        if not verdict.is_cause:
            return current
    raise EngineError(f"witness killing did not converge in {max_rounds} rounds")


# ---------------------------------------------------------------------------
# The alternating stability family
# ---------------------------------------------------------------------------

def build_stability_model(n: int) -> tuple[CausalModel, dict[str, dict[str, int]]]:
    """Member `n` of the chain where adding one variable at a time keeps the
    extension conservative while the key causal verdict alternates.

    Model 0 carries only the two context-driven variables.  Odd members add
    a fresh trigger variable X; even members add its neutralizer Y.  The
    returned contexts are `u0` and `u1`.
    """
    _check_count(n, 0, "the family is indexed by nonnegative integers")
    num_x = (n + 1) // 2
    num_y = n // 2

    exogenous = {"U": (0, 1)}
    endogenous: dict[str, tuple[int, int]] = {"A": (0, 1), "B": (0, 1)}
    equations: dict[str, Expression] = {"A": Var("U")}
    for j in range(1, num_x + 1):
        endogenous[f"X{j}"] = (0, 1)
        equations[f"X{j}"] = Var("U")
    for j in range(1, num_y + 1):
        endogenous[f"Y{j}"] = (0, 1)
        equations[f"Y{j}"] = Var(f"X{j}")

    if n == 0:
        equations["B"] = Var("U")
    else:
        def is_zero(name: str) -> Expression:
            return Cmp("=", Var(name), Const(0))

        both_zero = [
            And((is_zero(f"X{j}"), is_zero(f"Y{j}"))) for j in range(1, num_y + 1)
        ]
        off_terms = list(both_zero)
        if num_x > num_y:
            off_terms.append(is_zero(f"X{num_x}"))
        mismatch = [
            Cmp("!=", Var(f"X{j}"), Var(f"Y{j}")) for j in range(1, num_y + 1)
        ]
        spoilers = [And((is_zero("A"), disj(off_terms)))]
        if mismatch:
            spoilers.append(And((Cmp("=", Var("A"), Const(1)), disj(mismatch))))
        equations["B"] = Case(
            arms=(
                (Cmp("=", Var("U"), Const(0)), Const(0)),
                (disj(spoilers), Const(0)),
            ),
            default=Const(1),
        )

    model = make_model(exogenous, endogenous, equations, {"stability_index": n})
    return model, {"u0": {"U": 0}, "u1": {"U": 1}}
