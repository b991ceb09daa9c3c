"""Finite-domain structural causal models.

A model pairs a signature (exogenous and endogenous variables with finite
integer ranges) with one structural equation per endogenous variable.  All
values are immutable after construction; solving, intervening and
recursiveness checking are pure functions, so models can be shared freely
across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    CyclicModel,
    DuplicateDefinition,
    EngineError,
    UnknownVariable,
    ValueOutOfRange,
)

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Cmp",
    "Not",
    "And",
    "Or",
    "Sum",
    "Case",
    "conj",
    "disj",
    "Signature",
    "CausalModel",
    "World",
    "make_model",
    "check_recursive",
    "solve",
    "intervene",
]

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
_PY_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# ---------------------------------------------------------------------------
# Equation expressions
# ---------------------------------------------------------------------------

class Expression:
    """Right-hand side of a structural equation.

    Boolean operators treat 0 as false and any other value as true, and
    always produce 0 or 1.  Comparisons produce 0 or 1.  `Sum` is plain
    integer addition, which together with comparisons covers vote counting
    and majority rules without a full arithmetic language.
    """

    def variables(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expression):
    value: int

    def variables(self):
        return frozenset()


@dataclass(frozen=True)
class Var(Expression):
    name: str

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Cmp(Expression):
    op: str
    lhs: Expression
    rhs: Expression

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise EngineError(f"unknown comparison operator {self.op!r}")

    def variables(self):
        return self.lhs.variables() | self.rhs.variables()


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def variables(self):
        return self.operand.variables()


class _NaryMixin:
    def __post_init__(self):
        if not self.items:
            raise EngineError(f"{type(self).__name__} needs at least one operand")

    def variables(self):
        return frozenset().union(*(i.variables() for i in self.items))


@dataclass(frozen=True)
class And(_NaryMixin, Expression):
    items: tuple[Expression, ...]


@dataclass(frozen=True)
class Or(_NaryMixin, Expression):
    items: tuple[Expression, ...]


@dataclass(frozen=True)
class Sum(_NaryMixin, Expression):
    items: tuple[Expression, ...]


@dataclass(frozen=True)
class Case(Expression):
    """First-match-wins guarded choice; the default arm makes it total."""

    arms: tuple[tuple[Expression, Expression], ...]
    default: Expression

    def variables(self):
        out = self.default.variables()
        for cond, value in self.arms:
            out = out | cond.variables() | value.variables()
        return out


def conj(items: Iterable[Expression]) -> Expression:
    """n-ary conjunction, collapsing the one-element case."""
    items = tuple(items)
    if not items:
        return Const(1)
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items: Iterable[Expression]) -> Expression:
    items = tuple(items)
    if not items:
        return Const(0)
    if len(items) == 1:
        return items[0]
    return Or(items)


def _gen_code(expr: Expression, names: Mapping[str, str]) -> str:
    """Translate an expression into a Python source fragment for its value.

    `names` maps variable names to the source that reads their values:
    lookups into the value list `v` and the exogenous tuple `u`, or the
    locals of a generated solver.  Comparisons and connectives yield 0/1.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        try:
            return names[expr.name]
        except KeyError:
            raise UnknownVariable(expr.name) from None
    if isinstance(expr, (Cmp, Not, And, Or)):
        return f"(1 if {_gen_test(expr, names)} else 0)"
    if isinstance(expr, Sum):
        return "(" + " + ".join(_gen_code(i, names) for i in expr.items) + ")"
    if isinstance(expr, Case):
        code = _gen_code(expr.default, names)
        for cond, value in reversed(expr.arms):
            code = f"({_gen_code(value, names)} if {_gen_test(cond, names)} else {code})"
        return code
    raise EngineError(f"cannot compile expression node {type(expr).__name__}")


def _gen_test(expr: Expression, names: Mapping[str, str]) -> str:
    """Translate an expression into a Python test that is true when its
    value is nonzero: comparisons and connectives stay bare tests, any
    other value is compared with 0."""
    if isinstance(expr, Cmp):
        lhs = _gen_code(expr.lhs, names)
        rhs = _gen_code(expr.rhs, names)
        return f"({lhs} {_PY_OPS[expr.op]} {rhs})"
    if isinstance(expr, Not):
        return f"(not {_gen_test(expr.operand, names)})"
    if isinstance(expr, (And, Or)):
        joiner = " and " if isinstance(expr, And) else " or "
        return "(" + joiner.join(_gen_test(i, names) for i in expr.items) + ")"
    return f"({_gen_code(expr, names)} != 0)"


def compile_expression(expr: Expression, names: Mapping[str, str]):
    """Compile an expression into a function of `(v, u)`, the endogenous
    value list and the exogenous tuple that `names` looks up into.
    Nesting deeper than Python can compile is an `EngineError`."""
    try:
        return eval(f"lambda v, u: {_gen_code(expr, names)}", {"__builtins__": {}})
    except (SyntaxError, RecursionError):
        raise EngineError("expression is nested too deeply to compile") from None


def _compile_solver(rt: "_Runtime", exprs: tuple[Expression, ...]):
    """Compile a model's equations, `exprs` in declaration order, into one
    function `solve(u, get)`, using the indices of its runtime.

    The function is straight-line code in dependency order, with one local
    per endogenous variable.  Variable `i` takes `get(i, value)`: its forced
    value if it has one, else the value of its equation.  The equation is
    evaluated either way; integer arithmetic and comparisons cannot raise,
    so for a forced variable that only costs its evaluation, and one shape
    of code per variable keeps the function short to compile; the totality
    check, the deviation checks and the extended conservativity check
    (`transforms.is_conservative_extension_extended`) read each equation's
    value that way (`_equation_values`).  The function returns the values
    in declaration order.  It tests no range: the runtime refuses a model
    with an equation that can leave its range (`_check_totality`), and the
    callers check every exogenous and forced value at the edge
    (`context_values`, `_setting_index`, `_own_values`).
    """
    names = {n: f"u[{i}]" for n, i in rt.exo_index.items()}
    names.update({n: f"x{i}" for n, i in rt.endo_index.items()})
    scope = {"__builtins__": {}}
    try:
        lines = ["def solve(u, get):"]
        for i in rt.order:
            code = _gen_code(exprs[i], names)
            if code.startswith("("):  # drop the outer pair, which `get(` replaces,
                code = code[1:-1]  # so code nests no deeper than in a lambda
            lines.append(f" x{i} = get({i}, {code})")
        lines.append(" return (" + "".join(f"x{i}, " for i in range(len(exprs))) + ")")
        exec("\n".join(lines), scope)
    except (SyntaxError, RecursionError):
        raise EngineError("expression is nested too deeply to compile") from None
    return scope["solve"]


def _equation_values(rt: "_Runtime", exo: tuple[int, ...], values) -> tuple[tuple[int, ...], list]:
    """One run of the model's solver (see `_compile_solver`) with each
    endogenous variable held at its entry of `values`, in declaration
    order, or following its equation where the entry is None: the world
    it gives, and the value of every equation in that world."""
    raw = list(values)

    def get(i, value):
        raw[i] = value
        held = values[i]
        return value if held is None else held

    return rt.solve(exo, get), raw


# The most parent assignments the totality check enumerates for one equation.
_ENUMERATION_CAP = 2 ** 16


def _value_set(expr: Expression, ranges: Mapping[str, frozenset]) -> set | frozenset | None:
    """A set holding every value `expr` can take when each variable it reads
    holds a value of its range (`ranges`); None where the set would grow
    past `_ENUMERATION_CAP` values.

    A constant gives itself; a comparison or connective gives 0 and 1; a
    variable gives its range; a case gives the union of its arms and its
    default, whatever its guards read; a sum gives the set sum of its items.
    """
    if isinstance(expr, Const):
        return {expr.value}
    if isinstance(expr, (Cmp, Not, And, Or)):
        return {0, 1}
    if isinstance(expr, Var):
        return ranges[expr.name]
    if isinstance(expr, Case):
        parts = [_value_set(value, ranges) for _, value in expr.arms]
        parts.append(_value_set(expr.default, ranges))
        return None if None in parts else set().union(*parts)
    out = {0}
    for item in expr.items:  # a `Sum`
        values = _value_set(item, ranges)
        if values is None or len(out) * len(values) > _ENUMERATION_CAP:
            return None
        out = {a + b for a in out for b in values}
    return out


def _check_totality(rt: "_Runtime") -> None:
    """Refuse a model with an equation that can leave its variable's range.

    An equation passes when `_value_set` proves its values inside the range.
    Otherwise it is evaluated by the solver (`_equation_values`) at every
    assignment of its parents, the variables it reads in declaration order
    with the exogenous ones first, in lexicographic order.  The first
    equation in declaration order that leaves its range, at its first such
    assignment, raises `ValueOutOfRange` with the variable, the value and
    the assignment.  An unproven equation with more than `_ENUMERATION_CAP`
    parent assignments is refused with an `EngineError` that names it.
    By induction along the dependency order, no solve of a model that
    passes leaves a range when its exogenous and forced values lie in
    theirs.
    """
    declared = dict(zip(rt.exo_names, rt.exo_ranges))
    declared.update(zip(rt.endo_names, rt.endo_ranges))
    ranges = {n: frozenset(r) for n, r in declared.items()}
    first = {n: r[0] for n, r in declared.items()}
    for i, expr in enumerate(rt.exprs):
        name, allowed = rt.endo_names[i], rt.endo_range_sets[i]
        values = _value_set(expr, ranges)
        if values is not None and values <= allowed:
            continue
        reads = expr.variables()
        parents = [n for n in declared if n in reads]
        if math.prod(len(declared[n]) for n in parents) > _ENUMERATION_CAP:
            raise EngineError(
                f"cannot show that the equation of {name!r} stays in its range: "
                f"its parents have more than {_ENUMERATION_CAP} assignments"
            )
        for assignment in itertools.product(*[declared[n] for n in parents]):
            point = {**first, **dict(zip(parents, assignment))}
            exo = tuple([point[n] for n in rt.exo_names])
            value = _equation_values(rt, exo, tuple([point[n] for n in rt.endo_names]))[1][i]
            if value not in allowed:
                raise ValueOutOfRange(name, value, dict(zip(parents, assignment)))


# ---------------------------------------------------------------------------
# Signatures, models, worlds
# ---------------------------------------------------------------------------

def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
        raise EngineError(f"invalid variable name {name!r}")


def _check_range(name: str, values: tuple[int, ...]) -> None:
    if not values:
        raise EngineError(f"range of {name!r} is empty")
    if any(type(v) is not int for v in values):  # a bool or a float is no value
        raise EngineError(f"range of {name!r} must contain integers")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise EngineError(f"range of {name!r} must be strictly increasing")


@dataclass(frozen=True)
class Signature:
    """Ordered exogenous and endogenous declarations with their ranges."""

    exogenous: tuple[tuple[str, tuple[int, ...]], ...]
    endogenous: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for name, values in self.exogenous + self.endogenous:
            _check_name(name)
            _check_range(name, values)
            if name in seen:
                raise DuplicateDefinition(name)
            seen.add(name)
        if not self.endogenous:
            raise EngineError("a model needs at least one endogenous variable")


@dataclass(frozen=True)
class World:
    """Total assignment of values to the endogenous variables of a model."""

    names: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise EngineError("world names and values differ in length")

    def __getitem__(self, name: str) -> int:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise UnknownVariable(name) from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.names, self.values))

    def __str__(self):
        return ", ".join(f"{n}={v}" for n, v in zip(self.names, self.values))


class _Runtime:
    """Derived, cached state for one model: indices, order, and the model's
    one generated solver, `solve` (see `_compile_solver`).  Building it
    refuses a cyclic model and one whose equations are not total
    (`_check_totality`).  The closures,
    and the classes of interchangeable variables that the cause search
    keeps in `_classes` (`causality._interchangeable`), are built on first
    use; `buckets`, the candidates for those classes, with the runtime."""

    __slots__ = (
        "exo_names", "exo_index", "exo_ranges",
        "endo_names", "endo_index", "endo_ranges", "endo_range_sets",
        "order", "solve", "deps", "exo_deps", "exprs", "buckets", "_closures", "_classes",
    )

    def __init__(self, model: "CausalModel"):
        sig = model.signature
        self.exo_names = tuple(n for n, _ in sig.exogenous)
        self.exo_ranges = tuple(r for _, r in sig.exogenous)
        self.exo_index = {n: i for i, n in enumerate(self.exo_names)}
        self.endo_names = tuple(n for n, _ in sig.endogenous)
        self.endo_ranges = tuple(r for _, r in sig.endogenous)
        self.endo_range_sets = tuple(frozenset(r) for r in self.endo_ranges)
        self.endo_index = {n: i for i, n in enumerate(self.endo_names)}

        # variable name -> the endogenous variables its equation mentions,
        # the variables whose equations mention it, and the exogenous
        # variables its equation mentions
        order_names, self.deps, readers, self.exo_deps = _dependency_order(model)
        self.order = tuple(self.endo_index[n] for n in order_names)

        # the variables that share their range, their readers and their
        # endogenous parents, in groups of two or more, each in declaration
        # order: the only ones the cause search may swap
        groups: dict[tuple, list[int]] = {}
        for i, n in enumerate(self.endo_names):
            key = self.endo_ranges[i], tuple(readers[n]), tuple(self.deps[n])
            groups.setdefault(key, []).append(i)
        self.buckets = tuple(tuple(g) for g in groups.values() if len(g) > 1)

        self.exprs = tuple(expr for _, expr in model.equations)
        self.solve = _compile_solver(self, self.exprs)
        _check_totality(self)
        self._closures: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._classes = None

    def closures(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Ancestor and descendant closures as bitmasks over endogenous
        indices, each variable counted in its own closures.  Built on first
        use: only the cause search reads them."""
        if self._closures is None:
            parents = [[self.endo_index[d] for d in self.deps[n]] for n in self.endo_names]
            anc = [1 << i for i in range(len(parents))]
            desc = list(anc)
            for i in self.order:
                for p in parents[i]:
                    anc[i] |= anc[p]
            for i in reversed(self.order):
                for p in parents[i]:
                    desc[p] |= desc[i]
            self._closures = (tuple(anc), tuple(desc))
        return self._closures


@dataclass(frozen=True)
class CausalModel:
    """A signature plus one structural equation per endogenous variable.

    Construction validates structure (names, ranges, equation keys and
    references).  Recursiveness and the totality of the equations are
    checked, and the equations compiled, when the cached runtime is first
    built: by `check_recursive`, `solve` or any query.
    """

    signature: Signature
    equations: tuple[tuple[str, Expression], ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        sig = self.signature
        endo = {n for n, _ in sig.endogenous}
        exo = {n for n, _ in sig.exogenous}
        eq_names = [n for n, _ in self.equations]
        if len(set(eq_names)) != len(eq_names):
            raise DuplicateDefinition(next(n for n in eq_names if eq_names.count(n) > 1))
        missing = endo - set(eq_names)
        if missing:
            raise EngineError(f"missing equation for {sorted(missing)!r}")
        extra = set(eq_names) - endo
        if extra:
            raise UnknownVariable(sorted(extra)[0], "equation for a non-endogenous variable")
        for name, expr in self.equations:
            for ref in expr.variables():
                if ref not in endo and ref not in exo:
                    raise UnknownVariable(ref, f"referenced by the equation of {name}")
        # normalize equation order to the declaration order of the signature
        eqs = dict(self.equations)
        object.__setattr__(
            self, "equations", tuple((n, eqs[n]) for n, _ in sig.endogenous)
        )

    # -- cached runtime ----------------------------------------------------

    def _runtime(self) -> _Runtime:
        rt = self.__dict__.get("_rt")
        if rt is None:
            rt = _Runtime(self)
            object.__setattr__(self, "_rt", rt)
        return rt

    # -- convenience views ---------------------------------------------------

    @property
    def exogenous_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.signature.exogenous)

    @property
    def endogenous_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.signature.endogenous)

    def range_of(self, name: str) -> tuple[int, ...]:
        for n, r in self.signature.exogenous + self.signature.endogenous:
            if n == name:
                return r
        raise UnknownVariable(name)

    def equation_of(self, name: str) -> Expression:
        for n, e in self.equations:
            if n == name:
                return e
        raise UnknownVariable(name, "no equation")

    def contexts(self) -> Iterable[dict[str, int]]:
        """All contexts, in lexicographic range order."""
        rt = self._runtime()
        for combo in itertools.product(*rt.exo_ranges):
            yield dict(zip(rt.exo_names, combo))

    def worlds(self) -> Iterable[World]:
        """All worlds, in lexicographic range order."""
        rt = self._runtime()
        for combo in itertools.product(*rt.endo_ranges):
            yield World(rt.endo_names, combo)


def make_model(
    exogenous: Mapping[str, Iterable[int]],
    endogenous: Mapping[str, Iterable[int]],
    equations: Mapping[str, Expression],
    meta: dict | None = None,
) -> CausalModel:
    """Build a model from ordered mappings; the friendliest constructor."""
    sig = Signature(
        exogenous=tuple((n, tuple(r)) for n, r in exogenous.items()),
        endogenous=tuple((n, tuple(r)) for n, r in endogenous.items()),
    )
    return CausalModel(sig, tuple(equations.items()), meta or {})


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def check_recursive(model: CausalModel) -> list[str]:
    """Return a dependency order of the endogenous variables.

    X comes before Y whenever Y's equation mentions X, counting mentions
    inside unreachable case branches (dependency is syntactic).  Ties are
    broken by declaration order, so solve traces are reproducible.
    Raises `CyclicModel` with a concrete cycle when no order exists.  It is
    the cached runtime's order: building the runtime compiles the equations,
    and raises `ValueOutOfRange` for an equation that can leave its range.
    """
    rt = model._runtime()
    return [rt.endo_names[i] for i in rt.order]


def _dependency_order(
    model: CausalModel,
) -> tuple[list[str], dict[str, list[str]], dict[str, list[str]],
           dict[str, frozenset[str]]]:
    """`check_recursive`'s order, the endogenous variables each equation
    mentions and the variables whose equations mention each one, in
    declaration order, and the set of exogenous variables each equation
    mentions."""
    endo_names = [n for n, _ in model.signature.endogenous]
    index = {n: i for i, n in enumerate(endo_names)}
    deps, exo_deps = {}, {}
    for n, expr in model.equations:
        reads = expr.variables()
        deps[n] = sorted(reads.intersection(index), key=index.__getitem__)
        exo_deps[n] = reads.difference(index)
    indegree = {n: len(deps[n]) for n in endo_names}
    dependents: dict[str, list[str]] = {n: [] for n in endo_names}
    for n, ds in deps.items():
        for d in ds:
            dependents[d].append(n)

    ready = sorted((n for n in endo_names if indegree[n] == 0), key=index.__getitem__)
    order: list[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        changed = False
        for m in dependents[n]:
            indegree[m] -= 1
            if indegree[m] == 0:
                ready.append(m)
                changed = True
        if changed:
            ready.sort(key=index.__getitem__)

    if len(order) < len(endo_names):
        remaining = {n for n in endo_names if n not in set(order)}
        start = min(remaining, key=index.__getitem__)
        trail, seen = [start], {start}
        while True:
            nxt = min(
                (d for d in deps[trail[-1]] if d in remaining),
                key=index.__getitem__,
            )
            if nxt in seen:
                cycle = trail[trail.index(nxt):]
                raise CyclicModel(sorted(cycle, key=index.__getitem__))
            trail.append(nxt)
            seen.add(nxt)
    return order, deps, dependents, exo_deps


def context_values(model: CausalModel, context: Mapping[str, int]) -> tuple[int, ...]:
    """Validate a context and flatten it to declaration order."""
    rt = model._runtime()
    for name in context:
        if name not in rt.exo_index:
            raise UnknownVariable(name, "not an exogenous variable")
    out = []
    for name, rng in zip(rt.exo_names, rt.exo_ranges):
        if name not in context:
            raise UnknownVariable(name, "context does not assign it")
        value = context[name]
        if type(value) is not int or value not in rng:
            raise ValueOutOfRange(name, value)
        out.append(value)
    return tuple(out)


def solve_values(
    model: CausalModel,
    exo: tuple[int, ...],
    interventions: Mapping[int, int] | None = None,
) -> tuple[int, ...]:
    """Solve along the dependency order; the fast path for searches.

    One call to the model's generated solver (`_compile_solver`).
    `interventions` maps endogenous indices to forced values and leaves the
    model untouched, which keeps intervention-heavy searches cheap.  `exo`
    and every forced value must lie in their ranges.
    """
    return model._runtime().solve(exo, (interventions or {}).get)


def solve_contexts(
    model: CausalModel,
    exos: Iterable[tuple[int, ...]],
    interventions: Mapping[int, int] | None = None,
) -> list:
    """`solve_values` under one intervention in each context of `exos`, in
    order, for the callers that solve many contexts at once: the solver
    and the intervention's `get` are looked up once."""
    solve, get = model._runtime().solve, (interventions or {}).get
    return [solve(exo, get) for exo in exos]


def solve(model: CausalModel, context: Mapping[str, int]) -> World:
    """The unique world satisfying all equations in the given context."""
    rt = model._runtime()
    exo = context_values(model, context)
    return World(rt.endo_names, solve_values(model, exo))


def _setting_index(rt: _Runtime, name: str, value: int | None, detail: str) -> int:
    """The index of endogenous `name`: `UnknownVariable` with `detail` if it
    has none, `ValueOutOfRange` if `value` (unless None) is not an int in its range."""
    try:
        idx = rt.endo_index[name]
    except KeyError:
        raise UnknownVariable(name, detail) from None
    if value is not None and (type(value) is not int or value not in rt.endo_range_sets[idx]):
        raise ValueOutOfRange(name, value)
    return idx


def _own_values(rt: _Runtime, world: World) -> tuple[int, ...]:
    """The values of a world of `rt`'s model, for the rank functions: a
    foreign world raises `EngineError`, and the first value outside its
    variable's range, in declaration order, `ValueOutOfRange`."""
    if world.names != rt.endo_names:
        raise EngineError("world does not belong to this model")
    for name, allowed, value in zip(rt.endo_names, rt.endo_range_sets, world.values):
        if value not in allowed:
            raise ValueOutOfRange(name, value)
    return world.values


def intervene(model: CausalModel, settings: Mapping[str, int]) -> CausalModel:
    """Replace the equations of the given variables by constants."""
    rt = model._runtime()
    for name, value in settings.items():
        _setting_index(rt, name, value, "not an endogenous variable")
    eqs = {
        name: (Const(settings[name]) if name in settings else expr)
        for name, expr in model.equations
    }
    return CausalModel(model.signature, tuple(eqs.items()), dict(model.meta))
