"""Finite-domain structural causal models.

A model pairs a signature (exogenous and endogenous variables with finite
integer ranges) with one structural equation per endogenous variable.  All
values are immutable after construction; solving, intervening and
recursiveness checking are pure functions, so models can be shared freely
across threads.
"""

from __future__ import annotations

import itertools
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
    """Translate an expression into a Python source fragment.

    `names` maps variable names to lookups into the endogenous value list
    `v` or the exogenous tuple `u`.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        try:
            return names[expr.name]
        except KeyError:
            raise UnknownVariable(expr.name) from None
    if isinstance(expr, Cmp):
        lhs = _gen_code(expr.lhs, names)
        rhs = _gen_code(expr.rhs, names)
        return f"(1 if {lhs} {_PY_OPS[expr.op]} {rhs} else 0)"
    if isinstance(expr, Not):
        return f"(1 if {_gen_code(expr.operand, names)} == 0 else 0)"
    if isinstance(expr, And):
        body = " and ".join(f"{_gen_code(i, names)} != 0" for i in expr.items)
        return f"(1 if {body} else 0)"
    if isinstance(expr, Or):
        body = " or ".join(f"{_gen_code(i, names)} != 0" for i in expr.items)
        return f"(1 if {body} else 0)"
    if isinstance(expr, Sum):
        return "(" + " + ".join(_gen_code(i, names) for i in expr.items) + ")"
    if isinstance(expr, Case):
        code = _gen_code(expr.default, names)
        for cond, value in reversed(expr.arms):
            code = (
                f"({_gen_code(value, names)} if {_gen_code(cond, names)} != 0 "
                f"else {code})"
            )
        return code
    raise EngineError(f"cannot compile expression node {type(expr).__name__}")


def compile_expression(expr: Expression, names: Mapping[str, str]):
    """Compile an expression into a function of `(v, u)`, the endogenous
    value list and the exogenous tuple that `names` looks up into.
    Nesting deeper than Python can compile is an `EngineError`."""
    try:
        return eval(f"lambda v, u: {_gen_code(expr, names)}", {"__builtins__": {}})
    except (SyntaxError, RecursionError):
        raise EngineError("expression is nested too deeply to compile") from None


# ---------------------------------------------------------------------------
# Signatures, models, worlds
# ---------------------------------------------------------------------------

def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
        raise EngineError(f"invalid variable name {name!r}")


def _check_range(name: str, values: tuple[int, ...]) -> None:
    if not values:
        raise EngineError(f"range of {name!r} is empty")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
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
    """Derived, cached state for one model: indices, order, compiled code."""

    __slots__ = (
        "exo_names", "exo_index", "exo_ranges",
        "endo_names", "endo_index", "endo_ranges", "endo_range_sets",
        "order", "names", "fns",
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

        order_names = check_recursive(model)
        self.order = tuple(self.endo_index[n] for n in order_names)

        # variable name -> its lookup in the code `compile_expression` makes
        self.names = {n: f"u[{i}]" for n, i in self.exo_index.items()}
        self.names.update({n: f"v[{i}]" for n, i in self.endo_index.items()})
        eqs = dict(model.equations)
        self.fns = [compile_expression(eqs[name], self.names) for name in self.endo_names]


@dataclass(frozen=True)
class CausalModel:
    """A signature plus one structural equation per endogenous variable.

    Construction validates structure (names, ranges, equation keys and
    references); recursiveness is checked by `check_recursive`, which `solve`
    invokes and caches.
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
    Raises `CyclicModel` with a concrete cycle when no order exists.
    """
    endo_names = [n for n, _ in model.signature.endogenous]
    index = {n: i for i, n in enumerate(endo_names)}
    eqs = dict(model.equations)
    deps = {
        n: sorted(
            (v for v in eqs[n].variables() if v in index), key=index.__getitem__
        )
        for n in endo_names
    }
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
    return order


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
        if value not in rng:
            raise ValueOutOfRange(name, value)
        out.append(value)
    return tuple(out)


def solve_values(
    model: CausalModel,
    exo: tuple[int, ...],
    interventions: Mapping[int, int] | None = None,
) -> tuple[int, ...]:
    """Solve along the dependency order; the fast path for searches.

    `interventions` maps endogenous indices to forced values and leaves the
    model untouched, which keeps intervention-heavy searches cheap.
    """
    rt = model._runtime()
    fns = rt.fns
    rsets = rt.endo_range_sets
    v = [0] * len(fns)
    if interventions:
        get = interventions.get
        for i in rt.order:
            forced = get(i)
            if forced is None:
                value = fns[i](v, exo)
                if value not in rsets[i]:
                    raise ValueOutOfRange(rt.endo_names[i], value)
                v[i] = value
            else:
                v[i] = forced
    else:
        for i in rt.order:
            value = fns[i](v, exo)
            if value not in rsets[i]:
                raise ValueOutOfRange(rt.endo_names[i], value)
            v[i] = value
    return tuple(v)


def solve(model: CausalModel, context: Mapping[str, int]) -> World:
    """The unique world satisfying all equations in the given context."""
    rt = model._runtime()
    exo = context_values(model, context)
    return World(rt.endo_names, solve_values(model, exo))


def intervention_indices(
    model: CausalModel, settings: Mapping[str, int]
) -> dict[int, int]:
    """Validate an intervention and key it by endogenous index."""
    rt = model._runtime()
    out = {}
    for name, value in settings.items():
        idx = rt.endo_index.get(name)
        if idx is None:
            raise UnknownVariable(name, "not an endogenous variable")
        if value not in rt.endo_range_sets[idx]:
            raise ValueOutOfRange(name, value)
        out[idx] = value
    return out


def intervene(model: CausalModel, settings: Mapping[str, int]) -> CausalModel:
    """Replace the equations of the given variables by constants."""
    intervention_indices(model, settings)
    eqs = {
        name: (Const(settings[name]) if name in settings else expr)
        for name, expr in model.equations
    }
    return CausalModel(model.signature, tuple(eqs.items()), dict(model.meta))
