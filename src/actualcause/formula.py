"""The causal-formula language and its satisfaction relation.

Formulas are built from primitive events `X = x` over endogenous variables,
boolean connectives, and intervention prefixes: `Held(settings, body)` holds
when `body` holds after replacing the equations of the named variables by
constants.  Prefixes do not nest; their bodies are plain boolean
combinations of primitive events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import model as mx
from .errors import EngineError, MalformedPhi, UnknownVariable, ValueOutOfRange
from .model import CausalModel, context_values, solve_values

__all__ = [
    "CausalFormula",
    "PrimitiveEvent",
    "Not",
    "And",
    "Or",
    "Held",
    "events_conj",
    "formula_variables",
    "is_intervention_free",
    "validate_formula",
    "eval_formula",
    "valid_in_model",
]


class CausalFormula:
    pass


@dataclass(frozen=True)
class PrimitiveEvent(CausalFormula):
    var: str
    value: int


@dataclass(frozen=True)
class Not(CausalFormula):
    operand: CausalFormula


@dataclass(frozen=True)
class And(CausalFormula):
    left: CausalFormula
    right: CausalFormula


@dataclass(frozen=True)
class Or(CausalFormula):
    left: CausalFormula
    right: CausalFormula


@dataclass(frozen=True)
class Held(CausalFormula):
    """`[Y1 <- y1, ..., Yk <- yk] body`."""

    settings: tuple[tuple[str, int], ...]
    body: CausalFormula


def events_conj(events: Iterable[tuple[str, int]]) -> CausalFormula:
    """Conjunction of primitive events, nested to the left."""
    items = [PrimitiveEvent(v, x) for v, x in events]
    if not items:
        raise MalformedPhi("empty conjunction of events")
    out = items[0]
    for item in items[1:]:
        out = And(out, item)
    return out


def _walk(formula: CausalFormula) -> Iterator[tuple[CausalFormula, Held | None]]:
    """Every node in pre-order, left before right, with the intervention
    prefix that encloses it (None outside any).  Iterative, so chains of any
    length are walked; a node of unknown type is yielded as a leaf."""
    stack: list[tuple[CausalFormula, Held | None]] = [(formula, None)]
    while stack:
        node, prefix = stack.pop()
        yield node, prefix
        if isinstance(node, Not):
            stack.append((node.operand, prefix))
        elif isinstance(node, (And, Or)):
            stack += ((node.right, prefix), (node.left, prefix))
        elif isinstance(node, Held):
            stack.append((node.body, node))


def formula_variables(formula: CausalFormula) -> frozenset[str]:
    """Endogenous variables mentioned anywhere in the formula."""
    names = set()
    for node, _ in _walk(formula):
        if isinstance(node, PrimitiveEvent):
            names.add(node.var)
        elif isinstance(node, Held):
            names.update(n for n, _ in node.settings)
        elif not isinstance(node, (Not, And, Or)):
            raise MalformedPhi(f"unknown formula node {type(node).__name__}")
    return frozenset(names)


def is_intervention_free(formula: CausalFormula) -> bool:
    return all(
        isinstance(node, (PrimitiveEvent, Not, And, Or)) for node, _ in _walk(formula)
    )


def validate_formula(model: CausalModel, formula: CausalFormula) -> None:
    """Check variable names, ranges, and the no-nested-prefix rule."""
    rt = model._runtime()
    for node, prefix in _walk(formula):
        if isinstance(node, PrimitiveEvent):
            idx = rt.endo_index.get(node.var)
            if idx is None:
                raise UnknownVariable(node.var, "events test endogenous variables only")
            if node.value not in rt.endo_range_sets[idx]:
                raise ValueOutOfRange(node.var, node.value)
        elif isinstance(node, Held):
            if prefix is not None:
                raise MalformedPhi("intervention prefixes do not nest")
            seen = set()
            for name, value in node.settings:
                idx = rt.endo_index.get(name)
                if idx is None:
                    raise UnknownVariable(name, "interventions target endogenous variables")
                if value not in rt.endo_range_sets[idx]:
                    raise ValueOutOfRange(name, value)
                if name in seen:
                    raise MalformedPhi(f"variable {name!r} intervened twice")
                seen.add(name)
        elif not isinstance(node, (Not, And, Or)):
            raise MalformedPhi(f"unknown formula node {type(node).__name__}")


def compile_event_formula(model: CausalModel, formula: CausalFormula):
    """Compile an intervention-free formula into a function of `(v, u)`
    that returns 1 when it holds in the world with value tuple `v`, else 0.

    The expression is built bottom-up: the walk reversed meets every node
    after its operands.  A chain of one connective becomes one n-ary node,
    so the code generated for a long conjunction is flat.
    """
    built: list[mx.Expression] = []
    for node, _ in reversed(list(_walk(formula))):
        if isinstance(node, PrimitiveEvent):
            built.append(mx.Cmp("=", mx.Var(node.var), mx.Const(node.value)))
        elif isinstance(node, Not):
            built.append(mx.Not(built.pop()))
        elif isinstance(node, (And, Or)):
            kind = mx.And if isinstance(node, And) else mx.Or
            items: tuple[mx.Expression, ...] = ()
            for part in (built.pop(), built.pop()):  # the left operand, then the right
                items += part.items if type(part) is kind else (part,)
            built.append(kind(items))
        else:
            raise MalformedPhi("the effect formula must not contain interventions")
    return mx.compile_expression(built.pop(), model._runtime().names)


def _eval_checked(
    model: CausalModel, exo: tuple[int, ...], formula: CausalFormula
) -> bool:
    rt = model._runtime()
    worlds: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}

    def world_under(settings: tuple[tuple[str, int], ...]) -> tuple[int, ...]:
        iv = tuple(sorted((rt.endo_index[n], x) for n, x in settings))
        found = worlds.get(iv)
        if found is None:
            found = solve_values(model, exo, dict(iv) if iv else None)
            worlds[iv] = found
        return found

    def ev(f: CausalFormula, settings: tuple[tuple[str, int], ...]) -> bool:
        if isinstance(f, PrimitiveEvent):
            return world_under(settings)[rt.endo_index[f.var]] == f.value
        if isinstance(f, Not):
            return not ev(f.operand, settings)
        if isinstance(f, And):
            return ev(f.left, settings) and ev(f.right, settings)
        if isinstance(f, Or):
            return ev(f.left, settings) or ev(f.right, settings)
        if isinstance(f, Held):
            return ev(f.body, f.settings)
        raise MalformedPhi(f"unknown formula node {type(f).__name__}")

    try:
        return ev(formula, ())
    except RecursionError:
        raise EngineError("formula is nested too deeply to evaluate") from None


def eval_formula(
    model: CausalModel, context: Mapping[str, int], formula: CausalFormula
) -> bool:
    """Decide whether the formula holds in the model under the context."""
    validate_formula(model, formula)
    exo = context_values(model, context)
    return _eval_checked(model, exo, formula)


def valid_in_model(model: CausalModel, formula: CausalFormula) -> bool:
    """True when the formula holds in every context of the model."""
    validate_formula(model, formula)
    rt = model._runtime()
    return all(
        _eval_checked(model, exo, formula)
        for exo in itertools.product(*rt.exo_ranges)
    )
