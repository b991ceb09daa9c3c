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

from .errors import EngineError, MalformedPhi
from .model import CausalModel, _setting_index, context_values, solve_contexts

__all__ = [
    "CausalFormula",
    "PrimitiveEvent",
    "Not",
    "And",
    "Or",
    "Held",
    "events_conj",
    "formula_variables",
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


def _chain_operands(formula: And | Or) -> list[CausalFormula]:
    """The operands, left to right, of a chain of one connective nested to
    the left, as the parser builds `a & b & c`; found by a loop, so chains
    of any length are taken apart."""
    kind, operands = type(formula), []
    while isinstance(formula, kind):
        operands.append(formula.right)
        formula = formula.left
    operands.append(formula)
    operands.reverse()
    return operands


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


def validate_formula(model: CausalModel, formula: CausalFormula) -> None:
    """Check variable names, ranges, and the no-nested-prefix rule."""
    rt = model._runtime()
    for node, prefix in _walk(formula):
        if isinstance(node, PrimitiveEvent):
            _setting_index(rt, node.var, node.value, "events test endogenous variables only")
        elif isinstance(node, Held):
            if prefix is not None:
                raise MalformedPhi("intervention prefixes do not nest")
            seen = set()
            for name, value in node.settings:
                _setting_index(rt, name, value, "interventions target endogenous variables")
                if name in seen:
                    raise MalformedPhi(f"variable {name!r} intervened twice")
                seen.add(name)
        elif not isinstance(node, (Not, And, Or)):
            raise MalformedPhi(f"unknown formula node {type(node).__name__}")


def holds(formula: CausalFormula, index: Mapping[str, int], world) -> bool:
    """Decide a formula on its own tree.  `world` gives each endogenous
    variable's value at its position in `index`: a value tuple, or a
    `_Worlds` view of one context, whose `under` gives the world of a
    prefix too.  A chain of one connective is decided from the left, with
    the short circuit of the nested form.  Nesting too deep to recurse is
    an `EngineError`."""
    try:
        if isinstance(formula, PrimitiveEvent):
            return world[index[formula.var]] == formula.value
        if isinstance(formula, Not):
            return not holds(formula.operand, index, world)
        if isinstance(formula, Held):
            return holds(formula.body, index, world.under(formula.settings))
        # operands of the same kind, on either side, are opened on the stack
        kind, stop = type(formula), isinstance(formula, Or)
        stack = [formula]
        while stack:
            node = stack.pop()
            if type(node) is kind:
                stack += (node.right, node.left)
            elif holds(node, index, world) is stop:
                return stop
        return not stop
    except RecursionError:
        raise EngineError("formula is nested too deeply to evaluate") from None


class _Worlds:
    """The worlds of context `k`, as `holds` reads them, from `rows`: the
    set of an intervention's settings (the empty set for none) -> that
    intervention's world in each context, as `solve_contexts` returns them.
    Indexed like the plain world's value tuple; `under(settings)` is the
    world of a prefix.  It solves nothing and keeps nothing."""

    def __init__(self, rows: Mapping[frozenset, list], k: int):
        self.rows, self.k = rows, k

    def __getitem__(self, i: int) -> int:
        return self.rows[frozenset()][self.k][i]

    def under(self, settings: Iterable) -> tuple[int, ...]:
        return self.rows[frozenset(settings)][self.k]


def _verdicts(
    model: CausalModel, formula: CausalFormula, exos: list, rows: dict
) -> Iterator[bool]:
    """Whether a validated formula holds in each context of `exos`, in
    order, decided from `rows`: the set of an intervention's settings -> its
    world in each context of `exos`, as `_Worlds` reads them.  Each world
    the formula reads that `rows` lacks is solved first, in every context,
    into `rows`: each distinct prefix, one written in two orders once, and
    the plain world where some event lies outside every prefix, each by one
    `solve_contexts` call.  Formulas decided on the same contexts with one
    mapping share the worlds their prefixes share."""
    index = model._runtime().endo_index
    for node, prefix in _walk(formula):
        if isinstance(node, Held):
            key, settings = frozenset(node.settings), node.settings
        elif prefix is None and isinstance(node, PrimitiveEvent):
            key, settings = frozenset(), ()
        else:
            continue
        if key not in rows:
            rows[key] = solve_contexts(model, exos, {index[n]: x for n, x in settings})
    return (holds(formula, index, _Worlds(rows, k)) for k in range(len(exos)))


def eval_formula(
    model: CausalModel, context: Mapping[str, int], formula: CausalFormula
) -> bool:
    """Decide whether the formula holds in the model under the context."""
    validate_formula(model, formula)
    return next(_verdicts(model, formula, [context_values(model, context)], {}))


def valid_in_model(model: CausalModel, formula: CausalFormula) -> bool:
    """True when the formula holds in every context of the model."""
    validate_formula(model, formula)
    exos = list(itertools.product(*model._runtime().exo_ranges))
    return all(_verdicts(model, formula, exos, {}))
