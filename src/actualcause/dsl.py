"""Text format for models, contexts, normality blocks, and query formulas.

A model file looks like::

    model rock_throwing
    # naive version: the bottle shatters if either throws
    exogenous U: {0,1}
    endogenous ST: {0,1} = U
    endogenous BT: {0,1} = U
    endogenous BS: {0,1} = ST | BT
    context u0 { U = 0 }
    context u1 { U = 1 }

Equations use `=`, `!=`, `<`, `<=`, `>`, `>=`, `&`, `|`, `!`, `+`, integer
literals and `case { guard -> value; ...; default -> value }`.  An optional
normality block is either explicit ranks over world patterns or a directive
to rank equation deviations of the listed variables as abnormal::

    normality ranks { Jack = 1 -> 1; default -> 0 }
    normality respect_equations(u1) { D', D'' }

Query formulas use the same connectives plus intervention prefixes, as in
`[A<-1, C<-0](D=0)`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping

from . import formula as fm
from .causality import ExtendedCausalModel, NormalityOrder, RuleVariant
from .errors import DuplicateDefinition, EngineError, ParseError
from .model import (
    And,
    CausalModel,
    Case,
    Cmp,
    Const,
    Expression,
    Not,
    Or,
    Sum,
    Var,
    World,
    _own_values,
    check_recursive,
    compile_expression,
    context_values,
    make_model,
)

__all__ = [
    "ModelDocument",
    "NormalityDecl",
    "parse_model",
    "parse_formula",
    "parse_cause",
    "parse_event",
    "print_model",
    "print_expression",
    "print_formula",
]

_KEYWORDS = {
    "model",
    "exogenous",
    "endogenous",
    "context",
    "normality",
    "case",
    "default",
    "ranks",
    "respect_equations",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<int>-?\d+)
  | (?P<op>->|<-|!=|<=|>=|[{}()\[\]:;,=<>&|!+])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of `text` as (kind, value, offset) tuples, kind one of
    name, int, op and a closing end; whitespace and comments are dropped."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(*_line_column(text, match.start()),
                             f"unexpected character {match.group()!r}")
        if kind != "skip":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(*_line_column(self.text, self.peek()[2]), message)

    @contextmanager
    def nesting_limit(self):
        """Report input nested too deeply for the recursive descent as a
        parse error at the token where the descent stopped."""
        try:
            yield
        except RecursionError:
            self.fail("input is nested too deeply")

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == op:
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            self.fail(f"expected {op!r}, found {self.peek()[1]!r}")

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok[0] == "name" and tok[1] == word:
            self.next()
            return True
        return False

    def expect_name(self, what: str = "a name") -> str:
        tok = self.peek()
        if tok[0] != "name":
            self.fail(f"expected {what}, found {tok[1]!r}")
        if tok[1] in _KEYWORDS:
            self.fail(f"{tok[1]!r} is a keyword and cannot name a variable")
        return self.next()[1]

    def expect_int(self) -> int:
        tok = self.peek()
        if tok[0] != "int":
            self.fail(f"expected an integer, found {tok[1]!r}")
        return int(self.next()[1])

    # -- expressions --------------------------------------------------------

    def expression(self) -> Expression:
        return self._disj()

    def _disj(self) -> Expression:
        items = [self._conj()]
        while self.accept_op("|"):
            items.append(self._conj())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _conj(self) -> Expression:
        items = [self._unary()]
        while self.accept_op("&"):
            items.append(self._unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _unary(self) -> Expression:
        if self.accept_op("!"):
            return Not(self._unary())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        tok = self.peek()
        if tok[0] == "op" and tok[1] in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return Cmp(tok[1], left, self._additive())
        return left

    def _additive(self) -> Expression:
        items = [self._primary()]
        while self.accept_op("+"):
            items.append(self._primary())
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def _primary(self) -> Expression:
        tok = self.peek()
        if tok[0] == "int":
            return Const(self.expect_int())
        if tok[0] == "name":
            if tok[1] == "case":
                return self._case()
            if tok[1] in _KEYWORDS:
                self.fail(f"unexpected keyword {tok[1]!r} in an expression")
            return Var(self.next()[1])
        if self.accept_op("("):
            inner = self._disj()
            self.expect_op(")")
            return inner
        self.fail(f"expected an expression, found {tok[1]!r}")

    def _case(self) -> Expression:
        self.next()  # 'case'
        return Case(*self.arms(self._disj))

    def arms(self, value):
        """`{ guard -> value; ...; default -> value }` as the guarded arms
        and the default, each value read by `value`."""
        self.expect_op("{")
        arms = []
        while not self.accept_keyword("default"):
            guard = self._disj()
            self.expect_op("->")
            arms.append((guard, value()))
            self.expect_op(";")
        self.expect_op("->")
        default = value()
        self.accept_op(";")
        self.expect_op("}")
        return tuple(arms), default

    # -- query formulas -----------------------------------------------------

    def formula(self) -> fm.CausalFormula:
        out = self._f_and()
        while self.accept_op("|"):
            out = fm.Or(out, self._f_and())
        return out

    def _f_and(self) -> fm.CausalFormula:
        out = self._f_not()
        while self.accept_op("&"):
            out = fm.And(out, self._f_not())
        return out

    def _f_not(self) -> fm.CausalFormula:
        if self.accept_op("!"):
            return fm.Not(self._f_not())
        return self._f_atom()

    def _f_atom(self) -> fm.CausalFormula:
        if self.accept_op("["):
            settings = []
            if not self.accept_op("]"):
                while True:
                    var = self.expect_name("a variable name")
                    self.expect_op("<-")
                    settings.append((var, self.expect_int()))
                    if not self.accept_op(","):
                        break
                self.expect_op("]")
            self.expect_op("(")
            body = self.formula()
            self.expect_op(")")
            return fm.Held(tuple(settings), body)
        if self.accept_op("("):
            inner = self.formula()
            self.expect_op(")")
            return inner
        var = self.expect_name("a variable name")
        self.expect_op("=")
        return fm.PrimitiveEvent(var, self.expect_int())


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalityDecl:
    kind: str  # "ranks" | "respect"
    arms: tuple[tuple[Expression, int], ...] = ()
    default: int = 0
    context: str | None = None
    variables: tuple[str, ...] = ()


@dataclass
class ModelDocument:
    name: str
    model: CausalModel
    contexts: dict[str, dict[str, int]]
    normality: NormalityDecl | None = None
    _order: NormalityOrder | None = field(default=None, repr=False, compare=False)

    def context(self, name: str) -> dict[str, int]:
        try:
            return self.contexts[name]
        except KeyError:
            raise EngineError(
                f"model {self.name!r} declares no context named {name!r}"
            ) from None

    def order(self) -> NormalityOrder | None:
        if self.normality is None:
            return None
        if self._order is None:
            self._order = _build_order(self.model, self.contexts, self.normality)
        return self._order

    def extended(self) -> ExtendedCausalModel:
        order = self.order()
        if order is None:
            raise EngineError(f"model {self.name!r} has no normality block")
        return ExtendedCausalModel(self.model, order)

    def subject(self, variant: RuleVariant) -> CausalModel | ExtendedCausalModel:
        """The model a query under `variant` is put to: the extended model
        for the extended rules, the plain one for the others."""
        return self.extended() if variant is RuleVariant.EXTENDED else self.model


def _build_order(
    model: CausalModel, contexts: Mapping[str, dict], decl: NormalityDecl
) -> NormalityOrder:
    if decl.kind == "respect":
        from .transforms import normality_from_respect

        if decl.context not in contexts:
            raise EngineError(f"normality block names unknown context {decl.context!r}")
        return normality_from_respect(model, contexts[decl.context], decl.variables)
    rt = model._runtime()
    reads = frozenset().union(*(guard.variables() for guard, _ in decl.arms))
    for guard, _ in decl.arms:
        for ref in guard.variables():
            if ref not in rt.endo_index:
                raise EngineError(
                    f"world pattern mentions {ref!r}, which is not endogenous"
                )
    table = Case(
        tuple((guard, Const(rank)) for guard, rank in decl.arms), Const(decl.default)
    )
    ranks = compile_expression(table, {n: f"v[{i}]" for n, i in rt.endo_index.items()})

    def rank_of(world: World) -> int:
        return ranks(_own_values(rt, world), ())

    order = NormalityOrder(rank_fn=rank_of)
    order._reads = reads
    return order


def parse_model(text: str) -> ModelDocument:
    """Parse a model document, validating structure and recursiveness."""
    parser = _Parser(text)
    if not parser.accept_keyword("model"):
        parser.fail("a model file starts with 'model <name>'")
    name = parser.expect_name("the model name")

    exogenous: dict[str, tuple[int, ...]] = {}
    endogenous: dict[str, tuple[int, ...]] = {}
    equations: dict[str, Expression] = {}
    contexts: dict[str, dict[str, int]] = {}
    normality: NormalityDecl | None = None

    def parse_range() -> tuple[int, ...]:
        parser.expect_op("{")
        values = [parser.expect_int()]
        while parser.accept_op(","):
            values.append(parser.expect_int())
        parser.expect_op("}")
        return tuple(values)

    while True:
        tok = parser.peek()
        if tok[0] == "end":
            break
        if parser.accept_keyword("exogenous"):
            var = parser.expect_name("a variable name")
            if var in exogenous or var in endogenous:
                raise DuplicateDefinition(var)
            parser.expect_op(":")
            exogenous[var] = parse_range()
        elif parser.accept_keyword("endogenous"):
            var = parser.expect_name("a variable name")
            if var in exogenous or var in endogenous:
                raise DuplicateDefinition(var)
            parser.expect_op(":")
            endogenous[var] = parse_range()
            parser.expect_op("=")
            with parser.nesting_limit():
                equations[var] = parser.expression()
        elif parser.accept_keyword("context"):
            ctx_name = parser.expect_name("a context name")
            if ctx_name in contexts:
                raise DuplicateDefinition(ctx_name)
            parser.expect_op("{")
            assignment: dict[str, int] = {}
            while not parser.accept_op("}"):
                if parser.peek()[1] in assignment:
                    parser.fail(f"context {ctx_name!r} assigns {parser.peek()[1]!r} twice")
                var = parser.expect_name("an exogenous variable")
                parser.expect_op("=")
                assignment[var] = parser.expect_int()
                parser.accept_op(";")
            contexts[ctx_name] = assignment
        elif parser.accept_keyword("normality"):
            if normality is not None:
                parser.fail("only one normality block is allowed")
            if parser.accept_keyword("ranks"):
                with parser.nesting_limit():
                    normality = NormalityDecl("ranks", *parser.arms(parser.expect_int))
            elif parser.accept_keyword("respect_equations"):
                parser.expect_op("(")
                ctx_name = parser.expect_name("a context name")
                parser.expect_op(")")
                parser.expect_op("{")
                variables = [parser.expect_name("a variable name")]
                while parser.accept_op(","):
                    variables.append(parser.expect_name("a variable name"))
                parser.expect_op("}")
                normality = NormalityDecl(
                    "respect", context=ctx_name, variables=tuple(variables)
                )
            else:
                parser.fail("expected 'ranks' or 'respect_equations'")
        else:
            parser.fail(f"unexpected {tok[1]!r} at the top level")

    model = make_model(exogenous, endogenous, equations, {"name": name})
    check_recursive(model)
    for ctx_name, assignment in contexts.items():
        context_values(model, assignment)
    doc = ModelDocument(name, model, contexts, normality)
    if normality is not None:
        doc.order()  # validate eagerly
    return doc


# ---------------------------------------------------------------------------
# Formulas and causes
# ---------------------------------------------------------------------------

def parse_formula(text: str, model: CausalModel | None = None) -> fm.CausalFormula:
    """Parse a query formula; validates against the model when given."""
    parser = _Parser(text)
    with parser.nesting_limit():
        out = parser.formula()
    tok = parser.peek()
    if tok[0] != "end":
        parser.fail(f"trailing input {tok[1]!r}")
    if model is not None:
        fm.validate_formula(model, out)
    return out


def parse_cause(text: str, model: CausalModel | None = None) -> dict[str, int]:
    """Parse `A=1` or `A=1 & B=0` into a candidate-cause mapping."""
    parsed = parse_formula(text, model)
    out: dict[str, int] = {}
    for node, _ in fm._walk(parsed):
        if isinstance(node, fm.PrimitiveEvent):
            if node.var in out:
                raise EngineError(f"cause lists {node.var!r} twice")
            out[node.var] = node.value
        elif not isinstance(node, fm.And):
            raise EngineError("a cause is a conjunction of events like 'A=1 & B=0'")
    return out


def parse_event(text: str, model: CausalModel | None = None) -> tuple[str, int]:
    parsed = parse_formula(text, model)
    if not isinstance(parsed, fm.PrimitiveEvent):
        raise EngineError("expected a single event like 'D=1'")
    return parsed.var, parsed.value


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_CMP, _LEVEL_SUM, _LEVEL_ATOM = range(1, 7)


def _expr_parts(expr: Expression, wrap_width: int | None) -> tuple[str, int]:
    if isinstance(expr, Const):
        return str(expr.value), _LEVEL_ATOM
    if isinstance(expr, Var):
        return expr.name, _LEVEL_ATOM
    if isinstance(expr, Case):
        return _print_case(expr, wrap_width), _LEVEL_ATOM
    if isinstance(expr, Sum):
        return " + ".join(_at_level(i, _LEVEL_ATOM, wrap_width) for i in expr.items), _LEVEL_SUM
    if isinstance(expr, Cmp):
        lhs = _at_level(expr.lhs, _LEVEL_SUM, wrap_width)
        rhs = _at_level(expr.rhs, _LEVEL_SUM, wrap_width)
        return f"{lhs} {expr.op} {rhs}", _LEVEL_CMP
    if isinstance(expr, Not):
        inner, level = _expr_parts(expr.operand, wrap_width)
        if level < _LEVEL_CMP or isinstance(expr.operand, Cmp):
            inner = f"({inner})"
        return f"!{inner}", _LEVEL_NOT
    if isinstance(expr, And):
        return " & ".join(_at_level(i, _LEVEL_NOT, wrap_width) for i in expr.items), _LEVEL_AND
    if isinstance(expr, Or):
        return " | ".join(_at_level(i, _LEVEL_AND, wrap_width) for i in expr.items), _LEVEL_OR
    raise EngineError(f"cannot print expression node {type(expr).__name__}")


def _at_level(expr: Expression, minimum: int, wrap_width: int | None) -> str:
    text, level = _expr_parts(expr, wrap_width)
    return f"({text})" if level < minimum else text


def _print_case(expr: Case, wrap_width: int | None) -> str:
    arms = [
        f"{_at_level(g, _LEVEL_OR, None)} -> {_at_level(v, _LEVEL_OR, None)}"
        for g, v in expr.arms
    ]
    arms.append(f"default -> {_at_level(expr.default, _LEVEL_OR, None)}")
    flat = "case { " + "; ".join(arms) + " }"
    if wrap_width is None or len(flat) <= wrap_width:
        return flat
    body = ";\n    ".join(arms)
    return "case {\n    " + body + "\n  }"


def print_expression(expr: Expression, wrap_width: int | None = 100) -> str:
    return _expr_parts(expr, wrap_width)[0]


def _print_range(values: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def print_model(doc: ModelDocument) -> str:
    """Canonical text form; parsing it back yields an identical document."""
    lines = [f"model {doc.name}", ""]
    for name, rng in doc.model.signature.exogenous:
        lines.append(f"exogenous {name}: {_print_range(rng)}")
    eqs = dict(doc.model.equations)
    for name, rng in doc.model.signature.endogenous:
        rhs = print_expression(eqs[name])
        lines.append(f"endogenous {name}: {_print_range(rng)} = {rhs}")
    if doc.contexts:
        lines.append("")
    for ctx_name, assignment in doc.contexts.items():
        body = "; ".join(f"{k} = {v}" for k, v in assignment.items())
        lines.append(f"context {ctx_name} {{ {body} }}")
    if doc.normality is not None:
        lines.append("")
        decl = doc.normality
        if decl.kind == "respect":
            names = ", ".join(decl.variables)
            lines.append(f"normality respect_equations({decl.context}) {{ {names} }}")
        else:
            arms = [
                f"{print_expression(g, None)} -> {r}" for g, r in decl.arms
            ]
            arms.append(f"default -> {decl.default}")
            lines.append("normality ranks { " + "; ".join(arms) + " }")
    return "\n".join(lines) + "\n"


def print_formula(formula: fm.CausalFormula) -> str:
    def wrap(f, minimum):
        text, level = go(f)
        return f"({text})" if level < minimum else text

    def go(f):
        if isinstance(f, fm.PrimitiveEvent):
            return f"{f.var} = {f.value}", 4
        if isinstance(f, fm.Not):
            if isinstance(f.operand, fm.Held):
                return f"!{go(f.operand)[0]}", 3
            return f"!({go(f.operand)[0]})", 3
        if isinstance(f, (fm.And, fm.Or)):
            # parsing is left-associative: a chain of one connective prints
            # flat, and right-nested operands keep parens
            op, level = (" & ", 2) if isinstance(f, fm.And) else (" | ", 1)
            first, *rest = fm._chain_operands(f)
            parts = [wrap(first, level)] + [wrap(g, level + 1) for g in rest]
            return op.join(parts), level
        if isinstance(f, fm.Held):
            body, _ = go(f.body)
            settings = ", ".join(f"{n} <- {v}" for n, v in f.settings)
            return f"[{settings}]({body})", 4
        raise EngineError(f"cannot print formula node {type(f).__name__}")

    return go(formula)[0]
