"""Model text format: parsing, validation errors, printing round-trips."""

import random

import pytest

from actualcause.corpus import load_document, model_names
from actualcause.dsl import (
    ModelDocument,
    parse_cause,
    parse_event,
    parse_formula,
    parse_model,
    print_formula,
    print_model,
)
from actualcause.errors import (
    CyclicModel,
    DuplicateDefinition,
    EngineError,
    ParseError,
    UnknownVariable,
)
from actualcause.formula import And, Held, Not, PrimitiveEvent, formula_variables
from actualcause import model as md
from actualcause.model import solve
from oracle import random_binary_model, random_context, random_multivalued_model


RT_SOURCE = """
model rocks
exogenous U: {0,1}
endogenous ST: {0,1} = U
endogenous BT: {0,1} = U
endogenous BS: {0,1} = ST | BT
context u1 { U = 1 }
"""


def test_parse_naive_rock_throwing():
    doc = parse_model(RT_SOURCE)
    assert doc.name == "rocks"
    assert doc.model.exogenous_names == ("U",)
    assert doc.model.endogenous_names == ("ST", "BT", "BS")
    assert solve(doc.model, doc.context("u1"))["BS"] == 1


def test_parse_reports_cycles():
    source = """
model loop
exogenous U: {0,1}
endogenous A: {0,1} = B
endogenous B: {0,1} = A
context u { U = 0 }
"""
    with pytest.raises(CyclicModel) as err:
        parse_model(source)
    assert err.value.cycle == ["A", "B"]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_model("model m\nexogenous U {0,1}\n")
    assert err.value.line == 2
    assert "':'" in str(err.value)
    with pytest.raises(ParseError):
        parse_model("exogenous U: {0,1}")  # missing header
    with pytest.raises(ParseError):
        parse_model("model m\nexogenous case: {0,1}\n")  # keyword as a name


@pytest.mark.parametrize("parse, text, line, column, message", [
    (parse_model, "model m\nexogenous U {0,1}\n", 2, 13, "expected ':', found '{'"),
    (parse_model, "model m\n# note\nexogenous U: {0,1} @\n", 3, 20,
     "unexpected character '@'"),
    (parse_model, "model m\n  endogenous A: {0,1} = $\n", 2, 25, "unexpected character '$'"),
    (parse_model, "model m\nexogenous U: {0,1}\ncontext u { U = 0; U = 1 }\n", 3, 20,
     "context 'u' assigns 'U' twice"),
    (parse_formula, "A = 1 &", 1, 8, "expected a variable name, found ''"),
    (parse_formula, "A = 1\n  ) B", 2, 3, "trailing input ')'"),
])
def test_parse_error_names_the_line_and_column(parse, text, line, column, message):
    # columns count from 1 after the last newline; the end of input is the
    # position just past the last character
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_duplicate_definitions_rejected():
    source = """
model dup
exogenous U: {0,1}
endogenous A: {0,1} = U
endogenous A: {0,1} = U
"""
    with pytest.raises(DuplicateDefinition):
        parse_model(source)


def test_unknown_reference_rejected():
    source = """
model ghost
exogenous U: {0,1}
endogenous A: {0,1} = PHANTOM
"""
    with pytest.raises(UnknownVariable):
        parse_model(source)


def test_partial_context_rejected():
    source = """
model partial
exogenous U1: {0,1}
exogenous U2: {0,1}
endogenous A: {0,1} = U1
context bad { U1 = 1 }
"""
    with pytest.raises(UnknownVariable):
        parse_model(source)


def _random_documents():
    """300 seeded documents, binary and multi-valued in turn, one context each."""
    for seed in range(300):
        rng = random.Random(seed)
        make = random_binary_model if seed % 2 else random_multivalued_model
        model = make(rng)
        yield ModelDocument(f"random_{seed}", model, {"u": random_context(rng, model)})


def test_every_corpus_file_round_trips():
    # and random documents beside them
    docs = [load_document(name) for name in model_names()] + list(_random_documents())
    for doc in docs:
        printed = print_model(doc)
        again = parse_model(printed)
        assert again == doc, doc.name
        # printing is a fixed point once normalized
        assert print_model(again) == printed, doc.name


def test_formula_parsing(hopkins):
    formula = parse_formula("[A<-1, C<-0](D=0)", hopkins.model)
    assert formula == Held((("A", 1), ("C", 0)), PrimitiveEvent("D", 0))
    connectives = parse_formula("!(A=1) & (B=0 | C=1)", hopkins.model)
    assert isinstance(connectives, And) and isinstance(connectives.left, Not)
    empty = parse_formula("[](D=1)", hopkins.model)
    assert empty == Held((), PrimitiveEvent("D", 1))
    with pytest.raises(ParseError):
        parse_formula("A=1 &", hopkins.model)
    with pytest.raises(UnknownVariable):
        parse_formula("ZZ=1", hopkins.model)


def test_formula_print_round_trip(hopkins):
    import random

    from actualcause.transforms import random_causal_formula

    rng = random.Random(13)
    for _ in range(200):
        formula = random_causal_formula(rng, hopkins.model)
        printed = print_formula(formula)
        assert parse_formula(printed, hopkins.model) == formula, printed


def test_long_chain_print_round_trip(rt_naive):
    for op in (" & ", " | "):
        chain = parse_formula(op.join(["BS=1", "ST=0"] * 500), rt_naive.model)
        printed = print_formula(chain)
        assert printed == op.join(["BS = 1", "ST = 0"] * 500)
        # dataclass equality recurses, so compare the left spines
        assert _left_spine(parse_formula(printed, rt_naive.model)) == _left_spine(chain)


def _left_spine(formula):
    """The operands of a left-nested chain of one connective, left to right."""
    kind, operands = type(formula), []
    while isinstance(formula, kind):
        operands.append(formula.right)
        formula = formula.left
    return [kind, formula] + operands[::-1]


def test_cause_and_event_parsing(hopkins):
    assert parse_cause("A=1", hopkins.model) == {"A": 1}
    assert parse_cause("A=1 & B=0", hopkins.model) == {"A": 1, "B": 0}
    with pytest.raises(EngineError):
        parse_cause("A=1 | B=0", hopkins.model)
    with pytest.raises(EngineError):
        parse_cause("A=1 & A=0", hopkins.model)
    assert parse_event("D=1", hopkins.model) == ("D", 1)
    with pytest.raises(EngineError):
        parse_event("D=1 & A=1", hopkins.model)


def test_rank_patterns_must_be_endogenous():
    source = """
model bad
exogenous U: {0,1}
endogenous A: {0,1} = U
context u { U = 1 }
normality ranks { U = 0 -> 1; default -> 0 }
"""
    with pytest.raises(EngineError):
        parse_model(source)


def test_respect_block_needs_declared_context():
    source = """
model bad
exogenous U: {0,1}
endogenous A: {0,1} = U
normality respect_equations(missing) { A }
"""
    with pytest.raises(EngineError):
        parse_model(source)


def test_negative_literals_parse():
    source = """
model negatives
exogenous U: {-1,0,1}
endogenous A: {-1,0,1} = U
endogenous L: {0,1} = A = -1
context u { U = -1 }
"""
    doc = parse_model(source)
    assert solve(doc.model, doc.context("u"))["L"] == 1


def test_over_deep_equation_is_refused_at_parse_time_without_a_context(monkeypatch):
    # recursiveness is checked by building the model's runtime, which also
    # compiles the equations; no context has to be validated for that
    arms = " ".join(f"U = {i} -> 1;" for i in range(250))
    with pytest.raises(EngineError, match="nested too deeply to compile"):
        parse_model("model deep\nexogenous U: {0,1}\n"
                    f"endogenous A: {{0,1}} = case {{ {arms} default -> 0 }}\n")
    # and each dependency order is built once, by the runtime
    calls = []
    original = md._dependency_order
    monkeypatch.setattr(md, "_dependency_order", lambda m: calls.append(m) or original(m))
    doc = parse_model("model two\nexogenous U: {0,1}\nendogenous A: {0,1} = U\n"
                      "endogenous B: {0,1} = A\ncontext u { U = 1 }\n")
    assert len(calls) == 1
    assert md.check_recursive(doc.model) == ["A", "B"] and len(calls) == 1


def test_over_deep_nesting_is_a_parse_error(rt_naive):
    with pytest.raises(ParseError, match=r"^1:\d+: input is nested too deeply"):
        parse_formula("!(" * 200 + "BS=1" + ")" * 200, rt_naive.model)
    header = "model deep\nexogenous U: {0,1}\nendogenous A: {0,1} = "
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_model(header + "(" * 200 + "U" + ")" * 200 + "\n")
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_model(header + "U\nnormality ranks { " + "(" * 200 + "A = 1" + ")" * 200
                    + " -> 1; default -> 0 }\n")
    # a long chain is not deep: it parses and validates
    chain = parse_formula(" & ".join(["BS=1"] * 1000), rt_naive.model)
    assert formula_variables(chain) == {"BS"}
