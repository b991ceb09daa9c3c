"""Model text format: parsing, validation errors, printing round-trips."""

import pytest

from actualcause.corpus import load_document, model_names
from actualcause.dsl import (
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
from actualcause.model import solve


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


def test_every_corpus_file_round_trips():
    for name in model_names():
        doc = load_document(name)
        printed = print_model(doc)
        again = parse_model(printed)
        assert again.model == doc.model, name
        assert again.contexts == doc.contexts, name
        assert again.normality == doc.normality, name
        # printing is a fixed point once normalized
        assert print_model(again) == printed, name


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
