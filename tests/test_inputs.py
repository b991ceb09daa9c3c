"""Bad inputs at every public entry point: unknown names, values outside a
range and counts that are not integers are refused with an `EngineError`.

Each row calls one entry point on the loaded-gun model (A loads, B does not
shoot, C shoots: A=1 is an original-rules cause of D=1 with witness
B=1, C=0) and names the error it must raise, with its exact message.
"""

import pytest

import actualcause as ac
from actualcause import errors
from actualcause.corpus import model_path, verify_corpus
from actualcause.dsl import parse_model
from actualcause.formula import Held, PrimitiveEvent
from actualcause.model import World

U = {"UA": 1, "UB": 0, "UC": 1}
D1 = PrimitiveEvent("D", 1)
WITNESS = ac.Witness(("B", "C"), (1, 0), (0,))
AT_ACTUAL = ac.Witness(("B", "C"), (0, 1), (0,))  # B and C at their actual values
FLAT = ac.NormalityOrder.flat()


def unknown(name, detail):
    return errors.UnknownVariable, f"unknown variable {name!r} ({detail})"


def out_of_range(name, value):
    return errors.ValueOutOfRange, f"value {value!r} is not in the range of {name!r}"


def count(message):
    return errors.EngineError, message


CAUSE_Q = unknown("Q", "cause conjuncts are endogenous")
EVENT_Q = unknown("Q", "events test endogenous variables only")
PREFIX_Q = unknown("Q", "interventions target endogenous variables")
CONTINGENCY_Z = unknown("Z", "contingency variables are endogenous")
ENDO_Q = unknown("Q", "not an endogenous variable")

ROWS = [
    # the three clauses and the searches
    ("is_actual_cause/cause", lambda m: ac.is_actual_cause(m, U, {"Q": 1}, D1), *CAUSE_Q),
    ("is_actual_cause/value", lambda m: ac.is_actual_cause(m, U, {"A": 9}, D1),
     *out_of_range("A", 9)),
    ("is_actual_cause/effect",
     lambda m: ac.is_actual_cause(m, U, {"A": 1}, PrimitiveEvent("Q", 1)), *EVENT_Q),
    ("find_witnesses/cause", lambda m: ac.find_witnesses(m, U, {"Q": 1}, D1), *CAUSE_Q),
    ("find_witnesses/value", lambda m: ac.find_witnesses(m, U, {"A": 2}, D1),
     *out_of_range("A", 2)),
    ("check_ac1/cause", lambda m: ac.check_ac1(m, U, {"Q": 1}, D1), *CAUSE_Q),
    ("check_ac1/effect_value",
     lambda m: ac.check_ac1(m, U, {"A": 1}, PrimitiveEvent("D", 9)), *out_of_range("D", 9)),
    ("check_ac2a/witness_var",
     lambda m: ac.check_ac2a(m, U, {"A": 1}, D1, ac.Witness(("Z",), (1,), (0,))),
     *CONTINGENCY_Z),
    ("check_ac2a/witness_value",
     lambda m: ac.check_ac2a(m, U, {"A": 1}, D1, ac.Witness(("B",), (9,), (0,))),
     *out_of_range("B", 9)),
    ("check_ac2b/alt_value",
     lambda m: ac.check_ac2b(m, U, {"A": 1}, D1, ac.Witness(("B",), (1,), (9,))),
     *out_of_range("A", 9)),
    ("check_ac2b/cause", lambda m: ac.check_ac2b(m, U, {"Q": 1}, D1, WITNESS), *CAUSE_Q),
    ("witness_world/witness_var",
     lambda m: ac.witness_world(m, U, {"A": 1}, ac.Witness(("Z",), (1,), (0,))),
     *CONTINGENCY_Z),
    ("witness_world/value", lambda m: ac.witness_world(m, U, {"A": 5}, WITNESS),
     *out_of_range("A", 5)),
    ("best_witnesses/cause",
     lambda m: ac.best_witnesses(ac.ExtendedCausalModel(m, FLAT), U, {"Q": 1}, D1), *CAUSE_Q),
    ("best_witnesses/value",
     lambda m: ac.best_witnesses(ac.ExtendedCausalModel(m, FLAT), U, {"A": 9}, D1),
     *out_of_range("A", 9)),
    # formulas and interventions
    ("eval_formula/event", lambda m: ac.eval_formula(m, U, PrimitiveEvent("Q", 1)), *EVENT_Q),
    ("eval_formula/event_value", lambda m: ac.eval_formula(m, U, PrimitiveEvent("D", 3)),
     *out_of_range("D", 3)),
    ("eval_formula/prefix", lambda m: ac.eval_formula(m, U, Held((("Q", 0),), D1)), *PREFIX_Q),
    ("eval_formula/prefix_value",
     lambda m: ac.eval_formula(m, U, Held((("A", 7),), D1)), *out_of_range("A", 7)),
    ("valid_in_model/event", lambda m: ac.valid_in_model(m, PrimitiveEvent("Q", 1)), *EVENT_Q),
    ("valid_in_model/prefix_value",
     lambda m: ac.valid_in_model(m, Held((("B", -1),), D1)), *out_of_range("B", -1)),
    ("intervene/name", lambda m: ac.intervene(m, {"Q": 1}), *ENDO_Q),
    ("intervene/value", lambda m: ac.intervene(m, {"C": 2}), *out_of_range("C", 2)),
    # witness killing: the first three rows fail at the parent (a bare
    # KeyError, then two reports of WitnessEqualsActual): the inputs are now
    # validated before the witness is compared with the actual world
    ("kill_witness/witness_var",
     lambda m: ac.kill_witness(m, U, {"A": 1}, ("D", 1), ac.Witness(("Z",), (1,), (0,))),
     *CONTINGENCY_Z),
    ("kill_witness/effect",
     lambda m: ac.kill_witness(m, U, {"A": 1}, ("Q", 1), AT_ACTUAL), *EVENT_Q),
    ("kill_witness/cause", lambda m: ac.kill_witness(m, U, {"Q": 1}, ("D", 1), AT_ACTUAL),
     *CAUSE_Q),
    ("kill_witness/witness_value",
     lambda m: ac.kill_witness(m, U, {"A": 1}, ("D", 1), ac.Witness(("B", "C"), (9, 0), (0,))),
     *out_of_range("B", 9)),
    ("kill_all_witnesses/cause",
     lambda m: ac.kill_all_witnesses(m, U, {"Q": 1}, ("D", 1)), *CAUSE_Q),
    ("kill_all_witnesses/value",
     lambda m: ac.kill_all_witnesses(m, U, {"A": 9}, ("D", 1)), *out_of_range("A", 9)),
]

# a malformed effect or a cause of two conjuncts; these rows fail at the
# parent (a bare ValueError or TypeError, and for `kill_all_witnesses` a
# two-conjunct cause searched and reported as no original-rules cause)
TWO_CONJUNCTS = errors.EngineError, "witness killing works on single-conjunct causes"
ROWS += [
    ("kill_witness/two_conjuncts",
     lambda m: ac.kill_witness(m, U, {"A": 1, "C": 1}, ("D", 1), WITNESS), *TWO_CONJUNCTS),
    ("kill_all_witnesses/two_conjuncts",
     lambda m: ac.kill_all_witnesses(m, U, {"A": 1, "C": 1}, ("D", 1)), *TWO_CONJUNCTS),
]
for label, effect in (("short", ("D",)), ("name", "D"), ("long", ("D", 1, 2)), ("int", 5)):
    malformed = (errors.EngineError,
                 f"an effect is a PrimitiveEvent or a (variable, value) pair, not {effect!r}")
    ROWS += [
        (f"kill_witness/{label}_effect",
         lambda m, e=effect: ac.kill_witness(m, U, {"A": 1}, e, WITNESS), *malformed),
        (f"kill_all_witnesses/{label}_effect",
         lambda m, e=effect: ac.kill_all_witnesses(m, U, {"A": 1}, e), *malformed),
    ]

ROWS += [
    # deviations and respect; the four `deviating_variables` rows after the
    # first fail at the parent
    ("respects_equations/name",
     lambda m: ac.respects_equations(ac.ExtendedCausalModel(m, FLAT), U, ["Q"]), *ENDO_Q),
    ("normality_from_respect/name", lambda m: ac.normality_from_respect(m, U, ["D", "Q"]),
     *ENDO_Q),
    ("deviating_variables/foreign_world",
     lambda m: ac.deviating_variables(m, U, World(("A", "B"), (1, 0))),
     errors.EngineError, "world does not belong to this model"),
    ("deviating_variables/missing",
     lambda m: ac.deviating_variables(m, U, {"A": 1, "B": 0, "C": 1}),
     *unknown("D", "world does not assign it")),
    ("deviating_variables/unknown",
     lambda m: ac.deviating_variables(m, U, {"A": 1, "B": 0, "C": 1, "D": 1, "Q": 0}),
     *ENDO_Q),
    ("deviating_variables/value",
     lambda m: ac.deviating_variables(m, U, {"A": 9, "B": 0, "C": 1, "D": 1}),
     *out_of_range("A", 9)),
    ("deviating_variables/world_value",
     lambda m: ac.deviating_variables(m, U, World(("A", "B", "C", "D"), (1, 0, 1, 5))),
     *out_of_range("D", 5)),
]

# a bare string of names, read at the parent as its characters ("DA" as D
# and A); these rows fail at the parent
STRING = errors.EngineError, "variables must be a collection of names, not 'DA'"
ROWS += [
    ("respects_equations/string",
     lambda m: ac.respects_equations(ac.ExtendedCausalModel(m, FLAT), U, "DA"), *STRING),
    ("normality_from_respect/string", lambda m: ac.normality_from_respect(m, U, "DA"), *STRING),
]

# a ranked world with a value outside its range: a rank table and a
# respect order refuse the first such value, in declaration order, alike;
# these rows fail at the parent, where both ranked the world
TABLE = parse_model(
    model_path("hopkins_pearl").read_text(encoding="utf-8")
    + "normality ranks { D = 1 -> 1; default -> 0 }\n"
).order()
for label, order in (
    ("ranks", lambda m: TABLE),
    ("normality_from_respect", lambda m: ac.normality_from_respect(m, U, ["D"])),
    ("normality_from_respect/no_variables", lambda m: ac.normality_from_respect(m, U, [])),
):
    ROWS += [
        (f"{label}/world_value",
         lambda m, o=order: o(m).rank(World(("A", "B", "C", "D"), (1, 0, 1, 5))),
         *out_of_range("D", 5)),
        (f"{label}/first_world_value",
         lambda m, o=order: o(m).rank(World(("A", "B", "C", "D"), (1, 3, 1, 5))),
         *out_of_range("B", 3)),
    ]

# a bool or a float equal to a value is no value; these rows fail at the parent
for label, value in (("bool", True), ("float", 1.0)):
    ROWS += [
        (f"solve/{label}_context",
         lambda m, x=value: ac.solve(m, {"UA": x, "UB": 0, "UC": 1}), *out_of_range("UA", value)),
        (f"is_actual_cause/{label}_value",
         lambda m, x=value: ac.is_actual_cause(m, U, {"A": x}, D1), *out_of_range("A", value)),
        (f"eval_formula/{label}_event",
         lambda m, x=value: ac.eval_formula(m, U, PrimitiveEvent("D", x)),
         *out_of_range("D", value)),
        (f"deviating_variables/{label}_value",
         lambda m, x=value: ac.deviating_variables(m, U, {"A": x, "B": 0, "C": 1, "D": 1}),
         *out_of_range("A", value)),
    ]


def extended(model):
    return ac.ExtendedCausalModel(model, FLAT)


def wrong_kind(got, expected):
    return errors.EngineError, f"not a causal model: {got} (expected {expected})"


# a model of the wrong kind; these rows raise a bare AttributeError at the parent
PLAIN_GIVEN = wrong_kind("CausalModel", "ExtendedCausalModel")
EXTENDED_GIVEN = wrong_kind("ExtendedCausalModel", "CausalModel")
ROWS += [
    ("is_conservative_extension/kind",
     lambda m: ac.is_conservative_extension(extended(m), m), *EXTENDED_GIVEN),
    ("check_formula_agreement/kind",
     lambda m: ac.check_formula_agreement(m, extended(m)), *EXTENDED_GIVEN),
    ("is_conservative_extension_extended/kind",
     lambda m: ac.is_conservative_extension_extended(m, extended(m)), *PLAIN_GIVEN),
    ("deviating_variables/kind",
     lambda m: ac.deviating_variables(extended(m), U, {"A": 1, "B": 0, "C": 1, "D": 1}),
     *EXTENDED_GIVEN),
    ("respects_equations/kind", lambda m: ac.respects_equations(m, U, ["A"]), *PLAIN_GIVEN),
    ("normality_from_respect/kind",
     lambda m: ac.normality_from_respect(extended(m), U, ["A"]), *EXTENDED_GIVEN),
    ("kill_witness/kind",
     lambda m: ac.kill_witness(extended(m), U, {"A": 1}, ("D", 1), WITNESS), *EXTENDED_GIVEN),
    ("kill_all_witnesses/kind",
     lambda m: ac.kill_all_witnesses(extended(m), U, {"A": 1}, ("D", 1)), *EXTENDED_GIVEN),
]

# every count argument; the rows with a non-integer count fail at the parent
COUNTS = [
    ("search budget", lambda m, n: ac.SearchBudget(n),
     "the search budget must be a positive integer, not {}"),
    ("budget limit", lambda m, n: verify_corpus(budget_limit=n),
     "the budget limit must be a positive integer, not {}"),
    ("max_conjuncts", lambda m, n: ac.find_all_causes(m, U, D1, max_conjuncts=n),
     "max_conjuncts must be a positive integer, not {}"),
    ("samples", lambda m, n: ac.check_formula_agreement(m, m, samples=n),
     "the sample count must be a positive integer, not {}"),
    ("max_rounds", lambda m, n: ac.kill_all_witnesses(m, U, {"A": 1}, ("D", 1), max_rounds=n),
     "the round limit must be a positive integer, not {}"),
]
for label, call, message in COUNTS:
    for n in (0, 2.5, True):
        ROWS.append((f"{label}/{n!r}", lambda m, call=call, n=n: call(m, n),
                     *count(message.format(n))))
for n in (-1, 2.5, True):
    ROWS.append((f"stability index/{n!r}", lambda m, n=n: ac.build_stability_model(n),
                 *count("the family is indexed by nonnegative integers")))
# `random.Random` would read -1 as 1 and True as 1, accept 2.5, and take
# None to mean fresh entropy; these rows fail at the parent
for n in (-1, 2.5, True, None):
    ROWS.append((f"seed/{n!r}", lambda m, n=n: ac.check_formula_agreement(m, m, seed=n),
                 *count(f"the seed must be a nonnegative integer, not {n}")))


@pytest.mark.parametrize(
    "call, error, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_bad_input_is_refused_at_the_edge(hopkins, call, error, message):
    with pytest.raises(error) as caught:
        call(hopkins.model)
    assert type(caught.value) is error
    assert str(caught.value) == message
