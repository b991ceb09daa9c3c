"""Bundled corpus: every case reproduces its expected verdict."""

import pytest

from actualcause import causality
from actualcause.causality import RuleVariant, SearchBudget, is_actual_cause
from actualcause.corpus import (
    CASES,
    CONSERVATIVE_PAIRS,
    _run_case,
    load_document,
    model_names,
    verify_corpus,
)
from actualcause.dsl import parse_cause, parse_formula
from actualcause.errors import EngineError
from actualcause.transforms import is_conservative_extension


def test_every_default_case_passes():
    report = verify_corpus()
    failures = [r for r in report.results if not r.ok]
    details = [(r.case.id, r.expected, r.actual, r.error) for r in failures]
    assert not details, details
    assert report.all_passed


def test_case_table_is_well_formed():
    ids = [c.id for c in CASES]
    assert len(set(ids)) == len(ids)
    names = set(model_names())
    for case in CASES:
        assert case.model in names, case.id
        assert case.expect in ("cause", "not-cause"), case.id
        assert case.variant in ("original", "updated", "extended"), case.id
        assert case.note


def test_report_is_deterministic():
    first = verify_corpus()
    second = verify_corpus()
    assert [(r.case.id, r.actual) for r in first.results] == [
        (r.case.id, r.actual) for r in second.results
    ]


def test_declared_conservative_pairs_hold():
    for ext_name, base_name in CONSERVATIVE_PAIRS:
        ext = load_document(ext_name).model
        base = load_document(base_name).model
        report = is_conservative_extension(ext, base)
        assert report.is_conservative, (ext_name, base_name, report.counterexample)


def test_default_run_covers_every_case():
    report = verify_corpus()
    assert [r.case for r in report.results] == list(CASES)
    (stated,) = [r for r in report.results if r.case.witness is not None]
    assert stated.case.id == "liv1720_v18"
    assert stated.ok and stated.actual == "cause", stated.error


@pytest.mark.parametrize("limit", [0, -3])
def test_non_positive_budget_limit_is_refused_before_any_solve(monkeypatch, limit):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing the budget limit")

    monkeypatch.setattr(causality, "solve_values", no_solve)
    with pytest.raises(EngineError, match="positive"):
        verify_corpus(budget_limit=limit)


def test_heavy_case_solves_its_actual_world_once(monkeypatch):
    # the stated witness is certified in one session bound to the cause
    actual_solves = [0]
    real = causality.solve_values

    def counted(base, exo, interventions=None):
        if not interventions:
            actual_solves[0] += 1
        return real(base, exo, interventions)

    monkeypatch.setattr(causality, "solve_values", counted)
    (stated,) = [case for case in CASES if case.witness is not None]
    result = _run_case(stated, None)
    assert result.ok and result.actual == "cause", result.error
    assert actual_solves[0] == 1


def test_heavy_case_certification_is_charged_to_the_budget():
    # the stated witness is certified under the case's budget, not a default one
    (stated,) = [case for case in CASES if case.witness is not None]
    result = _run_case(stated, 5)
    assert not result.ok and result.actual == "error"
    assert "SearchBudgetExceeded" in result.error


def test_the_plurality_case_is_decided_by_search_within_its_bound():
    # the 17 voters who voted as V1 did are interchangeable: one member of
    # each orbit is scanned, and the first witness is the stated one
    (stated,) = [case for case in CASES if case.witness is not None]
    doc = load_document(stated.model)
    budget = SearchBudget()
    verdict = is_actual_cause(doc.model, doc.context(stated.context),
                              parse_cause(stated.cause, doc.model),
                              parse_formula(stated.effect, doc.model), stated.variant,
                              budget=budget, find_all_witnesses=False)
    assert verdict.is_cause and verdict.search_complete
    assert verdict.witnesses == (stated.witness,)
    assert budget.used == 859


def _searched_solves(find_all_witnesses: bool) -> dict[str, int]:
    """The solves `budget.used` charges to each searched case."""
    used = {}
    for case in CASES:
        if case.witness is not None:
            continue
        doc = load_document(case.model)
        variant = RuleVariant.coerce(case.variant)
        subject = doc.extended() if variant is RuleVariant.EXTENDED else doc.model
        budget = SearchBudget()
        is_actual_cause(subject, doc.context(case.context), parse_cause(case.cause, doc.model),
                        parse_formula(case.effect, doc.model), variant, budget=budget,
                        find_all_witnesses=find_all_witnesses)
        used[case.id] = budget.used
    return used


def test_searched_cases_make_exactly_the_pinned_solves():
    # the counts of the canonical scan, after nogood, no-op and orbit skips:
    # a change in which value tuples are skipped or solved moves them even
    # where every verdict stays the same
    first = _searched_solves(find_all_witnesses=False)
    assert len(first) == 66
    assert sum(first.values()) == 1992
    assert (first["liv_norm_jack"], first["glymour_mech_a4"], first["weslake_two_a"]) == (
        230, 144, 141)
    assert sum(_searched_solves(find_all_witnesses=True).values()) == 6394


def test_searched_cases_start_exactly_the_pinned_value_scans(monkeypatch):
    # a contingency set that a dead nogood group covers is skipped before
    # its value scan starts; the solves stay those pinned above
    scans = [0]
    real = causality._Query._unrefuted

    def counted(self, *args):
        scans[0] += 1
        return real(self, *args)

    monkeypatch.setattr(causality._Query, "_unrefuted", counted)
    for find_all_witnesses, solves, started in ((False, 1992, 649), (True, 6394, 1915)):
        scans[0] = 0
        assert sum(_searched_solves(find_all_witnesses).values()) == solves
        assert scans[0] == started
    # A4's negative verdict scanned all 256 of its sets before
    mechanisms = load_document("glymour_mechanisms")
    scans[0] = 0
    verdict = is_actual_cause(mechanisms.model, mechanisms.context("u"),
                              parse_cause("A4=0", mechanisms.model),
                              parse_formula("O=1", mechanisms.model), "updated",
                              find_all_witnesses=False)
    assert not verdict.is_cause and scans[0] == 71
