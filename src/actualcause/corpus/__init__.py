"""Bundled example models with their expected causal verdicts.

Every case names a model file, a declared context, a query and the verdict
the engine must reproduce.  The full-size plurality case checks one stated
witness instead of searching, a check of ten solves under the run's
budget.  A plain search decides it too, in 365 solves, because it scans
one member per orbit of the seventeen interchangeable voters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..causality import (
    RuleVariant,
    SearchBudget,
    Witness,
    _certifies,
    _witness_query,
    is_actual_cause,
)
from ..dsl import ModelDocument, parse_cause, parse_formula, parse_model
from ..errors import _check_count

__all__ = [
    "CorpusCase",
    "CaseResult",
    "CorpusReport",
    "CASES",
    "CONSERVATIVE_PAIRS",
    "model_path",
    "model_names",
    "load_document",
    "verify_corpus",
]


@dataclass(frozen=True)
class CorpusCase:
    id: str
    model: str
    context: str
    cause: str
    effect: str
    variant: str
    expect: str  # "cause" | "not-cause"
    note: str
    witness: Witness | None = None


CASES: tuple[CorpusCase, ...] = (
    # -- rock throwing -------------------------------------------------------
    CorpusCase("rt_naive_st", "rock_throwing_naive", "u1", "ST=1", "BS=1", "updated",
               "cause", "symmetric model: the first throw shatters"),
    CorpusCase("rt_naive_bt", "rock_throwing_naive", "u1", "BT=1", "BS=1", "updated",
               "cause", "symmetric model: the second throw shatters too"),
    CorpusCase("rt_detail_st", "rock_throwing_detailed", "u1", "ST=1", "BS=1", "updated",
               "cause", "with hits modeled, the arriving throw stays a cause"),
    CorpusCase("rt_detail_bt", "rock_throwing_detailed", "u1", "BT=1", "BS=1", "updated",
               "not-cause", "the preempted throw is no longer a cause"),
    # -- selector switch -----------------------------------------------------
    CorpusCase("spohn_sw_a", "spohn_switch", "u", "A=1", "C=1", "updated",
               "not-cause", "the dead route's source is not a cause"),
    CorpusCase("spohn_sw_b", "spohn_switch", "u", "B=1", "C=1", "updated",
               "cause", "the live route's source is a cause"),
    CorpusCase("spohn_sw_s", "spohn_switch", "u", "S=1", "C=1", "updated",
               "cause", "the switch position is a cause"),
    CorpusCase("spohn_alt_a", "spohn_alternate", "u", "A=1", "C=1", "updated",
               "cause", "under the other wiring story all three count"),
    CorpusCase("spohn_alt_b", "spohn_alternate", "u", "B=1", "C=1", "updated",
               "cause", "under the other wiring story all three count"),
    CorpusCase("spohn_alt_s", "spohn_alternate", "u", "S=1", "C=1", "updated",
               "cause", "under the other wiring story all three count"),
    # -- three-position lamp -------------------------------------------------
    CorpusCase("weslake_naive_a", "weslake_naive", "u", "A=1", "L=1", "updated",
               "cause", "bare agreement equation makes the odd switch a cause"),
    CorpusCase("weslake_naive_b", "weslake_naive", "u", "B=-1", "L=1", "updated",
               "cause", "an agreeing switch is a cause"),
    CorpusCase("weslake_naive_c", "weslake_naive", "u", "C=-1", "L=1", "updated",
               "cause", "an agreeing switch is a cause"),
    CorpusCase("weslake_two_a", "weslake_two", "u", "A=1", "L=1", "updated",
               "not-cause", "with pair indicators the odd switch drops out"),
    CorpusCase("weslake_two_b", "weslake_two", "u", "B=-1", "L=1", "updated",
               "cause", "agreeing switches stay causes"),
    CorpusCase("weslake_not_a", "weslake_not", "u", "A=1", "L=1", "updated",
               "cause", "with avoidance indicators the odd switch is a cause"),
    # -- two canvassers ------------------------------------------------------
    CorpusCase("hall_m_d_e", "hall_agents", "u", "D=1", "E=1", "updated",
               "cause", "each report drives its own record"),
    CorpusCase("hall_m_d_b", "hall_agents", "u", "D=1", "B=1", "updated",
               "not-cause", "reports do not cross over"),
    CorpusCase("hall_mp_d_b", "hall_tabulator", "u", "D=1", "B=1", "updated",
               "cause", "via the agreement report, D now feeds B"),
    CorpusCase("hall_mp_d_e", "hall_tabulator", "u", "D=1", "E=1", "updated",
               "cause", "D still drives its own record"),
    # -- ranch vote ----------------------------------------------------------
    CorpusCase("glymour_naive_a1", "glymour_naive", "u", "A1=1", "O=1", "updated",
               "cause", "plain outcome equation: every vote counts"),
    CorpusCase("glymour_naive_a2", "glymour_naive", "u", "A2=1", "O=1", "updated",
               "cause", "plain outcome equation: every vote counts"),
    CorpusCase("glymour_naive_a3", "glymour_naive", "u", "A3=0", "O=1", "updated",
               "cause", "plain outcome equation: even the losing votes count"),
    CorpusCase("glymour_naive_a4", "glymour_naive", "u", "A4=0", "O=1", "updated",
               "cause", "plain outcome equation: even the losing votes count"),
    CorpusCase("glymour_naive_a5", "glymour_naive", "u", "A5=0", "O=1", "updated",
               "cause", "plain outcome equation: even the losing votes count"),
    CorpusCase("glymour_mech_a1", "glymour_mechanisms", "u", "A1=1", "O=1", "updated",
               "cause", "the agreement mechanism needed the first leader"),
    CorpusCase("glymour_mech_a2", "glymour_mechanisms", "u", "A2=1", "O=1", "updated",
               "cause", "the agreement mechanism needed the second leader"),
    CorpusCase("glymour_mech_m2", "glymour_mechanisms", "u", "M2=1", "O=1", "updated",
               "cause", "the active mechanism itself is a cause"),
    CorpusCase("glymour_mech_a3", "glymour_mechanisms", "u", "A3=0", "O=1", "updated",
               "not-cause", "with mechanisms explicit the losing votes drop out"),
    CorpusCase("glymour_mech_a4", "glymour_mechanisms", "u", "A4=0", "O=1", "updated",
               "not-cause", "with mechanisms explicit the losing votes drop out"),
    CorpusCase("glymour_mech_a5", "glymour_mechanisms", "u", "A5=0", "O=1", "updated",
               "not-cause", "with mechanisms explicit the losing votes drop out"),
    CorpusCase("glymour_alt_a1", "glymour_mechanisms_alt", "u", "A1=1", "O=1", "updated",
               "cause", "under the other mechanism story all five count"),
    CorpusCase("glymour_alt_a2", "glymour_mechanisms_alt", "u", "A2=1", "O=1", "updated",
               "cause", "under the other mechanism story all five count"),
    CorpusCase("glymour_alt_a3", "glymour_mechanisms_alt", "u", "A3=0", "O=1", "updated",
               "cause", "under the other mechanism story all five count"),
    CorpusCase("glymour_alt_a4", "glymour_mechanisms_alt", "u", "A4=0", "O=1", "updated",
               "cause", "under the other mechanism story all five count"),
    CorpusCase("glymour_alt_a5", "glymour_mechanisms_alt", "u", "A5=0", "O=1", "updated",
               "cause", "under the other mechanism story all five count"),
    # -- lopsided district ---------------------------------------------------
    CorpusCase("liv_exo_jack", "livengood_exopref", "u1", "PJack=0", "O=2", "updated",
               "not-cause", "with preferences exogenous, the loyalist's abstention is idle"),
    CorpusCase("liv_exo_jill", "livengood_exopref", "u1", "PJill=0", "O=2", "updated",
               "cause", "the dissenter's abstention matters"),
    CorpusCase("liv_norm_jack_plain", "livengood_normality", "u1", "Jack=0", "O=2", "updated",
               "cause", "without normality both abstentions count"),
    CorpusCase("liv_norm_jack", "livengood_normality", "u1", "Jack=0", "O=2", "extended",
               "not-cause", "Jack's only witnesses need his abnormal vote"),
    CorpusCase("liv_norm_jill", "livengood_normality", "u1", "Jill=0", "O=2", "extended",
               "cause", "Jill has a fully normal witness"),
    # -- three-way plurality -------------------------------------------------
    CorpusCase("liv520_v6", "livengood_5_2_0", "u", "V6=1", "O=0", "updated",
               "cause", "a vote for the runner-up causes the winner's win"),
    CorpusCase("liv520_v7", "livengood_5_2_0", "u", "V7=1", "O=0", "updated",
               "cause", "a vote for the runner-up causes the winner's win"),
    CorpusCase("liv1720_v18", "livengood_17_2_0", "u", "V18=1", "O=0", "updated",
               "cause", "full-size tally, checked against one stated witness",
               witness=Witness(tuple(f"V{i}" for i in range(1, 9)), (2,) * 8, (2,))),
    # -- loaded gun ----------------------------------------------------------
    CorpusCase("hp_a_original", "hopkins_pearl", "u", "A=1", "D=1", "original",
               "cause", "fixed-contingency rules accept the idle loader"),
    CorpusCase("hp_a_updated", "hopkins_pearl", "u", "A=1", "D=1", "updated",
               "not-cause", "subset-robust rules reject the idle loader"),
    CorpusCase("hp_c_updated", "hopkins_pearl", "u", "C=1", "D=1", "updated",
               "cause", "the shooter is a cause under either rule"),
    CorpusCase("hp_c_original", "hopkins_pearl", "u", "C=1", "D=1", "original",
               "cause", "the shooter is a cause under either rule"),
    CorpusCase("hpe_b_original", "hopkins_pearl_e", "u", "B=0", "D=1", "original",
               "not-cause", "with the route named, the non-shooter drops out"),
    CorpusCase("hpe_b_updated", "hopkins_pearl_e", "u", "B=0", "D=1", "updated",
               "not-cause", "with the route named, the non-shooter drops out"),
    CorpusCase("hpe_a_original", "hopkins_pearl_e", "u", "A=1", "D=1", "original",
               "not-cause", "the named route fixes the fixed-contingency rules too"),
    CorpusCase("hpe_c_updated", "hopkins_pearl_e", "u", "C=1", "D=1", "updated",
               "cause", "the shooter survives the refinement"),
    # -- poisoned coffee -----------------------------------------------------
    CorpusCase("bogus_b_plain", "bogus_prevention", "u", "B=1", "VS=1", "updated",
               "cause", "bare model wrongly blesses the antidote"),
    CorpusCase("bogus_b_ext", "bogus_prevention", "u", "B=1", "VS=1", "extended",
               "not-cause", "its witnesses all need the abnormal poisoning"),
    CorpusCase("bogus_a_ext", "bogus_prevention", "u", "A=1", "VS=1", "extended",
               "not-cause", "restraint is not a cause once poisoning is abnormal"),
    CorpusCase("bogus_pn_b", "bogus_prevention_pn", "u", "B=1", "VS=1", "updated",
               "not-cause", "with neutralization named, no normality is needed"),
    # -- scanner chain -------------------------------------------------------
    CorpusCase("scan_m_bc", "scanner_vote", "u", "B=1 & C=1", "WIN=1", "extended",
               "not-cause", "the pair fails minimality in the base model"),
    CorpusCase("scan_mp_bc", "scanner_vote_direct", "u", "B=1 & C=1", "WIN=1", "extended",
               "cause", "one refinement later the pair is a cause"),
    CorpusCase("scan_mp_b", "scanner_vote_direct", "u", "B=1", "WIN=1", "extended",
               "not-cause", "each scanner alone is preempted"),
    CorpusCase("scan_mp_c", "scanner_vote_direct", "u", "C=1", "WIN=1", "extended",
               "not-cause", "each scanner alone is preempted"),
    CorpusCase("scan_mpp_bc", "scanner_vote_both", "u", "B=1 & C=1", "WIN=1", "extended",
               "not-cause", "a second refinement kills the pair again"),
    # -- alternating chain ---------------------------------------------------
    CorpusCase("stab_0", "stability_0", "u1", "A=1", "B=1", "updated",
               "not-cause", "alternating chain, even member"),
    CorpusCase("stab_1", "stability_1", "u1", "A=1", "B=1", "updated",
               "cause", "alternating chain, odd member"),
    CorpusCase("stab_2", "stability_2", "u1", "A=1", "B=1", "updated",
               "not-cause", "alternating chain, even member"),
    CorpusCase("stab_3", "stability_3", "u1", "A=1", "B=1", "updated",
               "cause", "alternating chain, odd member"),
    CorpusCase("stab_4", "stability_4", "u1", "A=1", "B=1", "updated",
               "not-cause", "alternating chain, even member"),
    CorpusCase("stab_5", "stability_5", "u1", "A=1", "B=1", "updated",
               "cause", "alternating chain, odd member"),
)

# extension/base pairs that must pass the conservativity check; these also
# feed the randomized formula-agreement suite
CONSERVATIVE_PAIRS: tuple[tuple[str, str], ...] = (
    ("rock_throwing_detailed", "rock_throwing_naive"),
    ("hopkins_pearl_e", "hopkins_pearl"),
    ("bogus_prevention_pn", "bogus_prevention"),
    ("glymour_mechanisms", "glymour_naive"),
    ("glymour_mechanisms_alt", "glymour_naive"),
    ("weslake_two", "weslake_naive"),
    ("weslake_not", "weslake_naive"),
    ("scanner_vote_direct", "scanner_vote"),
    ("scanner_vote_both", "scanner_vote_direct"),
    ("stability_1", "stability_0"),
    ("stability_2", "stability_1"),
    ("stability_3", "stability_2"),
    ("stability_4", "stability_3"),
    ("stability_5", "stability_4"),
    ("stability_6", "stability_5"),
)


_MODELS = Path(__file__).with_name("models")


def model_path(name: str) -> Path:
    return _MODELS / f"{name}.cm"


def model_names() -> list[str]:
    return sorted(p.stem for p in _MODELS.glob("*.cm"))


@lru_cache(maxsize=None)
def load_document(name: str) -> ModelDocument:
    return parse_model(model_path(name).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class CaseResult:
    case: CorpusCase
    expected: str
    actual: str
    ok: bool
    seconds: float
    error: str | None = None


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[CaseResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def counts(self) -> tuple[int, int]:
        passed = sum(1 for r in self.results if r.ok)
        return passed, len(self.results) - passed


def _run_case(case: CorpusCase, budget_limit: int | None) -> CaseResult:
    start = time.perf_counter()
    try:
        doc = load_document(case.model)
        variant = RuleVariant.coerce(case.variant)
        subject = doc.subject(variant)
        context = doc.context(case.context)
        cause = parse_cause(case.cause, doc.model)
        effect = parse_formula(case.effect, doc.model)
        budget = SearchBudget() if budget_limit is None else SearchBudget(budget_limit)
        if case.witness is not None:
            # verify the stated witness instead of searching, in one session
            # bound to the cause: enough for a positive verdict on a
            # single-conjunct cause
            query, w_idx = _witness_query(subject, context, cause, effect, case.witness,
                                          variant, budget)
            certified = _certifies(query, w_idx, case.witness) and len(cause) == 1
            actual = "cause" if certified else "not-cause"
        else:
            verdict = is_actual_cause(
                subject, context, cause, effect, variant,
                budget=budget, find_all_witnesses=False,
            )
            actual = "cause" if verdict.is_cause else "not-cause"
        return CaseResult(
            case, case.expect, actual, actual == case.expect,
            time.perf_counter() - start,
        )
    except Exception as exc:  # surfaced in the report, never swallowed
        return CaseResult(
            case, case.expect, "error", False,
            time.perf_counter() - start, f"{type(exc).__name__}: {exc}",
        )


def verify_corpus(budget_limit: int | None = None) -> CorpusReport:
    """Run every bundled case and report expected vs. actual verdicts."""
    if budget_limit is not None:
        _check_count(budget_limit, 1, "the budget limit must be a positive integer, not {}")
    return CorpusReport(tuple(_run_case(c, budget_limit) for c in CASES))
