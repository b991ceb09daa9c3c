"""Actual-cause decisions over finite causal models.

Three rule variants are supported.  `UPDATED` quantifies the restore
condition over every subset of the contingency set; `ORIGINAL` fixes the
full contingency set; `EXTENDED` is `UPDATED` plus a normality test on the
witness world.  Witnesses are enumerated canonically (contingency sets by
size then declaration order, value tuples lexicographically), so results
are reproducible regardless of how the search is parallelised or resumed.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import (
    EngineError,
    MissingNormalityOrder,
    NoWitness,
    SearchBudgetExceeded,
    UnknownVariable,
    ValueOutOfRange,
)
from .formula import (
    CausalFormula,
    compile_event_formula,
    formula_variables,
    validate_formula,
)
from .model import CausalModel, World, context_values, solve, solve_values

__all__ = [
    "RuleVariant",
    "Witness",
    "Verdict",
    "NormalityOrder",
    "ExtendedCausalModel",
    "SearchBudget",
    "DEFAULT_SOLVE_BUDGET",
    "actual_world",
    "witness_world",
    "check_ac1",
    "check_ac2a",
    "check_ac2b",
    "find_witnesses",
    "is_actual_cause",
    "find_all_causes",
    "best_witnesses",
]

DEFAULT_SOLVE_BUDGET = 10_000_000


class RuleVariant(enum.Enum):
    ORIGINAL = "original"
    UPDATED = "updated"
    EXTENDED = "extended"

    @classmethod
    def coerce(cls, value: "RuleVariant | str") -> "RuleVariant":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise EngineError(f"unknown rule variant {value!r}") from None

    @property
    def restore_label(self) -> str:
        return "AC2(b')" if self is RuleVariant.ORIGINAL else "AC2(b)"


class SearchBudget:
    """Cap on solve calls; exceeding it is an error, never a silent answer."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_SOLVE_BUDGET):
        if limit < 1:
            raise EngineError(
                f"the search budget must be a positive integer, not {limit}"
            )
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.limit)


@dataclass(frozen=True)
class Witness:
    """Contingency variables/values plus the alternate cause values."""

    vars: tuple[str, ...]
    values: tuple[int, ...]
    alt: tuple[int, ...]

    def __post_init__(self):
        if len(self.vars) != len(self.values):
            raise EngineError("witness variables and values differ in length")

    def __str__(self):
        w = "{" + ", ".join(self.vars) + "}"
        return f"W={w} w={self.values} x'={self.alt}"


@dataclass(frozen=True)
class Verdict:
    is_cause: bool
    witnesses: tuple[Witness, ...] = ()
    failure_reason: str | None = None
    ac3_violation: tuple[tuple[str, int], ...] | None = None
    search_complete: bool = True

    def __str__(self):
        if self.is_cause:
            head = "cause"
        else:
            head = f"not a cause ({self.failure_reason})"
        if self.witnesses:
            head += "; witnesses: " + "; ".join(str(w) for w in self.witnesses)
        return head


class NormalityOrder:
    """Partial preorder on worlds: at-least-as-normal comparisons.

    Two representations are supported.  A rank function induces a total
    preorder (lower rank reads as more normal); an explicit relation holds
    generating pairs `(s, t)` meaning `s` is at least as normal as `t`,
    interpreted under reflexive-transitive closure and therefore possibly
    partial.
    """

    def __init__(self, *, rank_fn=None, pairs=None):
        if (rank_fn is None) == (pairs is None):
            raise EngineError("give exactly one of rank_fn or pairs")
        self._rank_fn = rank_fn
        self._edges: dict[World, set[World]] | None = None
        self._reach: dict[World, frozenset[World]] = {}
        if pairs is not None:
            self._edges = {}
            for s, t in pairs:
                self._edges.setdefault(s, set()).add(t)

    @classmethod
    def from_ranks(cls, ranks: "Mapping[World, int] | Callable[[World], int]") -> "NormalityOrder":
        if callable(ranks):
            return cls(rank_fn=ranks)
        table = dict(ranks)

        def fn(world: World) -> int:
            try:
                return table[world]
            except KeyError:
                raise EngineError(f"world has no rank: {world}") from None

        return cls(rank_fn=fn)

    @classmethod
    def from_relation(cls, pairs: Iterable[tuple[World, World]]) -> "NormalityOrder":
        return cls(pairs=tuple(pairs))

    @classmethod
    def flat(cls) -> "NormalityOrder":
        """Total equivalence: every world is exactly as normal as any other."""
        return cls(rank_fn=lambda world: 0)

    def rank(self, world: World) -> int | None:
        return self._rank_fn(world) if self._rank_fn is not None else None

    def _reachable(self, start: World) -> frozenset[World]:
        cached = self._reach.get(start)
        if cached is None:
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in self._edges.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            cached = frozenset(seen)
            self._reach[start] = cached
        return cached

    def at_least_as_normal(self, s: World, t: World) -> bool:
        if self._rank_fn is not None:
            return self._rank_fn(s) <= self._rank_fn(t)
        return t == s or t in self._reachable(s)

    def strictly_more_normal(self, s: World, t: World) -> bool:
        return self.at_least_as_normal(s, t) and not self.at_least_as_normal(t, s)


@dataclass(frozen=True)
class ExtendedCausalModel:
    """A causal model together with a normality preorder on its worlds."""

    base: CausalModel
    order: NormalityOrder


# ---------------------------------------------------------------------------
# Query plumbing
# ---------------------------------------------------------------------------

def _unwrap(model) -> tuple[CausalModel, NormalityOrder | None]:
    if isinstance(model, ExtendedCausalModel):
        return model.base, model.order
    if isinstance(model, CausalModel):
        return model, None
    raise EngineError(f"not a causal model: {type(model).__name__}")


def _normalize_cause(base: CausalModel, cause: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    if not cause:
        raise EngineError("a candidate cause needs at least one conjunct")
    rt = base._runtime()
    for name, value in cause.items():
        idx = rt.endo_index.get(name)
        if idx is None:
            raise UnknownVariable(name, "cause conjuncts are endogenous")
        if value not in rt.endo_range_sets[idx]:
            raise ValueOutOfRange(name, value)
    ordered = sorted(cause, key=rt.endo_index.__getitem__)
    return tuple((n, cause[n]) for n in ordered)


def _validate_witness(
    base: CausalModel, cause: tuple[tuple[str, int], ...], witness: Witness
) -> None:
    rt = base._runtime()
    cause_vars = {n for n, _ in cause}
    seen = set()
    for name, value in zip(witness.vars, witness.values):
        idx = rt.endo_index.get(name)
        if idx is None:
            raise UnknownVariable(name, "contingency variables are endogenous")
        if name in cause_vars:
            raise EngineError(f"contingency variable {name!r} overlaps the cause")
        if name in seen:
            raise EngineError(f"contingency variable {name!r} repeated")
        seen.add(name)
        if value not in rt.endo_range_sets[idx]:
            raise ValueOutOfRange(name, value)
    if len(witness.alt) != len(cause):
        raise EngineError("alternate cause values do not match the cause arity")
    for (name, _), alt in zip(cause, witness.alt):
        if alt not in rt.endo_range_sets[rt.endo_index[name]]:
            raise ValueOutOfRange(name, alt)


class _Query:
    """One query session: a model, a context, an effect, a variant, a budget.

    The constructor validates the inputs, compiles the effect and solves the
    actual world, charging that solve to the budget.  `bind` gives the
    session a candidate cause; a bound query shares the session's budget,
    actual world and AC2 memo, so AC3 sub-searches and the candidates of
    `find_all_causes` repeat none of that work.
    """

    def __init__(self, model, context, phi, variant, budget):
        self.base, self.order = _unwrap(model)
        self.variant = RuleVariant.coerce(variant)
        if self.variant is RuleVariant.EXTENDED and self.order is None:
            raise MissingNormalityOrder(
                "the extended variant needs a model with a normality order"
            )
        validate_formula(self.base, phi)
        self.phi_ok = compile_event_formula(self.base, phi)
        self.budget = budget if budget is not None else SearchBudget()
        self.rt = self.base._runtime()
        self.exo = context_values(self.base, context)
        self.actual = self._solve(None)
        # only the extended variant compares witness worlds with this one
        self.actual_world = (
            World(self.rt.endo_names, self.actual)
            if self.variant is RuleVariant.EXTENDED else None
        )
        # normalized cause -> whether it passes AC1 and has an AC2 witness
        self.memo: dict[tuple[tuple[str, int], ...], bool] = {}

    def bind(self, cause: Mapping[str, int]) -> "_Query":
        """This session with `cause` as the candidate; all else is shared."""
        # plain stores, not a dict copy, keep the fast attribute access of a
        # normally built instance in the search loops
        bound = object.__new__(_Query)
        bound.base, bound.order, bound.variant = self.base, self.order, self.variant
        bound.phi_ok, bound.budget, bound.rt = self.phi_ok, self.budget, self.rt
        bound.exo, bound.actual = self.exo, self.actual
        bound.actual_world, bound.memo = self.actual_world, self.memo
        bound.cause = _normalize_cause(self.base, cause)
        bound.cause_idx = tuple([self.rt.endo_index[n] for n, _ in bound.cause])
        bound.cause_vals = tuple([v for _, v in bound.cause])
        cause_set = set(bound.cause_idx)
        bound.non_cause = tuple(
            [i for i in range(len(self.rt.endo_names)) if i not in cause_set]
        )
        return bound

    def _solve(self, interventions) -> tuple[int, ...]:
        self.budget.tick()
        return solve_values(self.base, self.exo, interventions)

    # -- AC conditions -----------------------------------------------------

    def ac1(self) -> bool:
        actual = self.actual
        return (
            tuple([actual[i] for i in self.cause_idx]) == self.cause_vals
            and self.phi_ok(actual, ()) != 0
        )

    def witness_iv(self, w_idx, w_vals, alt) -> dict[int, int]:
        iv = dict(zip(self.cause_idx, alt))
        iv.update(zip(w_idx, w_vals))
        return iv

    def ac2a(self, w_idx, w_vals, alt) -> tuple[bool, bool]:
        """Returns (counterfactual holds, witness world passes normality)."""
        hypothetical = self._solve(self.witness_iv(w_idx, w_vals, alt))
        if self.phi_ok(hypothetical, ()):
            return False, True
        if self.variant is not RuleVariant.EXTENDED:
            return True, True
        ok = self.order.at_least_as_normal(
            World(self.rt.endo_names, hypothetical), self.actual_world
        )
        return True, ok

    def ac2b(self, w_idx, w_vals) -> bool:
        """Restore condition at the actual cause values.

        UPDATED/EXTENDED range over every subset of the contingency set;
        ORIGINAL fixes it whole.  Both range over every subset of the
        remaining variables reset to their actual values.
        """
        base_iv = dict(zip(self.cause_idx, self.cause_vals))
        w_set = set(w_idx)
        rest = [i for i in self.non_cause if i not in w_set]
        if self.variant is RuleVariant.ORIGINAL:
            w_subsets: Iterable[tuple[int, ...]] = (tuple(range(len(w_idx))),)
        else:
            w_subsets = itertools.chain.from_iterable(
                itertools.combinations(range(len(w_idx)), k)
                for k in range(len(w_idx) + 1)
            )
        for chosen in w_subsets:
            iv_w = dict(base_iv)
            for pos in chosen:
                iv_w[w_idx[pos]] = w_vals[pos]
            for k in range(len(rest) + 1):
                for reset in itertools.combinations(rest, k):
                    iv = dict(iv_w)
                    for i in reset:
                        iv[i] = self.actual[i]
                    if not self.phi_ok(self._solve(iv), ()):
                        return False
        return True

    # -- enumeration ---------------------------------------------------------

    def alt_tuples(self) -> Iterable[tuple[int, ...]]:
        ranges = [self.rt.endo_ranges[i] for i in self.cause_idx]
        for combo in itertools.product(*ranges):
            if combo != self.cause_vals:
                yield combo

    def contingency_candidates(self) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
        for size in range(len(self.non_cause) + 1):
            for combo in itertools.combinations(self.non_cause, size):
                ranges = [self.rt.endo_ranges[i] for i in combo]
                for vals in itertools.product(*ranges):
                    yield combo, vals

    def search(self, find_all: bool) -> tuple[list[Witness], str, bool]:
        """Canonical witness scan.

        Returns the witnesses found, the deepest condition that failed when
        none was found, and whether the scan ran to completion (a budget
        exhausted after at least one hit truncates instead of failing).
        """
        witnesses: list[Witness] = []
        deepest = "AC2(a)"
        names = self.rt.endo_names
        try:
            for w_idx, w_vals in self.contingency_candidates():
                for alt in self.alt_tuples():
                    flips, normal_ok = self.ac2a(w_idx, w_vals, alt)
                    if not flips:
                        continue
                    if not normal_ok:
                        if deepest == "AC2(a)":
                            deepest = "AC2(a+)"
                        continue
                    if self.ac2b(w_idx, w_vals):
                        witnesses.append(
                            Witness(tuple(names[i] for i in w_idx), w_vals, alt)
                        )
                        if not find_all:
                            return witnesses, "", True
                    else:
                        deepest = self.variant.restore_label
        except SearchBudgetExceeded:
            if not witnesses:
                raise
            return witnesses, "", False
        return witnesses, deepest, True


def actual_world(model, context: Mapping[str, int]) -> World:
    return solve(_unwrap(model)[0], context)


def witness_world(model, context, cause: Mapping[str, int], witness: Witness) -> World:
    """The world obtained by imposing the witness contingency and the
    alternate cause values."""
    base, _ = _unwrap(model)
    cause_items = _normalize_cause(base, cause)
    _validate_witness(base, cause_items, witness)
    rt = base._runtime()
    iv = {rt.endo_index[n]: a for (n, _), a in zip(cause_items, witness.alt)}
    iv.update({rt.endo_index[n]: v for n, v in zip(witness.vars, witness.values)})
    exo = context_values(base, context)
    return World(rt.endo_names, solve_values(base, exo, iv))


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------

def check_ac1(model, context, cause: Mapping[str, int], phi: CausalFormula) -> bool:
    """Both the candidate cause and the effect hold in the actual world."""
    return _Query(model, context, phi, RuleVariant.UPDATED, None).bind(cause).ac1()


def _witness_query(model, context, cause, phi, witness, variant):
    """A query bound to `cause`, and the witness's contingency indices."""
    query = _Query(model, context, phi, variant, None).bind(cause)
    _validate_witness(query.base, query.cause, witness)
    return query, tuple(query.rt.endo_index[n] for n in witness.vars)


def check_ac2a(
    model,
    context,
    cause: Mapping[str, int],
    phi: CausalFormula,
    witness: Witness,
    variant: RuleVariant | str = RuleVariant.UPDATED,
) -> bool:
    """The counterfactual clause; EXTENDED also tests witness-world normality,
    counting incomparability as failure."""
    query, w_idx = _witness_query(model, context, cause, phi, witness, variant)
    flips, normal_ok = query.ac2a(w_idx, witness.values, witness.alt)
    return flips and normal_ok


def check_ac2b(
    model,
    context,
    cause: Mapping[str, int],
    phi: CausalFormula,
    witness: Witness,
    variant: RuleVariant | str = RuleVariant.UPDATED,
) -> bool:
    """The restore clause of the chosen variant."""
    query, w_idx = _witness_query(model, context, cause, phi, witness, variant)
    return query.ac2b(w_idx, witness.values)


def find_witnesses(
    model,
    context,
    cause: Mapping[str, int],
    phi: CausalFormula,
    variant: RuleVariant | str = RuleVariant.UPDATED,
    budget: SearchBudget | None = None,
) -> list[Witness]:
    """Every witness passing AC2 under the variant, in canonical order."""
    query = _Query(model, context, phi, variant, budget).bind(cause)
    witnesses, _, _ = query.search(find_all=True)
    return witnesses


def _has_ac2_witness(query: _Query, cause: tuple[tuple[str, int], ...]) -> bool:
    """AC1 and AC2 for a sub-conjunction in normalized order, memoized on
    the session of `query`."""
    hit = query.memo.get(cause)
    if hit is None:
        sub = query.bind(dict(cause))
        hit = query.memo[cause] = sub.ac1() and bool(sub.search(find_all=False)[0])
    return hit


def _decide(query: _Query, find_all_witnesses: bool) -> Verdict:
    """The three clauses for a bound query; records its AC2 outcome in the
    session memo, where later AC3 checks of larger causes find it."""
    witnesses, deepest, complete = (
        query.search(find_all_witnesses) if query.ac1() else ([], "AC1", True)
    )
    query.memo[query.cause] = bool(witnesses)
    if not witnesses:
        return Verdict(False, (), deepest)
    for size in range(1, len(query.cause)):
        for sub in itertools.combinations(query.cause, size):
            if _has_ac2_witness(query, sub):
                return Verdict(False, tuple(witnesses), "AC3", sub, complete)
    return Verdict(True, tuple(witnesses), None, None, complete)


def is_actual_cause(
    model,
    context,
    cause: Mapping[str, int],
    phi: CausalFormula,
    variant: RuleVariant | str = RuleVariant.UPDATED,
    budget: SearchBudget | None = None,
    find_all_witnesses: bool = True,
) -> Verdict:
    """Decide the full three-clause definition under the chosen variant.

    The verdict lists every witness found (or at least one when the budget
    truncated the scan).  Minimality is checked by searching every strict
    nonempty sub-conjunction within the same query session.
    """
    query = _Query(model, context, phi, variant, budget).bind(cause)
    return _decide(query, find_all_witnesses)


def find_all_causes(
    model,
    context,
    phi: CausalFormula,
    variant: RuleVariant | str = RuleVariant.UPDATED,
    budget: SearchBudget | None = None,
    max_conjuncts: int | None = None,
) -> list[tuple[dict[str, int], Verdict]]:
    """Enumerate the causes of `phi` among variables at their actual values.

    Candidates run over conjunctions of endogenous variables not mentioned
    by `phi`, by increasing conjunct count; supersets of a found cause are
    pruned since they can only fail minimality.  Every candidate is decided
    in one query session, whose memo answers the AC3 checks of larger
    candidates from the verdicts of smaller ones.
    """
    if max_conjuncts is not None and max_conjuncts < 1:
        raise EngineError(
            f"max_conjuncts must be a positive integer, not {max_conjuncts}"
        )
    session = _Query(model, context, phi, variant, budget)
    if not session.phi_ok(session.actual, ()):
        return []
    rt = session.rt
    excluded = formula_variables(phi)
    eligible = [n for n in rt.endo_names if n not in excluded]
    limit = len(eligible) if max_conjuncts is None else min(max_conjuncts, len(eligible))
    found: list[tuple[dict[str, int], Verdict]] = []
    cause_sets: list[frozenset[str]] = []
    for size in range(1, limit + 1):
        for combo in itertools.combinations(eligible, size):
            combo_set = frozenset(combo)
            if any(s < combo_set for s in cause_sets):
                continue
            candidate = {n: session.actual[rt.endo_index[n]] for n in combo}
            verdict = _decide(session.bind(candidate), True)
            if verdict.is_cause:
                cause_sets.append(combo_set)
                found.append((candidate, verdict))
    return found


def best_witnesses(
    model,
    context,
    cause: Mapping[str, int],
    phi: CausalFormula,
    budget: SearchBudget | None = None,
) -> list[tuple[Witness, World]]:
    """Witnesses whose worlds are maximally normal, for grading causes.

    Witnesses come from the plain updated definition, with no normality
    threshold applied; the order is only used to compare witness worlds
    against each other.
    """
    base, order = _unwrap(model)
    if order is None:
        raise MissingNormalityOrder("witness grading needs a normality order")
    query = _Query(base, context, phi, RuleVariant.UPDATED, budget).bind(cause)
    if not query.ac1():
        raise NoWitness("the cause or the effect does not hold in the actual world")
    witnesses, _, _ = query.search(find_all=True)
    if not witnesses:
        raise NoWitness("no witness satisfies the plain definition")
    index = query.rt.endo_index
    worlds = []
    for w in witnesses:
        iv = query.witness_iv([index[n] for n in w.vars], w.values, w.alt)
        worlds.append(World(query.rt.endo_names, query._solve(iv)))
    best = []
    for w, s in zip(witnesses, worlds):
        if not any(order.strictly_more_normal(other, s) for other in worlds):
            best.append((w, s))
    return best
