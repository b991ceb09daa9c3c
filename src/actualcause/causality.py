"""Actual-cause decisions over finite causal models.

Three rule variants are supported.  `UPDATED` quantifies the restore
condition over every subset of the contingency set; `ORIGINAL` fixes the
full contingency set; `EXTENDED` is `UPDATED` plus a normality test on the
witness world.  Witnesses are listed canonically (contingency sets by size
then declaration order, value tuples lexicographically, then alternate
cause values), so results are reproducible.  The search skips a
contingency, or copies its witnesses, only where a nogood, a smaller
contingency or a swap of interchangeable variables already decides it
(see `_Query.search`), which leaves that order intact.
"""

from __future__ import annotations

import collections
import enum
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .errors import (
    EngineError,
    MalformedPhi,
    MissingNormalityOrder,
    NoWitness,
    SearchBudgetExceeded,
    _check_count,
)
from .formula import (
    CausalFormula,
    Held,
    _walk,
    formula_variables,
    holds,
    validate_formula,
)
from .model import (
    Case,
    CausalModel,
    Cmp,
    Const,
    Expression,
    Not,
    Var,
    World,
    _setting_index,
    context_values,
    solve,
    solve_values,
)

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
        _check_count(limit, 1, "the search budget must be a positive integer, not {}")
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

    `_reads` names the endogenous variables the rank function reads, where
    the order's builder knows them: `flat` and a rank table of a model
    document set it after construction.  It is None otherwise, since an
    opaque callable cannot be checked.  The cause search swaps
    interchangeable variables only where the order cannot tell them apart
    (see `_Query.search`).
    """

    def __init__(self, *, rank_fn=None, pairs=None):
        if (rank_fn is None) == (pairs is None):
            raise EngineError("give exactly one of rank_fn or pairs")
        self._rank_fn = rank_fn
        self._reads: frozenset[str] | None = None
        self._last_rank: tuple[World, int] | None = None
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
        order = cls(rank_fn=lambda world: 0)
        order._reads = frozenset()
        return order

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
        """Under a rank function, `s` is ranked first, then `t`, whose rank
        is kept: a caller compares many worlds with one fixed world, and the
        next call with that same object `t` reuses its rank.  That is sound
        because a rank function is a function of the world and a `World` is
        frozen; the kept entry holds `t` itself, so its identity cannot pass
        to another object.  The first rank error is the one ranking both
        worlds would raise."""
        if self._rank_fn is not None:
            s_rank, last = self._rank_fn(s), self._last_rank
            if last is None or last[0] is not t:
                last = self._last_rank = t, self._rank_fn(t)
            return s_rank <= last[1]
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
        _setting_index(rt, name, value, "cause conjuncts are endogenous")
    ordered = sorted(cause, key=rt.endo_index.__getitem__)
    return tuple((n, cause[n]) for n in ordered)


def _validate_witness(
    base: CausalModel, cause: tuple[tuple[str, int], ...], witness: Witness
) -> tuple[int, ...]:
    """Check a witness against a normalized cause; return the endogenous
    indices of its contingency variables."""
    rt = base._runtime()
    cause_vars = {n for n, _ in cause}
    seen = set()
    w_idx = []
    for name, value in zip(witness.vars, witness.values):
        # an unknown name is never in the cause or seen, so checking overlap
        # and repetition before the name and range changes no error
        if name in cause_vars:
            raise EngineError(f"contingency variable {name!r} overlaps the cause")
        if name in seen:
            raise EngineError(f"contingency variable {name!r} repeated")
        seen.add(name)
        w_idx.append(_setting_index(rt, name, value, "contingency variables are endogenous"))
    if len(witness.alt) != len(cause):
        raise EngineError("alternate cause values do not match the cause arity")
    for (name, _), alt in zip(cause, witness.alt):
        _setting_index(rt, name, alt, "cause conjuncts are endogenous")
    return tuple(w_idx)


def _canon(expr: Expression, leaves: Mapping[str, tuple]) -> tuple:
    """A canonical form of an equation, each variable read as its entry in
    `leaves` or else `("v", name)`: two equations have one form when they
    differ only in the order of the items of an `And`, `Or` or `Sum`, and
    of the two sides of an `=` or `!=`.  Forms are nested tuples headed by
    a tag, and one tag heads one shape, so forms compare and sort."""
    if isinstance(expr, Var):
        return leaves.get(expr.name) or ("v", expr.name)
    if isinstance(expr, Const):
        return ("c", expr.value)
    if isinstance(expr, Cmp):
        sides = [_canon(expr.lhs, leaves), _canon(expr.rhs, leaves)]
        if expr.op in ("=", "!="):
            sides.sort()
        return (expr.op, *sides)
    if isinstance(expr, Not):
        return ("!", _canon(expr.operand, leaves))
    if isinstance(expr, Case):
        arms = tuple((_canon(g, leaves), _canon(v, leaves)) for g, v in expr.arms)
        return ("case", arms, _canon(expr.default, leaves))
    return (type(expr).__name__, tuple(sorted(_canon(i, leaves) for i in expr.items)))


def _interchangeable(rt) -> tuple:
    """The classes of interchangeable variables of the model of runtime
    `rt`: per bucket of `rt.buckets`, its classes of two or more, each a
    tuple of (member, indices of its private exogenous parents) pairs in
    declaration order.  Built when a query first keeps two members of one
    bucket, and kept on the runtime (`_Runtime._classes`), whose size it
    shares: it grows with the model, not with the queries asked of it.

    A private exogenous parent is one that no other equation reads.
    Variables a and b are interchangeable when the transposition (a b),
    which also swaps a's private exogenous parents with b's, in declaration
    order, maps every equation onto the equation of its image, up to
    `_canon`: a's onto b's and every other one onto itself.  With equal
    ranges, such a swap is an automorphism of the model: it maps the world
    of any context and intervention onto the world of the swapped context
    and intervention.  The members of a bucket share their range, their
    readers and their endogenous parents, so only their own equations, with
    their private parents read as placeholders that keep their ranges, and
    their readers' equations can differ under the swap; and a and b cannot
    read each other (if a read b, b's equation, the image of a's, would
    read a: a cycle).  Automorphisms compose, so interchangeability is an
    equivalence: a member joins the first class whose first member it swaps
    with, and the transpositions of a class generate every permutation of
    it.  A model's solver compiles only equations nested far less deeply
    than the recursion limit, so `_canon` recurses safely.
    """
    if rt._classes is None:
        names, exprs = rt.endo_names, rt.exprs
        shared = collections.Counter(v for n in names for v in rt.exo_deps[n])
        per_bucket = []
        for bucket in rt.buckets:
            first = names[bucket[0]]
            readers = [(exprs[c], _canon(exprs[c], {}))
                       for c, n in enumerate(names) if first in rt.deps[n]]
            built: list[tuple[tuple, list]] = []
            for b in bucket:
                private = sorted((rt.exo_index[v], v) for v in rt.exo_deps[names[b]]
                                 if shared[v] == 1)
                leaves = {v: ("p", k, rt.exo_ranges[j]) for k, (j, v) in enumerate(private)}
                form, entry = _canon(exprs[b], leaves), (b, tuple(j for j, _ in private))
                for own, members in built:
                    if own == form and _swaps(readers, names[members[0][0]], names[b]):
                        members.append(entry)
                        break
                else:
                    built.append((form, [entry]))
            per_bucket.append(tuple(tuple(m) for _, m in built if len(m) > 1))
        rt._classes = tuple(per_bucket)
    return rt._classes


def _swaps(readers, a: str, b: str) -> bool:
    """Whether every reader of a and b, given as its equation and that
    equation's `_canon` form, keeps its equation under (a b)."""
    swap = {a: ("v", b), b: ("v", a)}
    return all(_canon(expr, swap) == plain for expr, plain in readers)


def _orbits(rt, fixed: frozenset[str], exo: tuple[int, ...], cause: tuple[int, ...]) -> tuple:
    """The classes of the interchangeable variables outside `fixed` and
    the indices `cause` that the context `exo` cannot tell apart, their
    set tests and each member's predecessor in its class, as
    `_Query.search` reads them (`classes`, `orbits`, `floor`).  The kept
    members of one class of the model whose private parents the context
    gives the same values form a class: the swap of any two of them fixes
    the context.  A bucket left with fewer than two members is passed over
    before any equation is compared, so a query whose cause or effect
    leaves one member of each bucket builds no class of the model."""
    names = rt.endo_names
    classes, tests, floor = [], [], {}
    for k, bucket in enumerate(rt.buckets):
        if sum(i not in cause and names[i] not in fixed for i in bucket) < 2:
            continue
        for model_class in _interchangeable(rt)[k]:
            split: dict[tuple, list[int]] = {}
            for i, private in model_class:
                if i not in cause and names[i] not in fixed:
                    split.setdefault(tuple([exo[j] for j in private]), []).append(i)
            for members in split.values():
                if len(members) < 2:
                    continue
                prefix, prefixes = 0, {0}
                for i in members:
                    prefix |= 1 << i
                    prefixes.add(prefix)
                classes.append(tuple(members))
                tests.append((prefix, frozenset(prefixes)))
                floor.update(zip(members[1:], members))
    return tuple(classes), tuple(tests), floor or ()


class _Query:
    """One query session: a model, a context, an effect, a variant, a budget.

    The constructor validates the inputs, solves the actual world, charging
    that solve to the budget, and decides the effect there (`phi_actual`),
    so an effect too deep to decide is refused whatever AC1's outcome.
    `phi_ok` decides it in a world's value tuple (`formula.holds`).  `bind`
    gives the session a candidate cause; a bound query shares the session's
    budget, actual world and AC2 memo, so AC3 sub-searches and the
    candidates of `find_all_causes` repeat none of that work; it keeps the
    restore outcomes of its own cause (see `ac2b`).
    """

    def __init__(self, model, context, phi, variant, budget):
        self.base, self.order = _unwrap(model)
        self.variant = RuleVariant.coerce(variant)
        if self.variant is RuleVariant.EXTENDED and self.order is None:
            raise MissingNormalityOrder(
                "the extended variant needs a model with a normality order"
            )
        validate_formula(self.base, phi)
        if any(isinstance(node, Held) for node, _ in _walk(phi)):
            raise MalformedPhi("the effect formula must not contain interventions")
        self.budget = budget if budget is not None else SearchBudget()
        self.rt = self.base._runtime()
        self.phi_ok = functools.partial(holds, phi, self.rt.endo_index)
        self.exo = context_values(self.base, context)
        self.actual = self._solve(None)
        self.phi_actual = self.phi_ok(self.actual)
        # the variables that can change the effect: its own and their ancestors
        self.anc, self.desc = self.rt.closures()
        self.phi_anc = self.phi_mask = 0
        phi_vars = formula_variables(phi)
        for name in phi_vars:
            self.phi_anc |= self.anc[self.rt.endo_index[name]]
            self.phi_mask |= 1 << self.rt.endo_index[name]
        # the variables the search may not swap (see `search`), or None
        # when it may swap none
        self.fixed = None
        if self.rt.buckets:
            if self.variant is not RuleVariant.EXTENDED:
                self.fixed = phi_vars
            elif self.order._reads is not None:
                self.fixed = phi_vars | self.order._reads
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
        bound.exo, bound.actual, bound.phi_actual = self.exo, self.actual, self.phi_actual
        bound.actual_world, bound.memo = self.actual_world, self.memo
        bound.phi_anc, bound.phi_mask = self.phi_anc, self.phi_mask
        bound.anc, bound.desc = self.anc, self.desc
        bound.fixed = self.fixed
        bound.cause = _normalize_cause(self.base, cause)
        bound.cause_idx = tuple([self.rt.endo_index[n] for n, _ in bound.cause])
        bound.cause_vals = tuple([v for _, v in bound.cause])
        cause_set = set(bound.cause_idx)
        bound.non_cause = tuple(
            [i for i in range(len(self.rt.endo_names)) if i not in cause_set]
        )
        # AC2(b) state: the effect's ancestors outside X, desc(X) and the
        # descendants of the conjuncts X = x moves off their actual values,
        # the effect's outcome per restore intervention, the failed restore
        # interventions learned so far, their count and the dead groups
        # among them (see `search`)
        bound.resettable = self.phi_anc
        bound.x_desc = bound.x_moved_desc = 0
        for i, value in zip(bound.cause_idx, bound.cause_vals):
            bound.resettable &= ~(1 << i)
            bound.x_desc |= self.desc[i]
            if value != self.actual[i]:
                bound.x_moved_desc |= self.desc[i]
        bound.restore_memo = {}
        bound.nogoods, bound.learned, bound.dead = {}, 0, []
        # the classes whose members the search may swap, their set tests and
        # each member's predecessor in its class (see `search`)
        bound.classes, bound.orbits, bound.floor = (
            ((), (), ()) if self.fixed is None
            else _orbits(self.rt, self.fixed, self.exo, bound.cause_idx))
        return bound

    def _solve(self, interventions) -> tuple[int, ...]:
        self.budget.tick()
        return solve_values(self.base, self.exo, interventions)

    # -- AC conditions -----------------------------------------------------

    def ac1(self) -> bool:
        actual = self.actual
        return (
            tuple([actual[i] for i in self.cause_idx]) == self.cause_vals
            and self.phi_actual
        )

    def witness_iv(self, w_idx, w_vals, alt) -> dict[int, int]:
        iv = dict(zip(self.cause_idx, alt))
        iv.update(zip(w_idx, w_vals))
        return iv

    def ac2a(self, w_idx, w_vals, alt) -> tuple[bool, bool]:
        """Returns (counterfactual holds, witness world passes normality)."""
        hypothetical = self._solve(self.witness_iv(w_idx, w_vals, alt))
        if self.phi_ok(hypothetical):
            return False, True
        if self.variant is not RuleVariant.EXTENDED:
            return True, True
        ok = self.order.at_least_as_normal(
            World(self.rt.endo_names, hypothetical), self.actual_world
        )
        return True, ok

    def ac2b(self, w_idx, w_vals) -> bool:
        """Restore condition with the cause at its stated values x.

        UPDATED/EXTENDED range over every subset W' of the contingency set
        W; ORIGINAL fixes it whole.  Under X = x and W' = w', φ must hold
        whatever subset of the variables outside W ∪ X is reset to its
        actual values.  Only reset sets that can change φ are tried, drawn
        from desc(M) ∩ anc(φ) outside W ∪ X, where M holds the variables of
        W' and X forced to a value other than their actual one:

        - a variable outside desc(M) keeps its actual value in every
          restore world, so resetting it is a no-op: if it is forced, it is
          forced to its actual value; if not, its parents lie outside
          desc(M) too and, by induction along the dependency order, keep
          their actual values;
        - a variable outside anc(φ) cannot change the variables of φ, so
          it cannot change φ;
        - a reset set holding every variable of φ in desc(M) leaves φ at
          its actual outcome, with no solve: φ's other variables lie
          outside desc(M) and keep their actual values as above, and the
          reset ones are put back to theirs.  So no solve is made when M
          is empty or φ lies outside desc(M); when φ holds in the actual
          world and one variable of φ lies in desc(M), the pool loses it;
          when φ fails there, the first such set refutes.

        φ's outcome is memoized on the bound query per restore
        intervention (the W' items and the reset set), so contingencies
        sharing a W' reuse it.  Under UPDATED/EXTENDED the first failing
        restore intervention (W' = w', reset set Z') is also kept as a
        nogood; `search` skips every later contingency it refutes.
        """
        actual, desc, outcomes = self.actual, self.desc, self.restore_memo
        resettable = self.resettable
        for i in w_idx:
            resettable &= ~(1 << i)
        if self.variant is RuleVariant.ORIGINAL:
            w_subsets: Iterable[tuple[int, ...]] = (tuple(range(len(w_idx))),)
        else:
            w_subsets = itertools.chain.from_iterable(
                itertools.combinations(range(len(w_idx)), k)
                for k in range(len(w_idx) + 1)
            )
        for chosen in w_subsets:
            items = tuple([(w_idx[pos], w_vals[pos]) for pos in chosen])
            moved = self.x_moved_desc
            for i, value in items:
                if value != actual[i]:
                    moved |= desc[i]
            reach = self.phi_mask & moved
            if not reach:
                if not self.phi_actual:
                    return self._refuted(items, ())
                continue
            pool_mask = moved & resettable
            if reach & ~pool_mask:
                reach = 0  # some of it lies in W or X: no reset set holds it
            elif self.phi_actual and not reach & (reach - 1):
                pool_mask &= ~reach
                reach = 0
            pool = [i for i in range(pool_mask.bit_length()) if pool_mask >> i & 1]
            for k in range(len(pool) + 1):
                for reset in itertools.combinations(pool, k):
                    if reach and reach & ~sum([1 << i for i in reset]) == 0:
                        if self.phi_actual:
                            continue
                        return self._refuted(items, reset)
                    key = (items, reset)
                    ok = outcomes.get(key)
                    if ok is None:
                        iv = dict(zip(self.cause_idx, self.cause_vals))
                        iv.update(items)
                        for i in reset:
                            iv[i] = actual[i]
                        ok = outcomes[key] = self.phi_ok(self._solve(iv))
                    if not ok:
                        return self._refuted(items, reset)
        return True

    def _refuted(self, items, reset) -> bool:
        """Record a failed restore intervention as a nogood; return False.

        Nogoods are grouped by the bit masks of their W' variables and reset
        set Z'.  A group keeps its W' variables, in the order of W, which
        `search` lists in declaration order, the set of their refuted
        values: a tuple, or a bare value when |W'| = 1, as `itemgetter`
        reads them (see `_refuting`), and `_ranges(W')`, the values its W'
        variables take in a scan of W' itself.  `learned` counts the nogoods
        recorded, so a scan in progress knows when to read the store again
        (see `_unrefuted`).  ORIGINAL fixes W' = W, so its failures refute
        no other contingency.

        A group is dead once its refuted values cover the product of those
        ranges.  Only a new value inside that product can make it so, and a
        dead group refutes all of them already, so it is listed once.  Its
        entry in `dead` pairs the W' mask with `blocked`: Z' and the strict
        ancestors of each W' variable whose range `_ranges` pruned.  A group
        with an empty W' is dead from its first nogood, with `blocked = Z'`.
        `search` skips the value scan of every contingency set it covers
        (see `_covers`)."""
        if self.variant is not RuleVariant.ORIGINAL:
            w_vars, values = tuple(zip(*items)) or ((), ())
            w_mask = z_mask = 0
            for i in w_vars:
                w_mask |= 1 << i
            for i in reset:
                z_mask |= 1 << i
            group = self.nogoods.get((w_mask, z_mask))
            if group is None:
                group = (w_vars, set(), self._ranges(w_vars, w_mask))
                self.nogoods[w_mask, z_mask] = group
            _, refuted, ranges = group
            value = values[0] if len(values) == 1 else values
            if value not in refuted:
                refuted.add(value)
                if (
                    len(refuted) >= math.prod(map(len, ranges))
                    and all(v in r for v, r in zip(values, ranges))
                    and all(c in refuted for c in (
                        ranges[0] if len(ranges) == 1 else itertools.product(*ranges)))
                ):
                    blocked = z_mask
                    for i, r in zip(w_vars, ranges):
                        # `_ranges` hands back a variable's own range unpruned
                        if r is not self.rt.endo_ranges[i]:
                            blocked |= self.anc[i] & ~(1 << i)
                    self.dead.append((w_mask, blocked))
            self.learned += 1
        return False

    def _ranges(self, w_idx: tuple[int, ...], w_mask: int) -> list:
        """The values the variables `w_idx` of the contingency set with bit
        mask `w_mask` take in its scan: a variable outside desc(X) with no
        other variable of the set among its ancestors loses its actual value
        (see `search`); any other keeps its whole range."""
        ranges, actual, anc, x_desc = self.rt.endo_ranges, self.actual, self.anc, self.x_desc
        return [
            [v for v in ranges[i] if v != actual[i]]
            if not x_desc >> i & 1 and anc[i] & w_mask == 1 << i
            else ranges[i]
            for i in w_idx
        ]

    # -- enumeration ---------------------------------------------------------

    def alt_tuples(self) -> list[tuple[int, ...]]:
        ranges = [self.rt.endo_ranges[i] for i in self.cause_idx]
        return [c for c in itertools.product(*ranges) if c != self.cause_vals]

    def search(self, find_all: bool) -> tuple[list[Witness], str, bool]:
        """Canonical witness scan.

        Returns the witnesses found, the deepest condition that failed when
        none was found, and whether the scan ran to completion (a budget
        exhausted after at least one hit truncates instead of failing).

        The restore check does not depend on the alternate value x', so its
        outcome is decided once per contingency (W, w), and a failure ends
        that contingency's alternate values.  A contingency is skipped,
        before any AC2(a) solve, when a nogood learned by `ac2b` refutes it:
        a failed restore intervention W' = w' with reset set Z' such that
        W' = w' is part of W = w and Z' misses W.  (W', Z') is then one of
        the choices AC2(b) quantifies over for (W, w): W' ⊆ W, and Z' lies
        outside W ∪ X, since it was drawn outside X.  It imposes the same
        intervention, so φ fails again, `ac2b(W, w)` is False and no x' makes
        a witness.  Nor can the skip change the deepest failing clause: a
        nogood exists only after an AC2(b) failure, the deepest label there
        is.  The nogood groups that can apply to a contingency set W (W'
        variables inside W, Z' outside it) are picked when its scan starts
        and again after each nogood learned in it.

        A dead group (see `_refuted`) refutes whole sets: its value scan is
        skipped, before any range, name or test is built, for every set W
        that contains its W' and misses its `blocked` mask.  Such a W misses
        Z', so the group applies to W.  A W' variable whose range `_ranges`
        pruned for W' alone lies outside desc(X) and, as W misses
        `blocked`, has no W variable among its strict ancestors, so its
        range is pruned in W too; every other W' variable takes values in W
        from its whole range.  So every value tuple the scan of W can reach
        restricts on W' to a tuple of the product the group refutes in full,
        and each is refuted as above.  A dead set still places its copied
        witnesses (below): a copy holds the actual value at its no-op
        positions, outside their pruned ranges, so it is no tuple of the
        scan, and being a witness it is refuted by no nogood.

        Each contingency set W is scanned once, by `_unrefuted`, which cuts
        the refuted value tuples out of its product by prefix instead of
        testing them one at a time; a set no nogood applies to just meets
        empty tests.  A nogood reads only its W' positions, so one whose
        positions all lie at or before position q refutes every extension
        of a prefix w[0..q] it refutes: none of them is built.  A nogood
        that `ac2b` learns at w refutes (W, w) itself and misses W, so it
        applies to the rest of W; the scan reads the nogood store live and
        cuts by it from the tuple after w on.  Tests only grow within W.
        The tuples left are thus exactly those no nogood known at their turn
        refutes, in product order, so the AC2(a) and AC2(b) solves, the
        canonical order and the place of every copied witness are those of
        a scan that tests each tuple.  Ranges strictly increase, so product
        order is the lexicographic order of the value tuples: that is the
        canonical order, and copied witnesses are placed by comparing value
        tuples.

        No solve is spent on a no-op item either.  Let D be the union of
        desc(X), for all of X, and of desc(i) for every W item (i, v) with
        v ≠ actual[i].  An item (i, v) with v = actual[i] and i ∉ D is a
        no-op: i keeps its actual value whether or not it is forced, in the
        AC2(a) world under any x' and in every restore world, by the
        induction of the `ac2b` docstring (every variable outside D is
        either forced to its actual value or has all its parents outside
        D).  Dropping the no-op items therefore leaves the AC2(a) world,
        and with it the normality test, unchanged; and it maps the restore
        worlds of (W, w) onto those of the reduced contingency, since
        forcing, freeing or resetting i to its actual value yields one
        world.  So (W, w, x') is a witness exactly when the reduced
        contingency, with the same x', is one.  That contingency is
        strictly smaller, so the scan has already visited it (or a nogood
        has refuted it), and the deepest failing clause cannot change.

        A position of W outside desc(X) with no other W variable among its
        ancestors is a no-op at its actual value whatever the other values
        are, so that value is left out of its range.  This removes every
        contingency with a no-op item: for an item at its actual value
        outside desc(X) with W variables among its ancestors, the topmost
        of them (with no W variable above it) lies outside desc(X) too, so
        its range lacks its actual value, it moves, and the item lies in D.
        The contingencies left out are thus exactly those with no-op items,
        and only those whose reduced contingency has witnesses add to the
        list.  Each is the reduced contingency (R, r), kept with its
        witnesses' alternate values, extended by actual values over W ∖ R,
        where none of W ∖ R may lie in D; its witnesses are copied, without
        any solve, at its canonical place among the value tuples of W.  A
        first-witness scan keeps nothing, so it copies nothing.

        Interchangeable variables are scanned once per orbit.  Each class of
        `classes` (see `_interchangeable` and `_orbits`) lies outside X and the
        effect's variables, the context gives its members' private parents
        equal values, and under EXTENDED the order reads none of them.  So a
        permutation σ of a class, with the matching permutation of private
        parents, maps the world of every intervention in this context onto
        the world of the permuted intervention, and fixes x, x', the actual
        world, φ's value and every rank.  It maps a state (W, w, x') onto a
        state with the same outcome of AC2(a), of the normality test and of
        every restore intervention, since it maps the W' subsets and reset
        sets of one onto those of the other; and it keeps desc(X), the
        ancestors and the actual values, so it maps the states the scan
        builds onto themselves, and the members of a class in W take one
        range (`_ranges`).  A state is orbit-minimal when, in each
        class, the members in W form a prefix of the class and hold
        non-decreasing values.  Each orbit has exactly one, and it comes
        first in canonical order: moving a member onto an earlier member
        outside W gives a smaller set, and swapping the values of two
        members out of order gives a smaller tuple.  The scan skips, by
        mask, every other set before its range is built (`orbits`), and
        `_unrefuted` cuts every value prefix that decreases in a class
        (`floor`).  The canonical first witness is orbit-minimal, because
        its smallest image is also a witness, and it is found as before; a
        set left out has the outcomes of its orbit's minimal state, which
        the scan visits or a nogood refutes, so the deepest failing clause
        cannot change either.  Nogoods and dead groups stay sound, since
        each still records a restore intervention that failed.  An
        every-witness scan places the images of each witness it finds
        without a solve: they are kept with its contingency in the copy store, keyed
        by their own sets, which come later in canonical order, and those in
        W itself join W's copies.  The copy store thus holds every witness
        the unreduced scan would find, each placed at its canonical place;
        only scanned states are filtered, never copies, whose reduced
        contingency need not be orbit-minimal.
        """
        witnesses: list[Witness] = []
        deepest = "AC2(a)"
        names = self.rt.endo_names
        alts = self.alt_tuples()
        actual, desc, x_desc = self.actual, self.desc, self.x_desc
        # contingency set mask -> (its items, D, alternate values) per
        # contingency with witnesses
        found: dict[int, list[tuple[dict[int, int], int, list[tuple[int, ...]]]]] = {}
        orbits = self.orbits
        try:
            for size in range(len(self.non_cause) + 1):
                for w_idx in itertools.combinations(self.non_cause, size):
                    w_mask = 0
                    for i in w_idx:
                        w_mask |= 1 << i
                    scanned = not orbits or _orbit_minimal(orbits, w_mask)
                    if not (scanned or find_all):
                        continue
                    scanned = scanned and not _covers(self.dead, w_mask)
                    # the witnesses placed without a solve: those of the no-op
                    # contingencies of W, and the images in W of witnesses found
                    copies = []
                    for r_mask, kept in found.items():
                        if r_mask & ~w_mask:
                            continue
                        for held, d_mask, hits in kept:
                            if d_mask & w_mask & ~r_mask == 0:
                                copies.append(
                                    (tuple([held.get(i, actual[i]) for i in w_idx]), hits))
                    if not (scanned or copies):
                        continue
                    w_names = tuple(map(names.__getitem__, w_idx))
                    heapq.heapify(copies)
                    scan = self._unrefuted(
                        w_idx, w_mask, self._ranges(w_idx, w_mask)) if scanned else ()
                    for w_vals in scan:
                        while copies and copies[0][0] < w_vals:
                            c_vals, hits = heapq.heappop(copies)
                            witnesses.extend([Witness(w_names, c_vals, a) for a in hits])
                        restored, first = None, len(witnesses)
                        for alt in alts:
                            flips, normal_ok = self.ac2a(w_idx, w_vals, alt)
                            if not flips:
                                continue
                            if not normal_ok:
                                if deepest == "AC2(a)":
                                    deepest = "AC2(a+)"
                                continue
                            if restored is None:
                                restored = self.ac2b(w_idx, w_vals)
                            if not restored:
                                deepest = self.variant.restore_label
                                break
                            witnesses.append(Witness(w_names, w_vals, alt))
                            if not find_all:
                                return witnesses, "", True
                        if len(witnesses) > first:
                            hits = [w.alt for w in witnesses[first:]]
                            states = [(w_idx, w_vals)]
                            if orbits:
                                states += self._images(w_idx, w_vals)
                            for s_idx, s_vals in states:
                                s_mask, d_mask = 0, x_desc
                                for i, v in zip(s_idx, s_vals):
                                    s_mask |= 1 << i
                                    if v != actual[i]:
                                        d_mask |= desc[i]
                                found.setdefault(s_mask, []).append(
                                    (dict(zip(s_idx, s_vals)), d_mask, hits))
                                if s_idx == w_idx and s_vals != w_vals:
                                    heapq.heappush(copies, (s_vals, hits))
                    while copies:
                        c_vals, hits = heapq.heappop(copies)
                        witnesses.extend([Witness(w_names, c_vals, a) for a in hits])
        except SearchBudgetExceeded:
            if not witnesses:
                raise
            return witnesses, "", False
        return witnesses, deepest, True

    def _images(self, w_idx: tuple[int, ...], w_vals: tuple[int, ...]) -> list:
        """The other states of the orbit of the orbit-minimal state (W, w),
        as (indices, values) pairs: in each class, the members of W, a
        prefix holding non-decreasing values, are moved onto as many members
        of the class in every way, holding their values in every distinct
        order."""
        held = dict(zip(w_idx, w_vals))
        moves = []
        for members in self.classes:
            values = [held.pop(i) for i in members if i in held]
            if values:
                orders = set(itertools.permutations(values))
                moves.append([
                    tuple(zip(chosen, order))
                    for chosen in itertools.combinations(members, len(values))
                    for order in orders
                ])
        images = []
        for picked in itertools.product(*moves):
            image = dict(held)
            for items in picked:
                image.update(items)
            s_idx = tuple(sorted(image))
            s_vals = tuple([image[i] for i in s_idx])
            if s_idx != w_idx or s_vals != w_vals:
                images.append((s_idx, s_vals))
        return images

    def _unrefuted(self, w_idx: tuple[int, ...], w_mask: int, w_ranges):
        """The value tuples of the contingency set W, its variables `w_idx`
        with bit mask `w_mask`, drawn from `w_ranges` in product order, that
        no nogood refutes when the scan reaches them.

        A value set at position q is tried at once against `tests[q]` (see
        `_refuting`), the tests whose positions all lie at or before q;
        one that refutes the prefix refutes every extension of it, so the
        prefix is cut, and none of its extensions is built or tested.

        The nogood store is read live.  `_refuted` counts the nogoods it
        records in `learned`; when the count has moved since the last yield,
        the tests are read again, and the scan goes on after the shortest
        prefix of the tuple just yielded that they refute (after the tuple
        itself when none does); when a group now dead covers W, no tuple is
        left and the scan ends.  Each position's iterator still stands just
        after the value it holds, so nothing is rebuilt.  A shorter prefix
        than the position last advanced may be refuted now, and with it
        every extension of that prefix still to come; no prefix before the
        resume position is refuted, since it is the shortest.
        """
        n = len(w_ranges)
        if not n:
            yield ()
            return
        tests = _refuting(self.nogoods, w_idx, w_mask)
        values: list = [None] * n
        iters: list = [iter(w_ranges[0])] + [None] * (n - 1)
        # the position of each member's predecessor in its class, and the
        # tail of the member's range from each value the predecessor takes
        # (the ranges of a class are one range, see `search`)
        lows: list = [None] * n
        if self.floor:
            for k, i in enumerate(w_idx):
                if i in self.floor:
                    r = w_ranges[k]
                    lows[k] = w_idx.index(self.floor[i]), {v: r[j:] for j, v in enumerate(r)}
        q, seen = 0, self.learned
        while q >= 0:
            bucket = tests[q]
            for value in iters[q]:
                values[q] = value
                for get, refuted in bucket:
                    if get(values) in refuted:
                        break
                else:
                    break  # no test refutes the prefix: keep the value
            else:
                q -= 1
                continue
            if q + 1 < n:
                q += 1
                low = lows[q]
                iters[q] = iter(w_ranges[q] if low is None else low[1][values[low[0]]])
            else:
                yield tuple(values)
                if self.learned != seen:
                    seen = self.learned
                    if _covers(self.dead, w_mask):
                        return
                    tests = _refuting(self.nogoods, w_idx, w_mask)
                    q = _resume_at(tests, values)


def _orbit_minimal(orbits, w_mask: int) -> bool:
    """Whether the members of every class in the contingency set with bit
    mask `w_mask` form a prefix of the class (see `_Query.search`)."""
    for class_mask, prefixes in orbits:
        if w_mask & class_mask not in prefixes:
            return False
    return True


def _covers(dead, w_mask: int) -> bool:
    """Whether a dead nogood group refutes every value tuple that the scan
    of the contingency set with bit mask `w_mask` can reach: its W' lies
    inside the set and its `blocked` mask outside (see `_Query._refuted`)."""
    for vars_mask, blocked in dead:
        if not (vars_mask & ~w_mask or w_mask & blocked):
            return True
    return False


def _refuting(nogoods, w_idx: tuple[int, ...], w_mask: int) -> list:
    """The tests on the value tuples of a contingency set W, its variables
    `w_idx` in declaration order, from the nogood groups that can refute
    them: W' variables inside W, reset set Z' outside it.

    A test pairs a getter of the W' positions with the group's set of
    refuted values, so one entry is read per group, not one per nogood.
    Tests are bucketed by their last position: `tests[k]` holds those that
    decide every tuple sharing its first k + 1 values.  A test reads no
    position after its bucket's prefix, which is what makes the prefix cut
    of `_Query._unrefuted` sound.  The caller has ruled out every dead group
    that covers W (`_covers`); a group with an empty W' that applies to W
    is one, so every group read here has a last position."""
    tests: list = [()] * len(w_idx)
    for (vars_mask, z_mask), (w_vars, refuted, _) in nogoods.items():
        if vars_mask & ~w_mask or z_mask & w_mask:
            continue
        # W' and W are both in declaration order, so the last W' variable
        # has the last position
        key = [w_idx.index(i) for i in w_vars]
        tests[key[-1]] += ((itemgetter(*key), refuted),)
    return tests


def _resume_at(tests, values: list) -> int:
    """The position to advance after the tuple `values`: the last of its
    shortest prefix that a test refutes, or its last position when none
    does."""
    for k, bucket in enumerate(tests):
        for get, refuted in bucket:
            if get(values) in refuted:
                return k
    return len(values) - 1


def actual_world(model, context: Mapping[str, int]) -> World:
    return solve(_unwrap(model)[0], context)


def witness_world(model, context, cause: Mapping[str, int], witness: Witness) -> World:
    """The world obtained by imposing the witness contingency and the
    alternate cause values."""
    base, _ = _unwrap(model)
    cause_items = _normalize_cause(base, cause)
    w_idx = _validate_witness(base, cause_items, witness)
    rt = base._runtime()
    iv = {rt.endo_index[n]: a for (n, _), a in zip(cause_items, witness.alt)}
    iv.update(zip(w_idx, witness.values))
    exo = context_values(base, context)
    return World(rt.endo_names, solve_values(base, exo, iv))


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------

def check_ac1(model, context, cause: Mapping[str, int], phi: CausalFormula) -> bool:
    """Both the candidate cause and the effect hold in the actual world."""
    return _Query(model, context, phi, RuleVariant.UPDATED, None).bind(cause).ac1()


def _witness_query(model, context, cause, phi, witness, variant, budget=None):
    """A query bound to `cause`, and the witness's contingency indices."""
    query = _Query(model, context, phi, variant, budget).bind(cause)
    return query, _validate_witness(query.base, query.cause, witness)


def _certifies(query: _Query, w_idx: tuple[int, ...], witness: Witness) -> bool:
    """AC1, AC2(a) and AC2(b), in that order, for a stated witness on a
    query bound to its cause (see `_witness_query`)."""
    return (
        query.ac1()
        and all(query.ac2a(w_idx, witness.values, witness.alt))
        and query.ac2b(w_idx, witness.values)
    )


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
    if max_conjuncts is not None:
        _check_count(max_conjuncts, 1, "max_conjuncts must be a positive integer, not {}")
    session = _Query(model, context, phi, variant, budget)
    if not session.phi_actual:
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
