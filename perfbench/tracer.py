"""Spans recorded from outside the engine, around its layer boundaries.

The tracer replaces a fixed list of module and class attributes with timing
wrappers for the length of one traced pass and puts the originals back
afterwards.  Hot spans (one per solve) are folded into a count, a total and
a self time per span name as they close; per-operation spans are kept one
by one.  A span's self time is its duration minus the time of the spans it
encloses.  A name that no longer exists is reported as missing and its
layer reads zero.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# span name -> (module path, attribute path).  Solves in the causality layer
# are charged to the innermost clause they run under; any solve below an AC3
# sub-search is charged to AC3.  Solves made by the formula evaluator are
# counted apart: their number follows the random formulas drawn, so they are
# kept out of `solve_calls` and of the exact counts.
SPANS = (
    ("solve.causality", "actualcause.causality", "solve_values"),
    ("solve.transforms", "actualcause.transforms", "solve_values"),
    ("solve.formula", "actualcause.formula", "solve_values"),
    ("formula.eval", "actualcause.formula", "eval_formula"),
    ("causality.ac3", "actualcause.causality", "_has_ac2_witness"),
    ("causality.ac1", "actualcause.causality", "_Query.ac1"),
    ("causality.ac2a", "actualcause.causality", "_Query.ac2a"),
    ("causality.ac2b", "actualcause.causality", "_Query.ac2b"),
    ("causality.search", "actualcause.causality", "_Query.search"),
    ("causality.normality", "actualcause.causality", "NormalityOrder.at_least_as_normal"),
)

SOLVE_BUCKETS = ("ac2a", "ac2b", "ac3", "actual", "transforms")


def _ac2a_flipped(result) -> bool:
    # `_Query.ac2a` returns (counterfactual holds, witness world is normal)
    return bool(result[0]) if isinstance(result, tuple) and result else bool(result)


OUTCOMES = {"causality.ac2a": _ac2a_flipped, "causality.ac2b": bool}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # name -> [count, total seconds, child seconds, positive outcomes]
        self.spans = {name: [0, 0.0, 0.0, 0] for name, _, _ in SPANS}
        self.solves = dict.fromkeys(SOLVE_BUCKETS, 0)
        self.formula_solves = 0
        self.missing: list[str] = []
        self.ops: list[dict] = []
        self._stack = [[0.0]]  # child time of each open span; the root is a sentinel
        self._depth = {"ac2a": 0, "ac2b": 0, "ac3": 0}
        self._saved: list[tuple[object, str, object]] = []

    @property
    def solve_calls(self) -> int:
        return sum(self.solves.values())

    # -- installing --------------------------------------------------------

    @contextmanager
    def installed(self):
        self.missing = []
        try:
            for name, module_path, attr_path in SPANS:
                owner = importlib.import_module(module_path)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_path}.{attr_path}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        clock, stack, stats = self.clock, self._stack, self.spans[name]
        depth, solves = self._depth, self.solves
        outcome = OUTCOMES.get(name)
        clause = name.rsplit(".", 1)[-1] if name.rsplit(".", 1)[-1] in depth else None
        is_solve = name.startswith("solve.")
        fixed_bucket = "transforms" if name == "solve.transforms" else None
        formula_solve = name == "solve.formula"
        tracer = self

        def span(*args, **kwargs):
            if formula_solve:
                tracer.formula_solves += 1
            elif is_solve:
                solves[fixed_bucket or ("ac3" if depth["ac3"] else "ac2b" if depth["ac2b"]
                                        else "ac2a" if depth["ac2a"] else "actual")] += 1
            if clause:
                depth[clause] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                if clause:
                    depth[clause] -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
            if outcome is not None and outcome(result):
                stats[3] += 1
            return result

        span.__wrapped__ = fn
        return span

    # -- per-operation spans -------------------------------------------------

    def op_span(self, kind: str, label: str, start: float, end: float,
                solves_before: dict, budget_used: int | None) -> None:
        by_clause = {k: n - solves_before[k] for k, n in self.solves.items() if n != solves_before[k]}
        record = {
            "kind": kind,
            "label": label,
            "start_s": start,
            "end_s": end,
            "solves": sum(by_clause.values()),
            "by_clause": by_clause,
            "budget_used": budget_used,
        }
        self.ops.append(record)

    # -- reading -----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.spans[name][0]

    def total_s(self, name: str) -> float:
        return self.spans[name][1]

    def self_s(self, name: str) -> float:
        count, total, child, _ = self.spans[name]
        return total - child

    def positive(self, name: str) -> int:
        return self.spans[name][3]

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "solves_by_clause": dict(self.solves),
            "formula_solves": self.formula_solves,
            "spans": {
                name: {"count": c, "total_s": t, "self_s": t - ch, "positive": p}
                for name, (c, t, ch, p) in self.spans.items()
            },
            "ops": self.ops,
        }
