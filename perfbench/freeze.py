"""Write `reference.json`: the frozen answers the benchmark checks against.

    python3 perfbench/freeze.py            # write the file from this checkout
    python3 perfbench/freeze.py --check    # compare this checkout with the file

The file holds the bundled case table with its hand-written verdicts, a
digest of every model text, and the all-witness list of each searched case
as the engine gave it when the benchmark was defined.  Lists of original or
updated cases on models with at most ORACLE_MAX_ENDOGENOUS variables are
confirmed by the independent oracle in `tests/oracle.py` before they are
written; the others are marked seed-frozen.  Regenerating the file is a
change to the benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

ORACLE_MAX_ENDOGENOUS = 6


def oracle_witnesses(oracle, doc, case) -> list:
    """The oracle's witness list, in the engine's canonical order."""
    from actualcause import parse_cause, parse_formula

    model = doc.model
    cause = parse_cause(case["cause"], model)
    ordered = dict(sorted(cause.items(), key=lambda kv: model.endogenous_names.index(kv[0])))
    phi = parse_formula(case["effect"], model)
    found = oracle.naive_witnesses(
        model, doc.context(case["context"]), ordered, phi, case["variant"] == "original"
    )
    return [[list(vars_), list(vals), list(alt)] for vars_, vals, alt in found]


def oracle_eligible(case: dict) -> bool:
    return (
        case["witness"] is None
        and case["variant"] in ("original", "updated")
        and case["endogenous"] <= ORACLE_MAX_ENDOGENOUS
    )


def build() -> dict:
    common.use_source()
    import actualcause
    from actualcause import RuleVariant, is_actual_cause, parse_cause, parse_formula, parse_model
    from actualcause.corpus import CASES, CONSERVATIVE_PAIRS

    common.check_imported(actualcause)
    oracle = common.load_oracle()
    docs = {}
    cases = []
    for case in CASES:
        doc = docs.setdefault(case.model, parse_model(common.model_text(case.model)))
        entry = {
            "id": case.id,
            "model": case.model,
            "context": case.context,
            "cause": case.cause,
            "effect": case.effect,
            "variant": case.variant,
            "expect": case.expect,
            "endogenous": len(doc.model.endogenous_names),
            "witness": common.witness_json(case.witness) if case.witness else None,
        }
        if case.witness is None:
            variant = RuleVariant.coerce(case.variant)
            subject = doc.extended() if variant is RuleVariant.EXTENDED else doc.model
            verdict = is_actual_cause(
                subject, doc.context(case.context),
                parse_cause(case.cause, doc.model), parse_formula(case.effect, doc.model),
                variant, find_all_witnesses=True,
            )
            if verdict.is_cause != (case.expect == "cause"):
                raise SystemExit(f"{case.id}: engine verdict differs from the case table")
            entry["witnesses"] = [common.witness_json(w) for w in verdict.witnesses]
            if oracle_eligible(entry):
                if oracle_witnesses(oracle, doc, entry) != entry["witnesses"]:
                    raise SystemExit(f"{case.id}: oracle and engine witness lists differ")
                entry["confirmed_by"] = "oracle"
            else:
                entry["confirmed_by"] = "seed-frozen"
        cases.append(entry)
    names = sorted({c["model"] for c in cases} | {n for p in CONSERVATIVE_PAIRS for n in p})
    return {
        "about": "answers frozen when the benchmark was defined; see perfbench/README.md",
        "model_sha256": {n: common.text_digest(common.model_text(n)) for n in names},
        "conservative_pairs": [list(p) for p in CONSERVATIVE_PAIRS],
        "cases": cases,
    }


def dump(reference: dict) -> str:
    """JSON with one line per case, so that a diff shows which case moved."""
    lines = []
    for key, value in reference.items():
        if isinstance(value, list):
            items = ",\n  ".join(json.dumps(v) for v in value)
            lines.append(f" {json.dumps(key)}: [\n  {items}\n ]")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, indent=None)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the existing file instead of writing it")
    args = parser.parse_args(argv)
    fresh = build()
    if args.check:
        same = fresh == common.load_reference()
        print("reference.json matches this checkout" if same
              else "reference.json differs from this checkout")
        return 0 if same else 1
    with open(common.REFERENCE, "w", encoding="utf-8") as handle:
        handle.write(dump(fresh))
    confirmed = sum(1 for c in fresh["cases"] if c.get("confirmed_by") == "oracle")
    print(f"wrote {common.REFERENCE.name}: {len(fresh['cases'])} cases, "
          f"{confirmed} witness lists confirmed by the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
