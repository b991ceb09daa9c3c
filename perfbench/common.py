"""Paths, reference data and workload inputs shared by the benchmark scripts.

Importing this module does not import `actualcause`: the cold-start probe
imports it before it starts its clock.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = SRC / "actualcause" / "corpus" / "models"
ORACLE = ROOT / "tests" / "oracle.py"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

WORKLOADS = ("corpus_decide", "corpus_witnesses", "surgery")

# surgery inputs beyond the conservative pairs (acceptance criteria 3-5)
KILL_MODEL = "hopkins_pearl"
RESPECT_DOCUMENTS = ("scanner_vote_direct", "scanner_vote_both")
STABILITY_MEMBERS = 7
ALTERNATION = (False, True, False, True, False, True)
RESPECT_MEMBERS = (1, 3, 5)
AGREEMENT_SAMPLES = 200

# microbenchmark models for `model.solve_us` (9 and 20 endogenous variables)
SOLVE_MODELS = ("glymour_mechanisms", "livengood_17_2_0")


class SourceMissing(RuntimeError):
    pass


def use_source() -> None:
    """Put the checkout's `src` first on the import path.

    Refuses to run when the checkout holds no engine source, so that an
    installed copy of the package is never measured by mistake.
    """
    if not (SRC / "actualcause" / "__init__.py").is_file():
        raise SourceMissing(f"no engine source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    if Path(module.__file__).resolve().parent.parent != SRC:
        raise SourceMissing(f"imported {module.__file__}, not the checkout's source")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def model_text(name: str) -> str:
    return (MODELS / f"{name}.cm").read_text(encoding="utf-8")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def witness_json(w) -> list:
    """A witness as the JSON triple stored in `reference.json`."""
    return [list(w.vars), list(w.values), list(w.alt)]


def load_oracle():
    """Import the test suite's independent oracle without touching it."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_documents(ac, names) -> dict:
    """Parse each document and build its model's runtime with a first solve."""
    docs = {}
    for name in names:
        doc = ac.parse_model(model_text(name))
        ac.solve(doc.model, next(iter(doc.contexts.values())))
        docs[name] = doc
    return docs


def workload_models(reference: dict, workload: str) -> list[str]:
    """The `.cm` documents a workload parses during set-up."""
    if workload == "surgery":
        names = {n for pair in reference["conservative_pairs"] for n in pair}
        names.add(KILL_MODEL)
        names.update(RESPECT_DOCUMENTS)
    else:
        names = {
            c["model"] for c in reference["cases"]
            if workload == "corpus_decide" or c["witness"] is None
        }
    return sorted(names)
