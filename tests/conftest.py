import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from actualcause.corpus import load_document


@pytest.fixture(scope="session")
def doc():
    """Loader for bundled corpus documents, cached across the session."""
    return load_document


@pytest.fixture(scope="session")
def rt_naive():
    return load_document("rock_throwing_naive")


@pytest.fixture(scope="session")
def rt_detailed():
    return load_document("rock_throwing_detailed")


@pytest.fixture(scope="session")
def hopkins():
    return load_document("hopkins_pearl")


@pytest.fixture
def solved_rows(monkeypatch):
    """`watch(*modules)` counts the solves made through `solve_contexts` as
    each of `modules` calls it: it returns one list that gains one (model,
    context, sorted interventions) entry per context solved."""
    def watch(*modules):
        rows = []
        for module in modules:
            def counted(model, exos, interventions=None, real=module.solve_contexts):
                exos = list(exos)
                key = tuple(sorted((interventions or {}).items()))
                rows.extend((model, exo, key) for exo in exos)
                return real(model, exos, interventions)

            monkeypatch.setattr(module, "solve_contexts", counted)
        return rows

    return watch
