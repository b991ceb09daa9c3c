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
    """`watch(*models)` counts the solver runs of each of `models`, as its
    runtime's `solve` makes them: it returns one list that gains one
    (model, context, sorted interventions) entry per run.  The
    interventions are read, as the run starts, from the mapping whose
    `get` the run was handed.  With `cap`, a run past the first `cap`
    raises at once, so a check that should make few runs fails instead of
    making every run of a large plan."""
    def watch(*models, cap=None):
        rows = []
        for model in models:
            rt = model._runtime()

            def counted(exo, get, model=model, real=rt.solve):
                if cap is not None and len(rows) >= cap:
                    raise AssertionError(f"more than {cap} solver runs")
                rows.append((model, exo, tuple(sorted(get.__self__.items()))))
                return real(exo, get)

            monkeypatch.setattr(rt, "solve", counted)
        return rows

    return watch
