"""Static checks on the package source."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "actualcause"
README = SRC.parent.parent / "README.md"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never uses.  A name counts as used where it
    is read, where a string annotation mentions it, and where `__all__`
    re-exports it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    strings = [
        ast.parse(leaf.value, mode="eval")
        for annotation in annotations if annotation is not None
        for leaf in ast.walk(annotation)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    ]
    used = {n.id for t in [tree, *strings] for n in ast.walk(t) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_checker_sees_string_annotations_and_reexports():
    tree = ast.parse(
        "from typing import Callable, Mapping\nimport os\nfrom m import a, b\n"
        "__all__ = ['a']\n"
        "def f(x: 'Mapping[str, int] | Callable[[], int]'): return x\n"
    )
    assert _unused_imports(tree) == ["os (line 2)", "b (line 3)"]


def test_source_has_no_unused_imports():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}



def _references(node: ast.AST) -> Counter:
    """How often each name is read under `node`, as a bare name or an
    attribute, or imported.  `__all__` strings are not references."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            found.update(alias.name for alias in child.names)
    return found


def _definitions(tree: ast.Module):
    """The module-level functions and classes of a module, and the methods
    of those classes whose names are not dunders."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*kinds, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                member for member in node.body
                if isinstance(member, kinds)
                and not (member.name.startswith("__") and member.name.endswith("__"))
            )


def _unreferenced_definitions(sources: list[ast.Module], tests: list[ast.Module]) -> list[str]:
    """Definitions of `sources` (`_definitions`) that nothing in `sources`
    or `tests` refers to, outside their own definition."""
    everywhere = sum(map(_references, sources + tests), Counter())
    return [
        node.name for tree in sources for node in _definitions(tree)
        if everywhere[node.name] == _references(node)[node.name]
    ]


def test_the_dead_code_checker_skips_own_bodies_and_reexports():
    source = ast.parse(
        "__all__ = ['dead', 'used']\n"
        "def dead(): return used() + dead()\n"
        "def used(): pass\n"
        "class Alive: pass\n"
        "class Gone: pass\n"
    )
    tests = ast.parse("from m import Alive\n")
    assert _unreferenced_definitions([source], [tests]) == ["dead", "Gone"]


def test_the_dead_code_checker_sees_methods_of_top_level_classes():
    source = ast.parse(
        "class Session:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def dead(self): return self.dead()\n"
        "    def __repr__(self): return ''\n"
        "    class Inner:\n"
        "        def nested(self): pass\n"
        "def f():\n"
        "    class Local:\n"
        "        def unseen(self): pass\n"
        "    return Local\n"
    )
    tests = ast.parse("from m import Session, f\n")
    assert _unreferenced_definitions([source], [tests]) == ["dead"]


def _parse_all(folder: Path) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(folder.rglob("*.py"))]


def test_every_top_level_definition_is_referenced():
    tests = Path(__file__).resolve().parent
    assert _unreferenced_definitions(_parse_all(SRC), _parse_all(tests)) == []


def _unused_private_helpers(sources: list[ast.Module]) -> list[str]:
    """Module-level functions and classes named `_name` that nothing in
    `sources` refers to outside their own definition: a private helper that
    only a test still calls is dead code."""
    everywhere = sum(map(_references, sources), Counter())
    return [
        node.name for tree in sources for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and everywhere[node.name] == _references(node)[node.name]
    ]


def test_the_private_helper_checker_reads_module_level_names_only():
    source = ast.parse(
        "def _used(): pass\n"
        "def _dead(): return _dead()\n"
        "def public(): return _used()\n"
        "class _Gone: pass\n"
        "class Kept:\n"
        "    def _method(self): pass\n"
        "    def __repr__(self): return ''\n"
    )
    assert _unused_private_helpers([source]) == ["_dead", "_Gone"]


def test_every_private_helper_is_used_by_the_package():
    assert _unused_private_helpers(_parse_all(SRC)) == []


def _code_runners(tree: ast.Module) -> list[tuple[str, str]]:
    """Each use of the builtin `eval` or `exec` as (name, the top-level
    function or class around it, or "<module>")."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("eval", "exec"):
                found.append((node.id, owner))
    return found


def test_the_code_runner_checker_names_the_enclosing_definition():
    tree = ast.parse("x = eval('1')\ndef f():\n    def g(): exec('')\n    return g\n")
    assert _code_runners(tree) == [("eval", "<module>"), ("exec", "f")]


def test_generated_code_runs_only_in_the_model_code_generator():
    found = {
        (str(path.relative_to(SRC)), name, owner)
        for path in sorted(SRC.rglob("*.py"))
        for name, owner in _code_runners(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("model.py", "eval", "compile_expression"),
        ("model.py", "exec", "_compile_solver"),
    }


def _docstrings(tree: ast.Module) -> list[str]:
    """The docstrings of a module and of every class and function in it."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        doc for node in ast.walk(tree)
        if isinstance(node, kinds) and (doc := ast.get_docstring(node)) is not None
    ]


def _stale_references(text: str, modules: set[str]) -> list[str]:
    """Backticked `module.name` references in `text`, `module` one of the
    package's `modules`, whose name (dotted or not) the module lacks.  A
    reference with any other head, or a bare `_name`, is not checked."""
    stale = []
    for head, path in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`", text):
        if head not in modules:
            continue
        owner = importlib.import_module(f"actualcause.{head}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            stale.append(f"{head}.{path}")
    return stale


def test_the_reference_checker_reads_package_modules_only():
    text = ("`formula.holds`, `model.solve_contexts`, `formula._Gone`, "
            "`model.CausalModel.contexts`, `model.CausalModel.gone`, `random.Random`, "
            "`_Query.search`, `_Worlds`, `formula.holds.nothing`")
    assert _stale_references(text, {"formula", "model"}) == [
        "formula._Gone", "model.CausalModel.gone", "formula.holds.nothing",
    ]


def test_backticked_module_references_exist():
    modules = {info.name for info in pkgutil.iter_modules([str(SRC)])}
    texts = [README.read_text(encoding="utf-8")] + [
        doc for path in sorted(SRC.rglob("*.py"))
        for doc in _docstrings(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [ref for text in texts for ref in _stale_references(text, modules)] == []
