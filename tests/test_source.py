"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "actualcause"


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
