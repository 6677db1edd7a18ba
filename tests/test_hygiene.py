"""Static checks on the package source: every import is used, every error is raised."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "taured"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path.name, text.splitlines(), ast.parse(text)


def _unused_imports(lines, tree) -> list[str]:
    """Module-level import bindings that the module never reads.

    A name listed in ``__all__`` is read by re-export, and a name on a
    ``# noqa: F401`` line is kept on purpose.
    """
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_every_module_level_import_is_used():
    unused = {name: found for name, lines, tree in _modules()
              if (found := _unused_imports(lines, tree))}
    assert unused == {}


def _raised_names(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_every_error_class_is_raised():
    modules = list(_modules())
    raised = set().union(*(_raised_names(tree) for _, _, tree in modules))
    errors = next(tree for name, _, tree in modules if name == "errors.py")
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert defined - raised == set()
