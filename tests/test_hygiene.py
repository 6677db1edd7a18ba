"""Static checks on the package source: every import is used, every error is raised,
every private helper is used, and README names every NamedTuple."""

import ast
import re
from collections import Counter
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


def _name_reads(node) -> Counter:
    """How often each name is read under ``node``, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_definition_is_used():
    # a module-level function or class named with a leading underscore is read
    # somewhere in the package outside its own body
    trees = [tree for _, _, tree in _modules()]
    reads = sum(map(_name_reads, trees), Counter())
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
              and reads[node.name] == _name_reads(node)[node.name]]
    assert unused == []


def test_readme_lists_every_named_tuple():
    # README's sentence "The immutable values (...) are `typing.NamedTuple`s"
    # names exactly the classes of the package with a NamedTuple base
    named_tuples = {node.name for _, _, tree in _modules() for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                            for b in node.bases)}
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The immutable values\s*\((.*?)\)\s*are `typing\.NamedTuple`s",
                       readme, re.DOTALL)
    assert listed is not None
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == named_tuples
