"""No public helper that only a test calls.

Every name in a ``graphbandit`` module's ``__all__`` must be used somewhere
other than its own definition: by another statement of the package, by a
Python example in README.md, by the benchmark (``perfbench/*.py``) or by the
acceptance suite.  The package's ``__init__.py`` and the ``__all__`` lists
do not count.  Uses are found with ``ast``: names read by Name and Attribute
nodes, and names imported by ``from ... import``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphbandit"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def defines(statement: ast.stmt, name: str) -> bool:
    """Whether the top-level ``statement`` is the definition of ``name``."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return any(getattr(t, "id", None) == name for t in targets)


def used_names(nodes) -> set[str]:
    """Names read (Name and Attribute nodes in load context) or imported by
    ``from ... import`` anywhere under ``nodes``."""
    names = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def readme_trees() -> list[ast.Module]:
    """README.md's fenced Python blocks, and its inline code spans that parse as Python."""
    text = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    sources += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    trees = []
    for source in sources:
        try:
            trees.append(ast.parse(source))
        except SyntaxError:
            pass
    return trees


OUTSIDE_THE_PACKAGE = used_names(
    readme_trees()
    + [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    + [ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
)


@pytest.mark.parametrize("module", [name for name, tree in MODULES.items() if public_names(tree)])
def test_every_public_name_is_used_outside_its_definition(module):
    tree = MODULES[module]
    elsewhere = OUTSIDE_THE_PACKAGE | used_names(other for name, other in MODULES.items() if name != module)
    unused = [
        name
        for name in public_names(tree)
        if name not in elsewhere and name not in used_names(s for s in tree.body if not defines(s, name))
    ]
    assert not unused, f"graphbandit.{module} exports {unused}, which nothing outside their definitions uses"
