"""Every module of the package uses each name it imports; the re-exports of ``__init__.py`` are
exempt."""

import ast
import pathlib

import kcontact as kc


def _unused_imports(tree):
    """Names bound by an import of ``tree`` that nothing else in it reads (``from __future__``
    imports aside); a name listed in ``__all__`` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    found = []
    for path in sorted(pathlib.Path(kc.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_unused_import_check_finds_one():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom . import dual as dm\n" \
          "__all__ = ['dm']\n\ndef f(x):\n    return np.abs(x)\n"
    assert _unused_imports(ast.parse(src)) == [(2, "os")]
