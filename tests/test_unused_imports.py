"""Every imported name in the package, the tests and the demos is used.

A name counts as used when the module reads it (as a name or the base of an
attribute chain) or lists it in ``__all__``. The one exception is kept on
purpose and named in ``ALLOWED``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src/voronoi_tta", "tests", "tests/golden", "demos")

# filtering.py does not call cipd_influences; perfbench/tracing.py patches
# that module's binding of it by name.
ALLOWED = {("src/voronoi_tta/filtering.py", "cipd_influences")}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(name for name in imported if name not in used)


def test_no_unused_imports():
    found = set()
    for d in DIRS:
        for path in sorted((ROOT / d).glob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            found |= {(rel, name) for name in unused_imports(ast.parse(path.read_text()))}
    assert found - ALLOWED == set(), "imported but never used"
    assert ALLOWED <= found, "an allowed import is now used; drop it from ALLOWED"


def test_the_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nimport numpy as np\nprint(pi, np.e)\n")
    assert unused_imports(tree) == ["os", "tau"]
