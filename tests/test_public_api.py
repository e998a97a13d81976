"""Every name the package exports has a use.

A name re-exported by hypersym/__init__.py must be called in the package
outside __init__, appear in README.md, or be one of the paper's views and
the builders of their arguments. A name with none of these is dead API: it
is deleted, not kept for its tests.
"""

import ast
import re
from pathlib import Path

import hypersym

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypersym"

# the rotation blocks, the orbit quotient and the unit quotient with its unit
# eigenvalues, the lifts of their eigenvectors to the vertices, and the
# checked builders of their arguments
PAPER_VIEWS = frozenset({
    "rotation_matrix",
    "orbit_quotient",
    "unit_quotient",
    "unit_eigenvalues",
    "lift_rotation_vector",
    "lift_orbit_vector",
    "blow_up",
    "as_rotation",
    "roots_of_unity",
    "orbits",
    "compute_units",
})


def exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_in_package() -> set[str]:
    """Every name read in a module of the package other than __init__."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return names


def readme() -> str:
    """README.md without its table of removed names, which names them only
    to say what replaces them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.sub(r"(?ms)^### Removed names$.*?(?=^#|\Z)", "", text)


def test_every_export_has_a_use():
    used, text = used_in_package(), readme()
    dead = [
        name
        for name in exported()
        if name not in used and name not in PAPER_VIEWS and not re.search(rf"\b{name}\b", text)
    ]
    assert not dead, f"exported, but not called in src/, not in README.md and not a paper view: {dead}"


def test_paper_views_are_exported():
    names = exported()
    assert PAPER_VIEWS <= set(names)
    assert all(hasattr(hypersym, name) for name in names)
