"""Every name the package exports has a use, and every matrix has one reader.

A name re-exported by hypersym/__init__.py must be called in the package
outside __init__, appear in README.md, or be one of the paper's views and
the builders of their arguments. A name with none of these is dead API: it
is deleted, not kept for its tests.

matrices.as_array is the one reader of a matrix: no module of the package
reads HypergraphMatrix.entries (a complex128 copy, for outside callers), and
realness (whether an array's imaginary parts are all zero) is decided in
as_array alone.
"""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import hypersym

from conftest import ROT10_DOC, ROT10_MAP

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


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # the two python blocks of the Library section, in one namespace, on the
    # rot10 fixture written where the first block reads it
    section = re.search(r"(?ms)^## Library$(.*?)(?=^## )", (ROOT / "README.md").read_text(encoding="utf-8"))[1]
    blocks = re.findall(r"(?ms)^```python$(.*?)^```$", section)
    assert len(blocks) == 2
    (tmp_path / "graph.json").write_text(json.dumps(ROT10_DOC))
    (tmp_path / "rotation.json").write_text(json.dumps({"map": ROT10_MAP}))
    monkeypatch.chdir(tmp_path)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    units = [line.split() for line in out.getvalue().splitlines()]
    assert [(key, complex(value), int(count)) for key, value, count in units] == [
        ("2,3", -3.0, 1), ("5,6", -3.0, 1), ("8,9", -3.0, 1),
    ]


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _is_realness_scan(node: ast.AST) -> bool:
    """A call x.imag.any() with no arguments: whether any entry of x has a
    nonzero imaginary part."""
    return (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "any"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "imag"
    )


def test_no_module_reads_the_complex_entries():
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "entries" and isinstance(node.ctx, ast.Load)
    ]
    assert not reads, f"read .entries, not as_array(M): {reads}"


def test_realness_is_decided_in_as_array_alone():
    scans, inside = [], set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if name == "matrices.py" and isinstance(node, ast.FunctionDef) and node.name == "as_array":
                inside.update(id(n) for n in ast.walk(node) if _is_realness_scan(n))
            if _is_realness_scan(node):
                scans.append((name, node))
    assert len(inside) == 1, "as_array decides realness with one .imag.any()"
    outside = [f"{name}:{node.lineno}" for name, node in scans if id(node) not in inside]
    assert not outside, f"realness decided outside as_array: {outside}"
