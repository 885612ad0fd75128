"""Checks on the package source itself, read with ast: what it may import,
which modules own the span internals, the union-find, the complex caches
and the routes of a boundary elimination, and that no import is left
unused."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simpsurf"
MODULES = sorted(PACKAGE.glob("*.py"))
# how a Gf2Span stores its pivots and rows, known only to gf2.py
SPAN_INTERNALS = {"_mask", "_pivot_rows", "_add_bits", "_reduce_bits"}
# how a gf2._Forest stores its union-find and its rooted trees, known only
# to gf2.py: the others read its n and off and call roots(), trees(),
# tree_nodes() and cycles(), and none keeps a union-find of its own
FOREST_INTERNALS = {"_root", "_rooted"}
# the slots behind a Complex2's lazy indexes and its components, known only
# to complex2.py: the others read _tris_at_edge, _edges_at_vertex,
# _triangle_index, _triangle_edges and connected_components()
COMPLEX_CACHES = {"_edge_triangles", "_vertex_edges", "_triangle_positions",
                  "_triangle_edge_positions", "_components"}
# the two routes of a boundary elimination, known only to homology.py: the
# others call homology._boundary_relations and read its result's rank,
# free, cycles, reduced_cycles() and kernel_at(), whichever route gave it
ROUTE_INTERNALS = {"_tree_cotree", "_DualForest", "_Elimination", "_tagged"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_its_modules():
    assert {"gf2.py", "homology.py", "reduction.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"{n} (line {node.lineno})" for n in names
                    if n.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf2.py"],
                         ids=lambda p: p.name)
def test_only_gf2_touches_the_span_internals(path):
    touches = [f"{node.attr} (line {node.lineno})" for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr in SPAN_INTERNALS]
    assert touches == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "complex2.py"],
                         ids=lambda p: p.name)
def test_only_complex2_touches_the_complex_caches(path):
    touches = [f"{node.attr} (line {node.lineno})" for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr in COMPLEX_CACHES]
    assert touches == []


def _names(path: Path) -> list[tuple[str, int]]:
    """Every name, attribute and imported name in the module, with its line."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno))
    return out


def test_homology_has_the_boundary_routes():
    assert ROUTE_INTERNALS <= {name for name, _ in _names(PACKAGE / "homology.py")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "homology.py"],
                         ids=lambda p: p.name)
def test_only_homology_touches_the_boundary_routes(path):
    touches = [f"{name} (line {line})" for name, line in _names(path)
               if name in ROUTE_INTERNALS]
    assert touches == []


def _halves_paths(node: ast.AST) -> bool:
    """Whether node assigns p[x] = p[p[x]] (with more targets, maybe): the
    path-halving step of a union-find's find."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Subscript)):
        return False
    inner = node.value.slice
    p, x = ast.dump(inner.value), ast.dump(inner.slice)
    return ast.dump(node.value.value) == p and any(
        isinstance(t, ast.Subscript) and (ast.dump(t.value), ast.dump(t.slice)) == (p, x)
        for t in node.targets)


def test_gf2_has_the_union_find():
    path = PACKAGE / "gf2.py"
    assert FOREST_INTERNALS <= {name for name, _ in _names(path)}
    assert any(_halves_paths(node) for node in ast.walk(_tree(path)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gf2.py"],
                         ids=lambda p: p.name)
def test_only_gf2_has_a_union_find(path):
    # no other module reads the forest's internals or halves paths itself
    found = [f"{name} (line {line})" for name, line in _names(path)
             if name in FOREST_INTERNALS]
    found += [f"path halving (line {node.lineno})" for node in ast.walk(_tree(path))
              if _halves_paths(node)]
    assert found == []


def test_homology_eliminates_only_through_its_entry_points():
    # every triangle boundary elimination goes through _boundary_relations,
    # whose tagged route is _Elimination; besides it only the cup form's
    # left radical and the brute-force oracle build a span of their own
    allowed = {"_Elimination", "CupForm", "property_a_brute_force"}
    calls = []
    for top in _tree(PACKAGE / "homology.py").body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("_span", "_relations"):
                    calls.append((getattr(top, "name", None), name))
    assert calls and {top for top, _ in calls} <= allowed, calls


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    assert unused == []
