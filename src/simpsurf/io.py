"""Reading and writing complexes and preservation functionals as JSON.

One complex per file:

    {"name": "torus",
     "vertices": [0, 1, 2],
     "edges": [[0, 1], [0, 2], [1, 2]],
     "triangles": [[0, 1, 2]]}

All keys are optional; missing face lists default to empty and the loader
completes the downward closure.  The writer always emits the full closure
with sorted tuples and a fixed key order, so writing is a canonicalization
fixpoint and output files are diffable and golden-testable.

A functional file is a JSON list of functionals, each a list of triangle
vertex-triples carrying coefficient 1.

A group profile file is one object with keys name, h1, h2, property_a and
an optional presentation_note.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .bounds import GroupProfile
from .complex2 import Complex2, Label, label_key
from .reduction import PreservationSpec

__all__ = [
    "FormatError",
    "complex_from_dict",
    "complex_to_dict",
    "dump_complex",
    "dumps_complex",
    "load_complex",
    "load_functionals",
    "load_group_profile",
    "load_named_complex",
]

Pathish = Union[str, Path]


class FormatError(ValueError):
    """A file or payload does not match the expected JSON shape."""


_COMPLEX_KEYS = {"name", "vertices", "edges", "triangles"}


def _read_json(path: Pathish):
    """Parse one JSON file; any input that is not readable JSON is a FormatError.

    Besides syntax errors this covers bytes that are not UTF-8, nesting too
    deep to parse and integers longer than the interpreter will convert.
    """
    source = str(path)
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{source}: not readable JSON: {exc}") from exc


def _check_label(x, source: str) -> Label:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError(
            f"{source}: vertex label {x!r} is not an integer or string")
    return x


def _check_simplex(raw, arity: int, what: str, source: str) -> tuple:
    if not isinstance(raw, list) or len(raw) != arity:
        raise FormatError(
            f"{source}: {what} {raw!r} is not a list of {arity} vertex labels")
    return tuple(_check_label(x, source) for x in raw)


def _check_no_duplicates(items, what: str, source: str) -> None:
    seen = set()
    for item in items:
        if item in seen:
            raise FormatError(f"{source}: duplicate {what} {item!r}")
        seen.add(item)


def _check_no_duplicate_simplices(simplices, what: str, source: str) -> None:
    """Reject two simplices with the same vertices in any order.

    Simplices with distinct vertices are compared as sets; a degenerate
    one, as a sorted tuple.  Only the error message sorts a simplex.
    """
    seen = set()
    for s in simplices:
        vs = frozenset(s)
        item = vs if len(vs) == len(s) else tuple(sorted(s, key=label_key))
        if item in seen:
            raise FormatError(f"{source}: duplicate {what} "
                              f"{tuple(sorted(s, key=label_key))!r}")
        seen.add(item)


def complex_from_dict(data, source: str = "<data>") -> Complex2:
    """Build the closed complex described by one parsed JSON object."""
    if not isinstance(data, dict):
        raise FormatError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - _COMPLEX_KEYS)
    if unknown:
        raise FormatError(f"{source}: unknown keys {unknown}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError(f"{source}: name must be a string, got {name!r}")
    for key in ("vertices", "edges", "triangles"):
        if not isinstance(data.get(key, []), list):
            raise FormatError(f"{source}: {key} must be a list")

    vertices = [_check_label(v, source) for v in data.get("vertices", [])]
    edges = [_check_simplex(e, 2, "edge", source) for e in data.get("edges", [])]
    triangles = [_check_simplex(t, 3, "triangle", source)
                 for t in data.get("triangles", [])]
    # duplicates are checked before closure deduplicates them
    _check_no_duplicates(vertices, "vertex", source)
    _check_no_duplicate_simplices(edges, "edge", source)
    _check_no_duplicate_simplices(triangles, "triangle", source)
    try:
        return Complex2.from_triangles(triangles, extra_edges=edges,
                                       extra_vertices=vertices)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{source}: {exc}") from exc


def complex_to_dict(k: Complex2, name: Optional[str] = None) -> dict:
    """Canonical JSON object for a complex: full closure, sorted lists."""
    data: dict = {}
    if name is not None:
        data["name"] = name
    data["vertices"] = list(k.vertices)
    data["edges"] = [list(e) for e in k.edges]
    data["triangles"] = [list(t) for t in k.triangles]
    return data


def dumps_complex(k: Complex2, name: Optional[str] = None) -> str:
    # one key per line keeps files diffable without exploding every tuple
    data = complex_to_dict(k, name)
    lines = [f'  "{key}": {json.dumps(value)}' for key, value in data.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def dump_complex(k: Complex2, path: Pathish, name: Optional[str] = None) -> None:
    Path(path).write_text(dumps_complex(k, name))


def load_named_complex(path: Pathish) -> tuple[Optional[str], Complex2]:
    """Read a complex file; returns (declared name or None, complex)."""
    source = str(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{source}: top level must be a JSON object")
    return data.get("name"), complex_from_dict(data, source)


def load_complex(path: Pathish) -> Complex2:
    return load_named_complex(path)[1]


def load_functionals(path: Pathish) -> PreservationSpec:
    """Read preservation functionals: a JSON list of triangle lists."""
    source = str(path)
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{source}: expected a list of functionals")
    lists = []
    for i, functional in enumerate(data):
        if not isinstance(functional, list):
            raise FormatError(
                f"{source}: functional {i} is not a list of triangles")
        lists.append([_check_simplex(t, 3, "triangle",
                                     f"{source}: functional {i}")
                      for t in functional])
    try:
        return PreservationSpec.from_triangle_lists(lists)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_group_profile(path: Pathish) -> GroupProfile:
    """Read a group profile: name, h1, h2, property_a, optional note."""
    source = str(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{source}: expected an object")
    unknown = sorted(set(data) - {"name", "h1", "h2", "property_a",
                                  "presentation_note"})
    if unknown:
        raise FormatError(f"{source}: unknown keys {unknown}")
    try:
        name, h1, h2, prop = (data["name"], data["h1"], data["h2"],
                              data["property_a"])
    except KeyError as exc:
        raise FormatError(f"{source}: missing key {exc.args[0]!r}") from exc
    note = data.get("presentation_note", "")
    if (not isinstance(name, str) or not isinstance(note, str)
            or not isinstance(prop, bool)
            or any(isinstance(h, bool) or not isinstance(h, int) or h < 0
                   for h in (h1, h2))):
        raise FormatError(f"{source}: expected name: str, h1/h2: int >= 0, "
                          "property_a: bool")
    return GroupProfile(name, h1, h2, prop, note)
