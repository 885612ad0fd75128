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

The loader validates a document in one pass that also builds the
complex: each simplex's shape is checked once, each label type once, and
the sorted tuples that the closure needs find duplicate and degenerate
simplices.  Only when that pass fails does a scan in document order name
the fault, so that the message does not depend on how the pass is done.
The first fault in this order of precedence is reported:

  0. in a file, text that is not readable JSON: a syntax error, bytes
     that are not UTF-8, or a key repeated in any object, named (json
     itself would keep the last value); the first object to close with a
     repeated key names it;
  1. the top level is not an object; unknown keys; a name that is not a
     string; a face list ("vertices", "edges", "triangles") that is not
     a list;
  2. in document order, vertices, then edges, then triangles, each
     simplex's shape before its labels: an edge or triangle that is not a
     list of 2 or 3 items, or a label that is not an int or str (a bool
     is not a label);
  3. a duplicate vertex, then edge, then triangle: the same vertices in
     any order, named sorted;
  4. a degenerate edge, then triangle, with a repeated vertex, named as
     written.

A functional file is a JSON list of functionals, each a list of triangle
vertex-triples carrying coefficient 1.  Its triangles get the same shape
and label checks, functional by functional; a degenerate one is named
after them.

A group profile file is one object with keys name, h1, h2, property_a and
an optional presentation_note.  A repeated key in any object of a
functional or profile file is refused as in a complex file, before any
other check.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

from .bounds import GroupProfile
from .complex2 import Complex2, _label_order, _rows, label_key
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


def _object(pairs: list) -> dict:
    """One JSON object, from its key-value pairs in document order; a key
    given twice is a FormatError naming it, where json would keep the
    last value."""
    data = dict(pairs)
    if len(data) != len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FormatError(f"repeated key {key!r}")
    return data


def _read_json(path: Pathish):
    """Parse one JSON file; any input that is not readable JSON is a FormatError.

    Besides syntax errors this covers bytes that are not UTF-8, nesting too
    deep to parse, integers longer than the interpreter will convert, and
    a key repeated in any object.
    """
    source = str(path)
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except FormatError as exc:
        raise FormatError(f"{source}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{source}: not readable JSON: {exc}") from exc


def _label_problem(x) -> Optional[str]:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        return f"vertex label {x!r} is not an integer or string"
    return None


def _simplex_problem(raw, arity: int, what: str) -> Optional[str]:
    """The first fault of a face list in document order: a simplex that
    is not a list of arity items, or a label that is not an int or str."""
    for s in raw:
        if not isinstance(s, list) or len(s) != arity:
            return f"{what} {s!r} is not a list of {arity} vertex labels"
        for x in s:
            problem = _label_problem(x)
            if problem:
                return problem
    return None


def _first_problem(vertices: list, edges: list, triangles: list) -> str:
    """The message for a document the one-pass build rejected, found by a
    scan in the order of precedence given in the module docstring."""
    problem = (next(filter(None, map(_label_problem, vertices)), None)
               or _simplex_problem(edges, 2, "edge")
               or _simplex_problem(triangles, 3, "triangle"))
    if problem:
        return problem
    seen: set = set()
    for v in vertices:
        if v in seen:
            return f"duplicate vertex {v!r}"
        seen.add(v)
    for what, raw in (("edge", edges), ("triangle", triangles)):
        seen = set()
        for s in raw:
            row = tuple(sorted(s, key=label_key))
            if row in seen:
                return f"duplicate {what} {row!r}"
            seen.add(row)
    for what, raw in (("edge", edges), ("triangle", triangles)):
        for s in raw:
            if len(set(s)) != len(s):
                return f"degenerate {what} {tuple(s)!r}"
    raise AssertionError("the one-pass build and the scan disagree")


def _shaped(raw: list, arity: int) -> bool:
    """Whether every simplex in raw is a list of arity items."""
    return (all(map(isinstance, raw, repeat(list)))
            and set(map(len, raw)) <= {arity})


def _build(vertices: list, edges: list, triangles: list) -> Optional[Complex2]:
    """The complex of valid face lists, or None when any check fails.

    Every label and simplex is checked once: the shape here, the label
    types by the sort that the closure needs, repeated vertices and edges
    by the sizes of their sets, repeated triangles by the closure's count
    of them, and degenerate simplices by the closure, on the columns of
    the sorted rows.
    """
    if not (_shaped(edges, 2) and _shaped(triangles, 3)):
        return None
    try:
        key = _label_order(vertices, edges, triangles)
    except TypeError:
        return None
    edge_rows = _rows(edges, key)
    if len(set(vertices)) != len(vertices) or len(set(edge_rows)) != len(edge_rows):
        return None
    k = Complex2._closure(vertices, edge_rows, _rows(triangles, key), key)
    if k is None or k.n_triangles != len(triangles):
        return None
    return k


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
    faces = [data.get(key, []) for key in ("vertices", "edges", "triangles")]
    for key, raw in zip(("vertices", "edges", "triangles"), faces):
        if not isinstance(raw, list):
            raise FormatError(f"{source}: {key} must be a list")
    k = _build(*faces)
    if k is None:
        raise FormatError(f"{source}: {_first_problem(*faces)}")
    return k


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
    for i, functional in enumerate(data):
        if not isinstance(functional, list):
            raise FormatError(
                f"{source}: functional {i} is not a list of triangles")
        problem = _simplex_problem(functional, 3, "triangle")
        if problem:
            raise FormatError(f"{source}: functional {i}: {problem}")
    try:
        return PreservationSpec.from_triangle_lists(data)
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
