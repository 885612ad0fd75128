"""JSON file formats: canonical emission, closure on load, error context."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf.cli import main
from simpsurf.complex2 import Complex2, label_key
from simpsurf.reduction import PreservationSpec
from simpsurf.io import (FormatError, complex_from_dict, complex_to_dict,
                         dump_complex, dumps_complex, load_complex,
                         load_functionals, load_group_profile,
                         load_named_complex)

from _fixtures import torus, torus_with_circle


def test_round_trip_is_canonical_fixpoint(tmp_path):
    f = tmp_path / "k.json"
    f.write_text('{"triangles": [[2, 1, 0], [3, 0, 1]], "name": "strip"}')
    name, k = load_named_complex(f)
    assert name == "strip"
    once = dumps_complex(k, name)
    g = tmp_path / "canonical.json"
    g.write_text(once)
    again_name, again = load_named_complex(g)
    assert dumps_complex(again, again_name) == once
    assert once.endswith("\n")


def test_load_infers_closure():
    k = complex_from_dict({"triangles": [[0, 1, 2]]})
    assert k.vertices == (0, 1, 2)
    assert k.edges == ((0, 1), (0, 2), (1, 2))


def test_load_keeps_loose_faces_and_labels():
    k = complex_from_dict({"vertices": [9, "a"], "edges": [["a", "b"]],
                           "triangles": []})
    assert k.vertices == (9, "a", "b")
    assert k.triangles == ()


def test_empty_object_is_empty_complex():
    assert complex_from_dict({}) == Complex2((), (), ())


def test_degenerate_triangle_named_in_error():
    with pytest.raises(FormatError, match=r"degenerate triangle \(1, 1, 2\)"):
        complex_from_dict({"triangles": [[1, 1, 2]]})
    with pytest.raises(FormatError, match="degenerate edge"):
        complex_from_dict({"edges": [[4, 4]]})


def test_degenerate_simplices_among_mixed_labels_named_as_written():
    with pytest.raises(FormatError, match=r"degenerate triangle \('x', 4, 'x'\)"):
        complex_from_dict({"vertices": ["a", 3], "edges": [["b", 1]],
                           "triangles": [[2, "c", 1], ["x", 4, "x"]]})
    with pytest.raises(FormatError, match=r"degenerate edge \('b', 'b'\)"):
        complex_from_dict({"edges": [[1, "a"], ["b", "b"]],
                           "triangles": [[3, 3, "z"]]})


def test_duplicates_rejected():
    with pytest.raises(FormatError, match="duplicate vertex 3"):
        complex_from_dict({"vertices": [1, 3, 3]})
    with pytest.raises(FormatError, match="duplicate triangle"):
        complex_from_dict({"triangles": [[0, 1, 2], [2, 0, 1]]})
    with pytest.raises(FormatError, match="duplicate edge"):
        complex_from_dict({"edges": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("a, b, c", [(0, 1, 2), ("a", "b", "c"), (0, 1, "c")])
def test_duplicate_messages_name_the_sorted_simplex(a, b, c):
    with pytest.raises(FormatError, match=rf"duplicate triangle \({a!r}, {b!r}, {c!r}\)"):
        complex_from_dict({"triangles": [[c, a, b], [b, c, a]]})
    with pytest.raises(FormatError, match=rf"duplicate edge \({a!r}, {c!r}\)"):
        complex_from_dict({"edges": [[a, b], [c, a], [a, c]]})
    # a degenerate simplex repeated in any order is a duplicate; two
    # different degenerate ones are not, and the build names the first
    with pytest.raises(FormatError, match=rf"duplicate triangle \({a!r}, {a!r}, {b!r}\)"):
        complex_from_dict({"triangles": [[a, a, b], [a, b, a]]})
    with pytest.raises(FormatError, match=rf"degenerate triangle \({b!r}, {a!r}, {a!r}\)"):
        complex_from_dict({"triangles": [[b, a, a], [a, b, b]]})


def test_shape_errors():
    with pytest.raises(FormatError, match="top level"):
        complex_from_dict([1, 2, 3])
    with pytest.raises(FormatError, match="unknown keys"):
        complex_from_dict({"simplices": []})
    with pytest.raises(FormatError, match="name must be a string"):
        complex_from_dict({"name": 7})
    with pytest.raises(FormatError, match="not a list of 3"):
        complex_from_dict({"triangles": [[0, 1]]})
    with pytest.raises(FormatError, match="not an integer or string"):
        complex_from_dict({"vertices": [1.5]})
    with pytest.raises(FormatError, match="not an integer or string"):
        complex_from_dict({"vertices": [True]})


def test_json_errors_carry_position(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"vertices": [1, 2,]}')
    with pytest.raises(FormatError, match="line 1 column 20"):
        load_complex(f)


def test_a_repeated_key_is_refused_and_named(tmp_path, capsys):
    # json would keep the last value; every loader refuses the file, before
    # any check of what the object holds
    f = tmp_path / "repeated.json"
    cases = [
        (load_complex, '{"triangles": [[0, 1, 2]], "triangles": [[0, 1, 3]]}', "triangles"),
        (load_complex, '{"name": "a", "edges": [], "name": "b"}', "name"),
        (load_complex, '{"bogus": 1, "edges": [[0, 1]], "edges": [[0, 1]]}', "edges"),
        (load_complex, '{"triangles": [{"a": 1, "a": 2}]}', "a"),
        (load_functionals, '[[[0, 1, 2]], {"x": 1, "y": 2, "x": 3}]', "x"),
        (load_group_profile,
         '{"name": "G", "h1": 2, "h2": 1, "property_a": true, "h1": 3}', "h1"),
    ]
    for load, text, key in cases:
        f.write_text(text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(f))}: repeated key {key!r}$"):
            load(f)
    # the object that closes first names its key
    f.write_text('{"b": {"a": 1, "a": 2}, "b": 3}')
    with pytest.raises(FormatError, match=r"repeated key 'a'$"):
        load_complex(f)
    f.write_text(cases[0][1])
    assert main(["homology", str(f), "--json"]) == 2
    assert "repeated key 'triangles'" in capsys.readouterr().err
    # the same keys once each load as before
    f.write_text('{"triangles": [[0, 1, 2]], "edges": [[0, 3]]}')
    assert load_complex(f) == Complex2.from_triangles([(0, 1, 2)], [(0, 3)])


def test_dump_load_identity(tmp_path):
    for k in (torus(), torus_with_circle(), Complex2((), (), ())):
        f = tmp_path / "out.json"
        dump_complex(k, f, name="x")
        assert load_complex(f) == k
    assert "name" not in complex_to_dict(torus())


def test_load_functionals(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text('[[[0, 1, 3]], [[0, 1, 2], [5, 4, 0]]]')
    spec = load_functionals(f)
    assert spec.rank == 2
    assert spec.supports[0] == frozenset({(0, 1, 3)})
    f.write_text('[]')
    assert load_functionals(f).rank == 0


def test_load_functionals_errors(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text('{"not": "a list"}')
    with pytest.raises(FormatError, match="expected a list"):
        load_functionals(f)
    f.write_text('[[[1, 1, 2]]]')
    with pytest.raises(FormatError, match="degenerate"):
        load_functionals(f)
    f.write_text('[[[0, 1]]]')
    with pytest.raises(FormatError, match="functional 0"):
        load_functionals(f)


def test_load_group_profile(tmp_path):
    f = tmp_path / "profile.json"
    f.write_text('{"name": "BS(3,5)", "h1": 2, "h2": 1, "property_a": true}')
    profile = load_group_profile(f)
    assert (profile.name, profile.h1, profile.h2, profile.property_a) == (
        "BS(3,5)", 2, 1, True)
    f.write_text('{"name": "x", "h1": 2,}')
    with pytest.raises(FormatError, match="line 1 column 23"):
        load_group_profile(f)
    f.write_text('[]')
    with pytest.raises(FormatError, match="expected an object"):
        load_group_profile(f)
    f.write_text('{"name": "x", "h1": 2, "h2": 1}')
    with pytest.raises(FormatError, match="missing key 'property_a'"):
        load_group_profile(f)
    f.write_text('{"name": "x", "h1": true, "h2": 1, "property_a": true}')
    with pytest.raises(FormatError, match="h1/h2: int >= 0"):
        load_group_profile(f)


# ------------------------------------------------------------ loader oracle
#
# The two-stage validator the one-pass loader replaced: every label and
# simplex checked on its own, then duplicates, then Complex2.from_triangles
# for degenerate simplices and the closure.  The loader must return an
# equal complex or raise FormatError with the same message.

def _check_label(x, source):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError(
            f"{source}: vertex label {x!r} is not an integer or string")
    return x


def _check_simplex(raw, arity, what, source):
    if not isinstance(raw, list) or len(raw) != arity:
        raise FormatError(
            f"{source}: {what} {raw!r} is not a list of {arity} vertex labels")
    return tuple(_check_label(x, source) for x in raw)


def _check_no_duplicates(items, what, source):
    seen = set()
    for item in items:
        if item in seen:
            raise FormatError(f"{source}: duplicate {what} {item!r}")
        seen.add(item)


def _check_no_duplicate_simplices(simplices, what, source):
    seen = set()
    for s in simplices:
        vs = frozenset(s)
        item = vs if len(vs) == len(s) else tuple(sorted(s, key=label_key))
        if item in seen:
            raise FormatError(f"{source}: duplicate {what} "
                              f"{tuple(sorted(s, key=label_key))!r}")
        seen.add(item)


def _two_stage_complex_from_dict(data, source="<data>"):
    if not isinstance(data, dict):
        raise FormatError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - {"name", "vertices", "edges", "triangles"})
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
    _check_no_duplicates(vertices, "vertex", source)
    _check_no_duplicate_simplices(edges, "edge", source)
    _check_no_duplicate_simplices(triangles, "triangle", source)
    try:
        return Complex2.from_triangles(triangles, extra_edges=edges,
                                       extra_vertices=vertices)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{source}: {exc}") from exc


def _two_stage_load_functionals(path):
    source = str(path)
    data = json.loads(Path(path).read_text())
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


def _outcome(load, arg):
    try:
        return load(arg)
    except FormatError as exc:
        return f"FormatError: {exc}"


_INT_LABELS = st.integers(-2, 7)
_STR_LABELS = st.sampled_from(["a", "b", "c", "d", "é"])
_BAD_LABELS = st.one_of(st.booleans(), st.none(),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.lists(st.integers(0, 2), max_size=2))
_NOT_SIMPLICES = st.one_of(st.none(), st.integers(0, 3), st.just("ab"),
                           st.just({}), st.just({"0": 1, "1": 2}))


def _rarely(strategy, usual):
    """usual nine times in ten, else strategy."""
    return st.sampled_from(range(10)).flatmap(
        lambda i: strategy if i == 5 else usual)


def _simplex(label, arity):
    """Lists of arity labels, made distinct three times in four."""
    distinct = st.lists(label, min_size=arity, max_size=arity, unique_by=repr)
    return st.one_of(distinct, distinct, distinct,
                     st.lists(label, min_size=arity, max_size=arity))


@st.composite
def _face_list(draw, item):
    """A list of item, one time in four with one item repeated (permuted,
    when it is a list) at another position."""
    items = draw(st.lists(item, max_size=7))
    if items and draw(st.sampled_from([True, False, False, False])):
        copy = draw(st.sampled_from(items))
        if isinstance(copy, list):
            copy = draw(st.permutations(copy))
        items.insert(draw(st.integers(0, len(items))), copy)
    return items


@st.composite
def _documents(draw):
    """Complex documents over int, str or mixed labels: clean ones, whose
    faults are only duplicates and degenerate simplices, and dirty ones
    that also have wrong arity, non-list simplices and face lists, labels
    of the wrong type, unknown keys and names that are not strings."""
    label = draw(st.sampled_from([_INT_LABELS, _STR_LABELS,
                                  st.one_of(_INT_LABELS, _STR_LABELS)]))
    dirty = draw(st.booleans())
    if dirty:
        label = _rarely(_BAD_LABELS, label)

    def simplex(arity):
        if not dirty:
            return _simplex(label, arity)
        return _rarely(st.one_of(st.lists(label, max_size=4), _NOT_SIMPLICES),
                       _simplex(label, arity))

    doc = {}
    if draw(st.booleans()):
        doc["name"] = draw(_rarely(st.just(7), st.just("k")) if dirty
                           else st.just("k"))
    if draw(st.integers(0, 3)):
        distinct = st.lists(label, max_size=4, unique_by=repr)
        doc["vertices"] = draw(st.one_of(distinct, distinct,
                                         st.lists(label, max_size=4)))
    for key, item in (("edges", simplex(2)), ("triangles", simplex(3))):
        if draw(st.integers(0, 3)):
            doc[key] = draw(_face_list(item))
    if dirty and draw(_rarely(st.just(True), st.just(False))):
        doc[draw(st.sampled_from(["edges", "simplices"]))] = {}
    return doc


_LOADER_CASES = [
    {},
    {"vertices": [5, "x"], "edges": [[0, 9], ["a", 0]],
     "triangles": [[2, 1, 0], ["b", 1, 2]]},
    {"vertices": [4], "edges": [[4, 5]], "triangles": [[0, 1, 2]]},
    # precedence: a later shape or label fault beats an earlier duplicate,
    # a duplicate beats an earlier degenerate simplex
    {"vertices": [1, 1], "triangles": [[0, 1]]},
    {"vertices": [1, 1], "edges": [[0, True]]},
    {"edges": [[4, 4]], "triangles": [[0, 1, 2], [2, 1, 0]]},
    {"edges": [[4, 4]], "triangles": [[1, 1, 2]]},
    {"triangles": [[0, 1, 2], [0, 1, 1.0]]},
    {"triangles": [[1, 2, 3], [True, 2, 3]]},
    {"triangles": [["a", 0, "a"], ["a", "a", 0]]},
    {"edges": [[0, [1]]], "vertices": [None]},
    # a degenerate triangle after a bool label, after a duplicate, and
    # among mixed labels, where it is named as written
    {"edges": [[0, True]], "triangles": [[3, 3, 4]]},
    {"triangles": [[1, 2, True], [5, 5, 6]]},
    {"edges": [[1, 2], [2, 1]], "triangles": [[7, 7, 8]]},
    {"triangles": [[0, 1, 2], [2, 0, 1], [3, 3, 4]]},
    {"vertices": ["a", 3], "edges": [["b", 1]],
     "triangles": [[2, "c", 1], ["x", 4, "x"]]},
    {"edges": [[1, "a"], ["b", "b"]], "triangles": [[1, "a", 2], [3, 3, "z"]]},
]


@pytest.mark.parametrize("doc", _LOADER_CASES)
def test_loader_matches_the_two_stage_validator_on_fixed_documents(doc):
    got = _outcome(complex_from_dict, doc)
    assert got == _outcome(_two_stage_complex_from_dict, doc)


@settings(max_examples=400, deadline=None, database=None)
@given(_documents())
def test_loader_matches_the_two_stage_validator(doc):
    got = _outcome(complex_from_dict, doc)
    assert got == _outcome(_two_stage_complex_from_dict, doc)


@st.composite
def _functional_documents(draw):
    """Functional files: lists of lists of triangles over int labels,
    with rare wrong types at every level; degenerate triangles come from
    the small label range."""
    label = _rarely(_BAD_LABELS, _INT_LABELS)
    triangle = _rarely(st.one_of(st.lists(label, max_size=4), _NOT_SIMPLICES),
                       _simplex(label, 3))
    functional = _rarely(_NOT_SIMPLICES, st.lists(triangle, max_size=4))
    return draw(_rarely(_NOT_SIMPLICES, st.lists(functional, max_size=4)))


@settings(max_examples=200, deadline=None, database=None)
@given(_functional_documents())
def test_load_functionals_matches_the_two_stage_validator(doc):
    with tempfile.TemporaryDirectory() as scratch:
        f = Path(scratch) / "spec.json"
        f.write_text(json.dumps(doc))
        got = _outcome(load_functionals, f)
        assert got == _outcome(_two_stage_load_functionals, f)
