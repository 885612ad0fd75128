"""JSON file formats: canonical emission, closure on load, error context."""

import pytest

from simpsurf.complex2 import Complex2
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
