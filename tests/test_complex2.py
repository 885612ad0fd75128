from __future__ import annotations

import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf.cli import run_report
from simpsurf.complex2 import Complex2, canon_edge, canon_triangle, label_key
from simpsurf.homology import (betti_numbers, chain, cup_pairing_on_h1,
                               has_property_a, homology_summary)
from simpsurf.reduction import collapse_all, eliminate_maximal_edges, simplify_pipeline
from simpsurf.search import canonical_form

from _fixtures import label_cases, torus
from test_homology import _oracle_cases

SPHERE = [t for t in combinations(range(4), 3)]


def test_closure_counts():
    k = Complex2.from_triangles([[1, 2, 3], [2, 3, 4]])
    assert (k.n_vertices, k.n_edges, k.n_triangles) == (4, 5, 2)
    assert k.euler_characteristic() == 1


def test_canonical_order_mixed_labels():
    k = Complex2.from_triangles([["b", 2, "a"]], extra_vertices=[10])
    assert k.vertices == (2, 10, "a", "b")
    assert k.triangles == ((2, "a", "b"),)
    assert canon_edge("b", 2) == (2, "b")
    assert canon_triangle("c", "a", "b") == ("a", "b", "c")


def test_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate triangle"):
        Complex2.from_triangles([[1, 1, 2]])
    with pytest.raises(ValueError, match="degenerate edge"):
        Complex2.from_triangles([], extra_edges=[[3, 3]])
    with pytest.raises(TypeError):
        label_key(1.5)


def test_both_constructors_name_the_first_degenerate_simplex_as_given():
    # edges before triangles, each the first as given, whatever the label
    # types and before any missing face
    cases = [
        ([], [(1, 2), (3,), (4, 4)], [(5, 5, 6)], "edge (3,)"),
        ([], [(1, "a"), ("b", "b")], [(1, 2, 2)], "edge ('b', 'b')"),
        ([], [(1, 2, 3)], [], "edge (1, 2, 3)"),
        ([], [], [(1, 2, 3), ("b", 1, "b"), (4, 4, 5)], "triangle ('b', 1, 'b')"),
        ([], [], [(1, 2, 3), (4, 5), (6, 6, 7)], "triangle (4, 5)"),
        ([], [], [(1, 2, 3), (2, 3, 4, 5)], "triangle (2, 3, 4, 5)"),
        (["a"], [], [("x", "y", "z"), ("z", "x", "z")], "triangle ('z', 'x', 'z')"),
    ]
    for vertices, edges, triangles, named in cases:
        message = re.escape(f"degenerate {named}")
        with pytest.raises(ValueError, match=message):
            Complex2.from_triangles(triangles, edges, vertices)
        with pytest.raises(ValueError, match=message):
            Complex2(vertices, edges, triangles)


@pytest.mark.parametrize("bad", [True, False, 1.0, None])
def test_labels_of_other_types_rejected_by_both_constructors(bad):
    # True == 1 and 1.0 == 1, so a set of labels would merge them with 1
    # whichever comes first; each occurrence's type is checked
    message = rf"vertex label {bad!r} is not an int or str"
    for tris in ([(bad, 2, 3), (1, 2, 4)], [(1, 2, 4), (bad, 2, 3)]):
        with pytest.raises(TypeError, match=message):
            Complex2.from_triangles(tris)
    with pytest.raises(TypeError, match=message):
        Complex2.from_triangles([(1, 2, 3)], extra_vertices=[bad])
    with pytest.raises(TypeError, match=message):
        Complex2([1, 2, bad], [(1, 2), (1, bad), (2, bad)], [(1, 2, bad)])
    with pytest.raises(TypeError, match=message):
        Complex2([0, bad])
    with pytest.raises(TypeError, match=message):
        label_key(bad)


def test_init_requires_closure():
    with pytest.raises(ValueError, match="missing"):
        Complex2([1, 2, 3], [], [[1, 2, 3]])
    with pytest.raises(ValueError, match="endpoint"):
        Complex2([1], [[1, 2]])


def test_edge_degree_and_maximal():
    k = Complex2.from_triangles([[1, 2, 3], [2, 3, 4]], extra_edges=[[4, 5]])
    assert k.edge_degree((2, 3)) == 2
    assert k.edge_degree((1, 2)) == 1
    assert k.maximal_edges() == ((4, 5),)
    with pytest.raises(ValueError):
        k.edge_degree((1, 5))


class _NoLength:
    """An argument with no length, which names no simplex."""


def test_has_queries_are_true_exactly_where_the_queries_answer():
    # int and one-letter str labels, so a str of two or three letters
    # spells an edge or a triangle it must not be taken for
    k = Complex2.from_triangles([(0, 1, 2), ("a", "b", "c"), (0, "a", 1)],
                                extra_edges=[(2, "d")], extra_vertices=[7])
    bag = [*k.edges, *k.triangles, *map(list, k.edges), *map(list, k.triangles),
           *(t[::-1] for t in (*k.edges, *k.triangles)),
           (0, 7), (0, 1, 7), (2, "d", 0), (0, 0), (0, 0, 1), (0,), (0, 1, 2, "a"),
           (True, 1), (0, True), (1.0, 2), (0, 1, 2.0), (None, 1), ([0], 1, 2),
           True, False, 0, 1, 7, 1.0, 2.5, None, "a", "ab", "abc", "d2", "",
           [], _NoLength(), iter((0, 1, 2)), iter((0, 1))]
    seen = Counter()
    for x in bag:
        answers = []
        for query in (k.edge_degree, k.triangles_at_edge):
            try:
                query(x)
            except ValueError as exc:
                assert "is not in the complex" in str(exc), x
                answers.append(False)
            else:
                answers.append(True)
        try:
            chain(k, 2, [x])
        except ValueError:
            built = False
        else:
            built = True
        assert k.has_edge(x) is answers[0] is answers[1], x
        assert k.has_triangle(x) is built, x
        seen["edge"] += answers[0]
        seen["triangle"] += built
    # each edge, given as a tuple, a list and reversed; each triangle too
    assert seen == {"edge": 3 * k.n_edges, "triangle": 3 * k.n_triangles}


def test_link_of_vertex():
    k = Complex2.from_triangles(SPHERE)
    nodes, edges = k.link_of_vertex(0)
    assert nodes == (1, 2, 3)
    assert edges == ((1, 2), (1, 3), (2, 3))


def test_vertex_stars_and_links_match_a_brute_force_filter():
    seen = Counter()
    for labels, k in label_cases():
        position = k._vertex_index
        for v in k.vertices:
            star = tuple(t for t in k.triangles if v in t)
            assert k.triangles_at_vertex(v) == star
            assert set(star) == {t for e in k.edges_at_vertex(v)
                                 for t in k.triangles_at_edge(e)}
            nodes = sorted({u for e in k.edges if v in e for u in e if u != v},
                           key=position.get)
            opposite = sorted((tuple(u for u in t if u != v) for t in star),
                              key=lambda e: (position[e[0]], position[e[1]]))
            assert k.link_of_vertex(v) == (tuple(nodes), tuple(opposite))
            seen["isolated"] += not k.edges_at_vertex(v)
        seen[labels] += 1
    assert seen["isolated"] >= 12
    assert seen["int"] == seen["str"] == seen["mixed"] >= 15


def test_only_int_and_str_labels_are_vertices():
    k = torus()
    assert k.has_vertex(0) and k.has_vertex(1)
    # True == 1 and 1.0 == 1, yet neither is a label of the complex
    for bad in (True, False, 1.0, 0.0, 99, "0", None, [0]):
        assert not k.has_vertex(bad)
        for query in (k.edges_at_vertex, k.triangles_at_vertex, k.link_of_vertex):
            with pytest.raises(ValueError, match="is not in the complex"):
                query(bad)
    # the edge and triangle queries follow the same rule, label by label
    assert k.has_edge((0, 1)) and k.has_triangle((0, 1, 3))
    for bad in (True, 1.0, 0.0, None, "0"):
        for edge in ((bad, 1), (0, bad)):
            assert not k.has_edge(edge)
            for query in (k.edge_degree, k.triangles_at_edge):
                with pytest.raises(ValueError, match="is not in the complex"):
                    query(edge)
        for tri in ((bad, 1, 3), (0, 1, bad)):
            assert not k.has_triangle(tri)
    # and so does a simplex with the wrong number of vertices
    for edge in ((0, 1, 3), (0,), "abc"):
        assert not k.has_edge(edge)
        for query in (k.edge_degree, k.triangles_at_edge):
            with pytest.raises(ValueError, match="is not in the complex"):
                query(edge)
    for tri in ((0, 1), (0,), (0, 1, 3, 4)):
        assert not k.has_triangle(tri)
    # an argument without a length is no simplex either
    for bad in (5, None, 1.5):
        assert not k.has_edge(bad) and not k.has_triangle(bad)
        for query in (k.edge_degree, k.triangles_at_edge):
            with pytest.raises(ValueError, match="is not in the complex"):
                query(bad)
    # building a simplex keeps label_key's TypeError
    with pytest.raises(TypeError):
        canon_edge(True, 0)
    with pytest.raises(TypeError):
        canon_triangle(1.0, 2, 3)


def test_components_include_isolated_vertices():
    k = Complex2.from_triangles([[1, 2, 3]], extra_edges=[[5, 6]], extra_vertices=[9])
    assert k.connected_components() == ((1, 2, 3), (5, 6), (9,))
    assert not k.is_connected()
    assert k.isolated_vertices() == (9,)
    # mixed labels: each component in label_key order, ints before strs
    mixed = Complex2.from_triangles([["b", 10, 2], [2, "a", 10]],
                                    extra_edges=[["z", 7]])
    assert mixed.connected_components() == ((2, 10, "a", "b"), (7, "z"))


def test_homology_and_canonical_form_leave_the_lazy_indexes_unbuilt():
    for _, built in label_cases():
        k = Complex2(built.vertices, built.edges, built.triangles)
        summary = homology_summary(k)
        summary.cycle_reps
        has_property_a(k)
        canonical_form(k)
        assert k._vertex_edges is None and k._triangle_positions is None
        # each is built by its first read and kept
        assert k._edges_at_vertex is k._edges_at_vertex
        assert k._triangle_index is k._triangle_index
        assert k._triangle_index == {t: j for j, t in enumerate(k.triangles)}
        # none of these asks for the components, which the complex finds
        # on its own forest when asked, so the edges at each vertex are
        # never built
        for run in (betti_numbers, cup_pairing_on_h1, simplify_pipeline):
            k = Complex2(built.vertices, built.edges, built.triangles)
            run(k)
            assert k._vertex_edges is None
            walked = Complex2(k.vertices, k.edges, k.triangles).connected_components()
            assert k.connected_components() == walked
            assert k._vertex_edges is None


def test_triangle_edge_positions_are_built_once_and_kept():
    for _, built in label_cases() + [("empty", Complex2([]))]:
        k = Complex2(built.vertices, built.edges, built.triangles)
        assert k._triangle_edge_positions is None
        first = k._triangle_edges
        assert k._triangle_edges is first
        position = k._edge_index
        assert first == tuple((position[a, b], position[a, c], position[b, c])
                              for a, b, c in k.triangles)
        # the summary, its 1-cycles and the cup form share one build
        k = Complex2(built.vertices, built.edges, built.triangles)
        summary = homology_summary(k)
        first = k._triangle_edge_positions
        assert first is not None or not k.triangles
        summary.cycle_reps
        cup_pairing_on_h1(k, summary)
        assert k._triangle_edge_positions is first


def test_reductions_leave_the_input_edge_index_unbuilt():
    # the working state builds the triangles at each edge from the kept
    # triangles, not from a copy of the input's index
    for _, built in label_cases():
        k = Complex2(built.vertices, built.edges, built.triangles)
        simplify_pipeline(k)
        simplify_pipeline(k, target_rank=0)
        collapse_all(k)
        eliminate_maximal_edges(k)
        assert k._edge_triangles is None


def _books_and_loose_edges(count: int, seed: int) -> list[Complex2]:
    """Seeded complexes with edges in no triangle, in one, in two and in
    three or more: pages on a spine and random triangles with loose edges
    and isolated vertices, on int and str labels."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randrange(5, 10)
        pages = [(0, 1, x) for x in range(2, 2 + rng.randrange(3, 6))]
        triples = list(combinations(range(n), 3))
        tris = pages + rng.sample(triples, rng.randrange(0, 8))
        loose = rng.sample(list(combinations(range(n + 3), 2)), rng.randrange(0, 5))
        k = Complex2.from_triangles(tris, extra_edges=loose,
                                    extra_vertices=range(n + rng.randrange(0, 3)))
        if rng.randrange(2):
            k = k.relabeled({v: f"v{v}" for v in k.vertices})
        cases.append(k)
    return cases


def test_edge_degrees_agree_with_the_triangles_at_each_edge():
    cases = _oracle_cases() + _books_and_loose_edges(40, 20261021)
    assert any(max(k._edge_degrees, default=0) >= 3 for k in cases)
    for built in cases:
        k = Complex2(built.vertices, built.edges, built.triangles)
        assert k._edge_degree_counts is None
        degrees = k._edge_degrees
        assert k._edge_degrees is degrees
        loose = k.maximal_edges()
        # neither the degrees nor the maximal edges build the triangles
        # at each edge
        assert k._edge_triangles is None
        tris_at_edge = k._tris_at_edge
        assert degrees == tuple(len(tris_at_edge[e]) for e in k.edges)
        assert loose == tuple(e for e in k.edges if not tris_at_edge[e])
        assert all(k.edge_degree(e) == d for e, d in zip(k.edges, degrees))


def test_the_report_path_leaves_the_edge_index_unbuilt():
    # the result's audits, counting bounds and classification read the
    # edge degrees; none builds the triangles at each edge
    cases = [built for _, built in label_cases()]
    cases += [k for k in _oracle_cases() if k.n_triangles <= 100]
    for built in cases:
        k = Complex2(built.vertices, built.edges, built.triangles)
        for target_rank in (None, 0):
            report = run_report("k", k, target_rank=target_rank)
            assert report.trace.result._edge_triangles is None
            assert report.trace.result._edge_degree_counts is not None
        assert k._edge_triangles is None


def test_components_are_walked_once_per_value():
    for _, k in label_cases() + [("empty", Complex2([]))]:
        first = k.connected_components()
        assert k.connected_components() is first
        assert first == Complex2(k.vertices, k.edges, k.triangles).connected_components()
        assert k.is_connected() == (len(first) == 1)


def test_relabeled():
    k = Complex2.from_triangles([[0, 1, 2]])
    m = k.relabeled({0: "x"})
    assert m.triangles == ((1, 2, "x"),)
    # a complex is a value: relabeling builds a new one
    assert k == Complex2.from_triangles([[0, 1, 2]])
    assert hash(k) == hash(Complex2.from_triangles([[0, 1, 2]]))
    with pytest.raises(ValueError, match="injective"):
        k.relabeled({0: 1})


def test_relabeled_names_a_bad_label_before_testing_injectivity():
    # True would merge with the vertex 1 in a set of the image labels
    k = Complex2.from_triangles([[0, 1, 2]])
    for bad in (True, 1.5):
        with pytest.raises(TypeError, match=f"vertex label {bad!r} is not an int or str"):
            k.relabeled({0: bad})


def test_empty_complex():
    k = Complex2([])
    assert (k.n_vertices, k.n_edges, k.n_triangles) == (0, 0, 0)
    assert k.euler_characteristic() == 0
    assert k.connected_components() == ()


# label pools: int-only and str-only builds sort with no key, mixed ones by
# label_key ranks; both must give the label_key order
_INTS = st.integers(-40, 40)
_STRS = st.text(alphabet="ab1", min_size=1, max_size=3)
_LABEL_SETS = st.one_of(st.sets(_INTS, min_size=3, max_size=9),
                        st.sets(_STRS, min_size=3, max_size=9),
                        st.sets(st.one_of(_INTS, _STRS), min_size=3, max_size=9))


def _by_label_key(simplices):
    return tuple(sorted({tuple(sorted(s, key=label_key)) for s in simplices},
                        key=lambda s: tuple(map(label_key, s))))


def _simplices(pool, n):
    return st.permutations(pool).map(lambda p: tuple(p[:n]))


@settings(max_examples=300, deadline=None, database=None)
@given(labels=_LABEL_SETS, data=st.data())
def test_order_is_the_label_key_order(labels, data):
    pool = sorted(labels, key=repr)
    tris = data.draw(st.lists(_simplices(pool, 3), max_size=12))
    loose = data.draw(st.lists(_simplices(pool, 2), max_size=4))
    extra = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    k = Complex2.from_triangles(tris, extra_edges=loose, extra_vertices=extra)
    closure = [e for t in tris for e in combinations(t, 2)] + loose
    assert k.vertices == tuple(sorted({v for s in closure + tris for v in s} | set(extra),
                                      key=label_key))
    assert k.edges == _by_label_key(closure)
    assert k.triangles == _by_label_key(tris)
    # the positions the closure stores, and each triangle's edges ab, ac
    # and bc, are read off the same order
    vertex = {v: i for i, v in enumerate(k.vertices)}
    edge = {e: i for i, e in enumerate(_by_label_key(closure))}
    triangle_edges = tuple((edge[a, b], edge[a, c], edge[b, c])
                           for a, b, c in _by_label_key(tris))
    assert k._vertex_index == vertex and list(k._vertex_index) == list(vertex)
    assert k._edge_index == edge and list(k._edge_index) == list(edge)
    assert k._triangle_edges == triangle_edges
    # __init__ with the closure given, in reverse, builds the same value
    again = Complex2(k.vertices[::-1], [e[::-1] for e in k.edges],
                     [t[::-1] for t in k.triangles])
    assert again._key() == k._key()
    assert again._vertex_index == vertex and again._edge_index == edge
    assert again._triangle_edges == triangle_edges


@pytest.mark.parametrize("a, b, c", [(1, 2, 3), ("a", "b", "c"), (1, "b", "c")])
def test_errors_on_both_sort_paths(a, b, c):
    with pytest.raises(ValueError, match=rf"degenerate triangle \({a!r}, {b!r}, {a!r}\)"):
        Complex2.from_triangles([[a, b, c], [a, b, a]])
    with pytest.raises(ValueError, match=rf"degenerate edge \({c!r}, {c!r}\)"):
        Complex2.from_triangles([[a, b, c]], extra_edges=[[c, c]])
    with pytest.raises(ValueError, match=rf"degenerate triangle \({c!r}, {b!r}, {c!r}\)"):
        Complex2([a, b, c], [[a, b], [a, c], [b, c]], [[c, b, c]])
    with pytest.raises(ValueError, match=rf"edge \({b!r}, {c!r}\) of triangle "
                                         rf"\({a!r}, {b!r}, {c!r}\) is missing"):
        Complex2([a, b, c], [[b, a], [c, a]], [[c, b, a]])
    with pytest.raises(ValueError, match=rf"endpoint {c!r} of edge \({a!r}, {c!r}\)"):
        Complex2([a, b], [[c, a]])
    for build in (lambda: Complex2.from_triangles([[a, b, 2.5]]),
                  lambda: Complex2.from_triangles([[a, b, c]], extra_vertices=[None]),
                  lambda: Complex2([a, b, 2.5])):
        with pytest.raises(TypeError, match="is not an int or str"):
            build()
