"""Exhaustive desk-scale searches and the canonical form behind them."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf.bounds import SPHERE, parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.homology import betti_numbers
from simpsurf.search import (canonical_form, complexes_with_one_triple_edge,
                             min_triangles_for_surface)
from simpsurf.surfaces import catalog, classify

from _fixtures import (RP2_TRIS, SPHERE_TRIS, rp2, sphere, torus,
                       torus_circle_sphere, torus_with_circle)


def _canonical_form_exhaustive(k: Complex2) -> tuple:
    """The reference key: the least (triangles, edges) pair over every
    labeling the colour refinement allows, found by trying them all."""
    verts = k.vertices
    colors = {
        v: (len(k.edges_at_vertex(v)), len(k.triangles_at_vertex(v)),
            tuple(sorted(k.edge_degree(e) for e in k.edges_at_vertex(v))))
        for v in verts
    }
    while True:
        refined = {
            v: (colors[v],
                tuple(sorted(colors[e[0] if e[1] == v else e[1]]
                             for e in k.edges_at_vertex(v))))
            for v in verts
        }
        palette = {c: i for i, c in enumerate(sorted(set(refined.values())))}
        new = {v: palette[refined[v]] for v in verts}
        if len(set(new.values())) == len(set(colors.values())):
            colors = new
            break
        colors = new

    groups: dict[int, list] = {}
    for v in verts:
        groups.setdefault(colors[v], []).append(v)
    ordered = [groups[c] for c in sorted(groups)]
    offsets = []
    base = 0
    for g in ordered:
        offsets.append(base)
        base += len(g)

    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in ordered)):
        relabel = {}
        for off, perm in zip(offsets, perms):
            for i, v in enumerate(perm):
                relabel[v] = off + i
        tris = tuple(sorted(tuple(sorted(relabel[v] for v in t)) for t in k.triangles))
        edges = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in k.edges))
        key = (tris, edges)
        if best is None or key < best:
            best = key
    return (k.n_vertices,) + (best if best is not None else ((), ()))


def _circulant_torus(n: int) -> list:
    """The vertex-transitive torus on Z/n: orbits of {0,1,3} and {0,2,3}."""
    return [tuple(sorted((i + d) % n for d in offsets))
            for offsets in ((0, 1, 3), (0, 2, 3)) for i in range(n)]


def _octahedron() -> list:
    return [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


# vertex-transitive complexes, pairwise non-isomorphic: every vertex is
# in one colour cell, so the branch and bound does all the cutting
_TRANSITIVE = {
    "tetrahedron": SPHERE_TRIS,
    "octahedron": _octahedron(),
    "rp2-6": RP2_TRIS,
    "circulant-torus-7": _circulant_torus(7),
    "circulant-torus-8": _circulant_torus(8),
}


@functools.cache
def _transitive_key(name: str) -> tuple:
    return canonical_form(Complex2.from_triangles(_TRANSITIVE[name]))


def _random_complex(rng: random.Random) -> Complex2:
    """Up to seven vertices with mixed int/str labels, in one or more
    parts, each with random triangles and loose edges (isolated vertices
    when neither touches them); a part is sometimes repeated on fresh
    labels so that ties between labelings occur."""
    pool = rng.sample(list(range(40)) + [f"v{i}" for i in range(40)], 80)
    labels = iter(pool)
    tris, edges, verts = [], [], []
    room = 7
    while room > 0 and (not verts or rng.random() < 0.6):
        size = min(rng.choice((1, 2, 3, 4, 4, 5, 5)), room)
        room -= size
        names = [next(labels) for _ in range(size)]
        part_tris = [t for t in itertools.combinations(range(size), 3)
                     if rng.random() < 0.5]
        part_edges = [e for e in itertools.combinations(range(size), 2)
                      if rng.random() < 0.3]
        copies = [names]
        if size <= room and rng.random() < 0.3:
            room -= size
            copies.append([next(labels) for _ in range(size)])
        for copy in copies:
            verts += copy
            tris += [tuple(copy[i] for i in t) for t in part_tris]
            edges += [tuple(copy[i] for i in e) for e in part_edges]
    return Complex2.from_triangles(tris, extra_edges=edges, extra_vertices=verts)


def test_canonical_form_matches_the_exhaustive_sweep():
    inputs = [sphere(), rp2(), torus(), torus_with_circle(),
              torus_circle_sphere(), catalog(parse_surface_id("N1")),
              Complex2(()), Complex2(("a", 3, "b", 0))]
    inputs += [Complex2.from_triangles(tris) for tris in _TRANSITIVE.values()]
    # a triangle beside 1 to 5 isolated vertices with int and with str labels
    inputs += [Complex2.from_triangles([(0, 1, 2)], extra_vertices=extra)
               for j in range(1, 6)
               for extra in (range(3, 3 + j), [f"v{i}" for i in range(j)])]
    rng = random.Random("canonical-form oracle")
    inputs += [_random_complex(rng) for _ in range(240)]
    # the random inputs cover every kind of part the key must see
    assert sum(len(set(map(type, k.vertices))) == 2 for k in inputs) >= 50
    assert sum(betti_numbers(k)[0] > 1 for k in inputs) >= 50
    assert sum(any(not k.edges_at_vertex(v) for v in k.vertices)
               for k in inputs) >= 50
    assert sum(any(not k.triangles_at_edge(e) for e in k.edges)
               for k in inputs) >= 50
    for k in inputs:
        assert canonical_form(k) == _canonical_form_exhaustive(k), k.triangles


_LABEL = st.one_of(st.integers(-99, 99), st.text("xyz", min_size=1, max_size=3))


@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_TRANSITIVE)), data=st.data())
def test_canonical_form_is_one_key_per_transitive_complex(name, data):
    k = Complex2.from_triangles(_TRANSITIVE[name])
    image = data.draw(st.lists(_LABEL, min_size=k.n_vertices,
                               max_size=k.n_vertices, unique=True))
    key = canonical_form(k.relabeled(dict(zip(k.vertices, image))))
    assert key == _transitive_key(name)
    assert all(key != _transitive_key(other)
               for other in _TRANSITIVE if other != name)


def test_canonical_form_places_isolated_vertices_without_branching():
    # one cell of 40 isolated vertices; a labeling sweep would never end
    k = Complex2.from_triangles([(40, 41, 42)], extra_vertices=range(40))
    assert canonical_form(k) == (43, ((40, 41, 42),),
                                 ((40, 41), (40, 42), (41, 42)))


def test_canonical_form_is_relabeling_invariant():
    k = torus()
    for perm in ({v: (v + 3) % 7 for v in range(7)},
                 {v: 6 - v for v in range(7)},
                 {0: 4, 1: 0, 2: 6, 3: 2, 4: 5, 5: 1, 6: 3}):
        assert canonical_form(k.relabeled(perm)) == canonical_form(k)


def test_canonical_form_distinguishes():
    assert canonical_form(sphere()) != canonical_form(torus())
    two = Complex2.from_triangles([(0, 1, 2), (0, 1, 3)])
    fan = Complex2.from_triangles([(0, 1, 2), (2, 3, 4)])
    assert canonical_form(two) != canonical_form(fan)


def test_canonical_form_sees_lower_dimensional_parts():
    bare = Complex2.from_triangles([(0, 1, 2)])
    with_edge = Complex2((0, 1, 2, 3), bare.edges + ((2, 3),), bare.triangles)
    with_vertex = Complex2((0, 1, 2, 3), bare.edges, bare.triangles)
    forms = {canonical_form(bare), canonical_form(with_edge),
             canonical_form(with_vertex)}
    assert len(forms) == 3


def test_scale_guard():
    with pytest.raises(ValueError):
        min_triangles_for_surface(2, SPHERE)
    with pytest.raises(ValueError):
        min_triangles_for_surface(9, SPHERE)
    with pytest.raises(ValueError):
        complexes_with_one_triple_edge(20)


def test_sphere_minimum_is_the_tetrahedron():
    result = min_triangles_for_surface(4, SPHERE)
    assert result.found and result.min_triangles == 4
    assert canonical_form(result.witness) == canonical_form(sphere())
    # four labeled vertices admit exactly one closed state
    assert result.complete_states == 1
    assert result.target_states == 1


def test_projective_plane_minimum_at_six_vertices():
    result = min_triangles_for_surface(6, parse_surface_id("N1"))
    assert result.found and result.min_triangles == 10
    got = classify(result.witness)
    assert got.is_surface and got.surface == parse_surface_id("N1")
    assert canonical_form(result.witness) == canonical_form(catalog(parse_surface_id("N1")))


def test_torus_needs_seven_vertices():
    assert not min_triangles_for_surface(6, parse_surface_id("M1")).found
    result = min_triangles_for_surface(7, parse_surface_id("M1"))
    assert result.found and result.min_triangles == 14
    assert canonical_form(result.witness) == canonical_form(torus())


def test_no_lonely_triple_edge_at_small_scale():
    assert complexes_with_one_triple_edge(6) == []
    assert complexes_with_one_triple_edge(7) == []
