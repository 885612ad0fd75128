"""Exhaustive desk-scale searches and the canonical form behind them."""

import functools
import itertools
import random
import sys
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf import search
from simpsurf.bounds import SPHERE, parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.homology import betti_numbers
from simpsurf.search import (_canonical_key, _closures, _enumerate_closed,
                             canonical_form, complexes_with_one_triple_edge,
                             min_triangles_for_surface)
from simpsurf.surfaces import _classify_triangles, catalog, classify

from _fixtures import (RP2_TRIS, SPHERE_TRIS, rp2, sphere, torus,
                       torus_circle_sphere, torus_with_circle)


def _enumerate_closed_reference(n_max: int, allow_one_triple: bool,
                                chi_target: Optional[int] = None) -> list:
    """The reference enumerator: the same depth-first search as
    _enumerate_closed, kept on a degree list per edge and a flag per
    triangle, with the open edge found by a scan."""
    tris = list(itertools.combinations(range(n_max), 3))
    edge_ids = {e: i for i, e in enumerate(itertools.combinations(range(n_max), 2))}
    n_edges = len(edge_ids)
    tri_edges = []
    for a, b, c in tris:
        tri_edges.append((edge_ids[(a, b)], edge_ids[(a, c)], edge_ids[(b, c)]))
    tris_at_edge: list[list[int]] = [[] for _ in range(n_edges)]
    for ti, es in enumerate(tri_edges):
        for e in es:
            tris_at_edge[e].append(ti)

    max_degree = 3 if allow_one_triple else 2
    cap = (2 * n_edges + (1 if allow_one_triple else 0)) // 3
    if chi_target is not None:
        cap = min(cap, 2 * n_max - 2 * chi_target)

    deg = [0] * n_edges
    in_state = [False] * len(tris)
    state: list[int] = []
    out = []

    def place(ti: int) -> None:
        state.append(ti)
        in_state[ti] = True
        for e in tri_edges[ti]:
            deg[e] += 1

    def unplace(ti: int) -> None:
        state.pop()
        in_state[ti] = False
        for e in tri_edges[ti]:
            deg[e] -= 1

    def admissible(ti: int, used: int, has_triple: bool):
        """(new_used, makes_triple) or None."""
        if in_state[ti]:
            return None
        top = tris[ti][2]
        if top > used:
            return None
        hits = 0
        for e in tri_edges[ti]:
            d = deg[e]
            if d + 1 > max_degree:
                return None
            if d == 2:
                hits += 1
        if hits and (not allow_one_triple or has_triple or hits > 1):
            return None
        return (max(used, top + 1), hits == 1)

    def dfs(used: int, has_triple: bool) -> None:
        open_edge = next((e for e in range(n_edges) if deg[e] == 1), None)
        if open_edge is None:
            out.append((tuple(tris[ti] for ti in state), used))
            if allow_one_triple and not has_triple and len(state) < cap:
                # ride an edge up to three triangles and keep closing
                for ti in range(len(tris)):
                    fit = admissible(ti, used, has_triple)
                    if fit is not None and fit[1]:
                        place(ti)
                        dfs(fit[0], True)
                        unplace(ti)
            return
        if len(state) >= cap:
            return
        if chi_target is not None and 2 * used - 2 * chi_target > cap:
            return
        for ti in tris_at_edge[open_edge]:
            fit = admissible(ti, used, has_triple)
            if fit is not None:
                place(ti)
                dfs(fit[0], has_triple or fit[1])
                unplace(ti)

    place(0)  # the triangle (0, 1, 2)
    dfs(3, False)
    unplace(0)
    return out


def _closures_reference(n_max: int, seed: list) -> list:
    """The seeded closing search of _closures, kept on a degree list per
    edge: an edge in two or more triangles takes no further one."""
    tris = list(itertools.combinations(range(n_max), 3))
    deg = {e: 0 for e in itertools.combinations(range(n_max), 2)}
    for t in seed:
        for e in itertools.combinations(t, 2):
            deg[e] += 1
    cap = (2 * len(deg) + sum(d - 2 for d in deg.values() if d > 2)) // 3
    state = list(seed)
    out = []

    def dfs(used: int) -> None:
        open_edge = next((e for e, d in deg.items() if d == 1), None)
        if open_edge is None:
            out.append((tuple(state), used))
            return
        if len(state) >= cap:
            return
        for t in tris:
            sides = list(itertools.combinations(t, 2))
            if (open_edge not in sides or t in state or t[2] > used
                    or any(deg[e] >= 2 for e in sides)):
                continue
            state.append(t)
            for e in sides:
                deg[e] += 1
            dfs(max(used, t[2] + 1))
            state.pop()
            for e in sides:
                deg[e] -= 1

    dfs(max(map(max, seed)) + 1)
    return out


# canonical_form as it ran on labels and label tuples, kept verbatim as
# the oracle for the packed integer core
def _canonical_form_reference(k: Complex2) -> tuple:
    """A relabeling-invariant key ``(n, triangles, edges)``.

    The key is the least ``(triangles, edges)`` pair, each a sorted tuple
    of sorted label tuples, over the labelings of the vertices by
    0..n-1 that respect a colour partition.  Vertices are first coloured
    by iterated neighbourhood refinement; the cells, in colour order, own
    consecutive label ranges, so only labelings that send each cell onto
    its own range take part.

    The minimum is found by depth-first branch and bound rather than by
    trying every such labeling.  Labels are placed one at a time, each on
    an unused vertex of the cell owning it and each cell's labels in
    ascending order; the cells of vertices in triangles go first (a cell's
    vertices all lie in triangles or none does).  At a node with more than
    one candidate, each unplaced vertex is given the least label its cell
    has left, at most the label it gets in any completion.  Every triangle
    then gets a bound tuple, its labels so given or placed, sorted, and so
    does every loose edge (an edge in no triangle).  Sorting preserves the
    elementwise domination, so the pair of sorted bound lists is at most
    the (triangle list, loose-edge list) pair of every labeling below the
    node, and a node whose bound pair is strictly greater than the best
    pair so far is cut.  Equal triangle lists have equal sets of triangle
    edges, so the loose-edge lists decide the edge comparison, and the
    least pair gives the key.  With the triangle cells placed first the
    triangle bound is exact before any loose part is placed, so the
    loose-edge bound cuts there.

    A leaf that ties the best pair is an automorphism: sending each vertex
    to the vertex with the same label in the best labeling fixes the
    labels the two share up to the first position where they differ, and
    maps the candidate taken there to the one the best labeling took,
    whose subtree is already searched.  Every labeling below the current
    candidate has its image in that subtree, so the search resumes at
    that node with the next candidate.  A vertex-transitive complex, or a
    heap of interchangeable loose edges, then costs a few descents per
    label instead of one leaf per automorphism.  Vertices with no edges
    are placed without branching: refinement gives them a cell of their
    own, and every labeling of that cell gives the same key.
    """
    verts = k.vertices
    tris_at_edge = k._tris_at_edge
    colors = {
        v: (len(k.edges_at_vertex(v)), len(k.triangles_at_vertex(v)),
            tuple(sorted(len(tris_at_edge[e]) for e in k.edges_at_vertex(v))))
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

    n = len(verts)
    cells: dict[int, list] = {}
    for v in verts:
        cells.setdefault(colors[v], []).append(v)
    owner = []  # owner[x] is the cell whose vertices may take label x
    left = {}  # colour -> the least label its cell has not placed yet
    for c in sorted(cells):
        left[c] = len(owner)
        owner += [cells[c]] * len(cells[c])
    # the labels of cells in triangles first, each cell's in ascending order
    order = sorted(range(n),
                   key=lambda x: (not k.triangles_at_vertex(owner[x][0]), x))
    label = dict.fromkeys(verts, n)  # n marks a vertex with no label yet
    loose = k.maximal_edges()

    def lists(lab: dict) -> tuple:
        """The triangle list and loose-edge list under the labeling."""
        return (sorted([tuple(sorted((lab[a], lab[b], lab[c])))
                        for a, b, c in k.triangles]),
                sorted([tuple(sorted((lab[a], lab[b]))) for a, b in loose]))

    def place(v, x: int) -> None:
        label[v] = x
        left[colors[v]] = x + 1

    def unplace(v) -> None:
        left[colors[v]] = label[v]
        label[v] = n

    best = None  # (triangle list, loose-edge list) of the least labeling
    best_at: dict = {}  # label -> vertex in that labeling

    def descend(i: int) -> int:
        """Place the labels order[i:]; return the position whose node the
        search resumes at, or n to go on as usual."""
        nonlocal best, best_at
        forced = []  # labels with a single candidate, placed without a bound
        while i < n:
            free = [v for v in owner[order[i]] if label[v] == n]
            if len(free) > 1 and k.edges_at_vertex(free[0]):
                break
            place(free[0], order[i])
            forced.append(free[0])
            i += 1
        back = n
        if i == n:
            got = lists(label)
            if best is None or got <= best:
                at = {x: v for v, x in label.items()}
                if best is None or got < best:
                    best, best_at = got, at
                else:
                    back = next(j for j, x in enumerate(order)
                                if at[x] != best_at[x])
        elif best is None or lists({v: x if x < n else left[colors[v]]
                                    for v, x in label.items()}) <= best:
            for v in free:
                place(v, order[i])
                back = descend(i + 1)
                unplace(v)
                if back < i:
                    break
                back = n
        for v in reversed(forced):
            unplace(v)
        return back

    descend(0)
    tris, loose_edges = best
    edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))}
                   .union(loose_edges))
    return (n, tuple(tris), tuple(edges))


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
    # a triangle beside 1 to 3 disjoint loose edges, int and str labels
    inputs += [Complex2.from_triangles([(0, 1, 2)], extra_edges=loose)
               for j in range(1, 4)
               for loose in ([(3 + 2 * i, 4 + 2 * i) for i in range(j)],
                             [(f"a{i}", f"b{i}") for i in range(j)])]
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


@st.composite
def _labeled_complexes(draw) -> Complex2:
    """A relabeled vertex-transitive complex, or up to seven vertices with
    int, str or mixed labels carrying random triangles and loose edges,
    the vertices they miss left isolated."""
    if draw(st.booleans()):
        k = Complex2.from_triangles(
            _TRANSITIVE[draw(st.sampled_from(sorted(_TRANSITIVE)))])
        image = draw(st.lists(_LABEL, min_size=k.n_vertices,
                              max_size=k.n_vertices, unique=True))
        return k.relabeled(dict(zip(k.vertices, image)))
    labels = draw(st.lists(_LABEL, max_size=7, unique=True))
    triples = list(itertools.combinations(labels, 3))
    tris = [t for t, keep in zip(triples, draw(st.lists(
        st.booleans(), min_size=len(triples), max_size=len(triples)))) if keep]
    on_tris = {frozenset(e) for t in tris
               for e in itertools.combinations(t, 2)}
    pairs = [e for e in itertools.combinations(labels, 2)
             if frozenset(e) not in on_tris]
    loose = [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    return Complex2.from_triangles(tris, extra_edges=loose,
                                   extra_vertices=labels)


@settings(max_examples=200, deadline=None, database=None)
@given(_labeled_complexes())
def test_canonical_form_matches_the_tuple_reference(k):
    assert canonical_form(k) == _canonical_form_reference(k)


def _descend_calls(tris: list) -> int:
    """How many nodes the branch and bound of canonical_form visits on the
    complex of tris: the calls of _canonical_key's inner descend."""
    descend = next(c for c in _canonical_key.__code__.co_consts
                   if getattr(c, "co_name", None) == "descend")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is descend:
            calls += 1

    k = Complex2.from_triangles(tris)
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        canonical_form(k)
    finally:
        sys.setprofile(previous)
    return calls


def test_orbit_pruning_cuts_the_nodes_of_transitive_complexes():
    # the automorphisms found at tied leaves skip the sibling candidates
    # they carry onto searched ones; jump-backs alone visit 540, 216 and
    # 125 nodes, orbit pruning 240, 104 and 60
    for name, most in (("circulant-torus-8", 300), ("circulant-torus-7", 130),
                       ("octahedron", 80)):
        assert _descend_calls(_TRANSITIVE[name]) <= most, name


def _surface_classes(n: int, states) -> dict:
    """The number of canonical_form classes of each closed surface among
    the closed states that use exactly n vertices, by surface name."""
    keys: dict = {}
    for tris, used in states:
        if used == n:
            reason, surface, _signs = _classify_triangles(tris, used)
            if reason is None:
                keys.setdefault(surface.name, set()).add(_canonical_key(n, tris))
    return {name: len(classes) for name, classes in keys.items()}


def test_census_of_closed_surfaces_up_to_eight_vertices():
    # the sphere's counts are OEIS A000109; the others are those of
    # Sulanke and Lutz (2009)
    census = {4: {"S2": 1}, 5: {"S2": 1}, 6: {"S2": 2, "N1": 1},
              7: {"S2": 5, "N1": 3, "M1": 1},
              8: {"S2": 14, "N1": 16, "M1": 7, "N2": 6}}
    for n, counts in census.items():
        assert _surface_classes(n, _enumerate_closed(n, False)) == counts, n


@pytest.mark.slow
def test_census_of_closed_surfaces_on_nine_vertices():
    states = _enumerate_closed(9, False)
    assert sum(used == 9 for _tris, used in states) == 304877
    counts = _surface_classes(9, states)
    assert counts == {"S2": 50, "N1": 134, "M1": 112, "N2": 187, "N3": 133,
                      "N4": 37, "N5": 2}
    # Huneke's gap: the genus-2 orientable surface needs ten vertices
    assert "M2" not in counts


def test_integer_core_keys_closed_states_as_canonical_form():
    states = [s for n in range(3, 8) for s in _enumerate_closed(n, False)]
    assert len(states) == 186
    for tris, used in states:
        k = Complex2.from_triangles(tris)
        assert (_canonical_key(used, tris) == canonical_form(k)
                == _canonical_form_reference(k)), tris


def test_canonical_form_places_isolated_vertices_without_branching():
    # one cell of 40 isolated vertices; a labeling sweep would never end
    k = Complex2.from_triangles([(40, 41, 42)], extra_vertices=range(40))
    assert canonical_form(k) == (43, ((40, 41, 42),),
                                 ((40, 41), (40, 42), (41, 42)))


def test_canonical_form_cuts_interchangeable_loose_edges():
    # twelve vertices in one cell, so a labeling sweep would try 12! orders
    loose = [(f"a{i}", f"b{i}") for i in range(6)]
    k = Complex2.from_triangles([(0, 1, 2)], extra_edges=loose)
    start = time.perf_counter()
    key = canonical_form(k)
    assert time.perf_counter() - start < 1.0
    pairs = tuple((2 * i, 2 * i + 1) for i in range(6))
    assert key == (15, ((12, 13, 14),),
                   pairs + ((12, 13), (12, 14), (13, 14)))


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


def test_enumerator_matches_the_reference():
    # the plain search is the reference's, state for state; the reference
    # reaches a triple edge by riding one on a finished state, and finds
    # no state with it (alpha2 odd), as the seeded start finds none
    for n in range(3, 9):
        for chi in (None, 1, 0, -1):
            assert (_enumerate_closed(n, False, chi)
                    == _enumerate_closed_reference(n, False, chi)), (n, chi)
            odd = [(tris, used) for tris, used
                   in _enumerate_closed_reference(n, True, chi)
                   if len(tris) % 2]
            assert odd == [] and _enumerate_closed(n, True, chi) == [], (n, chi)


def test_seeded_start_finds_every_class():
    # every complete state has an edge in two triangles, so starting from
    # one, labeled (0, 1, 2) and (0, 1, 3), reaches every class the plain
    # start does: the relabeling argument the triple-edge seed rests on
    def classes(states):
        return {canonical_form(Complex2.from_triangles(tris))
                for tris, _used in states}

    for n, count in zip(range(4, 8), (1, 2, 5, 16)):
        seeded = classes(_closures(n, [(0, 1, 2), (0, 1, 3)]))
        assert seeded == classes(_enumerate_closed(n, False))
        assert len(seeded) == count


def test_closures_match_the_degree_list_reference():
    seeds = ([(0, 1, 2)], [(0, 1, 2), (0, 1, 3)],
             [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    for n in range(3, 8):
        for seed in seeds:
            if max(map(max, seed)) < n:
                assert _closures(n, seed) == _closures_reference(n, seed), (n, seed)


def test_no_lonely_triple_edge_beyond_the_public_scale():
    # the seeded start dies at the link of vertex 0 within milliseconds,
    # where riding an edge of every finished state does not end at 10
    for n in range(9, 13):
        assert _enumerate_closed(n, True) == []


def test_franklin_n2_needs_eight_vertices():
    result = min_triangles_for_surface(7, parse_surface_id("N2"))
    assert not result.found and result.witness is None
    assert result.complete_states == 163 and result.target_states == 0


def test_search_classifies_only_states_with_the_target_chi(monkeypatch):
    target = parse_surface_id("N2")
    states = _enumerate_closed(8, False, target.euler_characteristic)
    surfaces = [_classify_triangles(tris, used)[1] for tris, used in states]
    calls = []

    def counting(tris, used):
        calls.append(used - len(tris) // 2)
        return _classify_triangles(tris, used)

    monkeypatch.setattr(search, "_classify_triangles", counting)
    result = min_triangles_for_surface(8, target)
    assert len(states) == result.complete_states == 3850
    assert result.target_states == surfaces.count(target) == 300
    assert result.min_triangles == 16
    # only the states of chi 0 reach the classifier, each once
    assert set(calls) == {0}
    assert len(calls) == sum(used - len(tris) // 2 == 0 for tris, used in states) == 1541


def test_ringel_n3_needs_nine_vertices():
    result = min_triangles_for_surface(8, parse_surface_id("N3"))
    assert not result.found and result.min_triangles is None
    assert result.complete_states == 4003 and result.target_states == 0
