"""Exhaustive desk-scale searches and the canonical form behind them."""

import functools
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict, deque
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf import search
from simpsurf.bounds import SPHERE, SurfaceId, parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import _bits_up
from simpsurf.homology import betti_numbers
from simpsurf.search import (_SEED, _TRIPLE_SEED, SearchResult, _canonical_key,
                             _check_scale, _closures, _star_link_is_cycle,
                             _triangles, canonical_form,
                             complexes_with_one_triple_edge,
                             min_triangles_for_surface)
from simpsurf import surfaces
from simpsurf.surfaces import _recognize, catalog, classify

from _fixtures import (PEAK_KIB, RP2_TRIS, SPHERE_TRIS, closed_states,
                       failure_reason_oracle, link_apexes, link_is_cycle, rp2,
                       sphere, torus, torus_circle_sphere, torus_with_circle,
                       triangle_edges)


def _orientable_reference(tris) -> bool:
    """Whether the triangles take signs under which every edge lies in
    two triangles that run it opposite ways: a breadth-first search over
    triangles that share an edge, the triangle (a, b, c) with sign 1
    running the cycle a -> b -> c -> a and with sign -1 the reverse."""
    at_edge = defaultdict(list)
    for t in tris:
        for e in itertools.combinations(t, 2):
            at_edge[e].append(t)
    if any(len(ts) != 2 for ts in at_edge.values()):
        return False

    def runs(t, sign: int, e) -> bool:
        a, b, c = t
        cycle = ((a, b), (b, c), (c, a))
        return (e in cycle) == (sign == 1)

    sign: dict = {}
    for root in tris:
        if root in sign:
            continue
        sign[root] = 1
        queue = deque([root])
        while queue:
            t = queue.popleft()
            for e in itertools.combinations(t, 2):
                u = next(x for x in at_edge[e] if x != t)
                want = 1 if runs(u, 1, e) != runs(t, sign[t], e) else -1
                if u not in sign:
                    sign[u] = want
                    queue.append(u)
                elif sign[u] != want:
                    return False
    return True


def _enumerate_closed_reference(n_max: int, allow_one_triple: bool,
                                chi_target: Optional[int] = None) -> list:
    """The reference enumerator: the same depth-first search as _closures
    from the plain seed, kept on a degree list per edge and a flag per
    triangle, with the open edge found by a scan; each state as
    (triangles, used, orientable), the triangles in placement order and
    orientable found afterwards by _orientable_reference."""
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
            done = tuple(tris[ti] for ti in state)
            out.append((done, used, _orientable_reference(done)))
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
    edge: an edge in two or more triangles takes no further one.  States
    are (triangles, used, orientable), the triangles in placement order."""
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
            out.append((tuple(state), used, _orientable_reference(state)))
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


def _sorted_states(states: list) -> list:
    """The states with each one's triangles sorted, as the visitor's
    placed-triangle mask gives them."""
    return [(tuple(sorted(tris)), used, orientable)
            for tris, used, orientable in states]


@functools.cache
def _enumerate_closed(n_max: int, allow_one_triple: bool,
                      chi_target: Optional[int] = None) -> list:
    """The list of complete states the searches once ran on, as (triangle
    ids, used, orientable) in search order, rebuilt from the reference
    enumerators with the triangles in placement order."""
    tris = _triangles(n_max)
    if allow_one_triple:
        states = (_closures_reference(n_max, _TRIPLE_SEED) if n_max >= 5
                  else [])
    else:
        states = _enumerate_closed_reference(n_max, False, chi_target)
    return [(tuple(tris.index(t) for t in state), used, orientable)
            for state, used, orientable in states]


# min_triangles_for_surface and complexes_with_one_triple_edge as they ran
# on the list of every complete state, kept verbatim as the oracles for
# the visitor that sees each state as it closes
def _min_triangles_reference(max_vertices: int, target: SurfaceId) -> SearchResult:
    """Exhaustively find the least triangle count of the target surface
    on at most max_vertices vertices; found=False when none exists there.

    The enumerator hands over each complete state as triangle ids with
    its orientability, and states whose Euler characteristic or
    orientability differs from the target's are skipped.  With both
    matching, a state is the target exactly when every vertex link is a
    single cycle, so the rest are decoded to integer triangles and get
    only the link walk of the recognizer behind classify.  Only the
    first least one becomes a Complex2, the witness, and classify,
    which runs the full recognizer, confirms it."""
    _check_scale(max_vertices)
    chi = target.euler_characteristic
    complete = _enumerate_closed(max_vertices, allow_one_triple=False,
                                 chi_target=chi)
    tris = _triangles(max_vertices)
    best = None
    hits = 0
    for ids, used, orientable in complete:
        # every edge of a complete state lies in two triangles, so
        # alpha1 = 3 alpha2 / 2 and chi = used - alpha2 / 2
        if used - len(ids) // 2 != chi or orientable != target.orientable:
            continue
        state = [tris[ti] for ti in ids]
        if link_apexes(state, used) is None:
            continue
        hits += 1
        if best is None or len(state) < len(best):
            best = state
    witness = None
    if best is not None:
        witness = Complex2.from_triangles(best)
        got = classify(witness).surface
        if got != target:
            raise AssertionError(
                f"search witness for {target} classifies as {got}")
    return SearchResult(
        target=target,
        max_vertices=max_vertices,
        found=best is not None,
        min_triangles=len(best) if best is not None else None,
        witness=witness,
        complete_states=len(complete),
        target_states=hits,
    )


def _triple_edge_reference(max_vertices: int) -> list[Complex2]:
    """All complexes (up to isomorphism, edge-connected) on at most
    max_vertices vertices in which every edge lies in two triangles except
    exactly one edge lying in three."""
    _check_scale(max_vertices)
    seen = set()
    found = []
    tris = _triangles(max_vertices)
    for ids, used, _orientable in _enumerate_closed(max_vertices,
                                                    allow_one_triple=True):
        state = [tris[ti] for ti in ids]
        key = _canonical_key(used, state)
        if key not in seen:
            seen.add(key)
            found.append(Complex2.from_triangles(state))
    return found


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
    # loose edges beside triangles, which the lowest-vertex rule reads:
    # one across the octahedron, and a tail of three
    inputs += [Complex2.from_triangles(_octahedron(), extra_edges=loose)
               for loose in ([(0, 1)], [(2, 6), (6, 7), (4, 8)])]
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


def _descend_calls(tris: list, loose: list = ()) -> int:
    """How many nodes the branch and bound of canonical_form visits on the
    complex of tris and the loose edges loose: the calls of
    _canonical_key's inner descend."""
    descend = next(c for c in _canonical_key.__code__.co_consts
                   if getattr(c, "co_name", None) == "descend")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is descend:
            calls += 1

    k = Complex2.from_triangles(tris, extra_edges=loose)
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
    # 125 nodes, orbit pruning 240, 104 and 60, and with the lowest-vertex
    # rule 153, 104 and 29
    for name, most in (("circulant-torus-8", 300), ("circulant-torus-7", 130),
                       ("octahedron", 80)):
        assert _descend_calls(_TRANSITIVE[name]) <= most, name


def test_canonical_form_keys_circulant_tori_as_the_reference():
    # the tuple reference has neither orbit pruning nor the lowest-vertex
    # rule, and its node count grows about fourfold per two vertices
    for n in range(9, 17):
        k = Complex2.from_triangles(_circulant_torus(n))
        assert canonical_form(k) == _canonical_form_reference(k), n


def test_canonical_form_is_one_key_on_large_circulant_tori():
    rng = random.Random("large circulant tori")
    for n in (20, 27, 33, 40):
        k = Complex2.from_triangles(_circulant_torus(n))
        key = canonical_form(k)
        for _ in range(3):
            image = rng.sample(range(10 * n), n)
            relabeled = k.relabeled(dict(zip(k.vertices, image)))
            assert canonical_form(relabeled) == key, n
        # the key is itself a labeling of the torus, so it keys to itself
        assert canonical_form(Complex2.from_triangles(key[1])) == key, n


def test_lowest_vertex_rule_keeps_circulant_tori_small():
    # the counts repeat exactly; orbit pruning alone visits 2069 nodes at
    # 12 vertices and 25099 at 16
    for n, most in ((12, 212), (20, 274), (40, 438)):
        assert _descend_calls(_circulant_torus(n)) <= most, n


def test_lowest_vertex_rule_is_off_on_neighbourly_complexes():
    # every vertex shares a triangle with every other, so the rule could
    # cut nothing and is not run: the node counts are those without it
    # (their keys are in the exhaustive sweep)
    for name, calls in (("circulant-torus-7", 104), ("rp2-6", 25)):
        assert _descend_calls(_TRANSITIVE[name]) == calls, name


def test_lowest_vertex_rule_holds_beside_loose_edges():
    # the rule reads triangles alone, and the triangle lists are compared
    # before the loose-edge lists; without the rule the octahedron with a
    # loose edge across takes 24 nodes and the 12-vertex torus with a
    # chord 333 (the octahedron's keys are in the exhaustive sweep)
    assert _descend_calls(_octahedron(), [(0, 1)]) <= 13
    torus12 = Complex2.from_triangles(_circulant_torus(12),
                                      extra_edges=[(0, 6)])
    assert canonical_form(torus12) == _canonical_form_reference(torus12)
    assert _descend_calls(_circulant_torus(12), [(0, 6)]) <= 94
    image = random.Random("torus with a chord").sample(range(50), 12)
    assert (canonical_form(torus12.relabeled(dict(zip(range(12), image))))
            == canonical_form(torus12))


@pytest.mark.slow
def test_canonical_form_keys_the_100_vertex_circulant_torus():
    tris = _circulant_torus(100)
    k = Complex2.from_triangles(tris)
    image = random.Random("circulant torus 100").sample(range(1000), 100)
    relabeled = k.relabeled(dict(zip(k.vertices, image)))
    assert canonical_form(relabeled) == canonical_form(k)
    # 1498 nodes; orbit pruning alone did not finish 40 vertices in 300 s
    assert _descend_calls(tris) <= 1500


def _surface_classes(n: int) -> tuple:
    """(states, classes) for the closed search on n labels, each state
    read as it closes and none kept: states counts the complete states
    that use all n labels, and classes maps each closed surface's name to
    the number of canonical_form classes among them; the enumerator's
    orientability must be the recognizer's on each."""
    tris = _triangles(n)
    keys: dict = {}
    states = 0

    def visit(placed, _alpha2, used, orientable):
        nonlocal states
        if used == n:
            states += 1
            state = [tris[i] for i in _bits_up(placed)]
            reason, surface, _signs = _recognize(triangle_edges(state), used)
            if reason is None:
                assert orientable == surface.orientable, state
                keys.setdefault(surface.name, set()).add(_canonical_key(n, state))

    _closures(n, _SEED, visit)
    return states, {name: len(classes) for name, classes in keys.items()}


def test_census_of_closed_surfaces_up_to_eight_vertices():
    # the sphere's counts are OEIS A000109; the others are those of
    # Sulanke and Lutz (2009)
    census = {4: {"S2": 1}, 5: {"S2": 1}, 6: {"S2": 2, "N1": 1},
              7: {"S2": 5, "N1": 3, "M1": 1},
              8: {"S2": 14, "N1": 16, "M1": 7, "N2": 6}}
    for n, counts in census.items():
        assert _surface_classes(n)[1] == counts, n


@pytest.mark.slow
def test_census_of_closed_surfaces_on_nine_vertices():
    states, counts = _surface_classes(9)
    assert states == 304877
    assert counts == {"S2": 50, "N1": 134, "M1": 112, "N2": 187, "N3": 133,
                      "N4": 37, "N5": 2}
    # Huneke's gap: the genus-2 orientable surface needs ten vertices
    assert "M2" not in counts


def test_integer_core_keys_closed_states_as_canonical_form():
    states = [s for n in range(3, 8) for s in closed_states(n)]
    assert len(states) == 186
    for tris, used, _orientable in states:
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
    # a float in range is no vertex count: the guard, not range(), says so
    for bad in (6.0, "6"):
        with pytest.raises(ValueError, match="search supports"):
            min_triangles_for_surface(bad, SurfaceId(False, 1))
        with pytest.raises(ValueError, match="search supports"):
            complexes_with_one_triple_edge(bad)


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
    # the plain search is the reference's, state for state, in triangle
    # set and in orientability (the visitor sees a state's triangles as a
    # mask, not in placement order); the reference reaches a triple edge
    # by riding one on a finished state, and finds no state with it
    # (alpha2 odd), as the seeded start finds none
    compared = []
    for n in range(3, 9):
        for chi in (None, 1, 0, -1):
            got = closed_states(n, chi_target=chi)
            assert got == _sorted_states(
                _enumerate_closed_reference(n, False, chi)), (n, chi)
            compared += got
            odd = [state for state
                   in _enumerate_closed_reference(n, True, chi)
                   if len(state[0]) % 2]
            assert odd == [] and closed_states(n, _TRIPLE_SEED, chi) == [], (n, chi)
    # the flag is compared on pseudo-surfaces too: states with a bad link
    # of either orientability
    bad = Counter(orientable for tris, used, orientable in compared
                  if _recognize(triangle_edges(tris), used)[0] == "bad_link")
    assert bad[True] and bad[False]


def test_seeded_start_finds_every_class():
    # every complete state has an edge in two triangles, so starting from
    # one, labeled (0, 1, 2) and (0, 1, 3), reaches every class the plain
    # start does: the relabeling argument the triple-edge seed rests on
    def classes(n, states):
        return {canonical_form(Complex2.from_triangles(tris))
                for tris, _used, _orientable in states}

    for n, count in zip(range(4, 8), (1, 2, 5, 16)):
        seeded = classes(n, closed_states(n, [(0, 1, 2), (0, 1, 3)]))
        assert seeded == classes(n, closed_states(n))
        assert len(seeded) == count


def test_closures_match_the_degree_list_reference():
    seeds = ([(0, 1, 2)], [(0, 1, 2), (0, 1, 3)],
             [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    for n in range(3, 8):
        for seed in seeds:
            if max(map(max, seed)) < n:
                assert (closed_states(n, seed)
                        == _sorted_states(_closures_reference(n, seed))), (n, seed)


def test_no_lonely_triple_edge_beyond_the_public_scale():
    # the seeded start dies at the link of vertex 0 within milliseconds,
    # where riding an edge of every finished state does not end at 10
    for n in range(9, 13):
        assert closed_states(n, _TRIPLE_SEED) == []


def test_franklin_n2_needs_eight_vertices():
    result = min_triangles_for_surface(7, parse_surface_id("N2"))
    assert not result.found and result.witness is None
    assert result.complete_states == 163 and result.target_states == 0


def test_search_classifies_only_states_with_the_target_chi(monkeypatch):
    # the link walk runs on the stars of states whose chi and
    # orientability (the enumerator's) match the target, each (vertex,
    # star) pair at most once, and nothing else of the recognizer runs
    # but classify's confirmation of the witness
    states = closed_states(8, chi_target=0)
    found = [_recognize(triangle_edges(tris), used)[1] for tris, used, _o in states]
    tris8 = _triangles(8)
    walk = search._star_link_is_cycle
    for name, matching, hits, least in (("N2", 804, 300, 16), ("M1", 737, 197, 14)):
        target = parse_surface_id(name)
        assert target.euler_characteristic == 0
        want = [(tris, used) for tris, used, orientable in states
                if used - len(tris) // 2 == 0 and orientable == target.orientable]
        assert len(want) == matching, name
        stars = {(v, sum(1 << tris8.index(t) for t in tris if v in t))
                 for tris, used in want for v in range(used)}
        walked, recognized = [], []

        def walking(v, star, n):
            walked.append((v, star))
            return walk(v, star, n)

        def recognizing(edges, used):
            recognized.append(used)
            return _recognize(edges, used)

        monkeypatch.setattr(search, "_star_link_is_cycle", walking)
        monkeypatch.setattr(surfaces, "_recognize", recognizing)
        result = min_triangles_for_surface(8, target)
        monkeypatch.undo()
        assert set(walked) <= stars, name
        assert len(set(walked)) == len(walked), name
        assert len(recognized) == 1, name
        assert len(states) == result.complete_states == 3850
        assert result.target_states == found.count(target) == hits
        assert result.min_triangles == least


def test_star_walk_matches_classify_and_the_oracle():
    # the desk search walks each star on its own table; on every vertex of
    # every complete state, pinched ones included, it answers as the
    # reference recognizer's walk on the whole state's apex sums, and all
    # its answers together are the verdict of classify's recognizer, which
    # counts classes of corners, and of the link-graph oracle on the state
    states = {}
    for chi in (None, 1, 0, -1):
        for n in range(3, 9):
            for tris, used, _o in closed_states(n, chi_target=chi):
                states[n, tris] = used
    verdicts = Counter()
    for (n, tris), used in states.items():
        apexes = Counter()  # edge key a * used + b -> the sum of its apexes
        for a, b, c in tris:
            apexes[a * used + b] += c
            apexes[a * used + c] += b
            apexes[b * used + c] += a
        cycles = []
        for v in range(used):
            at = [t for t in tris if v in t]
            star = sum(1 << _triangles(n).index(t) for t in at)
            cycle = _star_link_is_cycle(v, star, n)
            assert cycle == link_is_cycle(v, at[0], len(at), apexes, used), \
                (tris, v)
            cycles.append(cycle)
        reason = failure_reason_oracle(Complex2.from_triangles(tris))
        assert all(cycles) == (reason is None), tris
        assert _recognize(triangle_edges(tris), used)[0] == reason, tris
        verdicts[reason] += 1
    assert verdicts == {None: 1774, "bad_link": 2415}


def test_search_matches_the_list_reference():
    # every field, the witness included, is the list-based search's
    for n in range(3, 9):
        for name in ("S2", "N1", "M1", "N2", "N3", "M2"):
            target = parse_surface_id(name)
            assert (min_triangles_for_surface(n, target)
                    == _min_triangles_reference(n, target)), (n, name)
    for n in range(5, 9):
        assert complexes_with_one_triple_edge(n) == _triple_edge_reference(n), n


def test_ringel_n3_needs_nine_vertices():
    result = min_triangles_for_surface(8, parse_surface_id("N3"))
    assert not result.found and result.min_triangles is None
    assert result.complete_states == 4003 and result.target_states == 0


# min_triangles_for_surface on nine vertices in a fresh process, the cap
# lifted to 9 there alone: prints the complete and target state counts,
# the least triangle count (0 when none) and the growth of the process's
# peak resident size over the call, in KiB
_NINE_VERTICES = PEAK_KIB + """
from simpsurf import search
from simpsurf.bounds import parse_surface_id
search._MAX_VERTICES = 9
before = peak_kib()
result = search.min_triangles_for_surface(9, parse_surface_id(sys.argv[1]))
print(result.complete_states, result.target_states,
      result.min_triangles or 0, peak_kib() - before)
"""


def _nine_vertex_search(name: str) -> tuple:
    """(complete states, target states, least triangles or 0, peak growth
    in KiB) of the search for the named surface on nine vertices."""
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NINE_VERTICES, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


@pytest.mark.slow
def test_nine_vertex_searches_in_flat_memory():
    # Huneke's gap: no M2 on nine vertices; Ringel's N3 first appears
    # there.  Each state goes to the visitor as it closes and none is
    # kept, so the peak barely moves over the call (Python 3.11, Linux);
    # the list of every complete state once grew it by about 81 MiB for
    # M2 and 69 MiB for N3
    m2 = _nine_vertex_search("M2")
    assert m2[:3] == (308134, 0, 0) and m2[3] < 40 * 1024
    n3 = _nine_vertex_search("N3")
    assert n3[:3] == (266576, 14240, 20) and n3[3] < 40 * 1024
    with pytest.raises(ValueError):
        min_triangles_for_surface(9, parse_surface_id("M2"))
