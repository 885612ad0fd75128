from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import simpsurf.gf2 as gf2
import simpsurf.homology as homology
from _fixtures import (PEAK_KIB, _relabel, apply, kernel_from_rref, m8_wedge, rp2,
                       rref, sphere, torus, torus_circle_sphere, torus_with_circle)
from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix, Gf2Span, Gf2Vector
from simpsurf.homology import (
    ChainVector,
    CochainVector,
    betti_numbers,
    boundary_matrix,
    chain,
    chain_support,
    cochain,
    cup_pairing_on_h1,
    cup_product,
    h2_coordinates,
    has_property_a,
    homology_summary,
    property_a_brute_force,
)
from simpsurf.surfaces import attach_circle, catalog, wedge


def delta(k: Complex2, w):
    """Simplicial coboundary of a 0- or 1-cochain."""
    m = boundary_matrix(k, w.dimension + 1).transpose()
    return CochainVector(w.dimension + 1, apply(m, w.coeffs))


def _boundary_rows_by_position(k: Complex2, n: int) -> list[int]:
    """The boundary map's rows, each face's row read off the complex's
    position map of its dimension."""
    position, cofaces = ((k._vertex_index, k.edges) if n == 1
                         else (k._edge_index, k.triangles))
    rows = [0] * len(position)
    for j, s in enumerate(cofaces):
        for f in combinations(s, n):
            rows[position[f[0] if n == 1 else f]] |= 1 << j
    return rows


def test_boundary_composition_is_zero():
    mixed = Complex2.from_triangles([(0, "a", 1), ("a", "b", 1), (0, 1, 2)],
                                    extra_edges=[("b", 5)],
                                    extra_vertices=["z"])
    surfaces = [catalog(parse_surface_id(name)) for name in
                ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    for k in (sphere(), rp2(), torus_circle_sphere(), mixed, *surfaces):
        d1, d2 = boundary_matrix(k, 1), boundary_matrix(k, 2)
        for col in d2.transpose().rows():
            assert apply(d1, col).is_zero()
        assert (d1.n_rows, d1.n_cols, d2.n_rows, d2.n_cols) == (
            k.n_vertices, k.n_edges, k.n_edges, k.n_triangles)
        for n, d in ((1, d1), (2, d2)):
            assert [r.bits for r in d.rows()] == _boundary_rows_by_position(k, n)


# Expected Betti numbers below were frozen from the independent oracle.

def test_betti_sphere():
    assert betti_numbers(sphere()) == (0, 0, 1)


def test_betti_rp2():
    assert betti_numbers(rp2()) == (0, 1, 1)


def test_betti_torus():
    assert betti_numbers(torus()) == (0, 2, 1)


def test_betti_torus_with_circle():
    assert betti_numbers(torus_with_circle()) == (0, 3, 1)


def test_betti_torus_circle_sphere():
    k = torus_circle_sphere()
    assert betti_numbers(k) == (0, 3, 2)
    assert k.euler_characteristic() == 0


def test_betti_disjoint_and_empty():
    two = Complex2.from_triangles([(0, 1, 2)], extra_vertices=[9])
    assert betti_numbers(two) == (1, 0, 0)
    assert betti_numbers(Complex2([])) == (0, 0, 0)


def test_b2_computed_two_ways():
    for k in (sphere(), rp2(), torus(), torus_circle_sphere()):
        kernel = len(boundary_matrix(k, 2).kernel_basis())
        cokernel = k.n_triangles - boundary_matrix(k, 2).transpose().rank()
        assert kernel == cokernel == betti_numbers(k)[2]


def test_rank_d1_is_read_off_the_component_count():
    # betti_numbers takes rank d1 = alpha0 - #components, never eliminating d1
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             Complex2([])]
    cases += [catalog(parse_surface_id(name))
              for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    rng = random.Random(20261017)
    for _ in range(40):
        n = rng.randrange(1, 9)
        triples = list(combinations(range(n), 3))
        pairs = list(combinations(range(n), 2))
        tris = rng.sample(triples, rng.randrange(0, min(8, len(triples)) + 1))
        loose = rng.sample(pairs, rng.randrange(0, min(5, len(pairs)) + 1))
        cases.append(Complex2.from_triangles(tris, extra_edges=loose,
                                             extra_vertices=range(n + 2)))
    for k in cases:
        components = len(k.connected_components())
        r1 = boundary_matrix(k, 1).rank()
        r2 = boundary_matrix(k, 2).rank()
        assert r1 == k.n_vertices - components
        assert betti_numbers(k) == (max(components - 1, 0),
                                    k.n_edges - r1 - r2, k.n_triangles - r2)


def test_summary_matches_betti_and_rep_counts():
    for k in (sphere(), rp2(), torus(), torus_with_circle()):
        s = homology_summary(k)
        assert s.betti == betti_numbers(k)
        for d in (0, 1, 2):
            assert len(s.cycle_reps[d]) == s.betti[d]
            assert len(s.cocycle_reps[d]) == s.betti[d]


def test_cycle_reps_are_nonbounding_cycles():
    k = torus_with_circle()
    s = homology_summary(k)
    d1 = boundary_matrix(k, 1)
    boundaries = Gf2Span(k.n_edges)
    for col in boundary_matrix(k, 2).transpose().rows():
        boundaries.add(col)
    span = Gf2Span(k.n_edges)
    for z in s.cycle_reps[1]:
        assert apply(d1, z.coeffs).is_zero()
        assert not boundaries.contains(z.coeffs)
        assert span.add(boundaries.reduce(z.coeffs))  # independent mod boundaries


def _greedy_completion(length, seed, candidates):
    """The candidates, in order, that enlarge the span of every seed vector.

    The independent route to the H^1 basis: the span is built from every
    row of d1, one by one, not from reduced rows.
    """
    span = Gf2Span(length)
    for v in seed:
        span.add(v)
    return [v for v in candidates if span.add(v)]


def _cycles_at_picks(k: Complex2, cocycles, pivots) -> list[Gf2Vector]:
    """The independent route to the H_1 basis: for each pick f, the
    highest edge of a cocycle, the one kernel vector of d1 restricted to
    f and to the free columns of d2 transposed (those not in pivots) that
    are not picks.  One dense elimination finds them all: with those
    columns first and the picks after, the picks are its free columns."""
    picks = [a.bits.bit_length() - 1 for a in cocycles]
    rest = [e for e in range(k.n_edges) if e not in set(pivots) | set(picks)]
    columns = rest + picks
    d1t = list(boundary_matrix(k, 1).transpose().rows())
    restricted = Gf2Matrix(len(columns), k.n_vertices,
                           [d1t[e].bits for e in columns]).transpose()
    rows, found = rref(restricted)
    assert found == list(range(len(rest)))
    return [Gf2Vector.from_support(k.n_edges, [columns[c] for c in z.support()])
            for z in kernel_from_rref(len(columns), rows, found)]


def _degree_one_cases():
    cases = [catalog(parse_surface_id(name))
             for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    cases += [torus_circle_sphere(), Complex2([]),
              Complex2.from_triangles([], extra_vertices=[0]),
              Complex2.from_triangles(list(rp2().triangles) + [(50, 51, 52)],
                                      extra_edges=[(60, 61)])]
    # a torus and M2, each with a three-page book on an edge: that edge is
    # in five triangles, so the summary eliminates
    m2 = catalog(parse_surface_id("M2"))
    for k, (u, v) in ((torus(), (1, 2)), (m2, m2.edges[-1])):
        cases.append(Complex2.from_triangles(list(k.triangles)
                                             + [(u, v, 1000 + i) for i in range(3)]))
    rng = random.Random(20261018)
    for _ in range(12):
        base = catalog(parse_surface_id(rng.choice(("S2", "N1", "M1", "N2", "M2"))))
        k = base
        if rng.randrange(2):
            k = Complex2.from_triangles(k.triangles[1:], extra_edges=k.edges)
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 3)):
            bubble = sphere().relabeled({v: 1000 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 1000 + 10 * j)
        cases.append(k)
    return cases


def test_degree_one_bases_match_the_greedy_completion(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(homology, "_Elimination",
                        _counting(counts, "eliminations", homology._Elimination))
    summaries_eliminated = 0
    for k in _degree_one_cases():
        counts.clear()
        s = homology_summary(k)
        summaries_eliminated += counts["eliminations"]
        counts.clear()
        cycle_reps = s.cycle_reps[1]
        # reading the 1-cycles eliminates nothing, not even on the books
        assert counts["eliminations"] == 0
        d1, d2t = boundary_matrix(k, 1), boundary_matrix(k, 2).transpose()
        cocycles = _greedy_completion(k.n_edges, list(d1.rows()), d2t.kernel_basis())
        assert [a.coeffs for a in s.cocycle_reps[1]] == cocycles
        cycles = _cycles_at_picks(k, cocycles, rref(d2t)[1])
        assert [z.coeffs for z in cycle_reps] == cycles
        assert len(cycles) == len(cocycles) == s.b1
    # both books' summaries took the elimination
    assert summaries_eliminated >= 2


def test_bases_are_dual_in_every_degree():
    shapes = Counter()
    for k in _oracle_cases() + _degree_one_cases():
        s = homology_summary(k)
        for d in (0, 1, 2):
            for i, a in enumerate(s.cocycle_reps[d]):
                for j, z in enumerate(s.cycle_reps[d]):
                    assert a.evaluate(z) == (i == j), (d, i, j)
            shapes[d] += len(s.cycle_reps[d]) >= 2
    assert min(shapes.values()) >= 10


def _counting(counts, name, fn):
    """fn, counting its calls in counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _homology_summary_dense(k: Complex2):
    """(betti, cycle_reps, cocycle_reps) by dense eliminations: the
    reduced row echelon forms of d1, of d2 transposed, of d2 and of the
    2-cycle basis, and the kernels read off them; the H^1 picks made by
    greedy completion against the reduced rows of d1, and the 1-cycles
    found at those picks by _cycles_at_picks."""
    d1, d2 = boundary_matrix(k, 1), boundary_matrix(k, 2)
    comps = k.connected_components()
    rows1, pivots1 = rref(d1)
    rows2t, pivots2t = rref(d2.transpose())
    z1 = kernel_from_rref(k.n_edges, rows1, pivots1)
    cocycles1 = kernel_from_rref(k.n_edges, rows2t, pivots2t)
    z2 = kernel_from_rref(k.n_triangles, *rref(d2))
    b1 = len(z1) - (k.n_triangles - len(z2))
    cycle0 = tuple(chain(k, 0, [comp[0], comps[0][0]]) for comp in comps[1:])
    cocycle0 = tuple(cochain(k, 0, comp) for comp in comps[1:])
    seed1 = [Gf2Vector(k.n_edges, r) for r in rows1[:len(pivots1)]]
    picked = _greedy_completion(k.n_edges, seed1, cocycles1)
    cocycle1 = tuple(CochainVector(1, v) for v in picked)
    cycle1 = tuple(ChainVector(1, v) for v in _cycles_at_picks(k, picked, pivots2t))
    z2_rows, pivots = rref(Gf2Matrix(len(z2), k.n_triangles, [z.bits for z in z2]))
    cycle2 = tuple(ChainVector(2, Gf2Vector(k.n_triangles, r)) for r in z2_rows)
    cocycle2 = tuple(CochainVector(2, Gf2Vector(k.n_triangles, 1 << p)) for p in pivots)
    return ((max(len(comps) - 1, 0), b1, len(z2)),
            {0: cycle0, 1: cycle1, 2: cycle2},
            {0: cocycle0, 1: cocycle1, 2: cocycle2})


def _oracle_cases():
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             cone_book(4), Complex2([]), Complex2.from_triangles([], extra_vertices=[0])]
    cases += [catalog(parse_surface_id(name))
              for name in ["S2"] + [f"{kind}{g}" for kind in "MN" for g in range(1, 9)]]
    rng = random.Random(20261019)
    for j in range(20):
        k = catalog(parse_surface_id(rng.choice(("S2", "N1", "M1", "N2", "N3", "M2"))))
        for _ in range(rng.randrange(1, 4)):
            k = attach_circle(k, rng.choice(k.vertices))
        for b in range(rng.randrange(1, 4)):
            bubble = sphere().relabeled({v: 1000 + 10 * b + v for v in range(4)})
            k = wedge(k, rng.choice(k.vertices), bubble, 1000 + 10 * b)
        cases.append(k)
    far = torus().relabeled({v: 5000 + v for v in range(7)})
    cases.append(Complex2.from_triangles(rp2().triangles + far.triangles))
    cases.append(Complex2.from_triangles(list(torus().triangles) + [(50, 51, 52)],
                                         extra_edges=[(60, 61), (61, 62), (0, 60)],
                                         extra_vertices=[99, "z"]))
    cases.append(m8_wedge(4))
    # the torus with a second cap on the star of a vertex, its apex below
    # every label: the 2-cycles are both tori, sharing the triangles off
    # the star, and each carries the torus's cup products
    _, ring = torus().link_of_vertex(0)
    cases.append(Complex2.from_triangles(list(torus().triangles)
                                         + [(-1, a, b) for a, b in ring]))
    # small random complexes: free edges, edges of degree three or more,
    # loose edges and isolated vertices
    for _ in range(30):
        n = rng.randrange(4, 9)
        triples = list(combinations(range(n), 3))
        tris = rng.sample(triples, rng.randrange(1, min(12, len(triples)) + 1))
        loose = rng.sample(list(combinations(range(n + 3), 2)), rng.randrange(0, 4))
        cases.append(Complex2.from_triangles(tris, extra_edges=loose,
                                             extra_vertices=range(n + rng.randrange(0, 4))))
    return cases


def _route(k: Complex2) -> str:
    """Which route the boundary elimination of k takes, checked against
    the edge degrees it is chosen by."""
    boundaries = homology._boundary_relations(k._triangle_edges, k.n_edges)
    route = type(boundaries).__name__
    branching = any(k.edge_degree(e) >= 3 for e in k.edges)
    assert route == ("_Elimination" if branching else "_DualForest")
    return route


def test_summary_matches_the_dense_oracle():
    shapes = Counter()
    for k in _oracle_cases():
        s = homology_summary(k)
        assert (s.betti, s.cycle_reps, s.cocycle_reps) == _homology_summary_dense(k)
        shapes[_route(k)] += 1
        shapes["b2>=2"] += s.b2 >= 2
        shapes["disconnected"] += s.b0 > 0
        shapes["loose"] += bool(k.maximal_edges()) and bool(k.isolated_vertices())
        shapes["large"] += k.n_triangles == 4608
        degrees = {k.edge_degree(e) for e in k.edges}
        shapes["free"] += 1 in degrees
        shapes["branching"] += max(degrees, default=0) >= 3
        shapes["isolated"] += bool(k.isolated_vertices())
    # both routes ran, on 63 and 15 cases when this was written
    assert shapes["_DualForest"] >= 60 and shapes["_Elimination"] >= 10
    assert shapes["b2>=2"] >= 20 and shapes["disconnected"] >= 2
    assert shapes["loose"] >= 1 and shapes["large"] == 1
    assert min(shapes["free"], shapes["branching"], shapes["isolated"]) >= 10


def test_a_torus_with_a_book_on_an_edge_takes_the_elimination():
    # three pages glued on one torus edge put it in five triangles: the
    # whole complex goes to the elimination, and the pages, three disks,
    # leave the homology of the torus
    k = Complex2.from_triangles(list(torus().triangles) + [(0, 1, 50), (0, 1, 51), (0, 1, 52)])
    assert k.edge_degree((0, 1)) == 5 and _route(k) == "_Elimination"
    s = homology_summary(k)
    assert (s.betti, s.cycle_reps, s.cocycle_reps) == _homology_summary_dense(k)
    assert s.betti == betti_numbers(k) == (0, 2, 1)


def test_dual_forest_over_kept_triangles_is_the_elimination():
    # the route over the triangles a skip set leaves, as the audit after
    # the reduction's kills runs it, against the tagged elimination of the
    # same boundary rows
    rng = random.Random(20261026)
    shapes = Counter()
    for k in _oracle_cases():
        if _route(k) != "_DualForest":
            continue
        for _ in range(3):
            size = rng.choice((0, 1, 2, rng.randrange(k.n_triangles + 1)))
            skip = set(rng.sample(range(k.n_triangles), min(size, k.n_triangles)))
            kept = [t for j, t in enumerate(k._triangle_edges) if j not in skip]
            _check_both_routes(kept, k.n_edges, rng, shapes)
            shapes["partial"] += 0 < len(skip) < k.n_triangles
    # 189 cases, 72 of them with a 2-cycle, when this was written
    assert shapes["cases"] >= 180 and shapes["cycles"] >= 60 and shapes["partial"] >= 100


def _check_both_routes(boundaries, width: int, rng, shapes) -> None:
    """The dual forest over the boundaries, each a triangle's three edge
    positions below width, against the tagged elimination of the same
    boundaries and gf2._relations over their rows, bit for bit."""
    route = homology._boundary_relations(boundaries, width)
    assert type(route).__name__ == "_DualForest"
    oracle = homology._Elimination(boundaries, width)
    span, relations = gf2._relations([sum(1 << e for e in t) for t in boundaries], width)
    assert route.cycles == oracle.cycles == relations
    assert route.free == oracle.free == span._free(width)
    assert route.rank == oracle.rank == span.dim
    assert route.reduced_cycles() == oracle.reduced_cycles()
    columns = rng.sample(route.free, min(len(route.free), 12))
    assert route.kernel_at(columns) == oracle.kernel_at(columns)
    shapes["cases"] += 1
    shapes["cycles"] += len(relations) > 0


def _skeleton(k: Complex2, order) -> list[tuple[int, int, int]]:
    """The edges of k at the given positions, in order, as the
    (position, vertex position, vertex position) triples gf2._Forest
    takes."""
    vertex = k._vertex_index
    return [(i, vertex[u], vertex[v]) for i in order for u, v in (k.edges[i],)]


def _flags(forest, order, n: int) -> bytearray:
    """A flag per edge position, 1 for the edges of order the forest kept."""
    kept = bytearray(n)
    for i in order:
        kept[i] = 1
    for i in forest.off:
        kept[i] = 0
    return kept


def _spanning_forest(k: Complex2, order) -> tuple[bytearray, list[tuple]]:
    """The forest gf2._Forest grows over the 1-skeleton of k, taking
    the edges in the given order: its flag per edge position and its
    trees, named by the vertices."""
    order = list(order)
    forest = gf2._Forest(k.n_vertices, _skeleton(k, order))
    return _flags(forest, order, k.n_edges), forest.trees(k.vertices)


def _dual_graph(k: Complex2) -> list[tuple[int, int, int]]:
    """The dual graph of a complex with no edge in three triangles, as
    (position, end, end) triples in edge order: infinity is node 0 and
    triangle t node t + 1, found by membership alone."""
    ends = {e: [] for e in k.edges}
    for t, tri in enumerate(k.triangles, 1):
        for e in combinations(tri, 2):
            ends[e].append(t)
    return [(i, *(ends[e] + [0, 0])[:2]) for i, e in enumerate(k.edges)]


def _naive_forest(n: int, edges) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The greedy acyclic pass: each edge, in order, is kept when its ends
    are in different trees of the edges kept so far, found by relabeling
    a whole tree at every union.  The positions off it and the kept edges."""
    label = list(range(n))
    off, kept = [], []
    for e, a, b in edges:
        if label[a] == label[b]:
            off.append(e)
        else:
            old = label[a]
            label = [label[b] if x == old else x for x in label]
            kept.append((e, a, b))
    return off, kept


def _bfs_parents(n: int, kept) -> tuple[list[int], list[int], list[list[int]]]:
    """Breadth-first search over the kept edges from each unseen node in
    order: the parent node and the edge up of each node, and the trees."""
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, a, b in kept:
        adjacent[a].append((b, e))
        adjacent[b].append((a, e))
    parent, up, trees = [-1] * n, [-1] * n, []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        tree = [start]
        for a in tree:
            for b, e in adjacent[a]:
                if not seen[b]:
                    seen[b] = True
                    parent[b], up[b] = a, e
                    tree.append(b)
        trees.append(sorted(tree))
    return parent, up, trees


def _check_forest(n: int, edges, rng: random.Random) -> Counter:
    """gf2._Forest over the (position, end, end) triples against the
    naive greedy pass and breadth-first search: the edges off it, its
    trees and the fundamental cycles of a sample of the edges off it.
    The edges are those at every position below their number.  The
    forest is rooted on the edges at each node, as its callers list them:
    each edge once at each end, kept or not, here in a random order."""
    one, two = [-1] * len(edges), [-1] * len(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, a, b in edges:
        one[e], two[e] = a, b
        incident[a].append(e)
        if b != a:
            incident[b].append(e)
    for at in incident:
        rng.shuffle(at)
    forest = gf2._Forest(n, iter(edges))
    off, kept = _naive_forest(n, edges)
    assert forest.off == off
    parent, up, trees = _bfs_parents(n, kept)
    names = [f"v{a}" for a in range(n)]
    assert forest.trees(names) == [tuple(names[a] for a in tree) for tree in trees]
    # one root per tree, a node of it
    roots = forest.roots()
    assert [{roots[a] for a in tree} for tree in trees] == [{roots[tree[0]]} for tree in trees]
    assert all(roots[r] == r for r in roots)
    columns = rng.sample(off, min(len(off), 10))
    cycles = []
    for f in columns:
        # the path from each end up to its tree's start, less the shared part
        paths = []
        for a in (one[f], two[f]):
            path = [a]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            paths.append(path)
        bits = 1 << f
        for path in paths:
            for a in path:
                if a not in paths[0] or a not in paths[1]:
                    bits ^= 1 << up[a]
        cycles.append(bits)
    assert forest.cycles(columns, one, two, incident) == cycles
    # the same trees, rooted once a cycle was asked for
    assert [sorted(nodes) for nodes in forest.tree_nodes()] == trees
    return Counter(loops=sum(a == b for _, a, b in edges),
                   parallel=len(edges) - len({frozenset((a, b)) for _, a, b in edges}),
                   isolated=n - len({x for _, a, b in edges for x in (a, b)}),
                   components=len(trees) > 1, cycles=len(columns))


def test_forest_is_the_greedy_acyclic_pass():
    # seeded random multigraphs, edges taken in a random order of their
    # positions: loops, parallel edges, isolated nodes, several trees
    rng = random.Random(20261027)
    shapes = Counter()
    for _ in range(150):
        n = rng.randrange(1, 16)
        count = rng.randrange(0, 3 * n)
        edges = [(e, rng.randrange(n), rng.randrange(n))
                 for e in rng.sample(range(count), count)]
        shapes += _check_forest(n, edges, rng)
        shapes["graphs"] += 1
    assert shapes["loops"] >= 100 and shapes["parallel"] >= 100
    assert shapes["isolated"] >= 100 and shapes["components"] >= 50
    assert shapes["cycles"] >= 300


def test_forest_over_the_dual_graph_and_the_skeleton():
    # the two graphs homology grows forests over: the dual graph in edge
    # order (the boundary elimination), the 1-skeleton in edge order (the
    # 1-cycles), from the highest edge down (the H^1 picks) and at random
    rng = random.Random(20261028)
    shapes = Counter()
    for k in _oracle_cases() + _mixed_label_cases(20, 20261029):
        n = k.n_edges
        for order in (range(n), range(n - 1, -1, -1), rng.sample(range(n), n)):
            shapes["skeleton"] += 1
            shapes += _check_forest(k.n_vertices, _skeleton(k, order), rng)
        if all(k.edge_degree(e) <= 2 for e in k.edges):
            shapes["dual"] += 1
            shapes += _check_forest(k.n_triangles + 1, _dual_graph(k), rng)
    # 79 dual graphs, 294 skeletons and 174 loops when this was written
    assert shapes["dual"] >= 60 and shapes["skeleton"] >= 240
    assert min(shapes["loops"], shapes["parallel"], shapes["isolated"]) >= 100
    assert shapes["components"] >= 100 and shapes["cycles"] >= 1000


def test_summary_components_are_the_forest_trees(monkeypatch):
    shapes = Counter()
    cases = _oracle_cases() + [
        Complex2([5, "b", 3, "a"]),
        Complex2.from_triangles([(1, 2, "x")], extra_vertices=[0, "y"])]
    for k in cases:
        # the same components whichever order the forest takes the edges in
        for order in (range(k.n_edges), range(k.n_edges - 1, -1, -1)):
            kept, comps = _spanning_forest(k, order)
            assert tuple(comps) == k.connected_components()
            assert sum(kept) == k.n_vertices - len(comps)
        shapes["disconnected"] += len(comps) > 1
        shapes["isolated"] += bool(k.isolated_vertices())
    assert shapes["disconnected"] >= 4 and shapes["isolated"] >= 4
    # the summary reads them off the forest, with no second walk
    counts = Counter()
    monkeypatch.setattr(Complex2, "connected_components",
                        _counting(counts, "walks", Complex2.connected_components))
    for k in cases:
        homology_summary(k)
    assert counts["walks"] == 0


def _mixed_label_cases(count: int, seed: int) -> list[Complex2]:
    """Seeded random complexes on int, str and mixed labels, with loose
    edges, isolated vertices and often more than one component."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randrange(3, 10)
        labels = rng.sample(list(range(12)) + [f"v{i}" for i in range(12)], n + 3)
        triples = list(combinations(labels[:n], 3))
        tris = rng.sample(triples, rng.randrange(0, min(10, len(triples)) + 1))
        loose = rng.sample(list(combinations(labels, 2)), rng.randrange(0, 5))
        cases.append(Complex2.from_triangles(tris, extra_edges=loose,
                                             extra_vertices=labels))
    return cases


def test_forest_over_the_free_columns_is_the_descending_forest():
    # every edge of the forest grown from the highest edge down is a free
    # column of the boundary elimination, so skipping the pivot edges
    # keeps the same forest, and its trees are the walked components
    shapes = Counter()
    cases = (_oracle_cases() + _mixed_label_cases(60, 20261019)
             + [_relabel(catalog(parse_surface_id("M3")), "mixed")])
    for k in cases:
        n = k.n_edges
        full, full_comps = _spanning_forest(k, range(n - 1, -1, -1))
        walked = Complex2(k.vertices, k.edges, k.triangles).connected_components()
        rows = [1 << a | 1 << b | 1 << c for a, b, c in k._triangle_edges]
        tagged, _ = gf2._relations(rows, n)
        plain = gf2._span(rows, n)
        assert tagged._free(n) == plain._free(n)
        fresh = Complex2(k.vertices, k.edges, k.triangles)
        free = tagged._free(n)
        forest = homology._forest(fresh, free)
        comps = forest.trees(fresh.vertices)
        forest = _flags(forest, free, n)
        assert forest == full and comps == full_comps
        assert not any(forest[p] for p in plain._pivots())
        assert tuple(comps) == walked
        assert fresh._components is None and fresh._vertex_edges is None
        shapes["disconnected"] += len(comps) > 1
        shapes["mixed"] += len({type(v) for v in k.vertices}) > 1
        shapes["loose"] += bool(k.maximal_edges()) and bool(k.isolated_vertices())
        shapes["pivots"] += bool(plain._pivots())
    assert shapes["disconnected"] >= 20 and shapes["mixed"] >= 20
    assert shapes["loose"] >= 10 and shapes["pivots"] >= 40


def test_summary_runs_one_elimination(monkeypatch):
    base = catalog(parse_surface_id("M3"))
    bubble = sphere().relabeled({v: 1000 + v for v in range(4)})
    k = attach_circle(wedge(base, base.vertices[0], bubble, 1000), base.vertices[5])
    assert k.n_triangles >= 400
    # the same with a three-page book on the last edge of M3, which is then
    # an edge in five triangles: the pages are disks, so the homology stays
    u, v = base.edges[-1]
    assert not any(k.has_vertex(5000 + i) for i in range(3))
    book = Complex2.from_triangles(list(k.triangles) + [(u, v, 5000 + i) for i in range(3)],
                                   extra_edges=k.edges)
    counts = Counter()
    lengths = []
    span_init = Gf2Span.__init__

    def recording_init(self, length):
        lengths.append(length)
        span_init(self, length)

    # solve is the one reduced row echelon form of a Gf2Matrix
    monkeypatch.setattr(Gf2Matrix, "solve", _counting(counts, "eliminations", Gf2Matrix.solve))
    monkeypatch.setattr(Gf2Matrix, "rows", _counting(counts, "row_walks", Gf2Matrix.rows))
    monkeypatch.setattr(Gf2Span, "__init__", recording_init)
    monkeypatch.setattr(Gf2Span, "_add_bits", _counting(counts, "insertions", Gf2Span._add_bits))
    s = homology_summary(k)
    assert s.betti == (0, 2 * 3 + 1, 2)  # M3, one circle, one sphere
    # no reduced row echelon form of any matrix and no walk over one
    assert counts["eliminations"] == 0 and counts["row_walks"] == 0
    # every edge lies in at most two triangles, so the dual forest gives
    # every basis: no span at all, and the 1-cycles are not built
    assert lengths == [] and counts["insertions"] == 0
    # reading them builds them, as fundamental cycles in the 1-skeleton's
    # forest: no span
    assert len(s.cycle_reps[1]) == s.b1
    assert lengths == [] and counts["insertions"] == 0
    # the book takes the elimination: one span over the tagged triangle
    # boundaries and one over the b2 cycles it finds, each of those
    # inserted once; none over the vertex coboundaries
    lengths.clear()
    counts.clear()
    s = homology_summary(book)
    assert s.betti == (0, 2 * 3 + 1, 2)
    assert counts["eliminations"] == 0 and counts["row_walks"] == 0
    assert lengths == [book.n_edges + book.n_triangles, book.n_triangles]
    assert counts["insertions"] == s.b2
    # reading the book's 1-cycles walks the same forest: no span either
    lengths.clear()
    assert len(s.cycle_reps[1]) == s.b1
    assert lengths == [] and counts["insertions"] == s.b2


# one process builds the circulant torus on Z/n, n its first argument,
# orbits of {0,1,3} and {0,2,3}, and summarizes it; it reports the Betti
# numbers, then for the query "cycles" per 1-cycle its number of edges and
# of vertices of odd degree in it (a cycle has none), for "property-a"
# whether property (A) holds and the radical's dimension, and last its own
# peak resident size in KiB
_LARGE_TORUS = PEAK_KIB + """
from collections import Counter
from simpsurf.complex2 import Complex2
from simpsurf.homology import has_property_a, homology_summary
n, query = int(sys.argv[1]), sys.argv[2]
k = Complex2.from_triangles([sorted((i + d) % n for d in offsets)
                             for offsets in ((0, 1, 3), (0, 2, 3)) for i in range(n)])
assert k.n_triangles == 2 * n
s = homology_summary(k)
out = list(s.betti)
if query == "cycles":
    for z in s.cycle_reps[1]:
        ends = Counter(v for i in z.coeffs.support() for v in k.edges[i])
        out += [len(z.coeffs.support()), sum(d % 2 for d in ends.values())]
else:
    result = has_property_a(k, s)
    out += [int(result.holds), result.radical_dimension]
print(*out, peak_kib())
"""


def _large_torus(n: int, query: str) -> int:
    """The peak resident size, in KiB, of _LARGE_TORUS on Z/n, once its
    torus homology and the answer to the query are checked."""
    env = dict(os.environ, PYTHONPATH=str(Path(homology.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LARGE_TORUS, str(n), query], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    b0, b1, b2, *answer, peak_kib = map(int, proc.stdout.split())
    assert (b0, b1, b2) == (0, 2, 1)
    if query == "cycles":
        assert len(answer) == 2 * b1
        assert all(size > 0 for size in answer[::2]) and answer[1::2] == [0] * b1
    else:
        assert answer == [1, 0]  # property (A) holds: the radical is zero
    return peak_kib


@pytest.mark.slow
def test_summary_of_a_100000_triangle_torus_in_bounded_memory():
    # every edge lies in two triangles, so the dual forest gives the
    # summary, and the 1-cycles are fundamental cycles in the 1-skeleton's
    # forest; the tagged elimination would hold 10^5 rows up to 2.5 * 10^5
    # bits wide (the edges, then a tag per triangle), several GiB, and an
    # elimination of its own for the 1-cycle picks once peaked at about
    # 938 MiB here
    assert _large_torus(50000, "cycles") < 300 * 1024


@pytest.mark.slow
def test_cycle_reps_of_a_36864_triangle_torus_in_bounded_memory():
    # the 1-cycles are walked up the 1-skeleton forest's parent pointers
    # at the H^1 picks, about 50 MiB with the summary (Python 3.11, Linux);
    # one path mask per vertex, as they once were built, peaked at about
    # 227 MiB, and an elimination of their own for the picks at about
    # 158 MiB
    assert _large_torus(18432, "cycles") < 100 * 1024


@pytest.mark.slow
def test_property_a_of_a_100000_triangle_torus_in_bounded_memory():
    # the cup form walks the one 2-cycle with each edge's H^1 coordinates,
    # about 99 MiB with the summary (Python 3.11, Linux); one triangle mask
    # per edge for front and back faces, as the form once kept, peaked at
    # about 1349 MiB
    assert _large_torus(50000, "property-a") < 150 * 1024


def test_cup_form_and_property_a_never_build_the_1_cycles(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(homology, "_one_cycles",
                        _counting(counts, "builds", homology._one_cycles))
    for k in _cup_form_cases():
        s = homology_summary(k)
        cup_pairing_on_h1(k, s)
        has_property_a(k, s)
        for w in s.cocycle_reps[2]:
            h2_coordinates(s, w)
        cup_pairing_on_h1(k)
        has_property_a(k)
    assert counts["builds"] == 0


def test_cycle_reps_are_built_once(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(homology, "_one_cycles",
                        _counting(counts, "builds", homology._one_cycles))
    k = torus_with_circle()
    s = homology_summary(k)
    first = s.cycle_reps
    assert s.cycle_reps is first and len(s.cycle_reps[1]) == s.b1 == 3
    assert counts["builds"] == 1


def test_cocycle_reps_are_cocycles():
    k = torus()
    s = homology_summary(k)
    for a in s.cocycle_reps[1]:
        assert delta(k, a).coeffs.is_zero()


def test_h2_coordinates():
    k = torus()
    s = homology_summary(k)
    # a coboundary has zero class
    some_edge = cochain(k, 1, [k.edges[0]])
    assert h2_coordinates(s, delta(k, some_edge)).is_zero()
    # the summary's own H^2 representative has coordinates e_1
    assert h2_coordinates(s, s.cocycle_reps[2][0]) == Gf2Vector(1, 1)
    # shifting by a coboundary never moves the class
    w = s.cocycle_reps[2][0]
    shifted = CochainVector(2, w.coeffs ^ delta(k, some_edge).coeffs)
    assert h2_coordinates(s, shifted) == h2_coordinates(s, w)


def cone_book(pages: int) -> Complex2:
    """Cones over the circle 0-1-2; any two pages bound a sphere, b2 = pages - 1."""
    return Complex2.from_triangles([t for a in range(10, 10 + pages)
                                    for t in ((0, 1, a), (0, 2, a), (1, 2, a))])


def test_h2_basis_is_dual_to_2_cycles():
    for k, b2 in ((torus_circle_sphere(), 2), (cone_book(4), 3)):
        s = homology_summary(k)
        assert s.b2 == b2
        d2 = boundary_matrix(k, 2)
        for z in s.cycle_reps[2]:
            assert apply(d2, z.coeffs).is_zero()
        for i, a in enumerate(s.cocycle_reps[2]):
            for j, z in enumerate(s.cycle_reps[2]):
                assert a.evaluate(z) == (i == j)


def test_h2_cocycle_reps_pinned():
    # frozen from the completion of im(delta1) to a basis of C^2, a separate construction
    k = torus_circle_sphere()
    assert [chain_support(k, a) for a in homology_summary(k).cocycle_reps[2]] == [
        ((0, 1, 3),), ((0, 101, 102),)]
    k = cone_book(4)
    assert [chain_support(k, a) for a in homology_summary(k).cocycle_reps[2]] == [
        ((0, 1, 10),), ((0, 1, 11),), ((0, 1, 12),)]


def test_h2_coordinates_vanish_exactly_on_coboundaries():
    # independent route: a 2-cochain is a coboundary iff it lies in the row
    # space of the boundary matrix d2 (row e of d2 is delta of edge e)
    rng = random.Random(11)
    for k in (torus(), rp2(), torus_circle_sphere(), cone_book(4)):
        s = homology_summary(k)
        d2 = boundary_matrix(k, 2)
        coboundaries = Gf2Span(k.n_triangles)
        for row in d2.rows():
            coboundaries.add(row)
        for trial in range(40):
            bits = 0
            for row in d2.rows():
                if rng.getrandbits(1):
                    bits ^= row.bits
            if trial % 2:
                bits ^= rng.getrandbits(k.n_triangles)
            w = CochainVector(2, Gf2Vector(k.n_triangles, bits))
            assert h2_coordinates(s, w).is_zero() == coboundaries.contains(w.coeffs)


def test_chain_round_trip():
    k = torus()
    z = chain(k, 2, k.triangles[:3])
    assert chain_support(k, z) == k.triangles[:3]
    assert cochain(k, 2, k.triangles[:1]).evaluate(z) == 1


def test_chain_rejects_simplices_of_the_wrong_dimension():
    k = torus()
    for build, dimension, simplex in ((chain, 0, (0, 1)), (cochain, 0, (0, 6)),
                                      (chain, 1, (0, 1, 3)), (cochain, 2, (0, 1)),
                                      (chain, 1, 3)):
        with pytest.raises(ValueError, match=f"not a {dimension}-simplex"):
            build(k, dimension, [simplex])
    assert chain_support(k, chain(k, 0, [3])) == (3,)
    assert chain_support(k, cochain(k, 1, [(1, 0)])) == ((0, 1),)


def test_missing_simplices_raise_value_error():
    k = torus()
    for build, dimension, simplex in ((chain, 0, 99), (chain, 1, (0, 99)),
                                      (cochain, 1, (5, 99)), (cochain, 2, (0, 1, 2))):
        with pytest.raises(ValueError, match="is not in the complex"):
            build(k, dimension, [simplex])


def test_cup_class_well_defined():
    rng = random.Random(5)
    for k in (torus(), rp2()):
        s = homology_summary(k)
        for a in s.cocycle_reps[1]:
            for b in s.cocycle_reps[1]:
                base = h2_coordinates(s, cup_product(k, a, b))
                for _ in range(5):
                    g = CochainVector(0, Gf2Vector(k.n_vertices, rng.getrandbits(k.n_vertices)))
                    a2 = CochainVector(1, a.coeffs ^ delta(k, g).coeffs)
                    assert h2_coordinates(s, cup_product(k, a2, b)) == base
                    b2 = CochainVector(1, b.coeffs ^ delta(k, g).coeffs)
                    assert h2_coordinates(s, cup_product(k, a, b2)) == base


def test_cup_symmetric_on_classes():
    for k in (torus(), rp2()):
        s = homology_summary(k)
        for a in s.cocycle_reps[1]:
            for b in s.cocycle_reps[1]:
                assert (h2_coordinates(s, cup_product(k, a, b))
                        == h2_coordinates(s, cup_product(k, b, a)))


# Cup ranks frozen from the oracle: torus 2, projective plane 1 with
# nonzero square, torus-with-circle still 2 inside b1 = 3.

def test_cup_form_torus():
    form = cup_pairing_on_h1(torus())
    assert form.rank() == 2
    assert [form.entries[i][i].bits for i in range(2)] == [0, 0]


def test_cup_form_rp2():
    form = cup_pairing_on_h1(rp2())
    assert form.rank() == 1
    assert form.entries[0][0].bits == 1  # the generator squares nontrivially


def test_cup_form_torus_with_circle():
    form = cup_pairing_on_h1(torus_with_circle())
    assert len(form.h1_reps) == 3
    assert form.rank() == 2


def test_property_a_verdicts():
    assert has_property_a(sphere()).holds          # vacuous, b1 = 0
    assert has_property_a(rp2()).holds
    assert has_property_a(torus()).holds
    res = has_property_a(torus_with_circle())
    assert not res.holds and res.radical_dimension == 1


def test_property_a_witness_checks_out():
    k = torus_with_circle()
    s = homology_summary(k)
    w = has_property_a(k, s).witness
    assert w is not None
    # really a cocycle, really not a coboundary
    assert delta(k, w).coeffs.is_zero()
    cob = Gf2Span(k.n_edges)
    for row in boundary_matrix(k, 1).rows():
        cob.add(row)
    assert not cob.contains(w.coeffs)
    # cups to zero against the whole basis
    for a in s.cocycle_reps[1]:
        assert h2_coordinates(s, cup_product(k, w, a)).is_zero()


def test_property_a_brute_force_agrees():
    for k in (sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere()):
        assert property_a_brute_force(k) == has_property_a(k).holds


def test_property_a_brute_force_stops_above_b1_12():
    # a graph of 14 vertices and 26 edges, one component: b1 = 13 classes
    # would be 2^13 - 1 enumerated; 12 is still run
    hub = [(0, i) for i in range(1, 14)]
    rim = [(i, i + 1) for i in range(1, 13)]
    k = Complex2.from_triangles([], extra_edges=hub + rim + [(1, 13)])
    assert betti_numbers(k) == (0, 13, 0)
    with pytest.raises(ValueError, match="b1 = 13 exceeds the brute-force limit 12"):
        property_a_brute_force(k)
    k = Complex2.from_triangles([], extra_edges=hub + rim)
    assert betti_numbers(k) == (0, 12, 0) and property_a_brute_force(k) is False


def test_determinism():
    a = homology_summary(torus())
    b = homology_summary(torus())
    assert a.betti == b.betti
    assert a.cycle_reps == b.cycle_reps and a.cocycle_reps == b.cocycle_reps
    f1, f2 = cup_pairing_on_h1(torus()), cup_pairing_on_h1(torus())
    assert f1.entries == f2.entries


def _cup_form_cases():
    """Complexes for the cup-form cross-check: the fixtures, catalog S2..N5,
    the empty complex, a point, two graphs (b1 > 0 with b2 = 0), seeded
    wedges with loose circles, spheres (b2 >= 2), a disjoint summand and int
    or str labelled pieces, and the oracle cases with an edge in three or
    more triangles, the only complexes whose 2-cycles can share triangles."""
    three_cycle = Complex2([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    theta = Complex2(range(5), [(0, m) for m in (2, 3, 4)] + [(1, m) for m in (2, 3, 4)])
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             cone_book(4), Complex2([]), Complex2.from_triangles([], extra_vertices=[0]),
             three_cycle, theta]
    cases += [catalog(parse_surface_id(name))
              for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    rng = random.Random(20261018)
    for trial in range(16):
        k = catalog(parse_surface_id(rng.choice(("N1", "M1", "N2", "M2"))))
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(1 + trial % 3):
            if rng.randrange(2):
                bubble = sphere().relabeled({v: f"s{j}.{v}" for v in range(4)})
                k = wedge(k, rng.choice(k.vertices), bubble, f"s{j}.0")
            else:
                bubble = sphere().relabeled({v: 1000 + 10 * j + v for v in range(4)})
                k = wedge(k, rng.choice(k.vertices), bubble, 1000 + 10 * j)
        if trial % 4 == 0:
            far = torus().relabeled({v: 5000 + v for v in range(7)})
            k = Complex2.from_triangles(k.triangles + far.triangles,
                                        extra_edges=k.edges, extra_vertices=k.vertices)
        cases.append(k)
    cases += [k for k in _oracle_cases()
              if any(k.edge_degree(e) >= 3 for e in k.edges) and k not in cases]
    return cases


def test_cup_form_matches_cup_product_and_h2_coordinates():
    shapes = Counter()
    for k in _cup_form_cases():
        s = homology_summary(k)
        form = cup_pairing_on_h1(k, s)
        reps = s.cocycle_reps[1]
        assert form.h1_reps == reps and form.b2 == s.b2
        assert form.entries == tuple(
            tuple(h2_coordinates(s, cup_product(k, a, b)) for b in reps) for a in reps)
        shapes["b2>=2"] += s.b2 >= 2
        shapes["disconnected"] += s.b0 > 0
        shapes["mixed"] += len({type(v) for v in k.vertices}) == 2
        # 2-cycles that may share triangles
        shapes["branching, b2>=2"] += _route(k) == "_Elimination" and s.b2 >= 2
    assert min(shapes.values()) >= 2


def test_left_radical_is_the_relations_among_the_rows():
    shapes = Counter()
    for k in _cup_form_cases():
        form = cup_pairing_on_h1(k)
        n, b2, entries = len(form.h1_reps), form.b2, form.entries
        # the radical as the kernel of the (j, c) x i matrix read off entries
        columns = [Gf2Vector.from_coeffs([entries[i][j].get(c) for i in range(n)])
                   for j in range(n) for c in range(b2)]
        radical = form.left_radical_basis()
        assert radical == Gf2Matrix(len(columns), n, [c.bits for c in columns]).kernel_basis()
        res = has_property_a(k)
        assert res.holds == (not radical) and res.radical_dimension == len(radical)
        if n <= 12:
            assert res.holds == property_a_brute_force(k)
        if b2 == 0:
            assert form.rank() == 0 and radical == [Gf2Vector(n, 1 << i) for i in range(n)]
        shapes["b1>0, b2=0"] += n > 0 and b2 == 0
        shapes["fails"] += not res.holds
        shapes["holds, b1>0"] += res.holds and n > 0
    assert min(shapes.values()) >= 2


def test_property_a_on_a_large_wedge_makes_no_cochain_cups(monkeypatch):
    k = m8_wedge(4)
    assert k.n_triangles == 4608
    counts = Counter()
    monkeypatch.setattr(homology, "cup_product", _counting(counts, "cups", cup_product))
    monkeypatch.setattr(homology, "h2_coordinates",
                        _counting(counts, "coords", h2_coordinates))
    res = has_property_a(k)
    assert not res.holds and res.radical_dimension == 1  # the loose circle
    assert counts["cups"] == 0 and counts["coords"] == 0


def test_cup_form_rejects_a_summary_of_another_complex():
    k = torus()
    with pytest.raises(ValueError, match="does not match this complex"):
        cup_pairing_on_h1(k, homology_summary(rp2()))  # 15 edges, not 21
    punctured = Complex2(k.vertices, k.edges, k.triangles[1:])  # same edges
    with pytest.raises(ValueError, match="summarized complex"):
        cup_pairing_on_h1(k, homology_summary(punctured))
    with pytest.raises(ValueError, match="summarized complex"):
        has_property_a(k, homology_summary(sphere()))  # b1 = 0
    # same counts, vertices 0 and 1 swapped: its H^1 representatives are
    # not even cocycles of k
    swapped = k.relabeled({0: 1, 1: 0})
    assert swapped != k and swapped.n_triangles == k.n_triangles
    for check in (cup_pairing_on_h1, has_property_a):
        with pytest.raises(ValueError, match="summarized complex"):
            check(k, homology_summary(swapped))
