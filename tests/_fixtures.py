"""Shared small complexes for the test suite.

The Betti numbers, cup ranks, and property-(A) verdicts asserted against
these complexes were frozen from an independent elimination oracle kept
outside the package.  failure_reason_oracle recognizes closed surfaces
on the link graphs alone, apart from the package's recognizer,
kernel_from_rref reads a kernel basis off a reduced row echelon form,
apart from the tagged elimination behind Gf2Matrix.kernel_basis, and
apply multiplies a matrix by a vector, one parity per row.
"""

from __future__ import annotations

import random
from itertools import combinations

from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix, Gf2Vector, _bits_up
from simpsurf.search import _SEED, _closures, _triangles
from simpsurf.surfaces import attach_circle, catalog, wedge

SPHERE_TRIS = [t for t in combinations(range(4), 3)]

RP2_TRIS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]

TORUS_TRIS = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)] + \
             [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]

CIRCLE_EDGES = [(0, 7), (0, 8), (7, 8)]


def closed_states(n_max: int, seed=_SEED, chi_target=None) -> list:
    """The complete states of the desk search on n_max labels from the
    seed, collected from _closures' visitor in search order, as
    (triangles, used, orientable); each state's triangles are its
    placed-triangle mask read in id order, so they come sorted."""
    tris = _triangles(n_max)
    states = []

    def collect(placed, alpha2, used, orientable):
        state = tuple(tris[i] for i in _bits_up(placed))
        assert len(state) == alpha2
        states.append((state, used, orientable))

    assert _closures(n_max, list(seed), collect, chi_target) == len(states)
    return states


def sphere() -> Complex2:
    return Complex2.from_triangles(SPHERE_TRIS)


def rp2() -> Complex2:
    return Complex2.from_triangles(RP2_TRIS)


def torus() -> Complex2:
    return Complex2.from_triangles(TORUS_TRIS)


def torus_with_circle() -> Complex2:
    return Complex2.from_triangles(TORUS_TRIS, extra_edges=CIRCLE_EDGES)


def torus_circle_sphere() -> Complex2:
    """Torus with a loose circle at vertex 0 and a sphere wedged on at 0."""
    sphere_at_0 = [(0, 101, 102), (0, 101, 103), (0, 102, 103), (101, 102, 103)]
    return Complex2.from_triangles(list(TORUS_TRIS) + sphere_at_0,
                                   extra_edges=CIRCLE_EDGES)


def apply(m: Gf2Matrix, v: Gf2Vector) -> Gf2Vector:
    """The product m v: one parity per row."""
    return Gf2Vector(m.n_rows, sum(row.dot(v) << i for i, row in enumerate(m.rows())))


def kernel_from_rref(n_cols: int, rows, pivots) -> list[Gf2Vector]:
    """Kernel basis read off a reduced row echelon form, free columns in
    order: the vector of free column f is f plus every pivot whose row has
    f set."""
    kernel = [0] * n_cols
    for r, p in zip(rows, pivots):
        rest = r ^ 1 << p
        while rest:
            low = rest & -rest
            kernel[low.bit_length() - 1] |= 1 << p
            rest ^= low
    pivot_set = set(pivots)
    return [Gf2Vector(n_cols, kernel[f] | 1 << f)
            for f in range(n_cols) if f not in pivot_set]


def m8_wedge(copies: int) -> Complex2:
    """copies of catalog(M8) wedged at their first vertex, plus a circle."""
    m8 = catalog(parse_surface_id("M8"))
    k = m8
    for _ in range(copies - 1):
        k = wedge(k, k.vertices[0], m8, m8.vertices[0])
    return attach_circle(k, k.vertices[0])


def sphere_chain(n: int) -> Complex2:
    """n octahedra, octahedron i on the vertices 5i .. 5i + 5 with poles
    5i and 5i + 5, so each shares its upper pole with the next: 8n
    triangles, b1 = 0 and b2 = n."""
    triangles = []
    for i in range(n):
        ring = [5 * i + 1, 5 * i + 2, 5 * i + 3, 5 * i + 4]
        for pole in (5 * i, 5 * i + 5):
            triangles += [(pole, ring[j], ring[j - 1]) for j in range(4)]
    return Complex2.from_triangles(triangles)


def _relabel(k: Complex2, labels: str) -> Complex2:
    """k on int labels, str labels, or both: odd labels become strings."""
    if labels == "int":
        return k
    return k.relabeled({v: f"s{v}" for v in k.vertices
                        if labels == "str" or v % 2})


def label_cases():
    """Catalog surfaces, wedges with bubbles and circles and inputs with
    isolated vertices, each on int, str and mixed labels."""
    rng = random.Random(20261020)
    bases = [catalog(parse_surface_id(name)) for name in ("S2", "N1", "M1", "N2", "M2")]
    shapes = list(bases)
    for _ in range(8):
        base = rng.choice(bases)
        k = base
        for _ in range(rng.randrange(1, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 3)):
            bubble = sphere().relabeled({v: 100 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 100 + 10 * j)
        shapes.append(k)
    shapes += [Complex2(k.vertices + (900, 901), k.edges, k.triangles)
               for k in (bases[0], bases[2], shapes[-1])]
    shapes.append(Complex2([900]))
    return [(labels, _relabel(k, labels)) for k in shapes
            for labels in ("int", "str", "mixed")]


def _link_is_single_cycle(k: Complex2, v) -> bool:
    """The link check on the link graph alone: every node of degree two,
    one component, at least three nodes."""
    nodes, ledges = k.link_of_vertex(v)
    if len(nodes) < 3 or len(nodes) != len(ledges):
        return False
    deg = {u: 0 for u in nodes}
    adj = {u: [] for u in nodes}
    for a, b in ledges:
        if a not in deg or b not in deg:
            return False
        deg[a] += 1
        deg[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    if any(d != 2 for d in deg.values()):
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def failure_reason_oracle(k: Complex2):
    """classify's failure reason, or None for a closed surface."""
    if len(k.connected_components()) != 1:
        return "disconnected"
    if any(k.edge_degree(e) != 2 for e in k.edges):
        return "bad_edge_degree"
    if any(not _link_is_single_cycle(k, v) for v in k.vertices):
        return "bad_link"
    return None
