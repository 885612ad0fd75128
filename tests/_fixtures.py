"""Shared small complexes for the test suite.

The Betti numbers, cup ranks, and property-(A) verdicts asserted against
these complexes were frozen from an independent elimination oracle kept
outside the package.  failure_reason_oracle recognizes closed surfaces
on the link graphs alone, apart from the package's recognizer,
classify_reference is a second recognizer on vertex numbers: the apex
sums of each edge walk the links, and signs propagate over triangle
codes; classify, which works on the triangles' edge positions, must give
its reason, surface and witness on every input.  rref gives a matrix's
reduced row echelon form by back-substituting its span, and
kernel_from_rref reads a kernel basis off one, apart from the tagged
elimination behind Gf2Matrix.kernel_basis; apply multiplies a matrix by
a vector, one parity per row.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional, Sequence

from simpsurf.bounds import SurfaceId, parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix, Gf2Vector, _bits_up, _span
from simpsurf.search import _SEED, _closures, _triangles
from simpsurf.surfaces import attach_circle, catalog, wedge

SPHERE_TRIS = [t for t in combinations(range(4), 3)]

# the head of a script run in a child process to bound its memory: it
# defines peak_kib(), the child's own peak resident size in KiB.  On Linux
# a child's ru_maxrss starts at its parent's resident size, since the
# high-water mark outlives exec, so a large test process would mask the
# child's peak; VmHWM in /proc/self/status is the peak of the child's own
# address space, and ru_maxrss (KiB on Linux, bytes on macOS) stands in
# where there is no /proc
PEAK_KIB = """
import resource, sys
def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    got = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return got // 1024 if sys.platform == "darwin" else got
"""

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


def rref(m: Gf2Matrix) -> tuple[list[int], list[int]]:
    """The reduced row echelon form of m and its pivot columns: the rows
    in pivot order, padded with zero rows to n_rows."""
    span = _span(m._rows, m.n_cols)
    rows = span._reduced_rows()
    return rows + [0] * (m.n_rows - len(rows)), span._pivots()


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


def triangle_edges(tris: Sequence[tuple]) -> list[tuple[int, int, int]]:
    """The positions of the edges ab, ac and bc of each increasing triple,
    the edges numbered as first seen: the recognizer reads only which
    sides share an edge, so any numbering of the edges 0, 1, ... serves,
    Complex2._triangle_edges' canonical one too."""
    at: dict = {}
    return [(at.setdefault((a, b), len(at)), at.setdefault((a, c), len(at)),
             at.setdefault((b, c), len(at))) for a, b, c in tris]


def link_is_cycle(v: int, first: tuple[int, int, int], deg: int,
                  apexes: dict[int, int], n: int) -> bool:
    """Whether the link of v is a single cycle, given first, a triangle at
    v, deg, the number of triangles at v, and the apex sums of
    link_apexes on labels below n.

    Every edge at v lies in two triangles, so one apex of an edge vx
    gives the other, and the link of v is 2-regular: a single cycle
    exactly when the walk from first, stepping from x to the other apex
    of edge vx than the vertex it came from, first returns after deg
    steps."""
    a, b, c = first
    x = a if a != v else b
    prev, here, steps = x, a + b + c - v - x, 1
    while here != x:
        prev, here = here, apexes[v * n + here if v < here
                                  else here * n + v] - prev
        steps += 1
    return steps == deg


def link_apexes(tris: Sequence[tuple[int, int, int]],
                n_vertices: int) -> Optional[dict[int, int]]:
    """The apex sums of the complex whose triangles are tris, each an
    increasing triple, and whose vertices are exactly 0..n_vertices-1,
    when every vertex link is a single cycle; None otherwise.

    The caller guarantees that the complex is connected and that every
    edge lies in exactly two triangles.  One pass maps the key a*n + b of
    each edge ab to the sum of the third vertices of its triangles, and
    counts and keeps one triangle at each vertex; link_is_cycle then
    walks each vertex link on those sums.  A vertex in no triangle has
    an empty link, which is no cycle.
    """
    n = n_vertices
    apexes: dict[int, int] = {}
    get = apexes.get
    deg = [0] * n
    start = [0] * n  # a triangle at each vertex, by its position in tris
    for i, (a, b, c) in enumerate(tris):
        ab, ac, bc = a * n + b, a * n + c, b * n + c
        apexes[ab] = get(ab, 0) + c
        apexes[ac] = get(ac, 0) + b
        apexes[bc] = get(bc, 0) + a
        start[a] = start[b] = start[c] = i
        deg[a] += 1
        deg[b] += 1
        deg[c] += 1
    for v in range(n):
        if not deg[v] or not link_is_cycle(v, tris[start[v]], deg[v],
                                           apexes, n):
            return None
    return apexes


def classify_triangles(tris: Sequence[tuple[int, int, int]],
                       n_vertices: int) -> tuple:
    """(failure_reason, surface, signs) for the complex whose triangles
    are tris, each an increasing triple, and whose vertices are exactly
    0..n_vertices-1; signs is the coherent orientation, one sign per
    triangle, for an orientable surface and None otherwise.

    The caller guarantees that the complex is connected and that every
    edge lies in exactly two triangles.  What is left is the link check,
    which link_apexes makes, and the orientation, which reads the apex
    sums that check leaves.

    Signs propagate over triangle codes (a*n + b)*n + c from sign 1 on
    the first triangle: a triangle (a, b, c) with sign s runs its edges ab
    and bc forwards and ac backwards when s = 1, and two triangles on an
    edge agree when they run it opposite ways.  The Euler characteristic
    comes from the counts.
    """
    n = n_vertices
    apexes = link_apexes(tris, n)
    if apexes is None:
        return "bad_link", None, None
    codes = [(a * n + b) * n + c for a, b, c in tris]

    nn = n * n
    sign = {codes[0]: 1}
    stack = [codes[0]]
    orientable = True
    while stack and orientable:
        t = stack.pop()
        s = sign[t]
        a, b, c = t // nn, t // n % n, t % n
        # each edge (p, q), p < q, with its apex and its direction in t
        for p, q, r, d in ((a, b, c, s), (b, c, a, s), (a, c, b, -s)):
            o = apexes[p * n + q] - r  # the other triangle's apex
            if o < p:
                u, du = (o * n + p) * n + q, 1
            elif o < q:
                u, du = (p * n + o) * n + q, -1
            else:
                u, du = (p * n + q) * n + o, 1
            su = sign.get(u)
            if su is None:
                sign[u] = -d * du
                stack.append(u)
            elif su * du == d:
                orientable = False
                break

    chi = n - len(apexes) + len(tris)
    if orientable:
        return None, SurfaceId(True, (2 - chi) // 2), [sign[t] for t in codes]
    return None, SurfaceId(False, 2 - chi), None


def classify_reference(k: Complex2) -> tuple:
    """(failure_reason, surface, orientation witness) of k by the
    reference recognizer: connectivity, then the triangles at each edge,
    then classify_triangles on the triangles with their vertices numbered
    in canonical order."""
    if len(k.connected_components()) != 1:
        return "disconnected", None, None
    if any(len(ts) != 2 for ts in k._tris_at_edge.values()):
        return "bad_edge_degree", None, None
    index = k._vertex_index
    reason, surface, signs = classify_triangles(
        [(index[a], index[b], index[c]) for a, b, c in k.triangles], k.n_vertices)
    return reason, surface, None if signs is None else dict(zip(k.triangles, signs))
