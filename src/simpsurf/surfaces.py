"""Closed-surface recognition, classification, and model triangulations.

Recognition is purely combinatorial: a complex is a closed surface iff it
is connected, every edge lies in exactly two triangles, and every vertex
link is a single cycle.  The first two are read off the 1-skeleton and
are the callers' to guarantee: classify checks them on its Complex2, the
components and the edge degrees, and every closed state of the desk
search has them by construction.  The rest (_recognize) runs on the
triangle-edge index alone, the three edge positions of each triangle
(Complex2._triangle_edges), which the reduction's audits have built
already: no label and no vertex is looked up.  The links are the cycles
of one small graph, whose nodes are the edges, each seen from either end,
and whose joins are the triangles' corners, each joining the two edges
the corner lies on.  Every edge lies in two triangles, so every node is
on two joins, and each component is one link cycle, which leaves exactly
one join off a spanning forest: gf2._Forest, the package's one
union-find, counts the cycles in one call (_link_cycles), and every link
is a single cycle exactly when there are alpha0 of them.  Orientability
comes from propagating triangle signs across the sides paired on each
edge (_across), and the Euler characteristic gives the genus.  The desk
search walks each star on a table of its own (search._star_link_is_cycle);
a test ties the two together.  verify_orientation_witness checks a
witness apart from all this, on the triangles' labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Optional, Sequence

from . import catalog_data
from .bounds import NotApplicableError, SurfaceId, minimal_triangle_count
from .complex2 import Complex2, Label, canon_edge
from .gf2 import _Forest
from .homology import CochainVector, cochain, has_property_a, homology_summary

__all__ = [
    "ClassificationResult",
    "is_closed_surface",
    "classify",
    "verify_orientation_witness",
    "expected_betti",
    "SurfaceHypothesesReport",
    "surface_hypotheses_report",
    "wedge",
    "attach_circle",
    "fundamental_class_cochain",
    "catalog",
]


@dataclass
class ClassificationResult:
    """Outcome of surface recognition plus, on success, the surface type."""

    is_surface: bool
    failure_reason: Optional[str]  # 'disconnected' | 'bad_edge_degree' | 'bad_link'
    surface: Optional[SurfaceId]
    orientation_witness: Optional[dict[tuple[Label, Label, Label], int]]


def is_closed_surface(k: Complex2) -> bool:
    return classify(k).is_surface


def _directed_boundary(t, sign: int):
    a, b, c = t
    cyc = (a, b, c) if sign > 0 else (a, c, b)
    return ((cyc[0], cyc[1]), (cyc[1], cyc[2]), (cyc[2], cyc[0]))


def _across(triangle_edges: Sequence[tuple[int, int, int]]) -> list[int]:
    """For each side 3t + i, the side on the same edge in the edge's other
    triangle, where sides 0, 1 and 2 of triangle t lie on its edges ab,
    ac and bc; every edge lies in exactly two triangles, so the edge
    positions are 0 .. 3 alpha2 / 2 - 1."""
    n_sides = 3 * len(triangle_edges)
    first = [-1] * (n_sides // 2)  # each edge's first side
    across = [0] * n_sides
    for x, e in enumerate(chain.from_iterable(triangle_edges)):
        w = first[e]
        if w < 0:
            first[e] = x
        else:
            across[w] = x
            across[x] = w
    return across


def _orientation(across: Sequence[int]) -> Optional[list[int]]:
    """The coherent orientation with sign 1 on triangle 0, one sign per
    triangle, or None when there is none.

    A triangle with sign 1 runs its sides 0 and 2 forwards and side 1
    backwards, and -1 the reverse; two triangles agree on an edge when
    they run it opposite ways.  Signs propagate from triangle 0 across
    the paired sides, so a connected surface, whose triangles are all
    reached, has at most one such orientation.
    """
    sign = [0] * (len(across) // 3)
    sign[0] = 1
    stack = [0]
    while stack:
        t = stack.pop()
        s = sign[t]
        for x in range(3 * t, 3 * t + 3):
            y = across[x]
            want = -s if (x % 3 == 1) == (y % 3 == 1) else s
            u = y // 3
            su = sign[u]
            if not su:
                sign[u] = want
                stack.append(u)
            elif su != want:
                return None
    return sign


def _link_cycles(triangle_edges: Sequence[tuple[int, int, int]]) -> int:
    """The number of vertex-link cycles, summed over the vertices, of a
    complex whose triangles have the given edge positions, each
    triangle's edges ab, ac and bc, and whose every edge lies in exactly
    two triangles.

    Node 2e is edge position e seen from its first end, and node 2e + 1
    the same edge seen from its second.  A triangle (a, b, c) with edges
    p = ab, q = ac and r = bc joins 2p and 2q at a, 2p + 1 and 2r at b,
    and 2q + 1 and 2r + 1 at c: a node is a vertex of the link of the end
    it is seen from, and a join an edge of that link.  Every node is on
    two joins, one for each triangle at its edge, so each component is
    one link cycle, and the forest grown over it leaves exactly one of its
    joins off.
    """
    return len(_Forest(3 * len(triangle_edges), chain.from_iterable(
        ((0, 2 * p, 2 * q), (0, 2 * p + 1, 2 * r), (0, 2 * q + 1, 2 * r + 1))
        for p, q, r in triangle_edges)).off)


def _recognize(triangle_edges: Sequence[tuple[int, int, int]],
               n_vertices: int) -> tuple:
    """(failure_reason, surface, signs) for the complex whose triangles
    have the given edge positions, each triangle's edges ab, ac and bc,
    and whose vertices number n_vertices; signs is the coherent
    orientation, one sign per triangle with sign 1 on the first, for an
    orientable surface and None otherwise.

    The caller guarantees that the complex is connected and that every
    edge lies in exactly two triangles: classify checks both on the
    1-skeleton before it calls here.  What is left is the link check,
    n_vertices link cycles in all (_link_cycles), and the orientation.
    Every vertex with an edge has one link cycle at least, so the count
    is off exactly when some link splits into two cycles or more, or is
    empty: a vertex with an empty link has no edge, so it is the whole
    connected complex, and there is no cycle at all.  The Euler
    characteristic comes from the counts.  The desk search does not come
    here: its enumerator carries the same orientation test through its
    own depth-first search, and classify confirms the witness it finds.
    """
    if _link_cycles(triangle_edges) != n_vertices:
        return "bad_link", None, None
    n_triangles = len(triangle_edges)
    chi = n_vertices - 3 * n_triangles // 2 + n_triangles
    signs = _orientation(_across(triangle_edges))
    if signs is not None:
        return None, SurfaceId(True, (2 - chi) // 2), signs
    return None, SurfaceId(False, 2 - chi), None


def classify(k: Complex2) -> ClassificationResult:
    """Recognize and classify a closed surface.

    Failures are reported in check order: connectivity, then edge degrees,
    then vertex links.  The first two are read off the 1-skeleton, so that
    loose edges and isolated vertices count: the components, and the
    degrees counted over the triangles' edge positions
    (Complex2._edge_degrees).  Those positions then go to the recognizer
    (_recognize), which takes the two as given, counts the link cycles
    with one union-find, one component of the edge ends joined at the
    triangles' corners for each cycle, and propagates the signs across
    the sides paired on each edge.
    For orientable surfaces the witness maps each triangle to +1 or -1
    giving a coherent orientation: the one with +1 on the canonically
    first triangle, which is unique, since a connected closed surface has
    exactly two coherent orientations, so no order of propagation can
    give another.
    """
    if len(k.connected_components()) != 1:
        return ClassificationResult(False, "disconnected", None, None)
    degrees = k._edge_degrees
    if degrees.count(2) != len(degrees):
        return ClassificationResult(False, "bad_edge_degree", None, None)
    reason, surface, signs = _recognize(k._triangle_edges, k.n_vertices)
    if reason is not None:
        return ClassificationResult(False, reason, None, None)
    witness = None if signs is None else dict(zip(k.triangles, signs))
    return ClassificationResult(True, None, surface, witness)


def verify_orientation_witness(k: Complex2, witness: dict) -> bool:
    """Check a claimed coherent orientation on the triangles' labels.

    Every edge must lie in exactly two triangles (the edge degrees), and
    those two, found by the triangles' edge positions, must run it
    opposite ways: the edge, as stored, is in the directed boundary of
    one and reversed in the other's.
    """
    if set(witness) != set(k.triangles):
        return False
    degrees = k._edge_degrees
    if degrees.count(2) != len(degrees):
        return False
    edges, balance = k.edges, [0] * len(k.edges)
    for t, positions in zip(k.triangles, k._triangle_edges):
        directed = _directed_boundary(t, witness[t])
        for e in positions:
            balance[e] += 1 if edges[e] in directed else -1
    return not any(balance)


def expected_betti(surface: SurfaceId) -> tuple[int, int, int]:
    """Reduced F2 Betti numbers of a closed surface."""
    if surface.orientable:
        return (0, 2 * surface.genus, 1)
    return (0, surface.genus, 1)


@dataclass
class SurfaceHypothesesReport:
    """Separate necessary conditions for being a given surface.

    The F2 Betti numbers do not separate a torus from a Klein bottle, so
    the checks here are reported individually and cross-validated against
    the link/orientation classification, which stays the ground truth.
    """

    target: SurfaceId
    edge_degrees_ok: bool
    betti: tuple[int, int, int]
    betti_ok: bool
    cup_pairing_ok: bool
    classification: ClassificationResult

    @property
    def classification_matches(self) -> bool:
        return self.classification.surface == self.target

    @property
    def all_hypotheses_hold(self) -> bool:
        return self.edge_degrees_ok and self.betti_ok and self.cup_pairing_ok


def surface_hypotheses_report(k: Complex2, target: SurfaceId) -> SurfaceHypothesesReport:
    summary = homology_summary(k)
    return SurfaceHypothesesReport(
        target=target,
        edge_degrees_ok=bool(k.edges) and k._edge_degrees.count(2) == k.n_edges,
        betti=summary.betti,
        betti_ok=summary.betti == expected_betti(target),
        cup_pairing_ok=has_property_a(k, summary).holds,
        classification=classify(k),
    )


# ------------------------------------------------------------ constructions

def wedge(k1: Complex2, v1: Label, k2: Complex2, v2: Label) -> Complex2:
    """One-point union identifying v2 with v1.

    With disjoint label sets the labels are kept as they are; on any clash
    the two sides are namespaced with 'L.'/'R.' string prefixes first.
    """
    if not k1.has_vertex(v1):
        raise ValueError(f"vertex {v1!r} is not in the first complex")
    if not k2.has_vertex(v2):
        raise ValueError(f"vertex {v2!r} is not in the second complex")
    shared = set(k1.vertices) & set(k2.vertices)
    if not shared or (v1 == v2 and shared == {v1}):
        k2r = k2 if v1 == v2 else k2.relabeled({v2: v1})
    else:
        k1 = k1.relabeled({v: f"L.{v}" for v in k1.vertices})
        k2r = k2.relabeled({v: f"R.{v}" for v in k2.vertices})
        k2r = k2r.relabeled({f"R.{v2}": f"L.{v1}"})
        v1 = f"L.{v1}"
    return Complex2(k1.vertices + k2r.vertices,
                    k1.edges + k2r.edges,
                    k1.triangles + k2r.triangles)


def attach_circle(k: Complex2, v: Label) -> Complex2:
    """Wedge on a triangle-free 3-cycle at v using two fresh vertices."""
    if not k.has_vertex(v):
        raise ValueError(f"vertex {v!r} is not in the complex")
    if all(isinstance(u, int) for u in k.vertices):
        top = max(k.vertices)
        a, b = top + 1, top + 2
    else:
        n = 0
        while f"c{n}.a" in k.vertices or f"c{n}.b" in k.vertices:
            n += 1
        a, b = f"c{n}.a", f"c{n}.b"
    return Complex2(k.vertices + (a, b),
                    k.edges + (canon_edge(v, a), canon_edge(v, b), canon_edge(a, b)),
                    k.triangles)


def fundamental_class_cochain(k: Complex2) -> CochainVector:
    """A 2-cochain generating H^2 of a closed surface.

    The indicator of any single triangle works: it evaluates to 1 on the
    sum-of-all-triangles cycle and coboundaries evaluate to 0 on cycles.
    The canonically smallest triangle is used.
    """
    if not classify(k).is_surface:
        raise ValueError("not a closed surface")
    return cochain(k, 2, [k.triangles[0]])


# ------------------------------------------------------------ catalog

def _subdivide(k: Complex2):
    """One barycentric subdivision with integer labels.

    Returns (subdivided, vertex_map, edge_midpoint_map): original vertices
    and edges keep track of their images so boundary paths can be refined.
    The new vertices are numbered by position: vertex i is i, the
    midpoint of edge i is alpha0 + i and the center of triangle i is
    alpha0 + alpha1 + i.
    """
    n0, n1 = k.n_vertices, k.n_edges
    vmap = dict(zip(k.vertices, range(n0)))
    emid = dict(zip(k.edges, range(n0, n0 + n1)))
    tris = []
    for tid, (a, b, c), (p, q, r) in zip(count(n0 + n1), k.triangles, k._triangle_edges):
        a, b, c, p, q, r = vmap[a], vmap[b], vmap[c], n0 + p, n0 + q, n0 + r
        tris += ((a, p, tid), (b, p, tid), (a, q, tid), (c, q, tid), (b, r, tid), (c, r, tid))
    extra_edges = [(vmap[v], emid[e]) for e in k.maximal_edges() for v in e]
    extra_vertices = [vmap[v] for v in k.isolated_vertices()]
    sub = Complex2.from_triangles(tris, extra_edges, extra_vertices)
    return sub, vmap, emid


def _refine_path(path: list, vmap: dict, emid: dict) -> list:
    out = [vmap[path[0]]]
    for u, w in zip(path, path[1:]):
        out.append(emid[canon_edge(u, w)])
        out.append(vmap[w])
    return out


def _polygon_scheme_complex(word: list[tuple[str, int]]) -> Complex2:
    """Glue a polygon's sides by a letter scheme and triangulate.

    The polygon is coned from a center, barycentrically subdivided twice
    (which makes the side identifications simplicial), and the side paths
    are then merged by the package's union-find, gf2._Forest: each vertex
    becomes the root of its tree.  Words shorter than 3 sides are not
    representable this way.
    """
    m = len(word)
    if m < 3:
        raise ValueError(f"need at least 3 sides, got {m}")
    counts: dict[str, int] = {}
    for letter, exp in word:
        if exp not in (1, -1):
            raise ValueError(f"exponent {exp} not in (1, -1)")
        counts[letter] = counts.get(letter, 0) + 1
    if any(c != 2 for c in counts.values()):
        raise ValueError("every letter must appear exactly twice")

    disk = Complex2.from_triangles([(0, 1 + i, 1 + (i + 1) % m) for i in range(m)])
    paths = {i: [1 + i, 1 + (i + 1) % m] for i in range(m)}
    for _ in range(2):
        disk, vmap, emid = _subdivide(disk)
        paths = {i: _refine_path(p, vmap, emid) for i, p in paths.items()}

    sides: dict[str, list[tuple[int, list]]] = {}
    for i, (letter, exp) in enumerate(word):
        sides.setdefault(letter, []).append((exp, paths[i]))
    glued = []
    for (e1, p1), (e2, p2) in sides.values():
        glued += zip(p1 if e1 == 1 else p1[::-1], p2 if e2 == 1 else p2[::-1])
    quotient = _Forest(disk.n_vertices,
                       ((i, x, y) for i, (x, y) in enumerate(glued))).roots()
    return Complex2.from_triangles(
        [tuple(quotient[v] for v in t) for t in disk.triangles])


def _orientable_word(genus: int) -> list[tuple[str, int]]:
    word = []
    for i in range(genus):
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    return word


def _nonorientable_word(genus: int) -> list[tuple[str, int]]:
    word = []
    for i in range(genus):
        word += [(f"a{i}", 1), (f"a{i}", 1)]
    return word


_catalog_cache: dict[SurfaceId, Complex2] = {}

# a built entry has 72 (2 - chi) triangles, 18432 for M128 and N256
CATALOG_MIN_CHI = -254


def catalog(surface: SurfaceId) -> Complex2:
    """A model triangulation of the surface, validated before it is returned.

    The six smallest surfaces (sphere, projective plane, torus, and the
    non-orientable genus 2 and 3 and orientable genus 2 surfaces) are
    stored minimal triangulations whose triangle counts meet
    minimal_triangle_count exactly; higher genera are built on demand from
    a polygon gluing scheme with two barycentric subdivisions and are not
    minimal.  Below Euler characteristic CATALOG_MIN_CHI nothing is built
    and NotApplicableError is raised, so time stays bounded.
    """
    if surface in _catalog_cache:
        return _catalog_cache[surface]
    if surface.euler_characteristic < CATALOG_MIN_CHI:
        raise NotApplicableError(
            f"{surface}: catalog triangulations stop at chi = "
            f"{CATALOG_MIN_CHI}, and {surface} has chi = "
            f"{surface.euler_characteristic}")
    stored = catalog_data.MINIMAL_TRIANGULATIONS.get(surface.name)
    if stored is not None:
        k = Complex2.from_triangles(stored)
        if k.n_triangles != minimal_triangle_count(surface):
            raise AssertionError(f"stored {surface} entry has {k.n_triangles} triangles")
    elif surface.orientable:
        k = _polygon_scheme_complex(_orientable_word(surface.genus))
    else:
        k = _polygon_scheme_complex(_nonorientable_word(surface.genus))
    got = classify(k)
    if got.surface != surface:
        raise AssertionError(f"catalog entry for {surface} classified as {got.surface}")
    _catalog_cache[surface] = k
    return k
