"""Closed-surface recognition, classification, and model triangulations.

Recognition is purely combinatorial: a complex is a closed surface iff it
is connected, every edge lies in exactly two triangles, and every vertex
link is a single cycle.  The first two are read off the 1-skeleton and
are the callers' to guarantee: classify checks them on its Complex2, the
components and the edge degrees, and every closed state of the desk
search has them by construction.  The rest (_recognize) runs on the
triangle-edge index alone, the three edge positions of each triangle
(Complex2._triangle_edges), which the reduction's audits have built
already: no label and no vertex is looked up.  One pass pairs each side
of a triangle with the side across its edge in the edge's other
triangle (_across).  The corners of the triangles at a vertex are the
edges of its link, and two of them share a link vertex when they meet
across a side, so the link is a single cycle exactly when the corners at
the vertex form one class under that joining, and every link is one
exactly when all the corners fall into alpha0 classes: one walk around
each class counts them (_corner_classes).  Orientability comes from
propagating triangle signs across the paired sides, and the Euler
characteristic gives the genus.  The desk search walks each star on a
table of its own (search._star_link_is_cycle); a test ties the two
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


# A triangle (a, b, c) has corners 0, 1, 2 at a, b, c and sides 0, 1, 2 on
# its edges ab, ac, bc, and corner or side i of triangle t is 3t + i.  An
# edge runs from its first end to its second in every triangle at it,
# since every triangle lists its vertices in the one canonical order.  A
# walk around a link leaves a corner by one of its sides, with the end of
# that side the corner is at; crossing to side j of the triangle across,
# at the same end, k = 2j + end gives the corner reached there, the other
# side of that corner, as an offset from j, and the end it is at.
_CORNER_AT = (0, 1, 0, 2, 1, 2)
_TURN = (1, 2, -1, 1, -2, -1)
_END_AT = (0, 0, 0, 1, 1, 1)


def _across(triangle_edges: Sequence[tuple[int, int, int]]) -> list[int]:
    """For each side 3t + i, the side on the same edge in the edge's other
    triangle; every edge lies in exactly two triangles, so the edge
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


def _corner_classes(across: Sequence[int], limit: int) -> int:
    """The number of classes of corners joined across sides, counted up to
    one past limit.

    Every edge lies in two triangles, so every corner is joined to two
    others, one across each of its sides, and a class is a cycle: the
    walk from a corner, leaving each corner by the side it did not come
    in by, returns to it after visiting the class once.
    """
    seen = bytearray(len(across))
    classes = 0
    for corner in range(len(across)):
        if seen[corner]:
            continue
        classes += 1
        if classes > limit:
            break
        seen[corner] = 1
        i = corner % 3
        # corner i leaves by side 0 (a and b) or 1 (c), at end 0 (a) or 1
        x, end = corner - i + (i == 2), i > 0
        while True:
            y = across[x]
            j = y % 3
            k = 2 * j + end
            reached = y - j + _CORNER_AT[k]
            if seen[reached]:
                break
            seen[reached] = 1
            x, end = y + _TURN[k], _END_AT[k]
    return classes


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
    the corners falling into n_vertices classes, and the orientation.  A
    link that is not a single cycle splits into two classes or more, or
    is empty, and a vertex with an empty link has no edge, so it is the
    whole connected complex: either way the count is off.  The Euler
    characteristic comes from the counts.  The desk search does not come
    here: its enumerator carries the same orientation test through its
    own depth-first search, and classify confirms the witness it finds.
    """
    across = _across(triangle_edges)
    if _corner_classes(across, n_vertices) != n_vertices:
        return "bad_link", None, None
    n_triangles = len(triangle_edges)
    chi = n_vertices - 3 * n_triangles // 2 + n_triangles
    signs = _orientation(across)
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
    (_recognize), which takes the two as given, pairs the sides across
    each edge, counts the classes of corners for the links and propagates
    the signs.
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
    """Check a claimed coherent orientation edge by edge."""
    if set(witness) != set(k.triangles):
        return False
    for e, ts in k._tris_at_edge.items():
        if len(ts) != 2:
            return False
        d0 = _directed_boundary(ts[0], witness[ts[0]])
        d1 = _directed_boundary(ts[1], witness[ts[1]])
        forward = e if e in d0 else (e[1], e[0])
        if forward not in d0 or (forward[1], forward[0]) not in d1:
            return False
    return True


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
    """
    new_id: dict = {}
    for v in k.vertices:
        new_id[(0, (v,))] = len(new_id)
    for e in k.edges:
        new_id[(1, e)] = len(new_id)
    for t in k.triangles:
        new_id[(2, t)] = len(new_id)
    tris = []
    for t in k.triangles:
        tid = new_id[(2, t)]
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            eid = new_id[(1, e)]
            for v in e:
                tris.append((new_id[(0, (v,))], eid, tid))
    extra_edges = []
    for e in k.maximal_edges():
        eid = new_id[(1, e)]
        extra_edges.extend(((new_id[(0, (e[0],))], eid), (new_id[(0, (e[1],))], eid)))
    extra_vertices = [new_id[(0, (v,))] for v in k.isolated_vertices()]
    sub = Complex2.from_triangles(tris, extra_edges, extra_vertices)
    vmap = {v: new_id[(0, (v,))] for v in k.vertices}
    emid = {e: new_id[(1, e)] for e in k.edges}
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
