"""Closed-surface recognition, classification, and model triangulations.

Recognition is purely combinatorial: a complex is a closed surface iff it
is connected, every edge lies in exactly two triangles, and every vertex
link is a single cycle.  The first two are read off the 1-skeleton and
are the callers' to guarantee: classify checks them on its Complex2, and
every closed state of the desk search has them by construction.  The
link walk (_link_is_cycle) runs on integer triangles, one vertex at a
time: classify numbers a Complex2's vertices in canonical order and
walks every vertex on the apex sums of all the triangles.  With every
edge in two triangles, the sum of an edge's two apexes gives one from
the other, and that is all the link walks and the orientation need.
The desk search walks each star on a table of its own
(search._star_link_is_cycle); a test ties the two walks together.
Orientability comes from propagating triangle signs across shared edges
(the desk search's enumerator carries its own), and the Euler
characteristic gives the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _link_is_cycle(v: int, first: tuple[int, int, int], deg: int,
                   apexes: dict[int, int], n: int) -> bool:
    """Whether the link of v is a single cycle, given first, a triangle at
    v, deg, the number of triangles at v, and the apex sums of
    _link_apexes on labels below n.

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


def _link_apexes(tris: Sequence[tuple[int, int, int]],
                 n_vertices: int) -> Optional[dict[int, int]]:
    """The apex sums of the complex whose triangles are tris, each an
    increasing triple, and whose vertices are exactly 0..n_vertices-1,
    when every vertex link is a single cycle; None otherwise.

    The caller guarantees that the complex is connected and that every
    edge lies in exactly two triangles.  One pass maps the key a*n + b of
    each edge ab to the sum of the third vertices of its triangles, and
    counts and keeps one triangle at each vertex; _link_is_cycle then
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
        if not deg[v] or not _link_is_cycle(v, tris[start[v]], deg[v],
                                            apexes, n):
            return None
    return apexes


def _classify_triangles(tris: Sequence[tuple[int, int, int]],
                        n_vertices: int) -> tuple:
    """(failure_reason, surface, signs) for the complex whose triangles
    are tris, each an increasing triple, and whose vertices are exactly
    0..n_vertices-1; signs is the coherent orientation, one sign per
    triangle, for an orientable surface and None otherwise.

    The caller guarantees that the complex is connected and that every
    edge lies in exactly two triangles: classify checks both on the
    1-skeleton before it calls here.  What is left is the link check,
    which _link_apexes makes, and the orientation, which reads the apex
    sums that check leaves.

    Signs propagate over triangle codes (a*n + b)*n + c from sign 1 on
    the first triangle: a triangle (a, b, c) with sign s runs its edges ab
    and bc forwards and ac backwards when s = 1, and two triangles on an
    edge agree when they run it opposite ways.  The Euler characteristic
    comes from the counts.  The desk search does not come here: its
    enumerator carries the same orientation test through its own depth-
    first search, and classify confirms the witness it finds.
    """
    n = n_vertices
    apexes = _link_apexes(tris, n)
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


def classify(k: Complex2) -> ClassificationResult:
    """Recognize and classify a closed surface.

    Failures are reported in check order: connectivity, then edge degrees,
    then vertex links.  The first two are read off the 1-skeleton, so that
    loose edges and isolated vertices count; the triangles then go, with
    vertices numbered in canonical order, to the recognizer, which takes
    those two as given.
    For orientable surfaces the witness maps each triangle to +1 or -1
    giving a coherent orientation.
    """
    if len(k.connected_components()) != 1:
        return ClassificationResult(False, "disconnected", None, None)
    if any(len(ts) != 2 for ts in k._tris_at_edge.values()):
        return ClassificationResult(False, "bad_edge_degree", None, None)
    index = k._vertex_index
    reason, surface, signs = _classify_triangles(
        [(index[a], index[b], index[c]) for a, b, c in k.triangles], k.n_vertices)
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
        edge_degrees_ok=bool(k.edges) and all(len(ts) == 2 for ts in k._tris_at_edge.values()),
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
