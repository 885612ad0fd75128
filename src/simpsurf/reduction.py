"""Reduction of a 2-complex while preserving chosen 2-cochain functionals.

The pipeline removes triangles lying in cycles the functionals cannot see
(kills), performs free-face collapses, and eliminates edges belonging to
no triangle, by contraction when the edge is a bridge and by deletion
otherwise.  Each deletion splits off a circle wedge summand, so after m
deletions the fundamental group of the input is the free product of the
output's fundamental group with a free group of rank m.

The one invariant everything here is built around: the functionals stay
surjective on the cycle space of 2-chains after every single step.

That question is answered one way throughout.  The 2-cycles are the
relations among the triangle boundaries, as bitmasks over the triangles,
from homology._boundary_relations, the entry point homology_summary
uses too.  While every edge lies in at most two triangles, as it does in
every surface and wedge of surfaces, and as kills and collapses keep it,
they are the trees of the dual graph's Kruskal forest that do not reach
infinity; a complex with an edge in three triangles or more has its
boundaries eliminated (gf2._relations).  Either route gives the same
basis.  The functionals are bitmasks too, so their values on a cycle are
parities of ANDs, and the relations among the values come from
gf2._relations.  The default spec is read off the same cycle basis: one
triangle per pivot of its echelon form, the dual basis homology_summary
reports as cocycle_reps[2].

The kills take one elimination in all: the invisible cycles, the sums
named by the relations among the functionals' values on the cycle basis,
are put in echelon form over the triangles once, and the kills are its
pivots in the order added (_kill_all).

The pipeline runs on one private working state, from the input's own
incidence minus the killed triangles to the result, and builds exactly
one Complex2: the result.  Each step is witnessed when it is made: a kill
removes a triangle sigma of a 2-cycle z with zero boundary that avoids
the earlier kills and on which every functional vanishes, which keeps the
functionals' rank (the cycles there are those avoiding sigma plus z, and
f(z) = 0); a collapse has a face of degree one; a deletion has a path
joining the endpoints without the edge; a contraction has a component of
the graph without the edge that holds one endpoint and not the other,
and its endpoints share no neighbour.  One search from both endpoints
finds either witness, at about twice the cost of the smaller side.  Full
rank audits run at the phase boundaries (the input, after the kills, the
result); kills keep every edge, so the one after the kills runs over the
input's kept triangles and never builds that complex, and it checks that
no invisible cycle is left: the cycles number the functionals' rank.
The audits pin every per-step Betti snapshot, because each move shifts
the numbers one way only: removing a triangle changes (b1, b2) by
(0, -1) or (+1, 0), deleting an edge changes (b0, b1) by (0, -1) or
(+1, 0), collapses and contractions change nothing, and surjectivity,
once lost, cannot come back while the cycle space only shrinks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations
from typing import Iterable, Mapping, Optional, Sequence

from .complex2 import Complex2, Edge, Label, Triangle, _label_order, canon_triangle
from .gf2 import _bits_up, _low_bit, _relations, _span
from .homology import CochainVector, _betti, _betti_of_counts, _boundary_relations

__all__ = [
    "PreservationSpec",
    "kill_step",
    "collapse_all",
    "eliminate_maximal_edges",
    "ReductionTrace",
    "simplify_pipeline",
]


@dataclass(frozen=True)
class PreservationSpec:
    """A family of functionals on 2-chains, each given by its triangle support.

    Supports may mention triangles that are no longer present; evaluation
    silently restricts to the complex at hand.  The family is meaningful
    for reduction when its restriction to the cycle space is surjective.
    """

    supports: tuple[frozenset, ...]

    @classmethod
    def from_triangle_lists(cls, lists: Iterable[Iterable]) -> "PreservationSpec":
        """The spec whose supports are the given lists of vertex triples.

        A string, which would read as its characters, or a triple of
        another length raises ValueError, a vertex that is not an int or
        str label_key's TypeError, and a repeated vertex ValueError, in
        that order."""
        sups = []
        for sup in lists:
            triangles = []
            for t in sup:
                if isinstance(t, str):
                    raise ValueError(f"{t!r} in a support is a string, not a vertex triple")
                t = tuple(t)
                if len(t) != 3:
                    raise ValueError(f"{t!r} in a support has {len(t)} vertices, not 3")
                triangle = canon_triangle(*t)
                if len(set(triangle)) != 3:
                    raise ValueError(f"degenerate triangle {t!r} in a support")
                triangles.append(triangle)
            sups.append(frozenset(triangles))
        return cls(tuple(sups))

    @classmethod
    def from_cochain_vectors(cls, k: Complex2,
                             vectors: Iterable[CochainVector]) -> "PreservationSpec":
        sups = []
        for v in vectors:
            if v.dimension != 2:
                raise ValueError("functionals must be 2-cochains")
            if v.coeffs.length != k.n_triangles:
                raise ValueError("cochain does not match this complex")
            sups.append(frozenset(k.triangles[i] for i in v.coeffs.support()))
        return cls(tuple(sups))

    @classmethod
    def dual_basis(cls, k: Complex2, rank: Optional[int] = None) -> "PreservationSpec":
        """The first `rank` members of a dual basis for the 2-cocycle classes.

        Member i is the indicator of one triangle: the i-th pivot of the
        reduced row echelon form of the 2-cycle basis, the same triangles
        as homology_summary(k).cocycle_reps[2].  With the full rank (the
        default) nothing is killable: the spec pins every 2-cycle class.
        """
        return _dual_spec(k, _cycle_basis(k)[0], rank)

    @property
    def rank(self) -> int:
        return len(self.supports)

    def _masks(self, index: Mapping[Triangle, int]) -> list[int]:
        """Each support as a bitmask over the positions in `index`, a
        triangle-to-position map such as a complex's _triangle_index."""
        return [sum(1 << index[t] for t in sup if t in index) for sup in self.supports]

    def is_surjective_on_cycles(self, k: Complex2) -> bool:
        return _spec_rank(self, k._triangle_index, _cycle_basis(k)[0]) == self.rank


def kill_step(k: Complex2, spec: PreservationSpec) -> tuple[Complex2, Triangle]:
    """Remove one triangle from a cycle invisible to every functional.

    The cycle is the first relation among the functionals' values on the
    2-cycle basis; the canonically smallest triangle in its support is
    removed.  Adding the invisible cycle to any preimage shows
    surjectivity survives, and only b2 changes (down by one).

    Raises ValueError when the functionals are not surjective or already
    see the whole cycle space (no excess to kill).
    """
    cycles, _ = _cycle_basis(k)
    masks = spec._masks(k._triangle_index)
    span, relations = _relations([_values(masks, z) for z in cycles], spec.rank)
    if span.dim != spec.rank:
        raise ValueError("functionals are not surjective on the cycle space")
    if not relations:
        raise ValueError("no excess cycles: every 2-cycle is seen by the functionals")
    sigma = k.triangles[_low_bit(_sum(cycles, relations[0]))]
    return Complex2(k.vertices, k.edges, [t for t in k.triangles if t != sigma]), sigma


# ------------------------------------------------------------ bit vectors

def _sum(vectors: Sequence[int], mask: int) -> int:
    """The sum of vectors[j] over the set bits j of mask."""
    total = 0
    for j in _bits_up(mask):
        total ^= vectors[j]
    return total


def _boundary(k: Complex2, z: int) -> set[int]:
    """The boundary of the 2-chain z: the edges, by position, that lie in
    an odd number of its triangles."""
    edges, odd = k._triangle_edges, set()
    for t in _bits_up(z):
        odd.symmetric_difference_update(edges[t])
    return odd


def _values(masks: Sequence[int], z: int) -> int:
    """Bit i is functional i evaluated on the 2-chain z."""
    return sum(1 << i for i, m in enumerate(masks) if (z & m).bit_count() & 1)


def _cycle_basis(k: Complex2) -> tuple[list[int], tuple[int, int, int]]:
    """The 2-cycles as the relations among the triangle boundaries (the
    vectors kernel_basis gives for d2), and the Betti numbers.

    This is the one boundary elimination of an audit, by whichever route
    homology._boundary_relations takes; b2 is the basis size, and the
    number of components is counted off its free columns.
    """
    boundaries = _boundary_relations(k._triangle_edges, k.n_edges)
    return boundaries.cycles, _betti(k, boundaries.free)


def _spec_rank(spec: PreservationSpec, index: Mapping[Triangle, int],
               cycles: Sequence[int]) -> int:
    """The functionals' rank on the cycles, given over the positions in index."""
    masks = spec._masks(index)
    return _relations([_values(masks, z) for z in cycles], spec.rank)[0].dim


def _dual_spec(k: Complex2, cycles: Sequence[int],
               rank: Optional[int]) -> PreservationSpec:
    """dual_basis(k, rank), given the 2-cycle basis of k."""
    if rank is None:
        rank = len(cycles)
    if not 0 <= rank <= len(cycles):
        raise ValueError(f"rank {rank} outside 0..{len(cycles)}")
    # the pivots of any echelon form of the cycles are those of their RREF
    pivots = _span(cycles, k.n_triangles)._pivots()[:rank]
    return PreservationSpec(tuple(frozenset({k.triangles[p]}) for p in pivots))


# ------------------------------------------------------------ kills

def _kill_all(k: Complex2, spec: PreservationSpec, cycles: Sequence[int]) -> list[int]:
    """Kill invisible cycles until none is left; the killed triangle positions.

    `cycles` is the basis _cycle_basis gives for the 2-cycles of k, with
    distinct highest bits in increasing order.  The relations among the
    functionals' values on it sum to a basis of the invisible cycles whose
    highest bits increase too: relation j's sum has cycle j's highest bit.
    Added in that order to one span over the triangles, each sum is reduced
    modulo the earlier ones and stored at its lowest bit, so the kills are
    the span's pivots in the order added.  Each is the kill kill_step makes
    at that point, where the cycles are those of k avoiding the earlier
    kills: the rows stored from then on are invisible cycles there with
    increasing highest bits, as many as the invisible cycles' dimension,
    so the first has the least highest bit of any, and is the only one
    that has it (two would sum to one with a lower), the cycle whose
    lowest triangle kill_step removes.  Positions stay those of
    k.triangles; `cycles` is not changed.

    Each kill is witnessed: its row z is nonzero, no edge of k lies in an
    odd number of its triangles (_boundary), it avoids every earlier kill,
    and every functional vanishes on it.  That keeps the functionals' rank:
    z is 1 at the killed triangle sigma, so the cycles Z there split as
    Z' + <z>, Z' those avoiding sigma, and f(z) = 0 gives f(Z') = f(Z).

    Raises ValueError when the functionals are not surjective on the
    cycles of k, read off the same values: their span falls short of
    spec.rank.
    """
    masks = spec._masks(k._triangle_index)
    values, relations = _relations([_values(masks, z) for z in cycles], spec.rank)
    if values.dim != spec.rank:
        raise ValueError("functionals are not surjective on the cycle space")
    invisible = _span((_sum(cycles, r) for r in relations), k.n_triangles)
    killed, gone = [], 0
    for sigma, z in invisible._added():
        assert z and not _boundary(k, z) and not z & gone
        assert _values(masks, z) == 0
        killed.append(sigma)
        gone |= 1 << sigma
    return killed


# ------------------------------------------------------------ collapses and edges

class _WorkingComplex:
    """The complex under collapse and edge elimination, edited in place.

    It starts from a Complex2 less the triangles at the positions in skip.
    The state is ordered: the triangles are an insertion-ordered dict,
    the kept triangles in the input's order with each triangle a
    contraction renames appended, and the triangles at each edge and the
    edges at each vertex are dicts keyed in the input's order (renamed
    edges appended), each value a set built from the kept triangles and
    the input's edges.  So complex() hands the build runs that are
    already sorted, but for what the contractions appended.
    Three lazy min-heaps hold the candidate free edges, free vertices and
    maximal edges, ordered by the input's vertex positions, which is the
    canonical order; a contraction keeps a vertex of the input, so every
    position stays defined.  The heaps start as the candidates listed in
    canonical order, which is already a heap.  An entry is pushed whenever a
    simplex may have become a candidate and is checked against the incidence
    when popped, so every move is the canonically first one available, as a
    scan of the rebuilt complex would find it.  The state is geometry only,
    plus names: the input name of each present triangle a contraction has
    renamed, through which the functionals are read on the result
    afterwards.  complex() builds the Complex2 of the state.
    """

    def __init__(self, k: Complex2, skip: Iterable[int] = ()) -> None:
        self.rank = k._vertex_index
        gone = set(skip)
        kept = [t for j, t in enumerate(k.triangles) if j not in gone]
        self.triangles = dict.fromkeys(kept)
        self.tris_at_edge = tris_at_edge = {e: set() for e in k.edges}
        for t in kept:
            a, b, c = t
            tris_at_edge[a, b].add(t)
            tris_at_edge[a, c].add(t)
            tris_at_edge[b, c].add(t)
        self.edges_at_vertex = edges_at_vertex = {v: set() for v in k.vertices}
        for e in k.edges:
            edges_at_vertex[e[0]].add(e)
            edges_at_vertex[e[1]].add(e)
        rank = self.rank
        self.free_edges = [(rank[e[0]], rank[e[1]], e)
                           for e, ts in self.tris_at_edge.items() if len(ts) == 1]
        self.maximal_edges = [(rank[e[0]], rank[e[1]], e)
                              for e, ts in self.tris_at_edge.items() if not ts]
        self.free_vertices = [(rank[v], v)
                              for v, es in self.edges_at_vertex.items() if len(es) == 1]
        self.names: dict[Triangle, Triangle] = {}
        self.collapses: list = []
        self.contractions: list[Edge] = []
        self.deleted: list[Edge] = []

    def _edge_changed(self, e: Edge) -> None:
        degree = len(self.tris_at_edge[e])
        if degree < 2:
            heappush(self.free_edges if degree else self.maximal_edges,
                     (self.rank[e[0]], self.rank[e[1]], e))

    def _vertex_changed(self, v: Label) -> None:
        if len(self.edges_at_vertex[v]) == 1:
            heappush(self.free_vertices, (self.rank[v], v))

    @staticmethod
    def _first(heap: list, incidence: dict, degree: int):
        """Pop the first candidate that has the given degree now, or None."""
        while heap:
            s = heappop(heap)[-1]
            if s in incidence and len(incidence[s]) == degree:
                return s
        return None

    def _remove_triangle(self, t: Triangle) -> None:
        del self.triangles[t]
        self.names.pop(t, None)
        for f in combinations(t, 2):
            self.tris_at_edge[f].remove(t)
            self._edge_changed(f)

    def _remove_edge(self, e: Edge) -> None:
        assert not self.tris_at_edge.pop(e)
        for v in e:
            self.edges_at_vertex[v].remove(e)
            self._vertex_changed(v)

    def collapse(self) -> bool:
        """Free-face collapses to a fixpoint, edges first; whether any was made."""
        made = len(self.collapses)
        while True:
            e = self._first(self.free_edges, self.tris_at_edge, 1)
            if e is not None:
                (t,) = self.tris_at_edge[e]
                self._remove_triangle(t)
                self._remove_edge(e)
                self.collapses.append((e, t))
                continue
            v = self._first(self.free_vertices, self.edges_at_vertex, 1)
            if v is None:
                return len(self.collapses) > made
            (e,) = self.edges_at_vertex[v]
            self._remove_edge(e)
            del self.edges_at_vertex[v]
            self.collapses.append((v, e))

    def _path_avoiding(self, e: Edge) -> Optional[list[Label]]:
        """A path from e[1] to e[0] that does not use e, or None.

        Two breadth-first searches, one from each end, expand one vertex
        each in turn.  When one reaches a vertex the other has seen, the
        two tree paths through it join the ends: the path witnesses a
        deletion.  When either runs out of vertices first, its side is a
        whole component of the graph without e, which the other end is
        not in: that witnesses a contraction.  Either way the search stops
        at about twice the smaller side, so a bridge to a small part of a
        large component costs the small part.
        """
        edges_at_vertex = self.edges_at_vertex
        parents: tuple[dict, dict] = ({e[0]: None}, {e[1]: None})
        queues = (deque([e[0]]), deque([e[1]]))
        side = 0
        while True:
            seen, other, queue = parents[side], parents[1 - side], queues[side]
            u = queue.popleft()
            for f in edges_at_vertex[u]:
                w = f[1] if f[0] == u else f[0]
                if f == e or w in seen:
                    continue
                seen[w] = u
                if w in other:
                    to_start, to_end = parents
                    path = [w]
                    while to_end[path[-1]] is not None:
                        path.append(to_end[path[-1]])
                    path.reverse()
                    v = to_start[w]
                    while v is not None:
                        path.append(v)
                        v = to_start[v]
                    return path
                queue.append(w)
            if not queue:
                return None
            side = 1 - side

    def _contract(self, e: Edge) -> None:
        """Identify the endpoints of a bridge, renaming the star of the later;
        renamed simplices are sorted by vertex position."""
        keep, gone = e
        rank = self.rank.__getitem__
        self._remove_edge(e)
        star = self.edges_at_vertex.pop(gone)
        tris_at_edge = self.tris_at_edge
        # a common neighbour would be a path, and would make two edges one;
        # looking each neighbour's edge to keep up costs the degree of gone
        assert not any((keep, w) in tris_at_edge or (w, keep) in tris_at_edge
                       for f in star for w in f if w != gone)
        renamed = {t: tuple(sorted((keep if v == gone else v for v in t), key=rank))
                   for f in star for t in self.tris_at_edge[f]}
        for t, u in renamed.items():
            del self.triangles[t]
            self.triangles[u] = None
            self.names[u] = self.names.pop(t, t)
            opposite = self.tris_at_edge[tuple(v for v in t if v != gone)]
            opposite.remove(t)
            opposite.add(u)
        for f in star:
            w = f[1] if f[0] == gone else f[0]
            g = (keep, w) if rank(keep) < rank(w) else (w, keep)
            self.tris_at_edge[g] = {renamed[t] for t in self.tris_at_edge.pop(f)}
            self.edges_at_vertex[w].remove(f)
            self.edges_at_vertex[w].add(g)
            self.edges_at_vertex[keep].add(g)
            self._edge_changed(g)
        self._vertex_changed(keep)

    def eliminate(self, snapshots: list) -> None:
        """Remove every maximal edge, then collapse, to a joint fixpoint.

        The canonically first maximal edge goes each time: deleted when a
        path joins its endpoints without it (b1 drops by one), contracted
        otherwise (a homotopy equivalence).  _path_avoiding witnesses
        both: the path it returns for a deletion, and for a contraction a
        side it searched to the end without meeting the other endpoint.
        Each move, and each run of collapses, appends a snapshot whose
        Betti numbers follow from it.
        """
        while True:
            b0, b1, b2 = snapshots[-1][1]
            e = self._first(self.maximal_edges, self.tris_at_edge, 0)
            if e is not None:
                path = self._path_avoiding(e)
                if path is not None:
                    assert path[0] == e[1] and path[-1] == e[0] and len(path) > 2
                    self._remove_edge(e)
                    self.deleted.append(e)
                    snapshots.append(("delete", (b0, b1 - 1, b2)))
                else:
                    self._contract(e)
                    self.contractions.append(e)
                    snapshots.append(("contract", (b0, b1, b2)))
            elif self.collapse():
                snapshots.append(("collapse", (b0, b1, b2)))
            else:
                return

    def complex(self) -> Complex2:
        """The state as a Complex2.  Its simplices are canonical tuples
        already, so only the closure is checked, by membership in the
        state's own dicts, and the sort key is read off the vertex labels
        alone.  The dicts go to the build as they are, in the input's
        order, so each sort runs over presorted runs."""
        vertices, edges, triangles = self.edges_at_vertex, self.tris_at_edge, self.triangles
        if triangles:
            a, b, c = zip(*triangles)
            assert all(map(edges.__contains__, chain(zip(a, b), zip(a, c), zip(b, c))))
        assert all(map(vertices.__contains__, chain.from_iterable(edges)))
        k = Complex2.__new__(Complex2)
        k._setup(vertices, edges, triangles, _label_order(vertices, (), ()))
        return k


def collapse_all(k: Complex2) -> tuple[Complex2, tuple]:
    """Free-face collapses to a fixpoint; returns the (face, coface) pairs.

    An edge in exactly one triangle collapses with that triangle; a vertex
    in exactly one edge collapses with that edge; edge collapses are
    preferred and scanning is in canonical order.  Cycles of 2-chains are
    untouched: a cycle must vanish on the triangle of any free edge.
    """
    state = _WorkingComplex(k)
    if not state.collapse():
        return k, ()
    return state.complex(), tuple(state.collapses)


@dataclass
class ReductionTrace:
    """Everything a reduction did, with the books that justify it.

    Snapshots hold ("input" | "kill" | "collapse" | "contract" | "delete",
    (b0, b1, b2)) after each step; across the kill entries b0 and b1 stay
    fixed while b2 steps down by one each time.  `spec` holds the
    functionals on the result: each support is the result triangles whose
    input triangle it named, under their result names, so a triangle gone
    before the end (killed, collapsed, or never present) is left out.  It
    is None only from eliminate_maximal_edges called without functionals.
    """

    input_complex: Complex2
    result: Complex2
    spec: Optional[PreservationSpec]  # final functionals: their result triangles
    killed_triangles: tuple[Triangle, ...]
    collapses: tuple
    contractions: tuple
    deleted_edges: tuple
    snapshots: tuple
    input_disconnected: bool

    @property
    def free_rank(self) -> int:
        """Rank m of the split-off free factor: one circle per deleted edge."""
        return len(self.deleted_edges)


def _finish(state: _WorkingComplex, k: Complex2, killed: Sequence[Triangle],
            snapshots: list, spec: Optional[PreservationSpec],
            rank: Optional[int]) -> ReductionTrace:
    """Build the result and audit it against the input's books.

    `spec` is read on the result through the input name of each result
    triangle, and `rank` is its rank on the input's cycle space, which
    every step must keep.
    """
    result = state.complex()
    cycles, betti = _cycle_basis(result)
    b0, b1, b2 = snapshots[0][1]
    m = len(state.deleted)
    assert betti == (b0, b1 - m, b2 - len(killed)) == snapshots[-1][1]
    assert result.euler_characteristic() == k.euler_characteristic() - len(killed) + m
    degrees = result._edge_degrees
    assert 0 not in degrees and 1 not in degrees  # no maximal edge, no free edge
    if spec is not None:
        named = {state.names.get(t, t): t for t in result.triangles}
        spec = PreservationSpec(tuple(frozenset(named[t] for t in sup if t in named)
                                      for sup in spec.supports))
        assert _spec_rank(spec, result._triangle_index, cycles) == rank
    return ReductionTrace(
        input_complex=k,
        result=result,
        spec=spec,
        killed_triangles=tuple(killed),
        collapses=tuple(state.collapses),
        contractions=tuple(state.contractions),
        deleted_edges=tuple(state.deleted),
        snapshots=tuple(snapshots),
        input_disconnected=b0 > 0,
    )


def eliminate_maximal_edges(k: Complex2,
                            spec: Optional[PreservationSpec] = None) -> ReductionTrace:
    """Remove every triangle-free edge, then collapse, to a joint fixpoint.

    A maximal edge whose endpoints fall into different components without
    it is contracted (a homotopy equivalence); otherwise it closes a cycle
    and is deleted, splitting off a circle wedge summand.  Functionals in
    `spec`, when given, are read on the result (ReductionTrace.spec).  The books
    are audited: b1 drops by exactly the number of deletions, b0 and b2
    do not move, the functionals keep their rank on the cycles, and the
    output has no free faces and no maximal edges.  The trace has no kills.
    """
    cycles, betti = _cycle_basis(k)
    rank = None if spec is None else _spec_rank(spec, k._triangle_index, cycles)
    state = _WorkingComplex(k)
    snapshots: list = [("input", betti)]
    state.eliminate(snapshots)
    return _finish(state, k, (), snapshots, spec, rank)


def simplify_pipeline(k: Complex2, spec: Optional[PreservationSpec] = None,
                      target_rank: Optional[int] = None) -> ReductionTrace:
    """Kills first, then collapses and maximal-edge elimination to a fixpoint.

    Without an explicit spec a dual basis of the requested rank is used
    (full rank when target_rank is None, which disables kills).  Raises
    ValueError when the spec is not surjective on cycles to begin with.

    The result evaluates the functionals identically on its cycle space,
    satisfies chi(result) = chi(input) - |killed| + free_rank, and has
    pi1(input) = pi1(result) * F(free_rank) componentwise; the trace flags
    disconnected inputs since the free-product reading is per component.
    """
    if spec is not None and target_rank is not None and spec.rank != target_rank:
        raise ValueError("target_rank disagrees with the explicit spec")
    cycles, betti = _cycle_basis(k)
    if spec is None:
        spec = _dual_spec(k, cycles, target_rank)
    killed = _kill_all(k, spec, cycles)
    b0, b1, b2 = betti
    snapshots: list = [("input", betti)]
    snapshots += [("kill", (b0, b1, b2 - i)) for i in range(1, len(killed) + 1)]
    if killed:
        # Kills keep every vertex and edge, so the complex after them has
        # the input's components and edge positions, and its boundaries
        # are the input's kept ones: their relations are _cycle_basis of
        # that complex, over the kept positions.
        gone = set(killed)
        kept = [j for j in range(k.n_triangles) if j not in gone]
        triangle_edges = k._triangle_edges
        fresh = _boundary_relations([triangle_edges[j] for j in kept],
                                    k.n_edges).cycles
        assert len(fresh) == spec.rank  # nothing invisible is left
        betti = _betti_of_counts(k.n_vertices, k.n_edges, len(kept), b0 + 1,
                                 len(kept) - len(fresh))
        assert betti == snapshots[-1][1]
        assert _spec_rank(spec, {k.triangles[j]: i for i, j in enumerate(kept)},
                          fresh) == spec.rank

    state = _WorkingComplex(k, killed)
    if state.collapse():
        snapshots.append(("collapse", betti))
    state.eliminate(snapshots)
    return _finish(state, k, [k.triangles[j] for j in killed], snapshots, spec,
                   spec.rank)
