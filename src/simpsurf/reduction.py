"""Reduction of a 2-complex while preserving chosen 2-cochain functionals.

The pipeline removes triangles lying in cycles the functionals cannot see
(kills), performs free-face collapses, and eliminates edges belonging to
no triangle, by contraction when the edge is a bridge and by deletion
otherwise.  Each deletion splits off a circle wedge summand, so after m
deletions the fundamental group of the input is the free product of the
output's fundamental group with a free group of rank m.

The one invariant everything here is built around: the functionals stay
surjective on the cycle space of 2-chains after every single step.

The pipeline edits one private working state and builds a Complex2 only
at phase boundaries.  Each step is witnessed when it is made: a kill
removes a triangle of a 2-cycle with zero boundary on which every
functional vanishes, and the functionals' rank is re-checked on the kept
cycle basis; a collapse has a face of degree one; a deletion has a path
joining the endpoints without the edge; a contraction has none, and its
endpoints share no neighbour.  Full rank audits run at the phase
boundaries (the input, after the kills, the result).  They pin every
per-step Betti snapshot, because each move shifts the numbers one way
only: removing a triangle changes (b1, b2) by (0, -1) or (+1, 0),
deleting an edge changes (b0, b1) by (0, -1) or (+1, 0), collapses and
contractions change nothing, and surjectivity, once lost, cannot come
back while the cycle space only shrinks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .complex2 import Complex2, Edge, Label, Triangle, canon_edge, canon_triangle, label_key
from .gf2 import Gf2Matrix, Gf2Vector
from .homology import CochainVector, _betti, boundary_matrix, homology_summary

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
        sups = []
        for sup in lists:
            for t in sup:
                if len(set(t)) != 3:
                    raise ValueError(f"degenerate triangle {tuple(t)!r} in a support")
            sups.append(frozenset(canon_triangle(*t) for t in sup))
        return cls(tuple(sups))

    @classmethod
    def from_cochain_vectors(cls, k: Complex2,
                             vectors: Iterable[CochainVector]) -> "PreservationSpec":
        sups = []
        for v in vectors:
            if v.dimension != 2:
                raise ValueError("functionals must be 2-cochains")
            sups.append(frozenset(k.triangles[i] for i in v.coeffs.support()))
        return cls(tuple(sups))

    @classmethod
    def dual_basis(cls, k: Complex2, rank: Optional[int] = None) -> "PreservationSpec":
        """The first `rank` members of a dual basis for the 2-cocycle classes.

        With the full rank (the default) nothing is killable: the spec pins
        every 2-cycle class of the complex.
        """
        summary = homology_summary(k)
        if rank is None:
            rank = summary.b2
        if not 0 <= rank <= summary.b2:
            raise ValueError(f"rank {rank} outside 0..{summary.b2}")
        return cls.from_cochain_vectors(k, summary.cocycle_reps[2][:rank])

    @property
    def rank(self) -> int:
        return len(self.supports)

    def _masks(self, triangles: Sequence[Triangle]) -> list[int]:
        """Each support as a bitmask over the positions of `triangles`."""
        index = {t: j for j, t in enumerate(triangles)}
        return [sum(1 << index[t] for t in sup if t in index) for sup in self.supports]

    def evaluation_matrix(self, k: Complex2) -> Gf2Matrix:
        """Row i evaluates functional i on the triangle basis of C2(k)."""
        return Gf2Matrix(self.rank, k.n_triangles, self._masks(k.triangles))

    def _cycle_values(self, k: Complex2) -> tuple[Gf2Matrix, list[Gf2Vector]]:
        """Evaluations on a basis of the cycle space, column per basis cycle."""
        cycles = boundary_matrix(k, 2).kernel_basis()
        ev = self.evaluation_matrix(k)
        cols = Gf2Matrix.from_rows([ev.apply(z) for z in cycles],
                                   n_cols=self.rank).transpose()
        return cols, cycles

    def is_surjective_on_cycles(self, k: Complex2) -> bool:
        values, _ = self._cycle_values(k)
        return values.rank() == self.rank

    def mapped(self, relabel: dict) -> "PreservationSpec":
        return PreservationSpec(tuple(
            frozenset(canon_triangle(*(relabel.get(v, v) for v in t)) for t in sup)
            for sup in self.supports))


def _invisible_cycle(k: Complex2, spec: PreservationSpec) -> Optional[Gf2Vector]:
    """A nonzero 2-cycle on which every functional vanishes, or None."""
    values, cycles = spec._cycle_values(k)
    kernel = values.kernel_basis()
    if not kernel:
        return None
    invisible = Gf2Vector(k.n_triangles)
    for j in kernel[0].support():
        invisible ^= cycles[j]
    return invisible


def kill_step(k: Complex2, spec: PreservationSpec) -> tuple[Complex2, Triangle]:
    """Remove one triangle from a cycle invisible to every functional.

    The cycle is the first kernel vector of the evaluation on the cycle
    space; the canonically smallest triangle in its support is removed.
    Adding the invisible cycle to any preimage shows surjectivity
    survives, and only b2 changes (down by one).

    Raises ValueError when the functionals are not surjective or already
    see the whole cycle space (no excess to kill).
    """
    if not spec.is_surjective_on_cycles(k):
        raise ValueError("functionals are not surjective on the cycle space")
    invisible = _invisible_cycle(k, spec)
    if invisible is None:
        raise ValueError("no excess cycles: every 2-cycle is seen by the functionals")
    sigma = k.triangles[min(invisible.support())]
    return k.remove_open_triangle(sigma), sigma


# ------------------------------------------------------------ bit vectors

def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _sum(vectors: Sequence[int], mask: int) -> int:
    """The sum of vectors[j] over the set bits j of mask."""
    total = 0
    for j in _bits(mask):
        total ^= vectors[j]
    return total


def _values(masks: Sequence[int], z: int) -> int:
    """Bit i is functional i evaluated on the 2-chain z."""
    return sum(1 << i for i, m in enumerate(masks) if (z & m).bit_count() & 1)


def _rank_and_relation(values: Sequence[int]) -> tuple[int, Optional[int]]:
    """The rank of the values, and the first linear relation among them.

    The relation is a bitmask of positions: the first position j whose
    value lies in the span of the earlier ones, plus the earlier positions
    summing to it.  For values ev(z_j) this is the first vector of
    Gf2Matrix.kernel_basis on the matrix with those columns.
    """
    rows: list[tuple[int, int]] = []
    relation = None
    for j, v in enumerate(values):
        combination = 1 << j
        for row, used in rows:
            if v & row & -row:
                v ^= row
                combination ^= used
        if v:
            rows.append((v, combination))
        elif relation is None:
            relation = combination
    return len(rows), relation


def _cycle_basis(k: Complex2) -> tuple[list[int], tuple[int, int, int]]:
    """The reduced 2-cycle basis of kernel_basis, and the Betti numbers.

    This is the one elimination of a boundary audit; b2 is the basis size.
    """
    cycles = [z.bits for z in boundary_matrix(k, 2).kernel_basis()]
    return cycles, _betti(k, k.n_triangles - len(cycles))


def _spec_rank(spec: PreservationSpec, k: Complex2, cycles: Sequence[int]) -> int:
    masks = spec._masks(k.triangles)
    return _rank_and_relation([_values(masks, z) for z in cycles])[0]


# ------------------------------------------------------------ kills

def _kill_all(k: Complex2, spec: PreservationSpec, cycles: list[int]) -> list[int]:
    """Kill invisible cycles until none is left; the killed triangle positions.

    `cycles` is the basis kernel_basis gives for the 2-cycles of k: its
    vectors have distinct highest bits, in increasing order, and each is
    zero at the others' highest bits.  That normal form depends only on
    the cycle space, so after a kill the list is replaced in place by the
    normal form of the cycles avoiding the killed triangle, using the
    vectors that contain it, and every kill is the one kill_step makes on
    the complex at that point.  Positions stay those of k.triangles.
    """
    masks = spec._masks(k.triangles)
    edge_index = {e: i for i, e in enumerate(k.edges)}
    boundaries = [sum(1 << edge_index[e] for e in combinations(t, 2))
                  for t in k.triangles]
    values = [_values(masks, z) for z in cycles]
    killed: list[int] = []
    while True:
        _, relation = _rank_and_relation(values)
        if relation is None:
            return killed
        invisible = _sum(cycles, relation)
        assert invisible and _sum(boundaries, invisible) == 0
        assert _values(masks, invisible) == 0
        sigma = next(_bits(invisible))
        killed.append(sigma)
        hit = [j for j, z in enumerate(cycles) if z >> sigma & 1]
        lowest = hit[0]
        for j in hit[1:]:
            cycles[j] ^= cycles[lowest]
            values[j] ^= values[lowest]
        del cycles[lowest], values[lowest]
        assert _rank_and_relation(values)[0] == spec.rank


# ------------------------------------------------------------ collapses and edges

def _edge_key(e: Edge):
    return (label_key(e[0]), label_key(e[1]))


class _WorkingComplex:
    """The complex under collapse and edge elimination, edited in place.

    Incidence is kept both ways: the triangles at each edge and the edges
    at each vertex.  Three lazy min-heaps in canonical order hold the
    candidate free edges, free vertices and maximal edges.  An entry is
    pushed whenever a simplex may have become a candidate and is checked
    against the incidence when popped, so every move is the canonically
    first one available, as a scan of the rebuilt complex would find it.
    """

    def __init__(self, k: Complex2, spec: Optional[PreservationSpec]) -> None:
        self.spec = spec  # renamed through each contraction
        self.triangles = set(k.triangles)
        self.tris_at_edge = {e: set(k.triangles_at_edge(e)) for e in k.edges}
        self.edges_at_vertex = {v: set(k.edges_at_vertex(v)) for v in k.vertices}
        self.free_edges: list = []
        self.maximal_edges: list = []
        self.free_vertices: list = []
        for e in k.edges:
            self._edge_changed(e)
        for v in k.vertices:
            self._vertex_changed(v)
        self.collapses: list = []
        self.contractions: list[Edge] = []
        self.deleted: list[Edge] = []

    def _edge_changed(self, e: Edge) -> None:
        degree = len(self.tris_at_edge[e])
        if degree == 1:
            heappush(self.free_edges, (_edge_key(e), e))
        elif degree == 0:
            heappush(self.maximal_edges, (_edge_key(e), e))

    def _vertex_changed(self, v: Label) -> None:
        if len(self.edges_at_vertex[v]) == 1:
            heappush(self.free_vertices, (label_key(v), v))

    @staticmethod
    def _first(heap: list, incidence: dict, degree: int):
        """Pop the first candidate that has the given degree now, or None."""
        while heap:
            _, s = heappop(heap)
            if s in incidence and len(incidence[s]) == degree:
                return s
        return None

    def _remove_triangle(self, t: Triangle) -> None:
        self.triangles.remove(t)
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
        """A path from e[0] to e[1] that does not use e, by BFS, or None."""
        start, goal = e
        parent: dict = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for f in self.edges_at_vertex[u]:
                w = f[1] if f[0] == u else f[0]
                if f == e or w in parent:
                    continue
                parent[w] = u
                if w == goal:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path
                queue.append(w)
        return None

    def _contract(self, e: Edge) -> None:
        """Identify the endpoints of a bridge, renaming the star of the larger."""
        keep, gone = e
        self._remove_edge(e)
        star = self.edges_at_vertex.pop(gone)
        near = {w for f in self.edges_at_vertex[keep] for w in f}
        # a common neighbour would be a path, and would make two edges one
        assert not near & {w for f in star for w in f if w != gone}
        renamed = {t: canon_triangle(*(keep if v == gone else v for v in t))
                   for f in star for t in self.tris_at_edge[f]}
        for t, u in renamed.items():
            self.triangles.remove(t)
            self.triangles.add(u)
            opposite = self.tris_at_edge[tuple(v for v in t if v != gone)]
            opposite.remove(t)
            opposite.add(u)
        for f in star:
            w = f[1] if f[0] == gone else f[0]
            g = canon_edge(keep, w)
            self.tris_at_edge[g] = {renamed[t] for t in self.tris_at_edge.pop(f)}
            self.edges_at_vertex[w].remove(f)
            self.edges_at_vertex[w].add(g)
            self.edges_at_vertex[keep].add(g)
            self._edge_changed(g)
        self._vertex_changed(keep)
        if self.spec is not None:
            self.spec = self.spec.mapped({gone: keep})

    def eliminate(self, snapshots: list) -> None:
        """Remove every maximal edge, then collapse, to a joint fixpoint.

        The canonically first maximal edge goes each time: deleted when a
        path joins its endpoints without it (b1 drops by one), contracted
        otherwise (a homotopy equivalence).  Each move, and each run of
        collapses, appends a snapshot whose Betti numbers follow from it.
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
        return Complex2(self.edges_at_vertex, self.tris_at_edge, self.triangles)


def collapse_all(k: Complex2) -> tuple[Complex2, tuple]:
    """Free-face collapses to a fixpoint; returns the (face, coface) pairs.

    An edge in exactly one triangle collapses with that triangle; a vertex
    in exactly one edge collapses with that edge; edge collapses are
    preferred and scanning is in canonical order.  Cycles of 2-chains are
    untouched: a cycle must vanish on the triangle of any free edge.
    """
    state = _WorkingComplex(k, None)
    if not state.collapse():
        return k, ()
    return state.complex(), tuple(state.collapses)


@dataclass
class ReductionTrace:
    """Everything a reduction did, with the books that justify it.

    Snapshots hold ("input" | "kill" | "collapse" | "contract" | "delete",
    (b0, b1, b2)) after each step; across the kill entries b0 and b1 stay
    fixed while b2 steps down by one each time.  `spec` is None only from
    eliminate_maximal_edges called without functionals.
    """

    input_complex: Complex2
    result: Complex2
    spec: Optional[PreservationSpec]  # final functionals, renamed through contractions
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
            snapshots: list, rank: Optional[int]) -> ReductionTrace:
    """Build the result and audit it against the input's books.

    `rank` is the functionals' rank on the input's cycle space, which
    every step must keep.
    """
    result = state.complex()
    cycles, betti = _cycle_basis(result)
    b0, b1, b2 = snapshots[0][1]
    m = len(state.deleted)
    assert betti == (b0, b1 - m, b2 - len(killed)) == snapshots[-1][1]
    assert result.euler_characteristic() == k.euler_characteristic() - len(killed) + m
    assert not result.maximal_edges()
    assert all(len(result.triangles_at_edge(e)) != 1 for e in result.edges)
    assert state.spec is None or _spec_rank(state.spec, result, cycles) == rank
    return ReductionTrace(
        input_complex=k,
        result=result,
        spec=state.spec,
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
    `spec`, when given, are renamed through each contraction.  The books
    are audited: b1 drops by exactly the number of deletions, b0 and b2
    do not move, the functionals keep their rank on the cycles, and the
    output has no free faces and no maximal edges.  The trace has no kills.
    """
    cycles, betti = _cycle_basis(k)
    rank = None if spec is None else _spec_rank(spec, k, cycles)
    state = _WorkingComplex(k, spec)
    snapshots: list = [("input", betti)]
    state.eliminate(snapshots)
    return _finish(state, k, (), snapshots, rank)


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
    if spec is None:
        spec = PreservationSpec.dual_basis(k, target_rank)
    elif target_rank is not None and spec.rank != target_rank:
        raise ValueError("target_rank disagrees with the explicit spec")
    cycles, betti = _cycle_basis(k)
    if _spec_rank(spec, k, cycles) != spec.rank:
        raise ValueError("functionals are not surjective on the cycle space")

    killed = _kill_all(k, spec, cycles)
    b0, b1, b2 = betti
    snapshots: list = [("input", betti)]
    snapshots += [("kill", (b0, b1, b2 - i)) for i in range(1, len(killed) + 1)]
    after = k
    if killed:
        gone = set(killed)
        kept = [j for j in range(k.n_triangles) if j not in gone]
        after = Complex2(k.vertices, k.edges, [k.triangles[j] for j in kept])
        fresh, betti = _cycle_basis(after)
        position = {j: i for i, j in enumerate(kept)}
        assert fresh == [sum(1 << position[j] for j in _bits(z)) for z in cycles]
        assert betti == snapshots[-1][1]
        assert _spec_rank(spec, after, fresh) == spec.rank

    state = _WorkingComplex(after, spec)
    if state.collapse():
        snapshots.append(("collapse", betti))
    state.eliminate(snapshots)
    return _finish(state, k, [k.triangles[j] for j in killed], snapshots, spec.rank)
