"""F2 simplicial homology and cohomology of 2-complexes.

Betti numbers are reduced (a point has b0 = 0).  Chains and cochains are
coefficient vectors over the canonical simplex order of one complex
value, so they do not survive edits; anything longer-lived is recorded by
vertex tuples and rebuilt.

The cup product uses the front-face/back-face rule on the canonical
vertex order: for a triangle v0 < v1 < v2,

    (a cup b)(v0 v1 v2) = a(v0 v1) * b(v1 v2).

Only the induced pairing on cohomology classes is contractual; cochain
level values depend on this ordering convention.

cup_pairing_on_h1 never forms a cochain per pair.  One pass over the
triangles gives two bitmasks per edge e: front[e], the triangles whose
front edge v0 v1 is e, and back[e], those whose back edge v1 v2 is e.
The pullback F_a of a 1-cochain a is the OR of front[e] over its support
(G_a likewise from back), so a cup b is the single AND F_a & G_b.
cup_product stays as the cochain-level reference.  The form keeps one
packed int per H^1 class, the H^2 coordinates of its cups with every
basis class side by side, and its left radical (property (A) asks for it
to be zero) is the relations among those rows, one gf2._relations call.

homology_summary runs one elimination, gf2._relations over the triangle
boundaries: it gives the 2-cycles, the same the reduction audits use,
and the kernel vectors that are the 1-cocycles.  The H^1 classes are
picked by one union-find pass, the spanning forest grown from the
highest edge down, which also gives the components.  The 1-cycles are
built only when cycle_reps is first read, from the forest grown in edge
order.  The bases it returns are those read off the reduced row echelon
forms of d1, d2 transposed, d2 and the 2-cycles, which are unique, yet
only the b2 2-cycles are ever back-substituted.

Over F2, H^2 = Hom(H_2, F2), so the class of a 2-cochain w is fixed by its
values on a basis of 2-cycles.  The H^2 basis is chosen dual to the
summary's 2-cycle basis, which makes the H^2 coordinates of [w] simply
the values w(z_j); no basis of C^2 is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Collection, Iterable, Optional, Sequence

from .complex2 import Complex2
from .gf2 import Gf2Matrix, Gf2Span, Gf2Vector, _bits_up, _relations

__all__ = [
    "ChainVector",
    "CochainVector",
    "HomologySummary",
    "CupForm",
    "PropertyAResult",
    "boundary_matrix",
    "betti_numbers",
    "homology_summary",
    "chain",
    "cochain",
    "chain_support",
    "cup_product",
    "h2_coordinates",
    "cup_pairing_on_h1",
    "has_property_a",
    "property_a_brute_force",
]


@dataclass(frozen=True)
class ChainVector:
    """An F2 chain: coefficients over the canonical simplices of one dimension."""

    dimension: int
    coeffs: Gf2Vector


@dataclass(frozen=True)
class CochainVector:
    """An F2 cochain; same coordinates as chains, dual role."""

    dimension: int
    coeffs: Gf2Vector

    def evaluate(self, z: ChainVector) -> int:
        if self.dimension != z.dimension:
            raise ValueError(f"cochain dim {self.dimension} vs chain dim {z.dimension}")
        return self.coeffs.dot(z.coeffs)


def _simplex_pool(k: Complex2, dimension: int):
    if dimension == 0:
        return k.vertices
    if dimension == 1:
        return k.edges
    if dimension == 2:
        return k.triangles
    raise ValueError(f"dimension {dimension} not in (0, 1, 2)")


def _simplex_indices(k: Complex2, dimension: int, simplices) -> list[int]:
    """Positions of the simplices, each checked to have dimension + 1
    vertices (a vertex is a bare label) before it is looked up."""
    out = []
    for s in simplices:
        vs = (s,) if isinstance(s, (int, str)) else tuple(s)
        if len(vs) != dimension + 1:
            raise ValueError(f"{s!r} is not a {dimension}-simplex")
        out.append(k.simplex_id(s if dimension == 0 else vs).index)
    return out


def chain(k: Complex2, dimension: int, simplices: Iterable) -> ChainVector:
    """The F2 chain with coefficient 1 exactly on the given simplices."""
    n = len(_simplex_pool(k, dimension))
    return ChainVector(dimension, Gf2Vector.from_support(n, _simplex_indices(k, dimension, simplices)))


def cochain(k: Complex2, dimension: int, simplices: Iterable) -> CochainVector:
    n = len(_simplex_pool(k, dimension))
    return CochainVector(dimension, Gf2Vector.from_support(n, _simplex_indices(k, dimension, simplices)))


def chain_support(k: Complex2, v: ChainVector | CochainVector) -> tuple:
    """The simplices carrying coefficient 1, as vertex tuples."""
    pool = _simplex_pool(k, v.dimension)
    if v.coeffs.length != len(pool):
        raise ValueError("vector does not match this complex")
    return tuple(pool[i] for i in v.coeffs.support())


def boundary_matrix(k: Complex2, n: int) -> Gf2Matrix:
    """The F2 boundary map in dimension n (rows: (n-1)-simplices, cols: n-simplices)."""
    if n not in (1, 2):
        raise ValueError(f"boundary dimension {n} not in (1, 2)")
    # faces as the vertex tuples combinations() yields from canonical cofaces
    faces = [(v,) for v in k.vertices] if n == 1 else k.edges
    cofaces = k.edges if n == 1 else k.triangles
    row = {f: i for i, f in enumerate(faces)}
    rows = [0] * len(faces)
    for j, s in enumerate(cofaces):
        for f in combinations(s, n):
            rows[row[f]] |= 1 << j
    return Gf2Matrix(len(faces), len(cofaces), rows)


def betti_numbers(k: Complex2) -> tuple[int, int, int]:
    """Reduced F2 Betti numbers (b0, b1, b2), without representatives."""
    return _betti(k, Gf2Matrix(k.n_triangles, k.n_edges, _boundary_rows(k)).rank())


def _triangle_edges(k: Complex2) -> list[tuple[int, int, int]]:
    """The positions of each triangle's three edges, in triangle order: the
    supports of the rows of the transpose of the boundary map d2."""
    position = k._edge_index
    return [(position[a, b], position[a, c], position[b, c]) for a, b, c in k.triangles]


def _boundary_rows(k: Complex2) -> list[int]:
    """Each triangle's boundary as a bitmask over the edge positions, in
    triangle order: the rows of the transpose of d2."""
    return [1 << a | 1 << b | 1 << c for a, b, c in _triangle_edges(k)]


def _boundary_relations(boundaries: Sequence[int], n_edges: int,
                        skip: Collection[int] = ()) -> tuple[Gf2Span, list[int]]:
    """The triangle boundaries (a complex's _boundary_rows) eliminated in
    order: their span, and the 2-cycles as boundary_matrix(k, 2).kernel_basis()
    gives them.

    The triangles at the positions in skip are left out, and the cycles
    are over the positions of the rest: those of the complex without
    them, which keeps every edge position.
    """
    if skip:
        boundaries = [r for j, r in enumerate(boundaries) if j not in skip]
    return _relations(boundaries, n_edges)


def _betti(k: Complex2, rank2: int) -> tuple[int, int, int]:
    """Reduced Betti numbers given the rank of the boundary map in dimension 2."""
    if k.n_vertices == 0:
        return (0, 0, 0)
    return _betti_of_counts(k.n_vertices, k.n_edges, k.n_triangles,
                            len(k.connected_components()), rank2)


def _betti_of_counts(n_vertices: int, n_edges: int, n_triangles: int,
                     components: int, rank2: int) -> tuple[int, int, int]:
    """Reduced Betti numbers of a nonempty complex from its simplex counts,
    its number of components and the rank of the boundary map in dimension 2.

    The boundary map in dimension 1 is the incidence matrix of a graph, of
    rank alpha0 minus the number of components, so it needs no elimination.
    """
    rank1 = n_vertices - components
    return (components - 1, n_edges - rank1 - rank2, n_triangles - rank2)


@dataclass(eq=False)
class HomologySummary:
    """Betti numbers plus deterministic representative bases.

    cycle_reps[d] spans the reduced homology in dimension d; cocycle_reps[d]
    does the same for cohomology.  In dimension 2 the two bases are dual:
    cocycle_reps[2][i] is the indicator of one triangle, the i-th pivot of
    the reduced row echelon form of the 2-cycle space, and cycle_reps[2][j]
    is the reduced 2-cycle with cocycle_reps[2][i](cycle_reps[2][j]) equal
    to 1 exactly when i == j.  h2_coordinates reads classes in this basis.

    cycle_reps[1] is built when cycle_reps is first read, and kept; the
    cup form, property (A) and h2_coordinates never read it.
    """

    betti: tuple[int, int, int]
    cocycle_reps: dict[int, tuple[CochainVector, ...]]
    _complex: Complex2 = field(repr=False)
    _cycles0: tuple[ChainVector, ...] = field(repr=False)
    _cycles2: tuple[ChainVector, ...] = field(repr=False)

    @cached_property
    def cycle_reps(self) -> dict[int, tuple[ChainVector, ...]]:
        return {0: self._cycles0, 1: _one_cycles(self._complex), 2: self._cycles2}

    @property
    def b0(self) -> int:
        return self.betti[0]

    @property
    def b1(self) -> int:
        return self.betti[1]

    @property
    def b2(self) -> int:
        return self.betti[2]


def homology_summary(k: Complex2) -> HomologySummary:
    """Reduced F2 homology of a 2-complex, with representative bases.

    One elimination, of the triangle boundaries, each carrying its own
    triangle as a tag bit above the edges.  Its pivots are those of the
    reduced row echelon form of d2 transposed; a boundary that reduces to
    its tags alone gives a 2-cycle, and the reduced row echelon form of
    those b2 cycles is the only back-substitution.  One union-find pass
    grows the spanning forest from the highest edge down: its trees are
    the components, and it picks the H^1 classes.

      * cocycle_reps[1]: the kernel vector of the boundaries (f plus every
        pivot whose reduced row has f set) at each free column f of the
        boundaries, in order, that is not an edge of that forest;
      * cycle_reps[1], built on first read: for each edge f off the
        forest grown in edge order, in order, picked when f is the highest
        bit of no boundary restricted to those edges, the forest's cycle
        through f;
      * cycle_reps[2] are the reduced 2-cycles and cocycle_reps[2] the
        single triangles at their pivots, so the two bases are dual.

    Both degree-one bases are the greedy completion, in order, of the
    boundaries (or coboundaries) to the cycles (or cocycles).  For the
    cycles: restriction to the edges off the forest is one-to-one on the
    cycles, and the candidate at f is the unit vector there.  For the
    cocycles, the completion picks the free columns f that are the highest
    edge of no nonzero coboundary:

      * the kernel vector at f has f as its highest edge, since a reduced
        row has no bit below its pivot; distinct free columns give
        distinct highest edges, so every nonzero cocycle, and so every
        nonzero coboundary, has a free column as its highest edge;
      * the highest edges of the nonzero vectors in the row space of the
        incidence matrix d1 are its pivots with the columns taken from the
        top: the edges that join two trees of the edges above them, which
        are the edges of the forest grown from the highest edge down.

    So the picks number b1 = alpha1 - (alpha0 - #components) - rank d2,
    and the coboundaries are never eliminated.  The empty complex is
    reported as having no homology at all.
    """
    n_edges, n_triangles = k.n_edges, k.n_triangles
    span, relations = _relations(_boundary_rows(k), n_edges)
    b2 = len(relations)
    forest, comps = _spanning_forest(k, range(n_edges - 1, -1, -1))
    b1 = _betti_of_counts(k.n_vertices, n_edges, n_triangles, len(comps),
                          n_triangles - b2)[1]

    b0 = max(len(comps) - 1, 0)
    # dimension-0 representatives: one vertex per later component vs the first
    cycle0 = []
    cocycle0 = []
    if len(comps) > 1:
        base = comps[0][0]
        for comp in comps[1:]:
            cycle0.append(chain(k, 0, [comp[0], base]))
            cocycle0.append(cochain(k, 0, comp))

    free = (1 << n_edges) - 1 & ~span._mask
    picks = [f for f in _bits_up(free) if not forest[f]]
    cocycle1 = tuple(CochainVector(1, Gf2Vector(n_edges, bits))
                     for bits in span._kernel_at(picks))

    # dimension 2, by duality H^2 = Hom(H_2): the reduced 2-cycles and the
    # single triangles at their pivots
    cycles = Gf2Span(n_triangles)
    for z in relations:
        cycles._add_bits(z)
    z2 = cycles._reduced_rows()
    cycle2 = tuple(ChainVector(2, Gf2Vector(n_triangles, z)) for z in z2)
    cocycle2 = tuple(CochainVector(2, Gf2Vector(n_triangles, z & -z)) for z in z2)

    assert len(cocycle1) == b1 and len(z2) == b2
    return HomologySummary(
        betti=(b0, b1, b2),
        cocycle_reps={0: tuple(cocycle0), 1: cocycle1, 2: cocycle2},
        _complex=k,
        _cycles0=tuple(cycle0),
        _cycles2=cycle2,
    )


def _spanning_forest(k: Complex2, order: Iterable[int]) -> tuple[bytearray, list[tuple]]:
    """The spanning forest that keeps each edge, taken in the given order
    of edge positions, that joins two trees.

    Returns a flag per edge position, 1 for the edges kept, and the
    components, as k.connected_components() gives them: ordered by their
    first vertex, each in vertex order.
    """
    vertex = k._vertex_index
    edges = k.edges
    root = list(range(k.n_vertices))
    kept = bytearray(len(edges))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for i in order:
        u, v = edges[i]
        ra, rb = find(vertex[u]), find(vertex[v])
        if ra != rb:
            root[ra] = rb
            kept[i] = 1
    components: dict[int, list] = {}
    for a, v in enumerate(k.vertices):
        components.setdefault(find(a), []).append(v)
    return kept, list(map(tuple, components.values()))


def _one_cycles(k: Complex2) -> tuple[ChainVector, ...]:
    """cycle_reps[1] of homology_summary(k): the forest cycles through the
    edges off the forest grown in edge order that the greedy completion
    picks against the triangle boundaries.

    path[a] is the mask of the forest edges from the root of vertex a's
    tree to a, so the forest path between u and v is path[u] ^ path[v].
    """
    vertex = k._vertex_index
    kept, _ = _spanning_forest(k, range(k.n_edges))
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(k.n_vertices)]
    non_forest = []
    for i, (u, v) in enumerate(k.edges):
        if kept[i]:
            a, b = vertex[u], vertex[v]
            adjacent[a].append((b, i))
            adjacent[b].append((a, i))
        else:
            non_forest.append(i)
    path = [-1] * len(adjacent)
    for start in range(len(adjacent)):
        if path[start] >= 0:
            continue
        path[start] = 0
        stack = [start]
        while stack:
            a = stack.pop()
            for b, i in adjacent[a]:
                if path[b] < 0:
                    path[b] = path[a] | 1 << i
                    stack.append(b)
    cycles = []
    for f in _completion_picks(non_forest, _triangle_edges(k)):
        u, v = k.edges[f]
        cycles.append(ChainVector(1, Gf2Vector(k.n_edges,
                                               1 << f | path[vertex[u]] ^ path[vertex[v]])))
    return tuple(cycles)


def _completion_picks(candidates: list[int], vectors: Iterable[Iterable[int]]) -> list[int]:
    """The candidates that are the highest set bit of no vector in the span
    of the vectors (each given by its positions) restricted to the
    candidates, in order.

    Those are the unit vectors, taken in order, that the greedy completion
    of the restricted span picks.  Candidate j of m is stored at bit
    m - 1 - j, so the span's pivots, its lowest bits, are the highest
    candidates.
    """
    m = len(candidates)
    slot = {c: m - 1 - j for j, c in enumerate(candidates)}
    span = Gf2Span(m)
    for positions in vectors:
        bits = 0
        for c in positions:
            if c in slot:
                bits ^= 1 << slot[c]
        if bits:
            span._add_bits(bits)
    return [c for j, c in enumerate(candidates) if not span._mask >> (m - 1 - j) & 1]


def h2_coordinates(summary: HomologySummary, w: CochainVector) -> Gf2Vector:
    """Coordinates of a 2-cochain's class in the summary's H^2 basis.

    By duality they are the cochain's values on the 2-cycles cycle_reps[2].
    """
    if w.dimension != 2:
        raise ValueError(f"expected a 2-cochain, got dimension {w.dimension}")
    if w.coeffs.length != summary._complex.n_triangles:
        raise ValueError("cochain does not match the summarized complex")
    return Gf2Vector.from_coeffs([w.evaluate(z) for z in summary._cycles2])


def cup_product(k: Complex2, a: CochainVector, b: CochainVector) -> CochainVector:
    """Cochain-level cup product of two 1-cochains."""
    if a.dimension != 1 or b.dimension != 1:
        raise ValueError("cup product is defined here for pairs of 1-cochains")
    if a.coeffs.length != k.n_edges or b.coeffs.length != k.n_edges:
        raise ValueError("cochain does not match this complex")
    position = {e: i for i, e in enumerate(k.edges)}
    a_bits, b_bits = a.coeffs.bits, b.coeffs.bits
    bits = 0
    for j, (v0, v1, v2) in enumerate(k.triangles):
        if a_bits >> position[v0, v1] & b_bits >> position[v1, v2] & 1:
            bits |= 1 << j
    return CochainVector(2, Gf2Vector(k.n_triangles, bits))


@dataclass
class CupForm:
    """The H^1 x H^1 -> H^2 pairing in fixed bases, one packed row per H^1 class.

    Bit j*b2 + c of rows[i] is coordinate c of [a_i cup a_j] in the H^2
    basis.  A combination x of the classes pairs to zero with every a_j
    exactly when the rows it picks sum to zero, so the left radical is the
    relations among the rows.  When b2 <= 1 the rows are an F2 matrix with
    a well-defined rank.
    """

    h1_reps: tuple[CochainVector, ...]
    b2: int
    rows: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[Gf2Vector, ...], ...]:
        """entries[i][j] holds the H^2 coordinates of [a_i cup a_j]; each
        access builds the grid anew from the rows."""
        b2, low = self.b2, (1 << self.b2) - 1
        return tuple(tuple(Gf2Vector(b2, r >> j * b2 & low) for j in range(len(self.rows)))
                     for r in self.rows)

    def scalar_matrix(self) -> Gf2Matrix:
        if self.b2 > 1:
            raise ValueError(f"pairing is vector-valued (b2 = {self.b2})")
        n = len(self.rows)
        return Gf2Matrix(n, n, self.rows)

    def rank(self) -> int:
        return self.scalar_matrix().rank()

    def left_radical_basis(self) -> list[Gf2Vector]:
        """Coefficient vectors x with [x cup a_j] = 0 for every j."""
        n = len(self.rows)
        return [Gf2Vector(n, z) for z in _relations(self.rows, n * self.b2)[1]]


def cup_pairing_on_h1(k: Complex2,
                      summary: Optional[HomologySummary] = None) -> CupForm:
    """The cup pairing on the summary's H^1 basis, by bit-sliced pullbacks.

    One pass over the triangles builds, for each edge e, front[e]: the
    bitmask of the triangles whose front edge v0 v1 is e, and back[e]: the
    same for the back edge v1 v2.  For each basis cocycle a_i, F_i is the
    OR of front[e] over the support of a_i and G_i the same over back; the
    masks of distinct edges are disjoint, so OR is XOR.  The triangles in
    F_i & G_j are those where a_i(v0 v1) * a_j(v1 v2) = 1: that mask is
    the cochain cup_product(k, a_i, a_j).  Its H^2 coordinate c is its
    value on the 2-cycle z_c = cycle_reps[2][c], the parity of
    (F_i & G_j & z_c).bit_count(), and it is bit j*b2 + c of row i.  A
    2-cycle with F_i & z_c zero sets no bit of row i, so it is skipped.
    """
    if summary is None:
        summary = homology_summary(k)
    reps = summary.cocycle_reps[1]
    if any(a.coeffs.length != k.n_edges for a in reps):
        raise ValueError("cochain does not match this complex")
    if summary._complex.n_triangles != k.n_triangles:
        raise ValueError("cochain does not match the summarized complex")
    position = k._edge_index
    front = [0] * k.n_edges
    back = [0] * k.n_edges
    for j, (v0, v1, v2) in enumerate(k.triangles):
        front[position[v0, v1]] |= 1 << j
        back[position[v1, v2]] |= 1 << j
    cycles = [z.coeffs.bits for z in summary._cycles2]
    b2 = len(cycles)
    backs = [_pullback(back, a) for a in reps]
    rows = []
    for a in reps:
        f = _pullback(front, a)
        on_cycles = [(c, fz) for c, z in enumerate(cycles) if (fz := f & z)]
        row = 0
        for j, g in enumerate(backs):
            for c, fz in on_cycles:
                row |= ((fz & g).bit_count() & 1) << j * b2 + c
        rows.append(row)
    return CupForm(h1_reps=reps, b2=b2, rows=tuple(rows))


def _pullback(masks: list[int], a: CochainVector) -> int:
    """The OR of the triangle masks over the support of the 1-cochain a."""
    bits = 0
    for e in a.coeffs.support():
        bits |= masks[e]
    return bits


@dataclass
class PropertyAResult:
    """Whether every nonzero H^1 class cups nontrivially with some class."""

    holds: bool
    radical_dimension: int
    witness: Optional[CochainVector]  # a class cupping to zero with everything


def has_property_a(k: Complex2,
                   summary: Optional[HomologySummary] = None) -> PropertyAResult:
    """Radical test: the pairing's left radical must be zero.

    Vacuously true when b1 = 0.  The witness, when the property fails, is a
    1-cocycle representing a nonzero class with [w cup a_j] = 0 for all j.
    """
    if summary is None:
        summary = homology_summary(k)
    form = cup_pairing_on_h1(k, summary)
    radical = form.left_radical_basis()
    if not radical:
        return PropertyAResult(True, 0, None)
    x = radical[0]
    bits = 0
    for i in x.support():
        bits ^= form.h1_reps[i].coeffs.bits
    return PropertyAResult(False, len(radical),
                           CochainVector(1, Gf2Vector(k.n_edges, bits)))


def property_a_brute_force(k: Complex2, limit: int = 12) -> bool:
    """Independent route: enumerate all nonzero H^1 classes directly.

    For each of the 2^b1 - 1 classes the cup against each basis class is
    computed at cochain level and tested for being a coboundary by span
    membership (cup against a basis class suffices: the pairing is bilinear
    in its second slot).
    """
    summary = homology_summary(k)
    b1 = summary.b1
    if b1 > limit:
        raise ValueError(f"b1 = {b1} exceeds the brute-force limit {limit}")
    reps = summary.cocycle_reps[1]
    coboundaries = Gf2Span(k.n_triangles)
    for row in boundary_matrix(k, 2).rows():
        coboundaries.add(row)
    for mask in range(1, 1 << b1):
        bits = 0
        for i in range(b1):
            if mask >> i & 1:
                bits ^= reps[i].coeffs.bits
        u = CochainVector(1, Gf2Vector(k.n_edges, bits))
        if not any(not coboundaries.contains(cup_product(k, u, aj).coeffs)
                   for aj in reps):
            return False
    return True
