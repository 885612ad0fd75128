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

cup_pairing_on_h1 never forms a cochain per pair.  It keeps, for each
edge e, the b1-bit int coef[e] whose bit i is a_i(e) for the H^1 basis
a_1 .. a_b1, and walks each 2-cycle z once: the XOR of coef[v1 v2] over
the triangles v0 v1 v2 of z with bit i set in coef[v0 v1] has bit j equal
to (a_i cup a_j)(z).  cup_product stays as the cochain-level reference.
The form keeps one packed int per H^1 class, the H^2 coordinates of its
cups with every basis class side by side, and its left radical (property
(A) asks for it to be zero) is the relations among those rows, one
gf2._relations call.

Every boundary elimination, the summary's, betti_numbers' and the
reduction's audits, goes through _boundary_relations, which reads each
triangle boundary off its three edge positions in _triangle_edges, at
every position or at a kept index of the complex.
The 1-cycles take none.  When every edge lies in at most two triangles
(every surface, with or without boundary, and every wedge of them) the
elimination computes only a spanning forest of the dual graph: the
triangles plus a node at infinity, an edge joining its two triangles, or
its one triangle to infinity.  The column matroid of the boundary rows is
then graphic, so the pivots are Kruskal's forest of that graph grown in
ascending edge order, the 2-cycles are its trees that do not reach
infinity, and the kernel vector at a free column is the column plus the
forest path between its ends (the tree-cotree split of Eppstein 2003 and
Erickson and Whittlesey 2005).  The first edge found in a third triangle
sends the whole complex to the elimination instead, gf2._relations over
the boundaries tagged with their triangles, which also serves the tests
as the oracle; both routes give the same bits.

One forest routine, gf2._Forest, the package's one union-find, serves
two users here.  It is Kruskal's algorithm over (edge, end, end)
triples taken in a given order, with a find pass that lists its trees and
one walk up its parent pointers for the fundamental cycles of edges off
it.  The dual graph is the first user.  The second is the spanning
forest of the 1-skeleton grown from the highest edge down over the free
columns only (a pivot edge is the highest edge of no coboundary, so it
never joins two trees): the edges off it pick the H^1 classes, and its
trees are the components the summary reports; betti_numbers and the
reduction's audits only count its edges, alpha0 less that being the
number of components.  Nothing here writes to the complex, which finds
its own components when asked.  The fundamental cycles of the H^1 picks
in that forest are the 1-cycles, dual to the H^1 classes (the
tree-cotree split again), built only when cycle_reps is first read, by
growing the same forest over every edge.  The H^1 and H^2 bases and the
2-cycles the summary returns are those read off the reduced row echelon
forms of d1, d2 transposed, d2 and the 2-cycles, which are unique, and
in every degree the homology basis is dual to the cohomology basis.

Over F2, H^2 = Hom(H_2, F2), so the class of a 2-cochain w is fixed by its
values on a basis of 2-cycles.  The H^2 basis is chosen dual to the
summary's 2-cycle basis, which makes the H^2 coordinates of [w] simply
the values w(z_j); no basis of C^2 is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .complex2 import Complex2, _is_sequence, label_key
from .gf2 import Gf2Matrix, Gf2Vector, _bitmask, _bits_up, _Forest, _relations, _span

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
    """Positions of the simplices in the complex's position maps, each
    checked to have dimension + 1 vertices (a vertex is a bare label, an
    edge or a triangle a sequence of labels with a length, as in the
    complex's queries) before it is looked up."""
    # the triangle positions are a lazy index, built only when read
    position = (k._triangle_index if dimension == 2
                else (k._vertex_index, k._edge_index)[dimension])
    out = []
    for s in simplices:
        vs = tuple(s) if _is_sequence(s) else (s,)
        if len(vs) != dimension + 1:
            raise ValueError(f"{s!r} is not a {dimension}-simplex")
        try:
            # label_key's TypeError: a label neither int nor str
            out.append(position[k._as_vertex(s) if dimension == 0
                                else tuple(sorted(vs, key=label_key))])
        except (KeyError, TypeError):
            raise ValueError(f"simplex {vs!r} is not in the complex") from None
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
    return _betti(k, _boundary_relations(k._triangle_edges, k.n_edges).free)


def _boundary_relations(boundaries: Sequence[tuple[int, int, int]], width: int
                        ) -> _DualForest | _Elimination:
    """The triangle boundaries, each its triangle's three edge positions
    below width (as in a complex's _triangle_edges), eliminated in order:
    the one entry point of every boundary elimination, called by
    betti_numbers, homology_summary and the reduction's audits.

    When every position lies in at most two of the boundaries the dual
    forest gives the answer (_tree_cotree); the first position found in a
    third boundary sends them all to the elimination.  Either result has
      * rank, the rank of d2, and free, its other columns in order;
      * cycles, the 2-cycles as boundary_matrix(k, 2).kernel_basis()
        gives them: distinct highest triangles, in increasing order, each
        cycle zero at the others' (a list the caller may edit);
      * reduced_cycles(), the reduced row echelon form of the 2-cycles;
      * kernel_at(columns), the kernel vectors of the boundaries (the
        1-cocycles) at distinct free columns.
    """
    return _tree_cotree(boundaries, width) or _Elimination(boundaries, width)


class _Elimination:
    """The boundaries eliminated in order, each tagged with its triangle
    (gf2._relations): the route for boundaries with a position in three
    or more of them, and the oracle the tests hold the dual forest to."""

    def __init__(self, boundaries: Sequence[tuple[int, int, int]], width: int) -> None:
        self._tagged, self.cycles = _relations(
            [1 << a | 1 << b | 1 << c for a, b, c in boundaries], width)
        self._n_triangles = len(boundaries)
        self.rank = self._tagged.dim
        self.free = self._tagged._free(width)

    def reduced_cycles(self) -> list[int]:
        return _span(self.cycles, self._n_triangles)._reduced_rows()

    def kernel_at(self, columns: Sequence[int]) -> list[int]:
        return self._tagged._kernel_at(columns)


def _tree_cotree(boundaries: Sequence[tuple[int, int, int]], width: int
                 ) -> Optional[_DualForest]:
    """The boundary elimination of triangles none of whose edges lies in
    three of them, read off Kruskal's forest of the dual graph; None at
    the first edge found in a third triangle.

    The nodes of the dual graph are infinity, node 0, and the triangles,
    triangle t at node t + 1.  An edge in two triangles joins them, an
    edge in one joins it to infinity, and an edge in none is a loop at
    infinity.  The column of an edge in the boundary rows is the set of
    its triangles, so the column matroid is the graphic matroid of that
    graph, and the pivots of the elimination, the greedy column basis in
    column order, are the edges of the forest grown in ascending edge
    order.
    """
    # the ends of each edge: its first triangle and its second, or infinity
    one = [0] * width
    two = [0] * width
    for t, edges in enumerate(boundaries, 1):
        for e in edges:
            if not one[e]:
                one[e] = t
            elif not two[e]:
                two[e] = t
            else:
                return None
    # each edge's second end first, so the union hangs the tree of its
    # later triangle (or of infinity) on its first triangle's, which keeps
    # the finds short in ascending edge order
    forest = _Forest(len(boundaries) + 1, zip(range(width), two, one))
    return _DualForest(forest, one, two)


class _DualForest:
    """Kruskal's forest of the dual graph (see _tree_cotree), as the
    result of a boundary elimination.

      * The 2-cycles are its trees that do not reach infinity, one
        triangle mask each.  Their supports are disjoint, so they are
        already reduced: ordered by lowest triangle they are the reduced
        row echelon form, by highest the kernel basis.  There are
        n - rank of them, and none is looked for when that is zero.
      * The kernel vector at a free column f is the unique cocycle that
        is f plus forest edges: f's fundamental cycle in the forest (f
        alone for a loop).

    The trees come off the rooted forest once a kernel vector has rooted
    it, and otherwise off one find per node, which is all the reduction's
    audits ask for; betti_numbers asks for neither.
    """

    def __init__(self, forest: _Forest, one: list[int], two: list[int]) -> None:
        self._forest, self._one, self._two = forest, one, two
        self.free = forest.off
        self.rank = len(one) - len(self.free)

    @property
    def cycles(self) -> list[int]:
        return sorted(self.reduced_cycles(), key=int.bit_length)

    def reduced_cycles(self) -> list[int]:
        forest = self._forest
        n = forest.n  # the triangles and infinity
        if self.rank == n - 1:
            return []
        # the first tree holds node 0, infinity; triangle t is node t + 1
        return [_bitmask(nodes) >> 1 for nodes in forest.tree_nodes()[1:]]

    def kernel_at(self, columns: Sequence[int]) -> list[int]:
        return self._forest.cycles(columns, self._one, self._two)


def _betti(k: Complex2, free: Sequence[int]) -> tuple[int, int, int]:
    """Reduced Betti numbers given the free columns of the triangle
    boundaries' elimination: the rank of d2 is the number of the others,
    and the rank of d1 the number of them _forest keeps, so the components
    are alpha0 less that, with no pass over the trees."""
    if k.n_vertices == 0:
        return (0, 0, 0)
    kept = len(free) - len(_forest(k, free).off)
    return _betti_of_counts(k.n_vertices, k.n_edges, k.n_triangles,
                            k.n_vertices - kept, k.n_edges - len(free))


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
    does the same for cohomology.  The two bases are dual in every
    dimension: cocycle_reps[d][i] is 1 on cycle_reps[d][j] exactly when
    i == j, for d = 0, 1 and 2.  In dimension 2, cocycle_reps[2][i] is the
    indicator of one triangle, the i-th pivot of the reduced row echelon
    form of the 2-cycle space, and cycle_reps[2][j] the reduced 2-cycle;
    h2_coordinates reads classes in this basis.  In dimension 1,
    cocycle_reps[1][i] is its highest edge, a pick, plus pivot edges, and
    cycle_reps[1][j] is its pick plus edges of the 1-skeleton's forest,
    none of them a pick or a pivot.

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
        return {0: self._cycles0, 1: _one_cycles(self._complex, self.cocycle_reps[1]),
                2: self._cycles2}

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

    One elimination of the triangle boundaries (_boundary_relations): its
    pivots are those of the reduced row echelon form of d2 transposed, and
    its relations are the 2-cycles.  When no edge lies in three triangles
    it is read off the dual graph, the triangles plus infinity, an edge
    joining its two triangles or its one triangle and infinity:

      1. the pivots are the edges of Kruskal's forest of that graph, grown
         in ascending edge order, since lowest-bit pivots are the greedy
         column basis taken in column order and the columns (each edge's
         set of triangles) form its graphic matroid; a loose edge is a
         loop, never a pivot, and rank d2 is the number of forest edges;
      2. the 2-cycles are the dual trees that do not reach infinity, one
         triangle mask each; their supports are disjoint, so they are
         already reduced;
      3. the kernel vector at a free column f is f plus the forest path
         between f's two ends, walked with parent pointers and depths.

    Otherwise the boundaries are eliminated, each carrying its own
    triangle as a tag bit above the edges; a boundary that reduces to its
    tags alone gives a 2-cycle, and the reduced row echelon form of those
    b2 cycles is the only back-substitution.  Either way the spanning
    forest of the 1-skeleton is grown from the highest edge down over the
    free columns of the boundaries (_forest): its trees are the
    components, and it picks the H^1 classes.

      * cocycle_reps[1]: the kernel vector of the boundaries (f plus every
        pivot whose reduced row has f set, the path of item 3) at each
        free column f of the boundaries, in order, that is not an edge of
        that forest;
      * cycle_reps[1], built on first read (_one_cycles): for each pick f
        of cocycle_reps[1], in order, f plus the path between its ends in
        that forest, walked up the forest's parent pointers as in item 3;
      * cycle_reps[2] are the reduced 2-cycles and cocycle_reps[2] the
        single triangles at their pivots, so the two bases are dual; on
        the dual graph, the trees ordered by their lowest triangle and
        those lowest triangles.

    The cocycles are the greedy completion, in order, of the coboundaries
    to the cocycles: it picks the free columns f that are the highest edge
    of no nonzero coboundary:

      * the kernel vector at f has f as its highest edge, since a reduced
        row has no bit below its pivot; distinct free columns give
        distinct highest edges, so every nonzero cocycle, and so every
        nonzero coboundary, has a free column as its highest edge;
      * the highest edges of the nonzero vectors in the row space of the
        incidence matrix d1 are its pivots with the columns taken from the
        top: the edges that join two trees of the edges above them, which
        are the edges of the forest grown from the highest edge down.

    So every forest edge is the highest edge of a coboundary, hence a free
    column: a pivot edge never joins two trees, and the forest is grown
    over the free columns alone.  The picks number
    b1 = alpha1 - (alpha0 - #components) - rank d2, and the coboundaries
    are never eliminated.

    The 1-cycles are dual to the cocycles: the cocycle at a pick f_i is
    f_i plus pivots, the cycle at f_j is f_j plus forest edges, which are
    neither picks nor pivots, so one is 1 on the other exactly when
    i == j.  Every nonzero boundary has its lowest edge at a pivot and no
    such cycle has a pivot, so no nonzero sum of them bounds; there are
    b1 of them, a basis of H_1.  The empty complex is reported as having
    no homology at all.
    """
    n_edges, n_triangles = k.n_edges, k.n_triangles
    boundaries = _boundary_relations(k._triangle_edges, n_edges)
    forest = _forest(k, boundaries.free)
    comps = forest.trees(k.vertices)
    _, b1, b2 = _betti_of_counts(k.n_vertices, n_edges, n_triangles, len(comps),
                                 boundaries.rank)

    b0 = max(len(comps) - 1, 0)
    # dimension-0 representatives: one vertex per later component vs the first
    cycle0 = []
    cocycle0 = []
    if len(comps) > 1:
        base = comps[0][0]
        for comp in comps[1:]:
            cycle0.append(chain(k, 0, [comp[0], base]))
            cocycle0.append(cochain(k, 0, comp))

    picks = forest.off[::-1]
    cocycle1 = tuple(CochainVector(1, Gf2Vector(n_edges, bits))
                     for bits in boundaries.kernel_at(picks))

    # dimension 2, by duality H^2 = Hom(H_2): the reduced 2-cycles and the
    # single triangles at their pivots
    z2 = boundaries.reduced_cycles()
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


def _forest(k: Complex2, free: Sequence[int]) -> _Forest:
    """The spanning forest of the 1-skeleton grown from the highest edge
    down, whose trees are the components.

    free are the free columns of the triangle boundaries' elimination, in
    order, or every edge.  Every edge that forest keeps is a free column
    (see homology_summary), so the pivot edges, which never join two
    trees, need not be taken, and over the free columns the edges off
    the forest, its off list, are those it does not keep, from the
    highest down.
    """
    vertex, edges = k._vertex_index, k.edges
    # a generator: each triple is freed once taken, so none counts toward
    # the garbage collector's thresholds
    return _Forest(k.n_vertices, ((f, vertex[u], vertex[v])
                                  for f in reversed(free) for u, v in (edges[f],)))


def _one_cycles(k: Complex2, cocycles: Sequence[CochainVector]) -> tuple[ChainVector, ...]:
    """cycle_reps[1] of homology_summary(k), given its cocycle_reps[1]: the
    fundamental cycle of each pick, the highest edge of its cocycle, in
    the 1-skeleton's forest grown from the highest edge down (see
    homology_summary).  Grown over every edge, _forest keeps the same
    edges as over the free columns alone."""
    vertex = k._vertex_index
    one = [vertex[u] for u, _ in k.edges]
    two = [vertex[v] for _, v in k.edges]
    picks = [a.coeffs.bits.bit_length() - 1 for a in cocycles]
    return tuple(ChainVector(1, Gf2Vector(k.n_edges, bits))
                 for bits in _forest(k, range(k.n_edges)).cycles(picks, one, two))


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
    """The cup pairing on the summary's H^1 basis, one walk per 2-cycle.

    Coordinate c of [a_i cup a_j] is the value on the 2-cycle
    z_c = cycle_reps[2][c] of the cochain cup_product(k, a_i, a_j):

        (a_i cup a_j)(z_c) = sum over the triangles t of z_c of
                             a_i(front t) * a_j(back t),

    with front t = v0 v1 and back t = v1 v2 (positions 0 and 2 of
    _triangle_edges[t]).  Let coef[e] be the b1-bit int whose bit i is
    a_i(e).  Then bit j of the XOR of coef[back t] over the triangles t of
    z_c with bit i set in coef[front t] is that coordinate, and it is bit
    j*b2 + c of row i.
    """
    if summary is None:
        summary = homology_summary(k)
    reps = summary.cocycle_reps[1]
    if any(a.coeffs.length != k.n_edges for a in reps):
        raise ValueError("cochain does not match this complex")
    if summary._complex is not k and summary._complex != k:
        raise ValueError("cochain does not match the summarized complex")
    coef = [0] * k.n_edges
    for i, a in enumerate(reps):
        for e in _bits_up(a.coeffs.bits):
            coef[e] |= 1 << i
    b2, edges = len(summary._cycles2), k._triangle_edges
    rows = [0] * len(reps)
    for c, z in enumerate(summary._cycles2):
        on_z = [0] * len(reps)  # bit j of on_z[i]: (a_i cup a_j)(z_c)
        for t in _bits_up(z.coeffs.bits):
            front, _, back = edges[t]
            if at_front := coef[front]:
                for i in _bits_up(at_front):
                    on_z[i] ^= coef[back]
        for i, bits in enumerate(on_z):
            for j in _bits_up(bits):
                rows[i] |= 1 << j * b2 + c
    return CupForm(h1_reps=reps, b2=b2, rows=tuple(rows))


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


# the largest b1 property_a_brute_force enumerates: 2^12 - 1 classes
_BRUTE_FORCE_B1 = 12


def property_a_brute_force(k: Complex2) -> bool:
    """Independent route: enumerate all nonzero H^1 classes directly.

    For each of the 2^b1 - 1 classes the cup against each basis class is
    computed at cochain level and tested for being a coboundary by span
    membership (cup against a basis class suffices: the pairing is bilinear
    in its second slot).  Raises ValueError when b1 exceeds 12.
    """
    summary = homology_summary(k)
    b1 = summary.b1
    if b1 > _BRUTE_FORCE_B1:
        raise ValueError(f"b1 = {b1} exceeds the brute-force limit {_BRUTE_FORCE_B1}")
    reps = summary.cocycle_reps[1]
    coboundaries = _span((row.bits for row in boundary_matrix(k, 2).rows()), k.n_triangles)
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
