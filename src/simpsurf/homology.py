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
cup_product stays as the cochain-level reference.

Over F2, H^2 = Hom(H_2, F2), so the class of a 2-cochain w is fixed by its
values on a basis of 2-cycles.  The H^2 basis is chosen dual to the
summary's 2-cycle basis, which makes the H^2 coordinates of [w] simply
the values w(z_j); no basis of C^2 is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .complex2 import Complex2
from .gf2 import Gf2Matrix, Gf2Span, Gf2Vector, _kernel_from_rref

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
    return _betti(k, boundary_matrix(k, 2).rank())


def _betti(k: Complex2, rank2: int) -> tuple[int, int, int]:
    """Reduced Betti numbers given the rank of the boundary map in dimension 2.

    The boundary map in dimension 1 is the incidence matrix of a graph, of
    rank alpha0 minus the number of components, so it needs no elimination.
    """
    if k.n_vertices == 0:
        return (0, 0, 0)
    components = len(k.connected_components())
    rank1 = k.n_vertices - components
    return (components - 1, k.n_edges - rank1 - rank2, k.n_triangles - rank2)


@dataclass(eq=False)
class HomologySummary:
    """Betti numbers plus deterministic representative bases.

    cycle_reps[d] spans the reduced homology in dimension d; cocycle_reps[d]
    does the same for cohomology.  In dimension 2 the two bases are dual:
    cocycle_reps[2][i] is the indicator of one triangle, the i-th pivot of
    the reduced row echelon form of the 2-cycle space, and cycle_reps[2][j]
    is the reduced 2-cycle with cocycle_reps[2][i](cycle_reps[2][j]) equal
    to 1 exactly when i == j.  h2_coordinates reads classes in this basis.
    """

    betti: tuple[int, int, int]
    cycle_reps: dict[int, tuple[ChainVector, ...]]
    cocycle_reps: dict[int, tuple[CochainVector, ...]]
    _n_triangles: int = field(repr=False)

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

    Each boundary map is eliminated once, and every basis is read off one
    of the four eliminations:
      * d1: its kernel is z1, the 1-cycles; its reduced rows span the
        1-coboundaries (row v of d1 is delta0 of the indicator of v);
      * d2 transposed: its kernel is the 1-cocycles; its reduced rows span
        the 1-boundaries;
      * d2: its kernel z2 is the 2-cycles, so b2 = len(z2) and rank d2 is
        alpha2 - b2;
      * z2: its reduced row echelon form gives the dual degree-2 bases.
    cycle_reps[1] are the vectors of z1, in order, that are independent of
    the 1-boundaries and the earlier picks; cocycle_reps[1] are the
    1-cocycles picked the same way against the 1-coboundaries.

    The empty complex is reported as having no homology at all.
    """
    d1 = boundary_matrix(k, 1)
    d2 = boundary_matrix(k, 2)

    comps = k.connected_components()
    b0 = max(len(comps) - 1, 0)
    rows1, pivots1 = d1._rref()
    rows2t, pivots2t = d2.transpose()._rref()
    z1 = _kernel_from_rref(k.n_edges, rows1, pivots1)
    cocycles1 = _kernel_from_rref(k.n_edges, rows2t, pivots2t)
    z2 = d2.kernel_basis()
    b2 = len(z2)
    b1 = len(z1) - (k.n_triangles - b2)

    # dimension-0 representatives: one vertex per later component vs the first
    cycle0 = []
    cocycle0 = []
    if len(comps) > 1:
        base = comps[0][0]
        for comp in comps[1:]:
            cycle0.append(chain(k, 0, [comp[0], base]))
            cocycle0.append(cochain(k, 0, comp))

    cycle1 = tuple(ChainVector(1, v) for v in
                   _independent_modulo(k.n_edges, rows2t[:len(pivots2t)], z1))
    cocycle1 = tuple(CochainVector(1, v) for v in
                     _independent_modulo(k.n_edges, rows1[:len(pivots1)], cocycles1))

    # dimension 2, by duality H^2 = Hom(H_2): the RREF of the kernel of d2
    # gives single-triangle cocycles (its pivots) and the 2-cycles dual to them
    z2_rows, pivots = Gf2Matrix.from_rows(z2, k.n_triangles)._rref()
    cycle2 = tuple(ChainVector(2, Gf2Vector(k.n_triangles, r)) for r in z2_rows)
    cocycle2 = tuple(CochainVector(2, Gf2Vector(k.n_triangles, 1 << p)) for p in pivots)

    assert len(cycle1) == b1 and len(cocycle1) == b1 and len(pivots) == b2
    return HomologySummary(
        betti=(b0, b1, b2),
        cycle_reps={0: tuple(cycle0), 1: cycle1, 2: cycle2},
        cocycle_reps={0: tuple(cocycle0), 1: cocycle1, 2: cocycle2},
        _n_triangles=k.n_triangles,
    )


def _independent_modulo(length: int, seed: Iterable[int],
                        candidates: Iterable[Gf2Vector]) -> list[Gf2Vector]:
    """The candidates, in order, that enlarge the span of seed and the earlier picks."""
    span = Gf2Span(length)
    for bits in seed:
        span._add_bits(bits)
    return [v for v in candidates if span.add(v)]


def h2_coordinates(summary: HomologySummary, w: CochainVector) -> Gf2Vector:
    """Coordinates of a 2-cochain's class in the summary's H^2 basis.

    By duality they are the cochain's values on the 2-cycles cycle_reps[2].
    """
    if w.dimension != 2:
        raise ValueError(f"expected a 2-cochain, got dimension {w.dimension}")
    if w.coeffs.length != summary._n_triangles:
        raise ValueError("cochain does not match the summarized complex")
    return Gf2Vector.from_coeffs([w.evaluate(z) for z in summary.cycle_reps[2]])


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
    """The H^1 x H^1 -> H^2 pairing in fixed bases.

    entries[i][j] holds the H^2 coordinates of [a_i cup a_j]; when b2 <= 1
    the form collapses to an F2 matrix with a well-defined rank.
    """

    h1_reps: tuple[CochainVector, ...]
    b2: int
    entries: tuple[tuple[Gf2Vector, ...], ...]

    def scalar_matrix(self) -> Gf2Matrix:
        n = len(self.h1_reps)
        if self.b2 > 1:
            raise ValueError(f"pairing is vector-valued (b2 = {self.b2})")
        if self.b2 == 0:
            return Gf2Matrix.zeros(n, n)
        return Gf2Matrix(n, n, [sum(self.entries[i][j].bits << j for j in range(n))
                                for i in range(n)])

    def rank(self) -> int:
        return self.scalar_matrix().rank()

    def left_radical_basis(self) -> list[Gf2Vector]:
        """Coefficient vectors x with [x cup a_j] = 0 for every j."""
        n = len(self.h1_reps)
        rows = []
        for j in range(n):
            for c in range(self.b2):
                rows.append(Gf2Vector.from_coeffs(
                    [self.entries[i][j].get(c) for i in range(n)]))
        if not rows:
            return [Gf2Vector(n, 1 << i) for i in range(n)] if self.b2 == 0 and n else []
        return Gf2Matrix.from_rows(rows, n).kernel_basis()


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
    (F_i & G_j & z_c).bit_count().
    """
    if summary is None:
        summary = homology_summary(k)
    reps = summary.cocycle_reps[1]
    if any(a.coeffs.length != k.n_edges for a in reps):
        raise ValueError("cochain does not match this complex")
    if summary._n_triangles != k.n_triangles:
        raise ValueError("cochain does not match the summarized complex")
    position = k._edge_index
    front = [0] * k.n_edges
    back = [0] * k.n_edges
    for j, (v0, v1, v2) in enumerate(k.triangles):
        front[position[v0, v1]] |= 1 << j
        back[position[v1, v2]] |= 1 << j
    cycles = [z.coeffs.bits for z in summary.cycle_reps[2]]
    backs = [_pullback(back, a) for a in reps]
    entries = []
    for a in reps:
        f = _pullback(front, a)
        on_cycles = [f & z for z in cycles]
        entries.append(tuple(
            Gf2Vector(summary.b2, sum(((fz & g).bit_count() & 1) << c
                                      for c, fz in enumerate(on_cycles)))
            for g in backs))
    return CupForm(h1_reps=reps, b2=summary.b2, entries=tuple(entries))


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
