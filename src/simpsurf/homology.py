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

Over F2, H^2 = Hom(H_2, F2), so the class of a 2-cochain w is fixed by its
values on a basis of 2-cycles.  The H^2 basis is chosen dual to the
summary's 2-cycle basis, which makes the H^2 coordinates of [w] simply
the values w(z_j); no basis of C^2 is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .complex2 import Complex2, canon_edge, canon_triangle
from .gf2 import Gf2Matrix, Gf2Span, Gf2Vector, extend_to_basis

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
    out = []
    for s in simplices:
        if dimension == 0:
            out.append(k.simplex_id(s).index)
        elif dimension == 1:
            out.append(k.simplex_id(canon_edge(*s)).index)
        else:
            out.append(k.simplex_id(canon_triangle(*s)).index)
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
    if n == 1:
        rows = [0] * k.n_vertices
        for j, e in enumerate(k.edges):
            for v in e:
                rows[k.simplex_id(v).index] |= 1 << j
        return Gf2Matrix(k.n_vertices, k.n_edges, rows)
    if n == 2:
        rows = [0] * k.n_edges
        for j, t in enumerate(k.triangles):
            for e in combinations(t, 2):
                rows[k.simplex_id(e).index] |= 1 << j
        return Gf2Matrix(k.n_edges, k.n_triangles, rows)
    raise ValueError(f"boundary dimension {n} not in (1, 2)")


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

    The empty complex is reported as having no homology at all.
    """
    d1 = boundary_matrix(k, 1)
    d2 = boundary_matrix(k, 2)

    comps = k.connected_components()
    b0 = max(len(comps) - 1, 0)
    z1 = d1.kernel_basis()
    image2 = Gf2Span(k.n_edges)
    boundary_basis = []
    for col in d2.transpose().rows():
        if image2.add(col):
            boundary_basis.append(col)
    b1 = len(z1) - image2.dim
    z2 = d2.kernel_basis()
    b2 = len(z2)

    # dimension-0 representatives: one vertex per later component vs the first
    cycle0 = []
    cocycle0 = []
    if len(comps) > 1:
        base = comps[0][0]
        for comp in comps[1:]:
            cycle0.append(chain(k, 0, [comp[0], base]))
            cocycle0.append(cochain(k, 0, comp))

    # dimension-1 homology: complete the boundary image inside the cycle space
    cycle1_vecs = extend_to_basis(boundary_basis, boundary_basis + z1)[image2.dim:]
    cycle1 = tuple(ChainVector(1, v) for v in cycle1_vecs)

    # dimension-1 cohomology: complete the 0-coboundaries inside the cocycles.
    # Row v of d1 is exactly delta0 applied to the indicator of v.
    cob1 = []
    cob1_span = Gf2Span(k.n_edges)
    for row in d1.rows():
        if cob1_span.add(row):
            cob1.append(row)
    cocycles1 = d2.transpose().kernel_basis()
    cocycle1_vecs = extend_to_basis(cob1, cob1 + cocycles1)[len(cob1):]
    cocycle1 = tuple(CochainVector(1, v) for v in cocycle1_vecs)

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
    bits = 0
    for j, (v0, v1, v2) in enumerate(k.triangles):
        front = k.simplex_id((v0, v1)).index
        back = k.simplex_id((v1, v2)).index
        if a.coeffs.get(front) & b.coeffs.get(back):
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
    if summary is None:
        summary = homology_summary(k)
    reps = summary.cocycle_reps[1]
    entries = tuple(
        tuple(h2_coordinates(summary, cup_product(k, ai, aj)) for aj in reps)
        for ai in reps)
    return CupForm(h1_reps=reps, b2=summary.b2, entries=entries)


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
