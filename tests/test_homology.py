from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

import simpsurf.homology as homology
from _fixtures import (kernel_from_rref, m8_wedge, rp2, sphere, torus,
                       torus_circle_sphere, torus_with_circle)
from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix, Gf2Span, Gf2Vector
from simpsurf.homology import (
    ChainVector,
    CochainVector,
    betti_numbers,
    boundary_matrix,
    chain,
    chain_support,
    cochain,
    cup_pairing_on_h1,
    cup_product,
    h2_coordinates,
    has_property_a,
    homology_summary,
    property_a_brute_force,
)
from simpsurf.surfaces import attach_circle, catalog, wedge


def delta(k: Complex2, w):
    """Simplicial coboundary of a 0- or 1-cochain."""
    m = boundary_matrix(k, w.dimension + 1).transpose()
    return CochainVector(w.dimension + 1, m.apply(w.coeffs))


def _boundary_rows_by_simplex_id(k: Complex2, n: int) -> list[int]:
    """The boundary map's rows, each face found through Complex2.simplex_id."""
    faces, cofaces = ((k.vertices, k.edges) if n == 1
                      else (k.edges, k.triangles))
    rows = [0] * len(faces)
    for j, s in enumerate(cofaces):
        for f in combinations(s, n):
            rows[k.simplex_id(f[0] if n == 1 else f).index] |= 1 << j
    return rows


def test_boundary_composition_is_zero():
    mixed = Complex2.from_triangles([(0, "a", 1), ("a", "b", 1), (0, 1, 2)],
                                    extra_edges=[("b", 5)],
                                    extra_vertices=["z"])
    surfaces = [catalog(parse_surface_id(name)) for name in
                ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    for k in (sphere(), rp2(), torus_circle_sphere(), mixed, *surfaces):
        d1, d2 = boundary_matrix(k, 1), boundary_matrix(k, 2)
        for col in d2.transpose().rows():
            assert d1.apply(col).is_zero()
        assert (d1.n_rows, d1.n_cols, d2.n_rows, d2.n_cols) == (
            k.n_vertices, k.n_edges, k.n_edges, k.n_triangles)
        for n, d in ((1, d1), (2, d2)):
            assert [r.bits for r in d.rows()] == _boundary_rows_by_simplex_id(k, n)


# Expected Betti numbers below were frozen from the independent oracle.

def test_betti_sphere():
    assert betti_numbers(sphere()) == (0, 0, 1)


def test_betti_rp2():
    assert betti_numbers(rp2()) == (0, 1, 1)


def test_betti_torus():
    assert betti_numbers(torus()) == (0, 2, 1)


def test_betti_torus_with_circle():
    assert betti_numbers(torus_with_circle()) == (0, 3, 1)


def test_betti_torus_circle_sphere():
    k = torus_circle_sphere()
    assert betti_numbers(k) == (0, 3, 2)
    assert k.euler_characteristic() == 0


def test_betti_disjoint_and_empty():
    two = Complex2.from_triangles([(0, 1, 2)], extra_vertices=[9])
    assert betti_numbers(two) == (1, 0, 0)
    assert betti_numbers(Complex2([])) == (0, 0, 0)


def test_b2_computed_two_ways():
    for k in (sphere(), rp2(), torus(), torus_circle_sphere()):
        kernel = len(boundary_matrix(k, 2).kernel_basis())
        cokernel = k.n_triangles - boundary_matrix(k, 2).transpose().rank()
        assert kernel == cokernel == betti_numbers(k)[2]


def test_rank_d1_is_read_off_the_component_count():
    # betti_numbers takes rank d1 = alpha0 - #components, never eliminating d1
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             Complex2([])]
    cases += [catalog(parse_surface_id(name))
              for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    rng = random.Random(20261017)
    for _ in range(40):
        n = rng.randrange(1, 9)
        triples = list(combinations(range(n), 3))
        pairs = list(combinations(range(n), 2))
        tris = rng.sample(triples, rng.randrange(0, min(8, len(triples)) + 1))
        loose = rng.sample(pairs, rng.randrange(0, min(5, len(pairs)) + 1))
        cases.append(Complex2.from_triangles(tris, extra_edges=loose,
                                             extra_vertices=range(n + 2)))
    for k in cases:
        components = len(k.connected_components())
        r1 = boundary_matrix(k, 1).rank()
        r2 = boundary_matrix(k, 2).rank()
        assert r1 == k.n_vertices - components
        assert betti_numbers(k) == (max(components - 1, 0),
                                    k.n_edges - r1 - r2, k.n_triangles - r2)


def test_summary_matches_betti_and_rep_counts():
    for k in (sphere(), rp2(), torus(), torus_with_circle()):
        s = homology_summary(k)
        assert s.betti == betti_numbers(k)
        for d in (0, 1, 2):
            assert len(s.cycle_reps[d]) == s.betti[d]
            assert len(s.cocycle_reps[d]) == s.betti[d]


def test_cycle_reps_are_nonbounding_cycles():
    k = torus_with_circle()
    s = homology_summary(k)
    d1 = boundary_matrix(k, 1)
    boundaries = Gf2Span(k.n_edges)
    for col in boundary_matrix(k, 2).transpose().rows():
        boundaries.add(col)
    span = Gf2Span(k.n_edges)
    for z in s.cycle_reps[1]:
        assert d1.apply(z.coeffs).is_zero()
        assert not boundaries.contains(z.coeffs)
        assert span.add(boundaries.reduce(z.coeffs))  # independent mod boundaries


def _greedy_completion(length, seed, candidates):
    """The candidates, in order, that enlarge the span of every seed vector.

    The independent route to the degree-1 bases: the span is built from
    every column of d2 (or row of d1), one by one, not from reduced rows.
    """
    span = Gf2Span(length)
    for v in seed:
        span.add(v)
    return [v for v in candidates if span.add(v)]


def _degree_one_cases():
    cases = [catalog(parse_surface_id(name))
             for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    cases += [torus_circle_sphere(), Complex2([]),
              Complex2.from_triangles([], extra_vertices=[0]),
              Complex2.from_triangles(list(rp2().triangles) + [(50, 51, 52)],
                                      extra_edges=[(60, 61)])]
    rng = random.Random(20261018)
    for _ in range(12):
        base = catalog(parse_surface_id(rng.choice(("S2", "N1", "M1", "N2", "M2"))))
        k = base
        if rng.randrange(2):
            k = Complex2.from_triangles(k.triangles[1:], extra_edges=k.edges)
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 3)):
            bubble = sphere().relabeled({v: 1000 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 1000 + 10 * j)
        cases.append(k)
    return cases


def test_degree_one_bases_match_the_greedy_completion():
    for k in _degree_one_cases():
        s = homology_summary(k)
        d1, d2t = boundary_matrix(k, 1), boundary_matrix(k, 2).transpose()
        cycles = _greedy_completion(k.n_edges, list(d2t.rows()), d1.kernel_basis())
        cocycles = _greedy_completion(k.n_edges, list(d1.rows()), d2t.kernel_basis())
        assert [z.coeffs for z in s.cycle_reps[1]] == cycles
        assert [a.coeffs for a in s.cocycle_reps[1]] == cocycles
        assert len(cycles) == len(cocycles) == s.b1


def _counting(counts, name, fn):
    """fn, counting its calls in counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _homology_summary_dense(k: Complex2):
    """(betti, cycle_reps, cocycle_reps) by four dense eliminations: the
    reduced row echelon forms of d1, of d2 transposed, of d2 and of the
    2-cycle basis, the kernels read off them and the degree-1 picks made
    by greedy completion against their reduced rows."""
    d1, d2 = boundary_matrix(k, 1), boundary_matrix(k, 2)
    comps = k.connected_components()
    rows1, pivots1 = d1._rref()
    rows2t, pivots2t = d2.transpose()._rref()
    z1 = kernel_from_rref(k.n_edges, rows1, pivots1)
    cocycles1 = kernel_from_rref(k.n_edges, rows2t, pivots2t)
    z2 = kernel_from_rref(k.n_triangles, *d2._rref())
    b1 = len(z1) - (k.n_triangles - len(z2))
    cycle0 = tuple(chain(k, 0, [comp[0], comps[0][0]]) for comp in comps[1:])
    cocycle0 = tuple(cochain(k, 0, comp) for comp in comps[1:])
    seed2t = [Gf2Vector(k.n_edges, r) for r in rows2t[:len(pivots2t)]]
    seed1 = [Gf2Vector(k.n_edges, r) for r in rows1[:len(pivots1)]]
    cycle1 = tuple(ChainVector(1, v) for v in _greedy_completion(k.n_edges, seed2t, z1))
    cocycle1 = tuple(CochainVector(1, v)
                     for v in _greedy_completion(k.n_edges, seed1, cocycles1))
    z2_rows, pivots = Gf2Matrix.from_rows(z2, k.n_triangles)._rref()
    cycle2 = tuple(ChainVector(2, Gf2Vector(k.n_triangles, r)) for r in z2_rows)
    cocycle2 = tuple(CochainVector(2, Gf2Vector(k.n_triangles, 1 << p)) for p in pivots)
    return ((max(len(comps) - 1, 0), b1, len(z2)),
            {0: cycle0, 1: cycle1, 2: cycle2},
            {0: cocycle0, 1: cocycle1, 2: cocycle2})


def _oracle_cases():
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             cone_book(4), Complex2([]), Complex2.from_triangles([], extra_vertices=[0])]
    cases += [catalog(parse_surface_id(name))
              for name in ["S2"] + [f"{kind}{g}" for kind in "MN" for g in range(1, 9)]]
    rng = random.Random(20261019)
    for j in range(20):
        k = catalog(parse_surface_id(rng.choice(("S2", "N1", "M1", "N2", "N3", "M2"))))
        for _ in range(rng.randrange(1, 4)):
            k = attach_circle(k, rng.choice(k.vertices))
        for b in range(rng.randrange(1, 4)):
            bubble = sphere().relabeled({v: 1000 + 10 * b + v for v in range(4)})
            k = wedge(k, rng.choice(k.vertices), bubble, 1000 + 10 * b)
        cases.append(k)
    far = torus().relabeled({v: 5000 + v for v in range(7)})
    cases.append(Complex2.from_triangles(rp2().triangles + far.triangles))
    cases.append(Complex2.from_triangles(list(torus().triangles) + [(50, 51, 52)],
                                         extra_edges=[(60, 61), (61, 62), (0, 60)],
                                         extra_vertices=[99, "z"]))
    cases.append(m8_wedge(4))
    # small random complexes: free edges, edges of degree three or more,
    # loose edges and isolated vertices
    for _ in range(30):
        n = rng.randrange(4, 9)
        triples = list(combinations(range(n), 3))
        tris = rng.sample(triples, rng.randrange(1, min(12, len(triples)) + 1))
        loose = rng.sample(list(combinations(range(n + 3), 2)), rng.randrange(0, 4))
        cases.append(Complex2.from_triangles(tris, extra_edges=loose,
                                             extra_vertices=range(n + rng.randrange(0, 4))))
    return cases


def test_summary_matches_the_dense_oracle():
    shapes = Counter()
    for k in _oracle_cases():
        s = homology_summary(k)
        assert (s.betti, s.cycle_reps, s.cocycle_reps) == _homology_summary_dense(k)
        shapes["b2>=2"] += s.b2 >= 2
        shapes["disconnected"] += s.b0 > 0
        shapes["loose"] += bool(k.maximal_edges()) and bool(k.isolated_vertices())
        shapes["large"] += k.n_triangles == 4608
        degrees = {k.edge_degree(e) for e in k.edges}
        shapes["free"] += 1 in degrees
        shapes["branching"] += max(degrees, default=0) >= 3
        shapes["isolated"] += bool(k.isolated_vertices())
    assert shapes["b2>=2"] >= 20 and shapes["disconnected"] >= 2
    assert shapes["loose"] >= 1 and shapes["large"] == 1
    assert min(shapes["free"], shapes["branching"], shapes["isolated"]) >= 10


def test_summary_components_are_the_forest_trees(monkeypatch):
    shapes = Counter()
    cases = _oracle_cases() + [
        Complex2([5, "b", 3, "a"]),
        Complex2.from_triangles([(1, 2, "x")], extra_vertices=[0, "y"])]
    for k in cases:
        # the same components whichever order the forest takes the edges in
        for order in (range(k.n_edges), range(k.n_edges - 1, -1, -1)):
            kept, comps = homology._spanning_forest(k, order)
            assert tuple(comps) == k.connected_components()
            assert sum(kept) == k.n_vertices - len(comps)
        shapes["disconnected"] += len(comps) > 1
        shapes["isolated"] += bool(k.isolated_vertices())
    assert shapes["disconnected"] >= 4 and shapes["isolated"] >= 4
    # the summary reads them off the forest, with no second walk
    counts = Counter()
    monkeypatch.setattr(Complex2, "connected_components",
                        _counting(counts, "walks", Complex2.connected_components))
    for k in cases:
        homology_summary(k)
    assert counts["walks"] == 0


def test_summary_runs_one_elimination(monkeypatch):
    base = catalog(parse_surface_id("M3"))
    bubble = sphere().relabeled({v: 1000 + v for v in range(4)})
    k = attach_circle(wedge(base, base.vertices[0], bubble, 1000), base.vertices[5])
    assert k.n_triangles >= 400
    counts = Counter()
    lengths = []
    span_init = Gf2Span.__init__

    def recording_init(self, length):
        lengths.append(length)
        span_init(self, length)

    monkeypatch.setattr(Gf2Matrix, "_rref", _counting(counts, "eliminations", Gf2Matrix._rref))
    monkeypatch.setattr(Gf2Matrix, "rows", _counting(counts, "row_walks", Gf2Matrix.rows))
    monkeypatch.setattr(Gf2Span, "__init__", recording_init)
    monkeypatch.setattr(Gf2Span, "_add_bits", _counting(counts, "insertions", Gf2Span._add_bits))
    s = homology_summary(k)
    assert s.betti == (0, 2 * 3 + 1, 2)  # M3, one circle, one sphere
    # no reduced row echelon form of any matrix and no walk over one
    assert counts["eliminations"] == 0 and counts["row_walks"] == 0
    # one span over the tagged triangle boundaries and one over the b2
    # cycles it finds, each of those inserted once; none over the vertex
    # coboundaries, and the 1-cycles are not built
    assert lengths == [k.n_edges + k.n_triangles, k.n_triangles]
    assert counts["insertions"] == s.b2
    # reading them builds them: one more span, over the edges off the forest
    assert len(s.cycle_reps[1]) == s.b1
    assert lengths[2:] == [k.n_edges - (k.n_vertices - 1)]


def test_cup_form_and_property_a_never_build_the_1_cycles(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(homology, "_one_cycles",
                        _counting(counts, "builds", homology._one_cycles))
    for k in _cup_form_cases():
        s = homology_summary(k)
        cup_pairing_on_h1(k, s)
        has_property_a(k, s)
        for w in s.cocycle_reps[2]:
            h2_coordinates(s, w)
        cup_pairing_on_h1(k)
        has_property_a(k)
    assert counts["builds"] == 0


def test_cycle_reps_are_built_once(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(homology, "_one_cycles",
                        _counting(counts, "builds", homology._one_cycles))
    k = torus_with_circle()
    s = homology_summary(k)
    first = s.cycle_reps
    assert s.cycle_reps is first and len(s.cycle_reps[1]) == s.b1 == 3
    assert counts["builds"] == 1


def test_cocycle_reps_are_cocycles():
    k = torus()
    s = homology_summary(k)
    for a in s.cocycle_reps[1]:
        assert delta(k, a).coeffs.is_zero()


def test_h2_coordinates():
    k = torus()
    s = homology_summary(k)
    # a coboundary has zero class
    some_edge = cochain(k, 1, [k.edges[0]])
    assert h2_coordinates(s, delta(k, some_edge)).is_zero()
    # the summary's own H^2 representative has coordinates e_1
    assert h2_coordinates(s, s.cocycle_reps[2][0]) == Gf2Vector(1, 1)
    # shifting by a coboundary never moves the class
    w = s.cocycle_reps[2][0]
    shifted = CochainVector(2, w.coeffs ^ delta(k, some_edge).coeffs)
    assert h2_coordinates(s, shifted) == h2_coordinates(s, w)


def cone_book(pages: int) -> Complex2:
    """Cones over the circle 0-1-2; any two pages bound a sphere, b2 = pages - 1."""
    return Complex2.from_triangles([t for a in range(10, 10 + pages)
                                    for t in ((0, 1, a), (0, 2, a), (1, 2, a))])


def test_h2_basis_is_dual_to_2_cycles():
    for k, b2 in ((torus_circle_sphere(), 2), (cone_book(4), 3)):
        s = homology_summary(k)
        assert s.b2 == b2
        d2 = boundary_matrix(k, 2)
        for z in s.cycle_reps[2]:
            assert d2.apply(z.coeffs).is_zero()
        for i, a in enumerate(s.cocycle_reps[2]):
            for j, z in enumerate(s.cycle_reps[2]):
                assert a.evaluate(z) == (i == j)


def test_h2_cocycle_reps_pinned():
    # frozen from the completion of im(delta1) to a basis of C^2, a separate construction
    k = torus_circle_sphere()
    assert [chain_support(k, a) for a in homology_summary(k).cocycle_reps[2]] == [
        ((0, 1, 3),), ((0, 101, 102),)]
    k = cone_book(4)
    assert [chain_support(k, a) for a in homology_summary(k).cocycle_reps[2]] == [
        ((0, 1, 10),), ((0, 1, 11),), ((0, 1, 12),)]


def test_h2_coordinates_vanish_exactly_on_coboundaries():
    # independent route: a 2-cochain is a coboundary iff it lies in the row
    # space of the boundary matrix d2 (row e of d2 is delta of edge e)
    rng = random.Random(11)
    for k in (torus(), rp2(), torus_circle_sphere(), cone_book(4)):
        s = homology_summary(k)
        d2 = boundary_matrix(k, 2)
        coboundaries = Gf2Span(k.n_triangles)
        for row in d2.rows():
            coboundaries.add(row)
        for trial in range(40):
            bits = 0
            for row in d2.rows():
                if rng.getrandbits(1):
                    bits ^= row.bits
            if trial % 2:
                bits ^= rng.getrandbits(k.n_triangles)
            w = CochainVector(2, Gf2Vector(k.n_triangles, bits))
            assert h2_coordinates(s, w).is_zero() == coboundaries.contains(w.coeffs)


def test_chain_round_trip():
    k = torus()
    z = chain(k, 2, k.triangles[:3])
    assert chain_support(k, z) == k.triangles[:3]
    assert cochain(k, 2, k.triangles[:1]).evaluate(z) == 1


def test_chain_rejects_simplices_of_the_wrong_dimension():
    k = torus()
    for build, dimension, simplex in ((chain, 0, (0, 1)), (cochain, 0, (0, 6)),
                                      (chain, 1, (0, 1, 3)), (cochain, 2, (0, 1)),
                                      (chain, 1, 3)):
        with pytest.raises(ValueError, match=f"not a {dimension}-simplex"):
            build(k, dimension, [simplex])
    assert chain_support(k, chain(k, 0, [3])) == (3,)
    assert chain_support(k, cochain(k, 1, [(1, 0)])) == ((0, 1),)


def test_missing_simplices_raise_value_error():
    k = torus()
    for simplex in (99, "a", (0, 99), (99, 0, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match="is not in the complex"):
            k.simplex_id(simplex)
    for build, dimension, simplex in ((chain, 0, 99), (chain, 1, (0, 99)),
                                      (cochain, 1, (5, 99)), (cochain, 2, (0, 1, 2))):
        with pytest.raises(ValueError, match="is not in the complex"):
            build(k, dimension, [simplex])


def test_cup_class_well_defined():
    rng = random.Random(5)
    for k in (torus(), rp2()):
        s = homology_summary(k)
        for a in s.cocycle_reps[1]:
            for b in s.cocycle_reps[1]:
                base = h2_coordinates(s, cup_product(k, a, b))
                for _ in range(5):
                    g = CochainVector(0, Gf2Vector(k.n_vertices, rng.getrandbits(k.n_vertices)))
                    a2 = CochainVector(1, a.coeffs ^ delta(k, g).coeffs)
                    assert h2_coordinates(s, cup_product(k, a2, b)) == base
                    b2 = CochainVector(1, b.coeffs ^ delta(k, g).coeffs)
                    assert h2_coordinates(s, cup_product(k, a, b2)) == base


def test_cup_symmetric_on_classes():
    for k in (torus(), rp2()):
        s = homology_summary(k)
        for a in s.cocycle_reps[1]:
            for b in s.cocycle_reps[1]:
                assert (h2_coordinates(s, cup_product(k, a, b))
                        == h2_coordinates(s, cup_product(k, b, a)))


# Cup ranks frozen from the oracle: torus 2, projective plane 1 with
# nonzero square, torus-with-circle still 2 inside b1 = 3.

def test_cup_form_torus():
    form = cup_pairing_on_h1(torus())
    assert form.rank() == 2
    assert [form.entries[i][i].bits for i in range(2)] == [0, 0]


def test_cup_form_rp2():
    form = cup_pairing_on_h1(rp2())
    assert form.rank() == 1
    assert form.entries[0][0].bits == 1  # the generator squares nontrivially


def test_cup_form_torus_with_circle():
    form = cup_pairing_on_h1(torus_with_circle())
    assert len(form.h1_reps) == 3
    assert form.rank() == 2


def test_property_a_verdicts():
    assert has_property_a(sphere()).holds          # vacuous, b1 = 0
    assert has_property_a(rp2()).holds
    assert has_property_a(torus()).holds
    res = has_property_a(torus_with_circle())
    assert not res.holds and res.radical_dimension == 1


def test_property_a_witness_checks_out():
    k = torus_with_circle()
    s = homology_summary(k)
    w = has_property_a(k, s).witness
    assert w is not None
    # really a cocycle, really not a coboundary
    assert delta(k, w).coeffs.is_zero()
    cob = Gf2Span(k.n_edges)
    for row in boundary_matrix(k, 1).rows():
        cob.add(row)
    assert not cob.contains(w.coeffs)
    # cups to zero against the whole basis
    for a in s.cocycle_reps[1]:
        assert h2_coordinates(s, cup_product(k, w, a)).is_zero()


def test_property_a_brute_force_agrees():
    for k in (sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere()):
        assert property_a_brute_force(k) == has_property_a(k).holds


def test_determinism():
    a = homology_summary(torus())
    b = homology_summary(torus())
    assert a.betti == b.betti
    assert a.cycle_reps == b.cycle_reps and a.cocycle_reps == b.cocycle_reps
    f1, f2 = cup_pairing_on_h1(torus()), cup_pairing_on_h1(torus())
    assert f1.entries == f2.entries


def _cup_form_cases():
    """Complexes for the cup-form cross-check: the fixtures, catalog S2..N5,
    the empty complex, a point, two graphs (b1 > 0 with b2 = 0), and seeded
    wedges with loose circles, spheres (b2 >= 2), a disjoint summand and int
    or str labelled pieces."""
    three_cycle = Complex2([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    theta = Complex2(range(5), [(0, m) for m in (2, 3, 4)] + [(1, m) for m in (2, 3, 4)])
    cases = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
             cone_book(4), Complex2([]), Complex2.from_triangles([], extra_vertices=[0]),
             three_cycle, theta]
    cases += [catalog(parse_surface_id(name))
              for name in ("S2", "N1", "M1", "N2", "N3", "M2", "N4", "N5")]
    rng = random.Random(20261018)
    for trial in range(16):
        k = catalog(parse_surface_id(rng.choice(("N1", "M1", "N2", "M2"))))
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(1 + trial % 3):
            if rng.randrange(2):
                bubble = sphere().relabeled({v: f"s{j}.{v}" for v in range(4)})
                k = wedge(k, rng.choice(k.vertices), bubble, f"s{j}.0")
            else:
                bubble = sphere().relabeled({v: 1000 + 10 * j + v for v in range(4)})
                k = wedge(k, rng.choice(k.vertices), bubble, 1000 + 10 * j)
        if trial % 4 == 0:
            far = torus().relabeled({v: 5000 + v for v in range(7)})
            k = Complex2.from_triangles(k.triangles + far.triangles,
                                        extra_edges=k.edges, extra_vertices=k.vertices)
        cases.append(k)
    return cases


def test_cup_form_matches_cup_product_and_h2_coordinates():
    shapes = Counter()
    for k in _cup_form_cases():
        s = homology_summary(k)
        form = cup_pairing_on_h1(k, s)
        reps = s.cocycle_reps[1]
        assert form.h1_reps == reps and form.b2 == s.b2
        assert form.entries == tuple(
            tuple(h2_coordinates(s, cup_product(k, a, b)) for b in reps) for a in reps)
        shapes["b2>=2"] += s.b2 >= 2
        shapes["disconnected"] += s.b0 > 0
        shapes["mixed"] += len({type(v) for v in k.vertices}) == 2
    assert min(shapes.values()) >= 2


def test_left_radical_is_the_relations_among_the_rows():
    shapes = Counter()
    for k in _cup_form_cases():
        form = cup_pairing_on_h1(k)
        n, b2, entries = len(form.h1_reps), form.b2, form.entries
        # the radical as the kernel of the (j, c) x i matrix read off entries
        columns = [Gf2Vector.from_coeffs([entries[i][j].get(c) for i in range(n)])
                   for j in range(n) for c in range(b2)]
        radical = form.left_radical_basis()
        assert radical == Gf2Matrix.from_rows(columns, n).kernel_basis()
        res = has_property_a(k)
        assert res.holds == (not radical) and res.radical_dimension == len(radical)
        if n <= 12:
            assert res.holds == property_a_brute_force(k)
        if b2 == 0:
            assert form.rank() == 0 and radical == [Gf2Vector(n, 1 << i) for i in range(n)]
        shapes["b1>0, b2=0"] += n > 0 and b2 == 0
        shapes["fails"] += not res.holds
        shapes["holds, b1>0"] += res.holds and n > 0
    assert min(shapes.values()) >= 2


def test_property_a_on_a_large_wedge_makes_no_cochain_cups(monkeypatch):
    k = m8_wedge(4)
    assert k.n_triangles == 4608
    counts = Counter()
    monkeypatch.setattr(homology, "cup_product", _counting(counts, "cups", cup_product))
    monkeypatch.setattr(homology, "h2_coordinates",
                        _counting(counts, "coords", h2_coordinates))
    res = has_property_a(k)
    assert not res.holds and res.radical_dimension == 1  # the loose circle
    assert counts["cups"] == 0 and counts["coords"] == 0


def test_cup_form_rejects_a_summary_of_another_complex():
    k = torus()
    with pytest.raises(ValueError, match="does not match this complex"):
        cup_pairing_on_h1(k, homology_summary(rp2()))  # 15 edges, not 21
    punctured = Complex2(k.vertices, k.edges, k.triangles[1:])  # same edges
    with pytest.raises(ValueError, match="summarized complex"):
        cup_pairing_on_h1(k, homology_summary(punctured))
    with pytest.raises(ValueError, match="summarized complex"):
        has_property_a(k, homology_summary(sphere()))  # b1 = 0
