from __future__ import annotations

import random
from itertools import combinations

import pytest

from _fixtures import rp2, sphere, torus, torus_circle_sphere, torus_with_circle
from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Span, Gf2Vector
from simpsurf.homology import (
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
from simpsurf.surfaces import catalog


def delta(k: Complex2, w):
    """Simplicial coboundary of a 0- or 1-cochain."""
    m = boundary_matrix(k, w.dimension + 1).transpose()
    return CochainVector(w.dimension + 1, m.apply(w.coeffs))


def test_boundary_composition_is_zero():
    for k in (sphere(), rp2(), torus_circle_sphere()):
        d1, d2 = boundary_matrix(k, 1), boundary_matrix(k, 2)
        for col in d2.transpose().rows():
            assert d1.apply(col).is_zero()


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
