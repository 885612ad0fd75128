"""Vertex floors, minimal triangle counts, group profiles, certificates."""

import pytest

from simpsurf.bounds import (EXCEPTIONAL_SURFACES, SPHERE, ComplexityCertificate,
                             GroupProfile, NotApplicableError, SurfaceId,
                             baumslag_solitar_profile, complexity_certificate,
                             euler_bounds_check, free_group_profile,
                             free_product_lower_bound, minimal_triangle_count,
                             parse_surface_id, surface_group_profile,
                             truncated_euler_characteristic, vertex_floor)

from _fixtures import sphere, torus, torus_with_circle


VERTEX_FLOOR_TABLE = {2: 4, 1: 6, 0: 7, -1: 8, -2: 9, -4: 10}


def test_vertex_floor_table():
    for chi, floor in VERTEX_FLOOR_TABLE.items():
        assert vertex_floor(chi) == floor


def test_vertex_floor_is_least_admissible_vertex_count():
    # For chi <= 0 the floor is the least n with n(n-1) >= 6n - 6 chi,
    # i.e. the least vertex count letting 2(alpha0 - chi) triangles fit
    # under the complete-graph edge bound.
    for chi in range(0, -40, -1):
        n = vertex_floor(chi)
        assert 6 * chi >= 6 * n - n * (n - 1)
        assert 6 * chi < 6 * (n - 1) - (n - 1) * (n - 2)


def test_vertex_floor_monotone_and_bounded():
    floors = [vertex_floor(chi) for chi in range(2, -60, -1)]
    assert floors == sorted(floors)
    assert vertex_floor(2) == 4
    with pytest.raises(NotApplicableError):
        vertex_floor(3)


def test_surface_id_basics():
    assert SurfaceId(True, 0) == SPHERE
    assert SurfaceId(True, 2).euler_characteristic == -2
    assert SurfaceId(False, 3).euler_characteristic == -1
    assert SurfaceId(True, 1).name == "M1"
    assert SurfaceId(False, 1).name == "N1"
    assert SPHERE.name == "S2"
    with pytest.raises(ValueError):
        SurfaceId(True, -1)
    with pytest.raises(ValueError):
        SurfaceId(False, 0)


def test_parse_surface_id():
    for text in ("S2", "M1", "M17", "N1", "N3"):
        assert parse_surface_id(text).name == text
    assert parse_surface_id("torus") == SurfaceId(True, 1)
    with pytest.raises(ValueError):
        parse_surface_id("M0")
    with pytest.raises(ValueError):
        parse_surface_id("Q7")
    # a superscript or a full-width digit is a digit to str.isdigit, yet
    # no genus, and nor are more digits than int() converts (4300 by
    # default): the message names the text instead of int()'s complaint
    for text in ("M²", "M１", "N٣", "M" + "9" * 5000):
        with pytest.raises(ValueError, match="unrecognized surface id"):
            parse_surface_id(text)


MINIMAL_COUNT_TABLE = {
    "S2": 4,
    "N1": 10,
    "M1": 14,
    "N2": 16,
    "N3": 20,
    "M2": 24,
}


def test_minimal_triangle_count_table():
    for name, count in MINIMAL_COUNT_TABLE.items():
        assert minimal_triangle_count(parse_surface_id(name)) == count


def test_minimal_triangle_count_beyond_exceptions():
    # M3 and N4 are generic again: no +2 correction.
    assert minimal_triangle_count(SurfaceId(True, 3)) == 2 * 10 - 2 * (-4)
    assert minimal_triangle_count(SurfaceId(False, 4)) == 2 * 9 - 2 * (-2)


def test_minimal_triangle_count_growth_increments():
    # Successive orientable genera differ by 4 to 6 triangles apart from
    # the genus 2 correction.
    counts = [minimal_triangle_count(SurfaceId(True, g)) for g in range(1, 51)]
    gaps = [b - a for a, b in zip(counts, counts[1:])]
    assert all(2 <= gap <= 12 for gap in gaps)
    assert all(4 <= gap <= 6 for gap in gaps[2:])


def test_exceptional_set():
    assert EXCEPTIONAL_SURFACES == {SurfaceId(True, 2), SurfaceId(False, 2),
                                    SurfaceId(False, 3)}


def test_surface_group_profiles():
    assert surface_group_profile(SPHERE).h1 == 0
    assert surface_group_profile(SPHERE).h2 == 0
    t = surface_group_profile(SurfaceId(True, 1))
    assert (t.h1, t.h2, t.property_a) == (2, 1, True)
    assert surface_group_profile(SurfaceId(False, 1)).h1 == 1
    assert surface_group_profile(SurfaceId(True, 2)).h1 == 4
    assert surface_group_profile(SurfaceId(False, 3)).h1 == 3
    assert all(surface_group_profile(SurfaceId(False, k)).property_a
               for k in range(1, 6))


def test_truncated_euler_characteristic():
    assert truncated_euler_characteristic(surface_group_profile(SPHERE)) == 1
    assert truncated_euler_characteristic(surface_group_profile(SurfaceId(True, 1))) == 0
    assert truncated_euler_characteristic(surface_group_profile(SurfaceId(True, 2))) == -2
    assert truncated_euler_characteristic(free_group_profile(3)) == -2


def test_free_group_profile():
    assert free_group_profile(0).property_a
    assert not free_group_profile(1).property_a
    assert free_group_profile(5).h2 == 0
    with pytest.raises(ValueError):
        free_group_profile(-1)


def test_baumslag_solitar_profile():
    p = baumslag_solitar_profile(3, 5)
    assert (p.h1, p.h2, p.property_a) == (2, 1, True)
    with pytest.raises(NotApplicableError):
        baumslag_solitar_profile(2, 3)
    with pytest.raises(NotApplicableError):
        baumslag_solitar_profile(3, 4)


def test_free_product_lower_bound_values():
    # A torus factor forces 14 triangles in any free product, matching the
    # torus's own minimal count.
    assert free_product_lower_bound(surface_group_profile(SurfaceId(True, 1))) == 14
    assert free_product_lower_bound(baumslag_solitar_profile(3, 5)) == 14
    assert free_product_lower_bound(surface_group_profile(SurfaceId(False, 1))) == 10
    # For the exceptional surfaces the free-product bound sits exactly 2
    # below the minimal triangle count.
    for surface in EXCEPTIONAL_SURFACES:
        bound = free_product_lower_bound(surface_group_profile(surface))
        assert minimal_triangle_count(surface) - bound == 2


def test_free_product_lower_bound_preconditions():
    with pytest.raises(NotApplicableError):
        free_product_lower_bound(free_group_profile(2))  # pairing fails
    with pytest.raises(NotApplicableError):
        free_product_lower_bound(surface_group_profile(SPHERE))  # h2 = 0
    with pytest.raises(NotApplicableError):
        free_product_lower_bound(GroupProfile("big", 0, 3, True))  # chi > 2


def test_euler_bounds_on_surfaces():
    for build in (sphere, torus):
        report = euler_bounds_check(build())
        assert report.applicable
        assert report.satisfied
        assert report.alpha0 >= report.alpha0_floor
        # closed surfaces meet the triangle floor with equality
        assert report.alpha2 == report.alpha2_floor


def test_euler_bounds_inapplicable():
    report = euler_bounds_check(torus_with_circle())
    assert not report.applicable
    assert any("fewer than two" in f for f in report.failures)
    assert not report.satisfied


def test_complexity_certificates():
    for name in ("N1", "M1", "N2", "N3", "M2"):
        surface = parse_surface_id(name)
        cert = complexity_certificate(surface)
        assert isinstance(cert, ComplexityCertificate)
        assert cert.triangle_complexity == MINIMAL_COUNT_TABLE[name]
        assert cert.witness_alpha2 == cert.triangle_complexity
        assert cert.lower_bound <= cert.triangle_complexity
        assert cert.exceptional == (name in ("N2", "N3", "M2"))
        gap = cert.triangle_complexity - cert.lower_bound
        assert gap == (2 if cert.exceptional else 0)


def test_complexity_certificate_of_m7_has_its_witness():
    cert = complexity_certificate(SurfaceId(True, 7))
    assert cert.witness_alpha2 == 1008
    assert cert.triangle_complexity == minimal_triangle_count(SurfaceId(True, 7))
    assert cert.witness_alpha2 >= cert.triangle_complexity


def test_no_catalog_witness_below_its_least_chi():
    from simpsurf.surfaces import CATALOG_MIN_CHI, catalog
    for surface in (SurfaceId(True, 129), SurfaceId(False, 2 - CATALOG_MIN_CHI + 1),
                    SurfaceId(True, 10 ** 8)):
        assert surface.euler_characteristic < CATALOG_MIN_CHI
        with pytest.raises(NotApplicableError):
            catalog(surface)
        cert = complexity_certificate(surface)
        assert cert.witness_alpha2 is None
        assert cert.triangle_complexity == minimal_triangle_count(surface)


def test_sphere_certificate_not_applicable():
    with pytest.raises(NotApplicableError):
        complexity_certificate(SPHERE)
