"""Surface recognition, classification, constructions, and the catalog."""

import hashlib
import itertools
import random
from typing import Sequence

import pytest

from simpsurf.bounds import SurfaceId, minimal_triangle_count, parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.homology import (betti_numbers, cup_pairing_on_h1, h2_coordinates,
                               homology_summary)
from simpsurf.io import dumps_complex
from simpsurf.search import _enumerate_closed
from simpsurf.surfaces import (_classify_triangles, _nonorientable_word,
                               _orientable_word, _polygon_scheme_complex, _subdivide, attach_circle,
                               catalog, classify, expected_betti,
                               fundamental_class_cochain, is_closed_surface,
                               surface_hypotheses_report, verify_orientation_witness,
                               wedge)

from _fixtures import (SPHERE_TRIS, decoded, failure_reason_oracle, sphere,
                       torus, torus_with_circle)

MINIMAL_NAMES = ("S2", "N1", "M1", "N2", "N3", "M2")


def test_classify_catalog_entries():
    for name in MINIMAL_NAMES:
        surface = parse_surface_id(name)
        result = classify(catalog(surface))
        assert result.is_surface
        assert result.failure_reason is None
        assert result.surface == surface


def test_catalog_entries_are_minimal():
    for name in MINIMAL_NAMES:
        surface = parse_surface_id(name)
        assert catalog(surface).n_triangles == minimal_triangle_count(surface)


def test_catalog_caches():
    assert catalog(parse_surface_id("M1")) is catalog(parse_surface_id("M1"))


def test_orientation_witnesses():
    for name in ("S2", "M1", "M2"):
        k = catalog(parse_surface_id(name))
        witness = classify(k).orientation_witness
        assert witness is not None
        assert verify_orientation_witness(k, witness)
        # flipping a single triangle breaks coherence
        bad = dict(witness)
        first = k.triangles[0]
        bad[first] = -bad[first]
        assert not verify_orientation_witness(k, bad)


def test_nonorientable_have_no_witness():
    for name in ("N1", "N2", "N3"):
        result = classify(catalog(parse_surface_id(name)))
        assert result.orientation_witness is None


def test_classify_failure_reasons():
    two = Complex2.from_triangles(
        [t for t in SPHERE_TRIS] + [tuple(v + 10 for v in t) for t in SPHERE_TRIS])
    assert classify(two).failure_reason == "disconnected"
    assert classify(torus_with_circle()).failure_reason == "bad_edge_degree"
    assert classify(Complex2.from_triangles([(0, 1, 2)])).failure_reason == "bad_edge_degree"
    pinched = wedge(sphere(), 0, sphere(), 0)
    assert classify(pinched).failure_reason == "bad_link"
    assert not is_closed_surface(pinched)
    assert is_closed_surface(sphere())


def _random_pinched_surface(rng: random.Random) -> Complex2:
    """A subdivided catalog surface with up to three merges of two vertices
    that share no neighbour: every edge stays in two triangles while the
    link of a merged vertex splits into several cycles."""
    k = _subdivide(catalog(parse_surface_id(rng.choice(MINIMAL_NAMES))))[0]
    for _ in range(rng.randrange(4)):
        u, w = rng.sample(k.vertices, 2)
        near_u, near_w = ({x for e in k.edges_at_vertex(v) for x in e}
                          for v in (u, w))
        if not near_u & near_w:
            k = Complex2.from_triangles([tuple(u if x == w else x for x in t)
                                         for t in k.triangles])
    return k


def test_classify_matches_the_link_graph_oracle():
    inputs = [Complex2.from_triangles(tris) for n in range(3, 8)
              for tris, _used, _orientable
              in decoded(n, _enumerate_closed(n, False))]
    rng = random.Random("link oracle")
    inputs += [_random_pinched_surface(rng) for _ in range(300)]
    reasons = [failure_reason_oracle(k) for k in inputs]
    assert reasons.count("bad_link") >= 50 and reasons.count(None) >= 50
    for k, reason in zip(inputs, reasons):
        assert classify(k).failure_reason == reason, k.triangles


# _classify_triangles as it ran before it took connectivity and edge
# degrees as given, kept verbatim as the oracle for the apex-sum core
def _classify_triangles_reference(tris: Sequence[tuple[int, int, int]],
                                  n_vertices: int) -> tuple:
    """(failure_reason, surface, signs) for the complex whose triangles
    are tris, each an increasing triple, and whose vertices are exactly
    0..n_vertices-1; signs is the coherent orientation, one sign per
    triangle, for an orientable surface and None otherwise.

    The checks run in order: connectivity, every edge in exactly two
    triangles, every vertex link a single cycle.  Then signs propagate
    over triangle indices from sign 1 on the first triangle: a triangle
    (a, b, c) with sign s runs its edges ab and bc forwards and ac
    backwards when s = 1, and two triangles on an edge agree when they
    run it opposite ways.  The Euler characteristic comes from the counts.
    """
    if not n_vertices:
        return "disconnected", None, None
    reach = [0] * n_vertices  # bitmask of each vertex's closed neighbourhood
    sides: dict = {}  # edge -> [(triangle index, direction of the edge)]
    for i, (a, b, c) in enumerate(tris):
        star = 1 << a | 1 << b | 1 << c
        reach[a] |= star
        reach[b] |= star
        reach[c] |= star
        sides.setdefault((a, b), []).append((i, 1))
        sides.setdefault((b, c), []).append((i, 1))
        sides.setdefault((a, c), []).append((i, -1))
    seen = todo = 1
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        grown = reach[v] & ~seen
        seen |= grown
        todo |= grown
    if seen != (1 << n_vertices) - 1:
        return "disconnected", None, None
    if any(len(s) != 2 for s in sides.values()):
        return "bad_edge_degree", None, None

    # with every edge in two triangles each link is a union of cycles, a
    # single one exactly when it is nonempty and walking it from any
    # vertex visits them all
    link: list[dict] = [{} for _ in range(n_vertices)]
    for a, b, c in tris:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            link[v].setdefault(x, []).append(y)
            link[v].setdefault(y, []).append(x)
    for cycle in link:
        if not cycle:
            return "bad_link", None, None
        start = prev = next(iter(cycle))
        here, steps = cycle[start][0], 1
        while here != start:
            x, y = cycle[here]
            prev, here = here, y if x == prev else x
            steps += 1
        if steps != len(cycle):
            return "bad_link", None, None

    sign = [0] * len(tris)
    sign[0] = 1
    stack = [0]
    orientable = True
    while stack and orientable:
        a, b, c = tris[stack.pop()]
        for (i, di), (j, dj) in (sides[(a, b)], sides[(b, c)], sides[(a, c)]):
            if sign[i] and sign[j]:
                if sign[i] * di == sign[j] * dj:
                    orientable = False
                    break
            else:  # one of the two is signed: the one just popped
                u = j if sign[i] else i
                sign[u] = -(sign[i] + sign[j]) * di * dj
                stack.append(u)

    chi = n_vertices - len(sides) + len(tris)
    if orientable:
        return None, SurfaceId(True, (2 - chi) // 2), sign
    return None, SurfaceId(False, 2 - chi), None


def _index_triangles(k: Complex2) -> list:
    index = k._vertex_index
    return [(index[a], index[b], index[c]) for a, b, c in k.triangles]


def test_recognizer_matches_the_reference():
    inputs = [(tris, used) for n in range(3, 9) for tris, used, _orientable
              in decoded(n, _enumerate_closed(n, False))]
    assert len(inputs) == 4189
    catalogs = [catalog(parse_surface_id(f"{kind}{g}"))
                for kind in "MN" for g in range(1, 9)]
    rng = random.Random("link oracle")
    pinched = [_random_pinched_surface(rng) for _ in range(300)]
    # the core takes connectivity and edge degrees as given
    pinched = [k for k in pinched if classify(k).failure_reason
               not in ("disconnected", "bad_edge_degree")]
    assert len(pinched) == 300
    inputs += [(_index_triangles(k), k.n_vertices) for k in catalogs + pinched]
    got = [_classify_triangles(tris, n) for tris, n in inputs]
    assert got == [_classify_triangles_reference(tris, n) for tris, n in inputs]
    reasons = [reason for reason, _surface, _signs in got]
    assert reasons.count("bad_link") >= 2000 and reasons.count(None) >= 500
    assert sum(signs is not None for _reason, _surface, signs in got) >= 200


def test_closed_states_meet_the_recognizer_precondition():
    # connected, every edge in exactly two triangles: what the link walk
    # (_link_apexes) takes as given from the desk search
    for n in range(3, 9):
        for tris, used, _orientable in decoded(n, _enumerate_closed(n, False)):
            k = Complex2.from_triangles(tris)
            assert k.vertices == tuple(range(used))
            assert len(k.connected_components()) == 1, tris
            assert all(len(ts) == 2 for ts in k._tris_at_edge.values()), tris


def test_recognizer_matches_independent_oracles():
    states = [(tris, used) for n in range(3, 9) for tris, used, _orientable
              in decoded(n, _enumerate_closed(n, False))]
    assert len(states) == 4189
    # hand-built states, each failing the first check it names
    tetra = list(itertools.combinations(range(4), 3))
    shifted = [tuple(v + 4 for v in t) for t in tetra]
    hinge = [tuple(v if v < 2 else v + 2 for v in t) for t in tetra]
    # two spheres on one vertex, whose link is two cycles
    states.append((tuple(tetra + [(3, 4, 5), (3, 4, 6), (3, 5, 6),
                                  (4, 5, 6)]), 7))
    # the rest fail a check of the 1-skeleton, which classify makes before
    # it hands the triangles to the recognizer
    skeleton_failures = [
        (tuple(tetra + shifted), 8),  # two spheres apart
        (((0, 1, 2), (3, 4, 5)), 6),  # two triangles apart
        # apart, and the triangle's edges lie in one triangle each
        (((0, 1, 2),) + tuple(tuple(v + 3 for v in t) for t in tetra), 7),
        (((0, 1, 2),), 3),
        (((0, 1, 2), (0, 1, 3), (0, 1, 4)), 5),  # three pages on one edge
        (tuple(sorted(tetra + hinge)), 6),  # two spheres on one edge
    ]
    reasons, surfaces = [], set()
    for tris, used in skeleton_failures:
        k = Complex2.from_triangles(tris)
        assert k.vertices == tuple(range(used))
        got = classify(k)
        assert got.failure_reason == failure_reason_oracle(k), tris
        assert got.surface is None and got.orientation_witness is None
        reasons.append(got.failure_reason)
    for tris, used in states:
        k = Complex2.from_triangles(tris)
        assert k.vertices == tuple(range(used))
        reason, surface, signs = _classify_triangles(tris, used)
        assert reason == failure_reason_oracle(k), tris
        reasons.append(reason)
        if reason is not None:
            assert surface is None and signs is None
            continue
        surfaces.add(surface)
        assert surface.euler_characteristic == k.euler_characteristic()
        # Wu's formula: a closed surface is orientable iff x cup x = 0 for
        # every x in H^1, and squaring is linear, so a basis decides it
        form = cup_pairing_on_h1(k)
        assert len(form.h1_reps) == expected_betti(surface)[1], tris
        wu = all(not form.entries[i][i].bits for i in range(len(form.h1_reps)))
        assert surface.orientable == wu, tris
        if surface.orientable:
            assert verify_orientation_witness(k, dict(zip(tris, signs)))
        else:
            assert signs is None
    assert reasons.count("disconnected") == 3
    assert reasons.count("bad_edge_degree") == 3
    assert reasons.count("bad_link") >= 2000
    assert {parse_surface_id(x) for x in ("S2", "N1", "M1", "N2")} <= surfaces


def test_an_empty_link_is_a_bad_link():
    assert _classify_triangles((), 1) == ("bad_link", None, None)
    for label in (0, "v"):
        got = classify(Complex2((label,), (), ()))
        assert (got.is_surface, got.failure_reason) == (False, "bad_link")
    assert classify(Complex2((), (), ())).failure_reason == "disconnected"


def test_expected_betti_matches_homology():
    for name in MINIMAL_NAMES:
        surface = parse_surface_id(name)
        assert betti_numbers(catalog(surface)) == expected_betti(surface)


def test_hypotheses_report_torus_vs_klein():
    # F2 Betti numbers cannot tell M1 from N2; the report shows the
    # hypothesis checks passing while classification disagrees.
    k = torus()
    report = surface_hypotheses_report(k, parse_surface_id("N2"))
    assert report.edge_degrees_ok
    assert report.betti_ok
    assert report.cup_pairing_ok
    assert report.all_hypotheses_hold
    assert not report.classification_matches
    right = surface_hypotheses_report(k, parse_surface_id("M1"))
    assert right.all_hypotheses_hold and right.classification_matches


def test_hypotheses_report_failures():
    report = surface_hypotheses_report(torus_with_circle(), parse_surface_id("M1"))
    assert not report.edge_degrees_ok
    assert report.betti == (0, 3, 1)
    assert not report.betti_ok
    assert not report.cup_pairing_ok
    assert not report.classification_matches


def test_wedge_disjoint_labels():
    other = sphere().relabeled({v: v + 100 for v in range(4)})
    w = wedge(torus(), 0, other, 100)
    assert w.euler_characteristic() == 0 + 2 - 1
    assert betti_numbers(w) == (0, 2, 2)
    assert w.has_vertex(0) and not w.has_vertex(100)


def test_wedge_point_is_identity():
    point = Complex2((99,), (), ())
    assert wedge(torus(), 3, point, 99) == torus()


def test_wedge_label_clash_namespaces():
    w = wedge(torus(), 0, torus(), 0)
    assert w.euler_characteristic() == -1
    assert betti_numbers(w) == (0, 4, 2)
    assert w.has_vertex("L.0") and w.has_vertex("R.1")
    assert not w.has_vertex("R.0")


def test_wedge_same_label_same_vertex():
    other = sphere().relabeled({0: 0, 1: 11, 2: 12, 3: 13})
    w = wedge(torus(), 0, other, 0)
    assert w.euler_characteristic() == 1
    assert w.has_vertex(0) and w.has_vertex(11)


def test_wedge_rejects_missing_vertices():
    with pytest.raises(ValueError):
        wedge(torus(), 77, sphere(), 0)
    with pytest.raises(ValueError):
        wedge(torus(), 0, sphere(), 77)


def test_wedge_and_circle_reject_a_bool_or_float_vertex():
    # each equals an int label of the torus, and was once taken for it
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="not in the first complex"):
            wedge(torus(), bad, torus(), 0)
        with pytest.raises(ValueError, match="not in the second complex"):
            wedge(torus(), 0, torus(), bad)
        with pytest.raises(ValueError, match="not in the complex"):
            attach_circle(torus(), bad)


def test_attach_circle():
    k = attach_circle(torus(), 0)
    assert k.n_vertices == 9
    assert k.n_edges == torus().n_edges + 3
    assert k.n_triangles == torus().n_triangles
    assert betti_numbers(k) == (0, 3, 1)
    assert len(k.maximal_edges()) == 3
    k2 = attach_circle(k, 0)
    assert betti_numbers(k2) == (0, 4, 1)
    with pytest.raises(ValueError):
        attach_circle(torus(), 77)


def test_fundamental_class_cochain():
    for name in ("M1", "N1", "M2"):
        k = catalog(parse_surface_id(name))
        w = fundamental_class_cochain(k)
        summary = homology_summary(k)
        assert not h2_coordinates(summary, w).is_zero()
    with pytest.raises(ValueError):
        fundamental_class_cochain(torus_with_circle())


def test_polygon_scheme_words():
    kt = _polygon_scheme_complex(_orientable_word(1))
    assert classify(kt).surface == SurfaceId(True, 1)
    kk = _polygon_scheme_complex(_nonorientable_word(2))
    assert classify(kk).surface == SurfaceId(False, 2)


def test_polygon_scheme_validation():
    with pytest.raises(ValueError):
        _polygon_scheme_complex([("a", 1), ("a", -1)])  # too short
    with pytest.raises(ValueError):
        _polygon_scheme_complex([("a", 1), ("a", 1), ("b", 1)])  # b once
    with pytest.raises(ValueError):
        _polygon_scheme_complex([("a", 2), ("a", 1), ("b", 1), ("b", 1)])


def test_generic_catalog_entries():
    m3 = catalog(SurfaceId(True, 3))
    assert classify(m3).surface == SurfaceId(True, 3)
    n4 = catalog(SurfaceId(False, 4))
    assert classify(n4).surface == SurfaceId(False, 4)
    assert betti_numbers(n4) == (0, 4, 1)


def test_built_catalog_entries_are_pinned():
    # the polygon gluing names each vertex by the root of its union-find
    # tree, so the labels of a built entry depend on the order of the
    # unions, the end each hangs and the path halving: the saved files,
    # in this order, hash to one digest
    digest = hashlib.sha256()
    for name in ("M3", "M4", "M8", "N4", "N5", "N8"):
        digest.update(dumps_complex(catalog(parse_surface_id(name)), name=name).encode())
    assert digest.hexdigest()[:16] == "9268b6818ccc228d"


def test_subdivision_counts():
    sub, vmap, emid = _subdivide(torus())
    assert sub.n_triangles == 6 * 14
    assert sub.euler_characteristic() == 0
    assert classify(sub).surface == SurfaceId(True, 1)
    assert len(vmap) == 7 and len(emid) == 21
