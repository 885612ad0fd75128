"""Kill steps, free collapses, loose-edge elimination, and the pipeline."""

import random
from collections import Counter

import pytest

from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix
from simpsurf.homology import betti_numbers, has_property_a
from simpsurf.reduction import (PreservationSpec, collapse_all,
                                eliminate_maximal_edges, kill_step,
                                simplify_pipeline)
from simpsurf.surfaces import attach_circle, catalog, classify, wedge

from _fixtures import rp2, sphere, torus, torus_circle_sphere, torus_with_circle


def torus_functional() -> PreservationSpec:
    # the indicator of one torus triangle evaluates to 1 on the torus cycle
    return PreservationSpec.from_triangle_lists([[(0, 1, 3)]])


def test_spec_constructors_canonicalize():
    spec = PreservationSpec.from_triangle_lists([[(3, 1, 0)], [(0, 2, 3), (5, 4, 0)]])
    assert spec.rank == 2
    assert spec.supports[0] == frozenset({(0, 1, 3)})
    assert (0, 4, 5) in spec.supports[1]


def test_dual_basis_rank_and_validation():
    k = torus_circle_sphere()
    assert PreservationSpec.dual_basis(k).rank == 2
    assert PreservationSpec.dual_basis(k, 1).rank == 1
    with pytest.raises(ValueError):
        PreservationSpec.dual_basis(k, 3)
    with pytest.raises(ValueError):
        PreservationSpec.dual_basis(k, -1)


def test_evaluation_matrix():
    k = sphere()
    with pytest.raises(ValueError):
        PreservationSpec.from_triangle_lists([[(9, 9, 9)]])
    ev = PreservationSpec.from_triangle_lists(
        [[(0, 1, 2), (1, 2, 3)]]).evaluation_matrix(k)
    assert ev.n_rows == 1 and ev.n_cols == 4
    assert ev.row(0).support() == (0, 3)


def test_surjectivity():
    k = torus()
    assert PreservationSpec.dual_basis(k).is_surjective_on_cycles(k)
    assert torus_functional().is_surjective_on_cycles(k)
    # a functional supported away from the complex sees nothing
    far = PreservationSpec.from_triangle_lists([[(90, 91, 92)]])
    assert not far.is_surjective_on_cycles(k)
    # rank zero is vacuously surjective
    assert PreservationSpec(()).is_surjective_on_cycles(k)


def test_kill_step_on_sphere():
    k = sphere()
    smaller, sigma = kill_step(k, PreservationSpec(()))
    assert sigma == (0, 1, 2)
    assert smaller.n_triangles == 3
    assert betti_numbers(smaller) == (0, 0, 0)


def test_kill_step_errors():
    k = sphere()
    with pytest.raises(ValueError, match="no excess"):
        kill_step(k, PreservationSpec.dual_basis(k))
    with pytest.raises(ValueError, match="not surjective"):
        kill_step(k, PreservationSpec.from_triangle_lists([[(90, 91, 92)]]))


def test_kill_step_hits_the_invisible_summand():
    k = torus_circle_sphere()
    smaller, sigma = kill_step(k, torus_functional())
    assert sigma == (0, 101, 102)  # a sphere triangle, never a torus one
    assert betti_numbers(smaller) == (0, 3, 1)


def test_collapse_single_triangle_to_point():
    k, pairs = collapse_all(Complex2.from_triangles([(0, 1, 2)]))
    assert pairs == (((0, 1), (0, 1, 2)), (0, (0, 2)), (1, (1, 2)))
    assert k == Complex2((2,), (), ())


def test_collapse_preserves_chi_and_betti():
    k = torus_circle_sphere()
    out, pairs = collapse_all(k)
    # nothing here is collapsible: every edge is in 0 or 2 triangles and
    # every vertex meets several edges
    assert pairs == () and out == k
    killed, _ = kill_step(k, PreservationSpec.dual_basis(k, 1))
    out, pairs = collapse_all(killed)
    assert pairs
    assert out.euler_characteristic() == killed.euler_characteristic()
    assert betti_numbers(out) == betti_numbers(killed)


def test_eliminate_on_pendant_circle():
    result = eliminate_maximal_edges(torus_with_circle())
    assert result.result == torus()
    assert result.free_rank == 1
    assert len(result.deleted_edges) == 1
    assert len(result.contractions) == 2
    assert result.spec is None


def test_eliminate_contracts_a_bridge():
    shifted = torus().relabeled({v: v + 10 for v in range(7)})
    k = Complex2(torus().vertices + shifted.vertices,
                 torus().edges + shifted.edges + ((0, 10),),
                 torus().triangles + shifted.triangles)
    result = eliminate_maximal_edges(k, torus_functional())
    assert result.contractions == ((0, 10),)
    assert result.deleted_edges == ()
    assert betti_numbers(result.result) == (0, 4, 2)
    assert result.spec == torus_functional()  # supports unaffected by this rename


def test_eliminate_identity_without_maximal_edges():
    result = eliminate_maximal_edges(torus())
    assert result.result == torus()
    assert result.collapses == () and result.contractions == ()
    assert result.free_rank == 0


def test_pipeline_torus_is_fixpoint():
    trace = simplify_pipeline(torus())
    assert trace.result == torus()
    assert trace.killed_triangles == () and trace.deleted_edges == ()
    assert trace.contractions == () and trace.free_rank == 0
    assert trace.snapshots == (("input", (0, 2, 1)),)


def test_pipeline_wedge_recovers_torus():
    k = torus_circle_sphere()
    trace = simplify_pipeline(k, torus_functional())
    assert trace.result == torus()
    assert trace.killed_triangles == ((0, 101, 102),)
    assert trace.free_rank == 1
    assert len(trace.contractions) == 2
    assert len(trace.collapses) == 6
    assert not trace.input_disconnected
    # chi books: one kill against one deletion
    assert trace.result.euler_characteristic() == k.euler_characteristic()
    # snapshot bookkeeping: the kill drops b2 only
    assert trace.snapshots[0] == ("input", (0, 3, 2))
    assert trace.snapshots[1] == ("kill", (0, 3, 1))
    # the reduced complex keeps its pairing nondegenerate
    assert has_property_a(trace.result).holds


def test_pipeline_sphere_rank_zero_collapses_to_point():
    trace = simplify_pipeline(sphere(), target_rank=0)
    assert trace.killed_triangles == ((0, 1, 2),)
    assert trace.free_rank == 0
    assert trace.result == Complex2((3,), (), ())
    assert trace.result.euler_characteristic() == 2 - 1


def test_pipeline_default_spec_kills_nothing():
    k = torus_circle_sphere()
    trace = simplify_pipeline(k)
    assert trace.killed_triangles == ()
    assert betti_numbers(trace.result)[2] == 2
    # the circle still gets deleted and the wedge cleaned up
    assert trace.free_rank == 1


def test_pipeline_target_rank_counts_kills():
    k = torus_circle_sphere()
    trace = simplify_pipeline(k, target_rank=1)
    assert len(trace.killed_triangles) == 1
    assert betti_numbers(trace.result)[2] == 1


def test_pipeline_rejects_bad_inputs():
    k = torus()
    with pytest.raises(ValueError):
        simplify_pipeline(k, PreservationSpec.from_triangle_lists([[(90, 91, 92)]]))
    with pytest.raises(ValueError):
        simplify_pipeline(k, torus_functional(), target_rank=2)


def test_pipeline_disconnected_flagged():
    k = Complex2.from_triangles(
        list(sphere().triangles) + [tuple(v + 10 for v in t) for t in sphere().triangles])
    trace = simplify_pipeline(k)
    assert trace.input_disconnected
    assert trace.result == k


def test_pipeline_empty_complex():
    trace = simplify_pipeline(Complex2((), (), ()))
    assert trace.result.n_vertices == 0
    assert trace.free_rank == 0


def test_random_wedges_reduce_to_the_surface():
    rng = random.Random(20240817)
    names = ("S2", "N1", "M1", "N2")
    for _ in range(12):
        name = rng.choice(names)
        surface = parse_surface_id(name)
        k = catalog(surface)
        n_circles = rng.randrange(0, 3)
        n_spheres = rng.randrange(0, 3)
        for _ in range(n_circles):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(n_spheres):
            bubble = sphere().relabeled({i: 100 + 10 * j + i for i in range(4)})
            k = wedge(k, rng.choice(catalog(surface).vertices),
                      bubble, 100 + 10 * j)
        if name == "S2":
            # default spec pins every sphere; only circles disappear
            trace = simplify_pipeline(k)
            assert betti_numbers(trace.result)[2] == 1 + n_spheres
            assert trace.free_rank == n_circles
            continue
        spec = PreservationSpec.from_triangle_lists([[catalog(surface).triangles[0]]])
        trace = simplify_pipeline(k, spec, target_rank=1)
        assert trace.free_rank == n_circles
        assert len(trace.killed_triangles) == n_spheres
        got = classify(trace.result)
        assert got.is_surface and got.surface == surface
        assert trace.result.n_triangles == catalog(surface).n_triangles


def _next_collapse(k: Complex2):
    """The pair collapse_all takes next: first free edge, else first free vertex."""
    e = next((e for e in k.edges if k.edge_degree(e) == 1), None)
    if e is not None:
        return e, k.triangles_at_edge(e)[0]
    v = next((v for v in k.vertices if len(k.edges_at_vertex(v)) == 1), None)
    if v is not None:
        return v, k.edges_at_vertex(v)[0]
    return None


def _replay(k: Complex2, spec: PreservationSpec, trace) -> Counter:
    """Re-apply every recorded move with the immutable Complex2 edits.

    Each move must be the canonical choice, its precondition must hold,
    and the Betti numbers after it must equal the recorded snapshot.
    Returns the snapshot labels seen.
    """
    snapshots = iter(trace.snapshots)
    collapses = iter(trace.collapses)
    contractions = iter(trace.contractions)
    deleted = iter(trace.deleted_edges)
    seen = Counter()

    def check(label):
        assert next(snapshots) == (label, betti_numbers(k))
        seen[label] += 1

    def collapse_run() -> bool:
        nonlocal k
        before = betti_numbers(k)
        made = False
        while (pair := _next_collapse(k)) is not None:
            assert next(collapses) == pair
            face, coface = pair
            if isinstance(face, tuple):
                k = k.remove_open_triangle(coface).delete_maximal_edge(face)
            else:
                k = k.delete_maximal_edge(coface).remove_isolated_vertex(face)
            assert betti_numbers(k) == before
            made = True
        if made:
            check("collapse")
        return made

    check("input")
    for sigma in trace.killed_triangles:
        k, expected = kill_step(k, spec)
        assert sigma == expected
        check("kill")
    with pytest.raises(ValueError, match="no excess"):
        kill_step(k, spec)
    collapse_run()
    while True:
        loose = k.maximal_edges()
        if not loose:
            if collapse_run():
                continue
            break
        e = loose[0]
        keep, gone = e
        joined = any(keep in comp and gone in comp
                     for comp in k.delete_maximal_edge(e).connected_components())
        if joined:
            assert next(deleted) == e
            k = k.delete_maximal_edge(e)
            check("delete")
        else:
            assert next(contractions) == e
            k = k.contract_maximal_edge(e)
            spec = spec.mapped({gone: keep})
            check("contract")
    for rest in (snapshots, collapses, contractions, deleted):
        assert next(rest, None) is None
    assert k == trace.result and spec == trace.spec
    assert spec.is_surjective_on_cycles(k)
    return seen


def _book(rng: random.Random) -> Complex2:
    """Three to six cones on one circle, on shuffled labels; its 2-cycles overlap."""
    labels = rng.sample(range(600, 700), rng.randrange(6, 10))
    u, v, w = labels[:3]
    return Complex2.from_triangles(
        [t for a in labels[3:] for t in ((u, v, a), (u, w, a), (v, w, a))])


def test_pipeline_replays_step_by_step():
    rng = random.Random(20261018)
    names = ("S2", "N1", "M1", "N2", "N3", "M2")
    seen = Counter()
    for i in range(150):
        base = catalog(parse_surface_id(rng.choice(names)))
        k = base
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 3)):
            bubble = sphere().relabeled({v: 100 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 100 + 10 * j)
        shape = i % 5
        if shape == 4:  # a book of cones on one circle: its 2-cycles overlap
            book = _book(rng)
            at = rng.choice(book.vertices)
            page = next(t for t in book.triangles if at not in t)
            k = wedge(k, rng.choice(base.vertices), book, at)
        elif shape == 1:  # a bridge to a torus
            other = torus().relabeled({v: 200 + v for v in range(7)})
            k = Complex2(k.vertices + other.vertices,
                         k.edges + other.edges + ((rng.choice(base.vertices), 200),),
                         k.triangles + other.triangles)
        elif shape == 2:  # a disjoint projective plane and an isolated vertex
            other = rp2().relabeled({v: 300 + v for v in range(1, 7)})
            k = Complex2(k.vertices + other.vertices + (400,),
                         k.edges + other.edges, k.triangles + other.triangles)
        elif shape == 3:  # a pendant edge ending in a flap triangle
            k = Complex2.from_triangles(
                k.triangles + ((500, 501, 502),),
                extra_edges=k.edges + ((rng.choice(base.vertices), 500),),
                extra_vertices=k.vertices)
        mode = rng.choice((0, 1, None, "explicit"))
        if mode == "explicit":
            # on a book, also pin one page pair, so some overlapping cycles survive
            pinned = [[base.triangles[0]]] + ([[page]] if shape == 4 else [])
            spec = PreservationSpec.from_triangle_lists(pinned)
            trace = simplify_pipeline(k, spec)
        else:
            spec = PreservationSpec.dual_basis(k, mode)
            trace = simplify_pipeline(k, target_rank=mode)
        assert trace.input_disconnected == (shape == 2)
        seen += _replay(k, spec, trace)
        seen[f"rank {mode}"] += 1
    for _ in range(40):
        # pinned pages keep some overlapping cycles through the kills
        book = _book(rng)
        spec = PreservationSpec.from_triangle_lists(
            [[t] for t in rng.sample(book.triangles, rng.randrange(1, 3))])
        if spec.is_surjective_on_cycles(book):
            seen += _replay(book, spec, simplify_pipeline(book, spec))
            seen["pinned book"] += 1
    assert seen["pinned book"] >= 20
    assert all(seen[label] > 0 for label in ("kill", "collapse", "contract", "delete",
                                             "rank 0", "rank 1", "rank None",
                                             "rank explicit"))


def test_pipeline_work_is_bounded_per_phase(monkeypatch):
    base = catalog(parse_surface_id("M3"))
    bubble = sphere().relabeled({v: 1000 + v for v in range(4)})
    k = attach_circle(wedge(base, base.vertices[0], bubble, 1000), base.vertices[5])
    assert k.n_triangles >= 400
    spec = PreservationSpec.from_triangle_lists([[base.triangles[0]]])
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Complex2, "__init__", counting("builds", Complex2.__init__))
    monkeypatch.setattr(Gf2Matrix, "_rref", counting("eliminations", Gf2Matrix._rref))
    trace = simplify_pipeline(k, spec)
    assert (len(trace.killed_triangles), trace.free_rank) == (1, 1)
    assert trace.collapses and trace.contractions
    # one complex after the kills and one at the end; one elimination of
    # the boundary map at each phase boundary (input, after kills, result)
    assert counts["builds"] <= 2
    assert counts["eliminations"] <= 3
