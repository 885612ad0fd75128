"""Kill steps, free collapses, loose-edge elimination, and the pipeline."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpsurf import cli, homology, reduction
from simpsurf.bounds import parse_surface_id
from simpsurf.complex2 import Complex2
from simpsurf.gf2 import Gf2Matrix, Gf2Vector, _bits_up, _relations
from simpsurf.homology import (CochainVector, betti_numbers, boundary_matrix,
                               chain_support, cochain, has_property_a,
                               homology_summary)
from simpsurf.io import dump_complex
from simpsurf.reduction import (PreservationSpec, _boundary, _cycle_basis, _sum,
                                _values, _WorkingComplex, collapse_all,
                                eliminate_maximal_edges, kill_step, simplify_pipeline)
from simpsurf.surfaces import attach_circle, catalog, classify, wedge

from _fixtures import (PEAK_KIB, kernel_from_rref, label_cases, m8_wedge, rp2,
                       rref, sphere, sphere_chain, torus, torus_circle_sphere,
                       torus_with_circle)


def torus_functional() -> PreservationSpec:
    # the indicator of one torus triangle evaluates to 1 on the torus cycle
    return PreservationSpec.from_triangle_lists([[(0, 1, 3)]])


def test_spec_constructors_canonicalize():
    spec = PreservationSpec.from_triangle_lists([[(3, 1, 0)], [(0, 2, 3), (5, 4, 0)]])
    assert spec.rank == 2
    assert spec.supports[0] == frozenset({(0, 1, 3)})
    assert (0, 4, 5) in spec.supports[1]
    # a 2-cochain is read on the complex it was made for, one coordinate
    # per triangle: a longer or shorter one is rejected
    k = torus()
    spec = PreservationSpec.from_cochain_vectors(k, [cochain(k, 2, [(3, 1, 0)])])
    assert spec.supports == (frozenset({(0, 1, 3)}),)
    for length in (3, 100):
        with pytest.raises(ValueError, match="cochain does not match this complex"):
            PreservationSpec.from_cochain_vectors(
                k, [CochainVector(2, Gf2Vector(length, 1 << length - 1))])


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
    with pytest.raises(ValueError, match="degenerate triangle"):
        PreservationSpec.from_triangle_lists([[(9, 9, 9)]])
    # the arity is checked first, then the labels, then the degeneracy;
    # a string is no triple, though it has three characters
    for t in ((0, 1, 2, 2), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match=f"has {len(t)} vertices, not 3"):
            PreservationSpec.from_triangle_lists([[(0, 1, 2)], [t]])
    with pytest.raises(ValueError, match="'abc' in a support is a string"):
        PreservationSpec.from_triangle_lists([[(0, 1, 2)], ["abc"]])
    for t in ((0, 1, True), (0, 0, True), (0, 1, 2.0)):
        with pytest.raises(TypeError, match="is not an int or str"):
            PreservationSpec.from_triangle_lists([[t]])
    # one functional over the sphere's four triangles: its row of the
    # evaluation matrix is the bitmask of its support's positions
    spec = PreservationSpec.from_triangle_lists([[(0, 1, 2), (1, 2, 3), (7, 8, 9)]])
    masks = spec._masks(k._triangle_index)
    assert masks == [0b1001]
    # its value on the sphere's one 2-cycle is the parity of the overlap
    (z,) = _cycle_basis(k)[0]
    assert z == 0b1111 and _values(masks, z) == 0
    assert _values(masks + [0b0001], z) == 0b10


def _cycle_cases() -> list[Complex2]:
    """Fixtures, the empty complex, catalog surfaces, seeded wedges with
    circles and sphere bubbles, books, and the 4608-triangle M8 wedge."""
    complexes = [sphere(), rp2(), torus(), torus_with_circle(), torus_circle_sphere(),
                 Complex2((), (), ())]
    complexes += [catalog(parse_surface_id(name))
                  for name in ["S2"] + [f"{kind}{g}" for kind in "MN" for g in range(1, 9)]]
    rng = random.Random(20261019)
    for _ in range(20):
        base = catalog(parse_surface_id(rng.choice(("S2", "N1", "M1", "N2", "N3"))))
        k = base
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 4)):
            bubble = sphere().relabeled({v: 100 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 100 + 10 * j)
        complexes.append(k)
    complexes += [_book(rng) for _ in range(10)]
    complexes.append(m8_wedge(4))
    return complexes


def test_dual_basis_is_the_summary_cocycle_basis():
    for k in _cycle_cases():
        reps = homology_summary(k).cocycle_reps[2]
        for r in range(len(reps) + 1):
            assert PreservationSpec.dual_basis(k, r).supports == tuple(
                frozenset(chain_support(k, w)) for w in reps[:r])


@settings(max_examples=300, deadline=None, database=None)
@given(width=st.integers(0, 6), data=st.data())
def test_rank_and_relation_is_the_first_kernel_vector(width, data):
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    # the matrix whose columns are the values; the relations are its kernel
    # basis, in order, so the first relation is the first kernel vector
    matrix = Gf2Matrix(len(values), width, values).transpose()
    span, relations = _relations(values, width)
    assert relations == [z.bits for z in matrix.kernel_basis()]
    assert span.dim == matrix.rank()
    assert span._mask < 1 << width


def test_cycle_basis_is_the_kernel_basis_of_d2():
    shapes = Counter()
    for k in _cycle_cases():
        shapes["b2>=2"] += len(_cycle_basis(k)[0]) >= 2
        shapes["large"] += k.n_triangles == 4608
        # the old route: the reduced row echelon form of d2, its kernel read
        # off the reduced rows
        d2 = boundary_matrix(k, 2)
        kernel = [z.bits for z in kernel_from_rref(d2.n_cols, *rref(d2))]
        assert _cycle_basis(k) == (kernel, betti_numbers(k))
        assert kernel == [z.bits for z in d2.kernel_basis()]
    assert shapes["b2>=2"] >= 10 and shapes["large"] == 1


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
    with pytest.raises(ValueError, match="not surjective on the cycle space"):
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


def _without(k: Complex2, vertices, edges, triangles) -> Complex2:
    """k less the given simplices, rebuilt with the constructor, which
    rejects a result that is not closed: a deleted edge must lie in no kept
    triangle, a deleted vertex in no kept edge."""
    return Complex2([v for v in k.vertices if v not in vertices],
                    [e for e in k.edges if e not in edges],
                    [t for t in k.triangles if t not in triangles])


def _present(spec: PreservationSpec, k: Complex2) -> PreservationSpec:
    """spec with each support restricted to the triangles of k."""
    return PreservationSpec(tuple(frozenset(filter(k.has_triangle, sup))
                                  for sup in spec.supports))


def _replay(k: Complex2, spec: PreservationSpec, trace,
            collapse_first: bool = True) -> Counter:
    """Re-apply every recorded move, rebuilding the complex each time.

    Each move must be the canonical choice, its precondition must hold,
    and the Betti numbers after it must equal the recorded snapshot.
    simplify_pipeline collapses before it eliminates the maximal edges,
    eliminate_maximal_edges (collapse_first=False) does not.  Returns the
    snapshot labels seen.
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
                assert k.triangles_at_edge(face) == (coface,)
                k = _without(k, (), {face}, {coface})
            else:
                assert k.edges_at_vertex(face) == (coface,)
                k = _without(k, {face}, {coface}, ())
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
    if collapse_first:
        collapse_run()
    while True:
        loose = k.maximal_edges()
        if not loose:
            if collapse_run():
                continue
            break
        e = loose[0]
        keep, gone = e
        cut = _without(k, (), {e}, ())
        if any(keep in comp and gone in comp for comp in cut.connected_components()):
            assert next(deleted) == e
            k = cut
            check("delete")
        else:
            assert next(contractions) == e
            merged = [[tuple(keep if v == gone else v for v in s) for s in simplices]
                      for simplices in (cut.edges, cut.triangles)]
            k = Complex2([v for v in cut.vertices if v != gone], *merged)
            # no two simplices merged
            assert (k.n_edges, k.n_triangles) == (cut.n_edges, cut.n_triangles)
            # a contraction renames only the triangles present at it; none
            # holds the contracted edge, so none degenerates (which
            # from_triangle_lists would reject), and none merges (above)
            spec = PreservationSpec.from_triangle_lists(
                [[[keep if v == gone else v for v in t] for t in sup]
                 for sup in _present(spec, cut).supports])
            check("contract")
    for rest in (snapshots, collapses, contractions, deleted):
        assert next(rest, None) is None
    assert k == trace.result and _present(spec, k) == trace.spec
    assert spec.is_surjective_on_cycles(k)
    return seen


def _book(rng: random.Random) -> Complex2:
    """Three to six cones on one circle, on shuffled labels; its 2-cycles overlap."""
    labels = rng.sample(range(600, 700), rng.randrange(6, 10))
    u, v, w = labels[:3]
    return Complex2.from_triangles(
        [t for a in labels[3:] for t in ((u, v, a), (u, w, a), (v, w, a))])


def _apex_book(rng: random.Random) -> Complex2:
    """A tetrahedron, cones from one to three apexes (str labels among
    them) on one of its triangles, and a loose 3-cycle at one of its
    vertices: the moves contract edges of killed and collapsed triangles."""
    labels = rng.sample(range(1000, 1100), 6)
    tetrahedron = list(combinations(labels[:4], 3))
    a, b, c = rng.choice(tetrahedron)
    apexes = rng.sample(["a", "b", labels[4]], rng.randrange(1, 4))
    loop = [rng.choice(labels[:4]), labels[5], "z"]
    return Complex2.from_triangles(
        tetrahedron + [t for x in apexes for t in ((a, b, x), (a, c, x), (b, c, x))],
        extra_edges=list(combinations(loop, 2)))


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
    # random explicit specs on branching books, bare or on a tetrahedron:
    # supports of a few triangles, some outside the complex
    for i in range(60):
        k = _book(rng) if i % 2 else _apex_book(rng)
        spec = PreservationSpec.from_triangle_lists(
            rng.sample(k.triangles, rng.randrange(1, 4))
            + [(900, 901, 902)] * (rng.random() < 0.3)
            for _ in range(rng.randrange(1, 4)))
        if spec.is_surjective_on_cycles(k):
            seen += _replay(k, spec, simplify_pipeline(k, spec))
            seen["random book spec"] += 1
    # the 30-sphere chain: 29 kills in a row, each checked against kill_step
    k = sphere_chain(30)
    trace = simplify_pipeline(k, target_rank=1)
    assert len(trace.killed_triangles) == 29
    seen += _replay(k, PreservationSpec.dual_basis(k, 1), trace)
    assert seen["pinned book"] >= 20 and seen["random book spec"] >= 20, seen
    assert all(seen[label] > 0 for label in ("kill", "collapse", "contract", "delete",
                                             "rank 0", "rank 1", "rank None",
                                             "rank explicit"))


def test_edge_elimination_collapses_after_its_moves():
    # a strip of three triangles ending at the circle 4-5-6: with no
    # collapse first, the circle's edges go before the strip's free faces,
    # and the run of collapses after them is recorded as its own snapshot
    k = Complex2.from_triangles([(0, 1, 2), (1, 2, 3), (1, 3, 4)],
                                extra_edges=[(4, 5), (5, 6), (4, 6)])
    spec = PreservationSpec(())
    trace = eliminate_maximal_edges(k, spec)
    assert [label for label, _ in trace.snapshots] == [
        "input", "delete", "contract", "contract", "collapse"]
    seen = _replay(k, spec, trace, collapse_first=False)
    assert seen == Counter(input=1, delete=1, contract=2, collapse=1)
    assert trace.result == Complex2((4,), (), ())


class _CountingDict(dict):
    """A dict that counts its [] reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def count_expansions(monkeypatch) -> Counter:
    """Count the path searches and the vertices they expand: each
    expansion reads the edges at one vertex."""
    counts = Counter()
    search = _WorkingComplex._path_avoiding

    def counted(state, e):
        edges_at_vertex = state.edges_at_vertex
        state.edges_at_vertex = counting = _CountingDict(edges_at_vertex)
        try:
            return search(state, e)
        finally:
            state.edges_at_vertex = edges_at_vertex
            counts["searches"] += 1
            counts["expansions"] += counting.reads

    monkeypatch.setattr(_WorkingComplex, "_path_avoiding", counted)
    return counts


def _plain_reach(state: _WorkingComplex, e) -> set:
    """The vertices a plain BFS from e[0] reaches without the edge e."""
    seen, queue = {e[0]}, [e[0]]
    for u in queue:
        for f in state.edges_at_vertex[u]:
            for w in f:
                if f != e and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen


def _search_cases(rng: random.Random) -> list[Complex2]:
    """Wedges with circles and bubbles, bridges to tori, books of cones,
    some with extra chords and pendant edges."""
    names = ("S2", "N1", "M1", "N2", "M2")
    cases = []
    for i in range(30):
        base = catalog(parse_surface_id(rng.choice(names)))
        k = base
        for _ in range(rng.randrange(0, 3)):
            k = attach_circle(k, rng.choice(k.vertices))
        for j in range(rng.randrange(0, 3)):
            bubble = sphere().relabeled({v: 100 + 10 * j + v for v in range(4)})
            k = wedge(k, rng.choice(base.vertices), bubble, 100 + 10 * j)
        if i % 3 == 0:
            book = _book(rng)
            k = wedge(k, rng.choice(base.vertices), book, rng.choice(book.vertices))
        if i % 3 == 1:
            for n in range(rng.randrange(1, 3)):
                other = torus().relabeled({v: 200 + 10 * n + v for v in range(7)})
                k = Complex2(k.vertices + other.vertices,
                             k.edges + other.edges
                             + ((rng.choice(k.vertices), 200 + 10 * n),),
                             k.triangles + other.triangles)
        extra = [tuple(sorted(rng.sample(k.vertices, 2))) for _ in range(rng.randrange(3))]
        extra += [(rng.choice(k.vertices), 500 + j) for j in range(rng.randrange(3))]
        cases.append(Complex2.from_triangles(k.triangles, extra_edges=k.edges + tuple(extra),
                                             extra_vertices=k.vertices))
    return cases


def test_path_search_agrees_with_a_plain_search():
    rng = random.Random(20261019)
    seen = Counter()
    for k in _search_cases(rng):
        state = _WorkingComplex(k)
        for stage in ("input", "collapsed"):
            if stage == "collapsed" and not state.collapse():
                continue
            for e in state.tris_at_edge:
                path = state._path_avoiding(e)
                joined = e[1] in _plain_reach(state, e)
                assert (path is not None) == joined, e
                seen[stage, joined] += 1
                if path is None:
                    continue
                assert path[0] == e[1] and path[-1] == e[0]
                assert len(set(path)) == len(path) > 2
                steps = [tuple(sorted(s, key=state.rank.__getitem__))
                         for s in zip(path, path[1:])]
                assert e not in steps
                assert all(s in state.tris_at_edge for s in steps)
    assert min(seen.values()) >= 5, seen


def test_path_search_costs_the_small_side_of_a_bridge(monkeypatch):
    # a torus labelled above catalog(M3), joined by one edge: the search
    # starts from the M3 end, yet stops when the torus side runs out
    base = catalog(parse_surface_id("M3"))
    top = max(base.vertices) + 1
    other = torus().relabeled({v: top + v for v in range(7)})
    bridge = (base.vertices[0], top)
    k = Complex2(base.vertices + other.vertices, base.edges + other.edges + (bridge,),
                 base.triangles + other.triangles)
    assert base.n_vertices > 2 * other.n_vertices
    counts = count_expansions(monkeypatch)
    assert _WorkingComplex(k)._path_avoiding(bridge) is None
    assert counts["expansions"] <= 2 * other.n_vertices
    trace = eliminate_maximal_edges(k)
    assert trace.contractions == (bridge,)
    assert counts["expansions"] <= 4 * other.n_vertices


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
    # solve is the one reduced row echelon form of a Gf2Matrix
    monkeypatch.setattr(Gf2Matrix, "solve", counting("rrefs", Gf2Matrix.solve))
    monkeypatch.setattr(Gf2Matrix, "kernel_basis",
                        counting("kernels", Gf2Matrix.kernel_basis))
    monkeypatch.setattr(homology, "boundary_matrix",
                        counting("matrices", homology.boundary_matrix))
    monkeypatch.setattr(reduction, "_boundary_relations",
                        counting("eliminations", reduction._boundary_relations))
    monkeypatch.setattr(homology, "_Elimination",
                        counting("tagged", homology._Elimination))
    trace = simplify_pipeline(k, spec)
    assert (len(trace.killed_triangles), trace.free_rank) == (1, 1)
    assert trace.collapses and trace.contractions
    # no Complex2.__init__ at all: the result is built from the working
    # state; one elimination of the triangle boundaries at each phase
    # boundary (input, after kills, result), every one of them read off
    # the dual forest, since no edge lies in three triangles; and no
    # dense matrix anywhere
    assert counts["builds"] == 0
    assert counts["eliminations"] == 3 and counts["tagged"] == 0
    assert counts["rrefs"] == counts["kernels"] == counts["matrices"] == 0
    # four cones on one circle: the same entry point, three times; the
    # input and the complex after the kills have an edge in four
    # triangles, so they take the tagged elimination, and the result, a
    # point, the dual forest
    counts.clear()
    book = Complex2.from_triangles(
        [t for a in range(3, 7) for t in ((0, 1, a), (0, 2, a), (1, 2, a))])
    trace = simplify_pipeline(book, target_rank=0)
    assert len(trace.killed_triangles) == 3 and trace.result.n_vertices == 1
    assert counts["eliminations"] == 3 and counts["tagged"] == 2
    assert counts["rrefs"] == counts["kernels"] == counts["matrices"] == 0
    counts.clear()
    # the default spec is read off the input's cycle basis, with no further
    # elimination of the boundaries
    counts.clear()
    trace = simplify_pipeline(k, target_rank=1)
    assert (len(trace.killed_triangles), trace.free_rank) == (1, 1)
    assert counts["builds"] == 0
    assert counts["eliminations"] == 3 and counts["tagged"] == 0
    assert counts["rrefs"] == counts["kernels"] == counts["matrices"] == 0
    # the path search stops at the smaller side of each maximal edge: a
    # one-sided search walks a whole summand for every bridge into it
    # (about 64,200 vertex expansions here, against about 4,500)
    m8 = m8_wedge(2)
    counts = count_expansions(monkeypatch)
    trace = simplify_pipeline(m8, PreservationSpec.from_triangle_lists([[m8.triangles[0]]]))
    assert (len(trace.killed_triangles), trace.free_rank) == (1, 17)
    assert counts["searches"] == len(trace.contractions) + trace.free_rank
    assert counts["expansions"] <= 6000, counts


def test_kills_are_found_by_one_elimination(monkeypatch):
    # the kills are the pivots of one echelon form of the invisible cycles:
    # one gf2._relations call finds them all and checks the input's rank,
    # beside the rank audits of the complex after the kills and of the
    # result; two calls per kill made 102 for the 49 kills here
    calls = []
    relations = reduction._relations
    monkeypatch.setattr(reduction, "_relations",
                        lambda *args: calls.append(args) or relations(*args))
    trace = simplify_pipeline(sphere_chain(50), target_rank=1)
    assert len(trace.killed_triangles) == 49
    assert len(calls) == 3


@pytest.mark.slow
def test_the_12500_sphere_chain_reduces_to_one_octahedron():
    # 100,000 triangles, 12,499 kills: a few seconds, where kills that
    # eliminate again per kill take minutes
    trace = simplify_pipeline(sphere_chain(12_500), target_rank=1)
    assert len(trace.killed_triangles) == 12_499
    result = trace.result
    assert (result.n_vertices, result.n_edges, result.n_triangles) == (6, 12, 8)
    assert trace.snapshots[-1][1] == betti_numbers(result) == (0, 0, 1)


@pytest.mark.slow
def test_report_on_the_8_copy_m8_wedge(tmp_path, monkeypatch, capsys):
    # 9216 triangles: a search that walks the large side of each bridge
    # makes about 612,000 vertex expansions here, against about 38,700;
    # the exact counts depend on the hash seed through the order of the
    # edges at each vertex
    k = m8_wedge(8)
    dump_complex(k, tmp_path / "w8.json", name="w8")
    (tmp_path / "spec.json").write_text(json.dumps([[list(k.triangles[0])]]))
    payloads = []
    monkeypatch.setattr(cli, "_print_json", payloads.append)
    counts = count_expansions(monkeypatch)
    assert cli.main(["report", str(tmp_path / "w8.json"), "--preserve",
                     str(tmp_path / "spec.json"), "--json"]) == 0
    (payload,) = payloads
    pipeline = payload["pipeline"]
    assert (len(pipeline["killed_triangles"]), pipeline["free_rank"],
            len(pipeline["contractions"])) == (7, 113, 657)
    assert pipeline["result"]["alpha"] == [562, 1728, 1152]
    assert payload["classification"]["surface"]["name"] == "M8"
    assert payload["certified"]
    assert counts["searches"] == 657 + 113
    assert counts["expansions"] <= 40_000
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


# simpsurf report in a fresh process, its arguments the process's own:
# the --json document goes to stdout as the CLI writes it, and the peak
# resident size in KiB to stderr last
_REPORT = PEAK_KIB + """
from simpsurf.cli import main
code = main(["report", *sys.argv[1:], "--json"])
print(peak_kib(), file=sys.stderr)
sys.exit(code)
"""


def _report_in_a_process(k: Complex2, d: Path, *options: str) -> tuple:
    """(payload, peak KiB) of report --json on k with the options."""
    dump_complex(k, d / "k.json", name="k")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _REPORT, str(d / "k.json"),
                           *options], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), int(proc.stderr.split()[-1])


@pytest.mark.slow
def test_report_on_a_100000_triangle_torus_in_bounded_memory(tmp_path):
    # the circulant torus on Z/50000 with a one-triangle spec, which kills
    # nothing: about 229 MiB (Python 3.11, Linux), where the report once
    # peaked at about 1098 MiB
    n = 50_000
    k = Complex2.from_triangles([sorted((i + d) % n for d in offsets)
                                 for offsets in ((0, 1, 3), (0, 2, 3))
                                 for i in range(n)])
    (tmp_path / "spec.json").write_text(json.dumps([[list(k.triangles[0])]]))
    payload, peak_kib = _report_in_a_process(k, tmp_path, "--preserve",
                                             str(tmp_path / "spec.json"))
    assert payload["certified"]
    assert payload["classification"]["surface"]["name"] == "M1"
    pipeline = payload["pipeline"]
    assert (len(pipeline["killed_triangles"]), pipeline["free_rank"]) == (0, 0)
    assert peak_kib < 300 * 1024


@pytest.mark.slow
def test_report_on_the_12500_sphere_chain_in_bounded_memory(tmp_path):
    # 100,000 triangles and 12,499 kills: about 345 MiB (Python 3.11,
    # Linux), most of it the kills' rows, as wide as their top triangle
    payload, peak_kib = _report_in_a_process(sphere_chain(12_500), tmp_path,
                                             "--target-rank", "1")
    assert payload["certified"]
    assert payload["classification"]["surface"]["name"] == "S2"
    pipeline = payload["pipeline"]
    assert (len(pipeline["killed_triangles"]), pipeline["free_rank"]) == (12_499, 0)
    assert peak_kib < 450 * 1024


def _assert_as_built(r: Complex2) -> None:
    """r is the complex __init__ builds from its own simplices."""
    fresh = Complex2(r.vertices, r.edges, r.triangles)
    assert r == fresh
    assert (r._vertex_index, r._edge_index, r._triangle_index) == \
        (fresh._vertex_index, fresh._edge_index, fresh._triangle_index)
    assert r._tris_at_edge == fresh._tris_at_edge
    assert r._edges_at_vertex == fresh._edges_at_vertex


def test_results_are_built_as_init_builds_them():
    seen = Counter()
    for labels, k in label_cases():
        for mode in (0, 1, None):
            if mode is not None and mode > _cycle_basis(k)[1][2]:
                continue
            trace = simplify_pipeline(k, target_rank=mode)
            _assert_as_built(trace.result)
            if labels == "mixed":
                seen += _replay(k, PreservationSpec.dual_basis(k, mode), trace)
        _assert_as_built(collapse_all(k)[0])
        _assert_as_built(eliminate_maximal_edges(k).result)
        seen[labels] += 1
        seen["isolated"] += bool(k.isolated_vertices())
    assert seen["int"] == seen["str"] == seen["mixed"] >= 15
    assert seen["isolated"] >= 12
    assert all(seen[label] > 0 for label in ("kill", "collapse", "contract", "delete"))


def _kill_all_skipping_an_update(k, spec, cycles):
    """reduction._kill_all with one fault in its books: at the first kill,
    the other cycles through the killed triangle are not reduced."""
    masks = spec._masks(k._triangle_index)
    values = [_values(masks, z) for z in cycles]
    killed = []
    while True:
        relations = _relations(values, spec.rank)[1]
        if not relations:
            return killed
        invisible = _sum(cycles, relations[0])
        assert invisible and not _boundary(k, invisible)
        assert _values(masks, invisible) == 0
        sigma = next(_bits_up(invisible))
        killed.append(sigma)
        hit = [j for j, z in enumerate(cycles) if z >> sigma & 1]
        if len(killed) > 1:
            for j in hit[1:]:
                cycles[j] ^= cycles[hit[0]]
                values[j] ^= values[hit[0]]
        del cycles[hit[0]], values[hit[0]]
        assert _relations(values, spec.rank)[0].dim == spec.rank


_original_kill_all = reduction._kill_all  # the test replaces the module's


def _kill_all_losing_a_kill(k, spec, cycles):
    """reduction._kill_all, but the last kill goes unreported."""
    return _original_kill_all(k, spec, cycles)[:-1]


@pytest.mark.parametrize("mutant", [_kill_all_skipping_an_update,
                                    _kill_all_losing_a_kill])
def test_after_kill_audit_catches_wrong_kill_books(monkeypatch, mutant):
    # four cones on one circle: three overlapping 2-cycles, all killed at rank 0
    book = Complex2.from_triangles(
        [t for a in range(3, 7) for t in ((0, 1, a), (0, 2, a), (1, 2, a))])
    assert len(simplify_pipeline(book, target_rank=0).killed_triangles) == 3
    monkeypatch.setattr(reduction, "_kill_all", mutant)
    with pytest.raises(AssertionError) as caught:
        simplify_pipeline(book, target_rank=0)
    # the audit after the kills fires, before any collapse or the result
    assert caught.traceback[-1].name == "simplify_pipeline"
