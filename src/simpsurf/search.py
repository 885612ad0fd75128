"""Exhaustive desk-scale searches over small closed complexes.

The enumeration grows complexes triangle by triangle, always closing the
smallest edge currently in exactly one triangle, with new vertices forced
to take the next unused label.  Every complex in which each edge lies in
exactly two triangles (plus, optionally, exactly one edge in three) and
whose triangles are edge-connected arises this way up to isomorphism: an
unfinished edge always has its closing triangle available to the branch,
and when nothing is open the next triangle must ride on an edge that ends
up with three, which is exactly the budgeted move.  Components without
triangles cannot occur, and a hypothetical example with extra components
would contain an edge-connected one, so searching edge-connected
complexes only loses nothing.

Nothing here assumes the counting results elsewhere in the package; the
searches re-derive their answers by brute force so the two routes stay
independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .bounds import SurfaceId
from .complex2 import Complex2
from .surfaces import classify

__all__ = [
    "canonical_form",
    "SearchResult",
    "min_triangles_for_surface",
    "complexes_with_one_triple_edge",
]

_MAX_VERTICES = 8


def canonical_form(k: Complex2) -> tuple:
    """A relabeling-invariant key ``(n, triangles, edges)``.

    The key is the least ``(triangles, edges)`` pair, each a sorted tuple
    of sorted label tuples, over the labelings of the vertices by
    0..n-1 that respect a colour partition.  Vertices are first coloured
    by iterated neighbourhood refinement; the cells, in colour order, own
    consecutive label ranges, so only labelings that send each cell onto
    its own range take part.

    The minimum is found by depth-first branch and bound rather than by
    trying every such labeling.  Labels 0, 1, 2, ... are placed in order,
    each on an unused vertex of the cell owning it.  At a node with
    labels 0..m-1 placed and more than one candidate for label m, every
    triangle gets a bound tuple: its placed labels plus m for each
    unplaced vertex, sorted.  Unplaced vertices can only receive labels
    >= m, so each bound tuple is elementwise at most the triangle's tuple
    in any completion, and sorting preserves that domination: the sorted
    list of bound tuples is at most the triangle list of every labeling
    below the node.  A node whose bound list is strictly greater than the
    best triangle list found so far is cut.  Ties are kept, so the edge
    list still decides between labelings with equal triangle lists, and
    the key is exactly the minimum over all labelings the partition
    allows.  A vertex-transitive complex no longer costs n! relabelings,
    though the search still visits every labeling that ties the best
    triangle list, which includes one per automorphism.  Vertices with
    no edges are placed without branching: refinement gives them a cell of
    their own, and every labeling of that cell gives the same key.
    """
    verts = k.vertices
    colors = {
        v: (len(k.edges_at_vertex(v)), len(k.triangles_at_vertex(v)),
            tuple(sorted(k.edge_degree(e) for e in k.edges_at_vertex(v))))
        for v in verts
    }
    while True:
        refined = {
            v: (colors[v],
                tuple(sorted(colors[e[0] if e[1] == v else e[1]]
                             for e in k.edges_at_vertex(v))))
            for v in verts
        }
        palette = {c: i for i, c in enumerate(sorted(set(refined.values())))}
        new = {v: palette[refined[v]] for v in verts}
        if len(set(new.values())) == len(set(colors.values())):
            colors = new
            break
        colors = new

    n = len(verts)
    cells: dict[int, list] = {}
    for v in verts:
        cells.setdefault(colors[v], []).append(v)
    owner = []  # owner[m] is the cell whose vertices may take label m
    for c in sorted(cells):
        owner += [cells[c]] * len(cells[c])
    label = dict.fromkeys(verts, n)  # n marks a vertex with no label yet

    def triangle_list(lab: dict) -> list:
        return sorted([tuple(sorted((lab[a], lab[b], lab[c])))
                       for a, b, c in k.triangles])

    best = None  # (triangle list, edge list) of the least labeling so far

    def descend(m: int) -> None:
        nonlocal best
        forced = []  # labels with a single candidate, placed without a bound
        while m < n:
            free = [v for v in owner[m] if label[v] == n]
            if len(free) > 1 and k.edges_at_vertex(free[0]):
                break
            label[free[0]] = m
            forced.append(free[0])
            m += 1
        if m == n:
            t = triangle_list(label)
            if best is None or t <= best[0]:
                e = sorted([tuple(sorted((label[a], label[b])))
                            for a, b in k.edges])
                if best is None or (t, e) < best:
                    best = (t, e)
        elif best is None or triangle_list(
                {v: x if x < m else m for v, x in label.items()}) <= best[0]:
            for v in free:
                label[v] = m
                descend(m + 1)
                label[v] = n
        for v in forced:
            label[v] = n

    descend(0)
    return (n, tuple(best[0]), tuple(best[1]))


def _enumerate_closed(n_max: int, allow_one_triple: bool,
                      chi_target: Optional[int] = None):
    """Yield (triangles, used_vertices) for every complete state.

    Complete means no edge lies in exactly one triangle.  With
    allow_one_triple, states may route one edge through three triangles;
    completions both with and without the triple edge are yielded and the
    caller filters.  chi_target prunes branches that can no longer reach a
    closed complex with that Euler characteristic (every complete state
    satisfies alpha2 = 2 alpha0 - 2 chi).
    """
    tris = list(itertools.combinations(range(n_max), 3))
    edge_ids = {e: i for i, e in enumerate(itertools.combinations(range(n_max), 2))}
    n_edges = len(edge_ids)
    tri_edges = []
    for a, b, c in tris:
        tri_edges.append((edge_ids[(a, b)], edge_ids[(a, c)], edge_ids[(b, c)]))
    tris_at_edge: list[list[int]] = [[] for _ in range(n_edges)]
    for ti, es in enumerate(tri_edges):
        for e in es:
            tris_at_edge[e].append(ti)

    max_degree = 3 if allow_one_triple else 2
    cap = (2 * n_edges + (1 if allow_one_triple else 0)) // 3
    if chi_target is not None:
        cap = min(cap, 2 * n_max - 2 * chi_target)

    deg = [0] * n_edges
    in_state = [False] * len(tris)
    state: list[int] = []
    out = []

    def place(ti: int) -> None:
        state.append(ti)
        in_state[ti] = True
        for e in tri_edges[ti]:
            deg[e] += 1

    def unplace(ti: int) -> None:
        state.pop()
        in_state[ti] = False
        for e in tri_edges[ti]:
            deg[e] -= 1

    def admissible(ti: int, used: int, has_triple: bool):
        """(new_used, makes_triple) or None."""
        if in_state[ti]:
            return None
        top = tris[ti][2]
        if top > used:
            return None
        hits = 0
        for e in tri_edges[ti]:
            d = deg[e]
            if d + 1 > max_degree:
                return None
            if d == 2:
                hits += 1
        if hits and (not allow_one_triple or has_triple or hits > 1):
            return None
        return (max(used, top + 1), hits == 1)

    def dfs(used: int, has_triple: bool) -> None:
        open_edge = next((e for e in range(n_edges) if deg[e] == 1), None)
        if open_edge is None:
            out.append((tuple(tris[ti] for ti in state), used))
            if allow_one_triple and not has_triple and len(state) < cap:
                # ride an edge up to three triangles and keep closing
                for ti in range(len(tris)):
                    fit = admissible(ti, used, has_triple)
                    if fit is not None and fit[1]:
                        place(ti)
                        dfs(fit[0], True)
                        unplace(ti)
            return
        if len(state) >= cap:
            return
        if chi_target is not None and 2 * used - 2 * chi_target > cap:
            return
        for ti in tris_at_edge[open_edge]:
            fit = admissible(ti, used, has_triple)
            if fit is not None:
                place(ti)
                dfs(fit[0], has_triple or fit[1])
                unplace(ti)

    place(0)  # the triangle (0, 1, 2)
    dfs(3, False)
    unplace(0)
    return out


def _check_scale(max_vertices: int) -> None:
    if not 3 <= max_vertices <= _MAX_VERTICES:
        raise ValueError(
            f"search supports 3..{_MAX_VERTICES} vertices, got {max_vertices}")


@dataclass
class SearchResult:
    """Outcome of an exhaustive minimum search for one surface."""

    target: SurfaceId
    max_vertices: int
    found: bool
    min_triangles: Optional[int]
    witness: Optional[Complex2]
    complete_states: int
    target_states: int


def min_triangles_for_surface(max_vertices: int, target: SurfaceId) -> SearchResult:
    """Exhaustively find the least triangle count of the target surface
    on at most max_vertices vertices; found=False when none exists there."""
    _check_scale(max_vertices)
    complete = _enumerate_closed(max_vertices, allow_one_triple=False,
                                 chi_target=target.euler_characteristic)
    best: Optional[Complex2] = None
    hits = 0
    for tris, _used in complete:
        k = Complex2.from_triangles(tris)
        if classify(k).surface != target:
            continue
        hits += 1
        if best is None or k.n_triangles < best.n_triangles:
            best = k
    return SearchResult(
        target=target,
        max_vertices=max_vertices,
        found=best is not None,
        min_triangles=best.n_triangles if best is not None else None,
        witness=best,
        complete_states=len(complete),
        target_states=hits,
    )


def complexes_with_one_triple_edge(max_vertices: int) -> list[Complex2]:
    """All complexes (up to isomorphism, edge-connected) on at most
    max_vertices vertices in which every edge lies in two triangles except
    exactly one edge lying in three."""
    _check_scale(max_vertices)
    seen = set()
    found = []
    for tris, _used in _enumerate_closed(max_vertices, allow_one_triple=True):
        degrees: dict = {}
        for a, b, c in tris:
            for e in ((a, b), (a, c), (b, c)):
                degrees[e] = degrees.get(e, 0) + 1
        if 3 not in degrees.values():
            continue
        k = Complex2.from_triangles(tris)
        key = canonical_form(k)
        if key not in seen:
            seen.add(key)
            found.append(k)
    return found
