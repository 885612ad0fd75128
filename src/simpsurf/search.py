"""Exhaustive desk-scale searches over small closed complexes.

The enumeration grows a seed (a few triangles on the first labels)
triangle by triangle, always closing the smallest edge currently in
exactly one triangle, with new vertices forced to take the next unused
label.  A seed edge in two or more seed triangles is full and takes no
more.  Every edge-connected complex with each edge in two triangles,
except the full seed edges which keep their seed degree, arises this way
up to isomorphism once a relabeling carries the seed into it: an open
edge lies in one more triangle of the complex, that triangle meets no
full edge (a full edge has all its triangles already), and its third
vertex has a label or takes the next one.  A hypothetical example with
several components contains an edge-connected one, so nothing is lost.

The closed search seeds (0, 1, 2).  The search for a lone triple edge
seeds (0, 1, 2), (0, 1, 3), (0, 1, 4) with 01 full, since the triple edge
and its three apexes relabel to 0..4; it dies at the link of vertex 0
after a few nodes, yet no parity argument cuts it, so it stays an
independent check of the parity obstruction.

The searches stay on integer states from start to finish: the enumerator
keeps bitmasks and hands over each complete state as the ids of its
triangles, with its orientability, which it carries through the search
as one more mask (the direction in which each open edge's triangle runs
it).  The minimum search skips every state whose Euler characteristic or
orientability differs from the target's; those two fix the surface once
every vertex link is a cycle, so the rest are decoded to integer
triangles and get only the link walk of the recognizer that classify
runs on.  No Complex2 is built until a search has its witness, which
classify, with the full recognizer, then confirms.  The link walk takes
as given what classify checks on the 1-skeleton first, and every
complete state of the closed search has both by construction: it is
connected, since each triangle after the seed is placed on an edge
already present, and each of its edges lies in exactly two triangles,
since an edge is left open in one triangle or closed in two and no
triangle is placed on a closed edge.  canonical_form likewise runs on
vertex indices, so the triple-edge search keys its states as they come
and builds a Complex2 only for a new class; the branch and bound of
canonical_form skips every candidate that an automorphism found on the
way proves equivalent to one already tried.  Nothing here assumes the
counting results elsewhere in the package.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .bounds import SurfaceId
from .complex2 import Complex2
from .surfaces import _link_apexes, classify

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

    The work runs on vertex indices (k's vertices numbered in canonical
    order), in _canonical_key, so a desk-search state, whose vertices are
    0..n-1 already, is keyed without building a Complex2.  A labeling is
    a list indexed by vertex.  Under it each triangle's sorted labels
    x <= y <= z are packed into the int ``x << 2w | y << w | z`` with
    ``w = n.bit_length()``, and each loose edge (an edge in no triangle)
    into ``x << w | y``.  Every label, and the mark n of a vertex with no
    label yet, is below ``2^w``, so the fields do not overlap and codes
    compare as the label tuples do; sorted lists of codes then compare as
    the sorted lists of tuples, and the key's tuples are unpacked from
    the least codes at the end.

    The minimum is found by depth-first branch and bound rather than by
    trying every such labeling.  Labels are placed one at a time, each on
    an unused vertex of the cell owning it and each cell's labels in
    ascending order; the cells of vertices in triangles go first (a cell's
    vertices all lie in triangles or none does).  At a node with more than
    one candidate, each unplaced vertex is given the least label its cell
    has left, at most the label it gets in any completion.  Every triangle
    then gets a bound code, of its labels so given or placed, and so does
    every loose edge.  Sorting preserves the elementwise domination, so
    the pair of sorted bound lists is at most the (triangle list,
    loose-edge list) pair of every labeling below the node, and a node
    whose bound pair is strictly greater than the best pair so far is
    cut.  Equal triangle lists have equal sets of triangle edges, so the
    loose-edge lists decide the edge comparison, and the least pair gives
    the key.  With the triangle cells placed first the triangle bound is
    exact before any loose part is placed, so the loose-edge bound cuts
    there.

    A leaf that ties the best pair is an automorphism: sending each vertex
    to the vertex with the same label in the best labeling fixes the
    labels the two share up to the first position where they differ, and
    maps the candidate taken there to the one the best labeling took,
    whose subtree is already searched.  Every labeling below the current
    candidate has its image in that subtree, so the search resumes at
    that node with the next candidate.

    Each such automorphism is also kept, as a vertex map, and prunes
    siblings (orbit pruning, as in McKay's nauty).  At a node with several
    candidates, the kept automorphisms that fix every placed vertex split
    the candidates into orbits, and a candidate whose orbit holds one
    already tried is skipped.  Such an automorphism g keeps the colour
    cells and the placed labels, so it carries each labeling below a
    candidate v onto one below g(v) with the same triangle and loose-edge
    lists.  The pairs below v are thus the pairs below the candidate
    already tried, whose subtree the search has met or cut, and the least
    pair, so the key, is unchanged.  The orbits are made at a node only
    once an automorphism exists, and each candidate folds in only those
    found since the one before, so a complex with no automorphism
    allocates nothing for them.  A vertex-transitive complex, or a heap
    of interchangeable loose edges, then costs a few descents per label
    instead of one leaf per automorphism.  Vertices with no edges are
    placed without branching: refinement gives them a cell of their own,
    and every labeling of that cell gives the same key.
    """
    index = k._vertex_index
    return _canonical_key(
        k.n_vertices,
        [(index[a], index[b], index[c]) for a, b, c in k.triangles],
        [(index[a], index[b]) for a, b in k.edges])


def _canonical_key(n: int, tris, edges=()) -> tuple:
    """canonical_form of the complex on vertices 0..n-1 whose triangles
    are tris and whose edges are theirs and those in edges, each simplex
    an increasing index tuple."""
    on_tris = Counter(e for a, b, c in tris for e in ((a, b), (a, c), (b, c)))
    loose = [e for e in edges if e not in on_tris]
    in_tris = Counter(itertools.chain.from_iterable(tris))
    # per vertex, the other end and the triangle count of each edge at it
    nbrs: list[list[int]] = [[] for _ in range(n)]
    degrees: list[list[int]] = [[] for _ in range(n)]
    for (a, b), d in itertools.chain(on_tris.items(),
                                     ((e, 0) for e in loose)):
        nbrs[a].append(b)
        nbrs[b].append(a)
        degrees[a].append(d)
        degrees[b].append(d)
    colors = [(len(nbrs[v]), in_tris[v], tuple(sorted(degrees[v])))
              for v in range(n)]
    while True:
        refined = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]])))
                   for v in range(n)]
        palette = {c: i for i, c in enumerate(sorted(set(refined)))}
        new = [palette[r] for r in refined]
        if len(palette) == len(set(colors)):
            colors = new
            break
        colors = new

    cells: list[list[int]] = [[] for _ in palette]
    for v in range(n):
        cells[colors[v]].append(v)
    owner = []  # owner[x] is the cell whose vertices may take label x
    left = []  # colour -> the least label its cell has not placed yet
    for cell in cells:
        left.append(len(owner))
        owner += [cell] * len(cell)
    # the labels of cells in triangles first, each cell's in ascending order
    order = sorted(range(n), key=lambda x: (not in_tris[owner[x][0]], x))
    label = [n] * n  # n marks a vertex with no label yet
    w = n.bit_length()
    w2 = 2 * w

    def lists(lab: list) -> tuple:
        """The packed triangle list and loose-edge list under lab."""
        codes = []
        for a, b, c in tris:
            x, y, z = lab[a], lab[b], lab[c]
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            codes.append(x << w2 | y << w | z)
        codes.sort()
        pairs = []
        for a, b in loose:
            x, y = lab[a], lab[b]
            pairs.append(x << w | y if x < y else y << w | x)
        pairs.sort()
        return codes, pairs

    def place(v: int, x: int) -> None:
        label[v] = x
        left[colors[v]] = x + 1

    def unplace(v: int) -> None:
        left[colors[v]] = label[v]
        label[v] = n

    best = None  # (triangle list, loose-edge list) of the least labeling
    best_at: list = []  # label -> vertex in that labeling
    autos: list = []  # the automorphisms found at tied leaves, vertex -> vertex

    def descend(i: int) -> int:
        """Place the labels order[i:]; return the position whose node the
        search resumes at, or n to go on as usual."""
        nonlocal best, best_at
        forced = []  # labels with a single candidate, placed without a bound
        while i < n:
            free = [v for v in owner[order[i]] if label[v] == n]
            if len(free) > 1 and nbrs[free[0]]:
                break
            place(free[0], order[i])
            forced.append(free[0])
            i += 1
        back = n
        if i == n:
            got = lists(label)
            if best is None or got <= best:
                at = [0] * n
                for v, x in enumerate(label):
                    at[x] = v
                if best is None or got < best:
                    best, best_at = got, at
                else:
                    autos.append([best_at[x] for x in label])
                    back = next(j for j, x in enumerate(order)
                                if at[x] != best_at[x])
        elif best is None or lists([x if x < n else left[colors[v]]
                                    for v, x in enumerate(label)]) <= best:
            orbit = None  # vertex -> orbit id, made at the first automorphism
            folded = 0  # how many of autos orbit has seen
            for k, v in enumerate(free):
                if k and folded < len(autos):
                    if orbit is None:
                        orbit = list(range(n))
                        fixed = [u for u in range(n) if label[u] < n]
                    for g in autos[folded:]:
                        if all(g[u] == u for u in fixed):
                            for u in free:
                                a, b = orbit[u], orbit[g[u]]
                                if a != b:
                                    orbit = [a if o == b else o for o in orbit]
                    folded = len(autos)
                if orbit is not None and orbit[v] in {orbit[u] for u in free[:k]}:
                    continue  # an automorphism carries v onto a searched one
                place(v, order[i])
                back = descend(i + 1)
                unplace(v)
                if back < i:
                    break
                back = n
        for v in reversed(forced):
            unplace(v)
        return back

    descend(0)
    codes, pairs = best
    mask = (1 << w) - 1
    key_tris = [(c >> w2, c >> w & mask, c & mask) for c in codes]
    key_edges = sorted({e for a, b, c in key_tris
                        for e in ((a, b), (a, c), (b, c))}
                       .union([(p >> w, p & mask) for p in pairs]))
    return (n, tuple(key_tris), tuple(key_edges))


def _triangles(n_max: int) -> list:
    """The triangles on labels 0..n_max-1 in combinations order, the
    order of the triangle ids in the states of a search on n_max labels."""
    return list(itertools.combinations(range(n_max), 3))


def _enumerate_closed(n_max: int, allow_one_triple: bool,
                      chi_target: Optional[int] = None):
    """Return (triangle ids, used_vertices, orientable) for every complete
    state, in search order: no edge lies in exactly one triangle.  With
    allow_one_triple the search seeds the triple edge, so edge 01 lies in
    three triangles of every state returned (there is none below five
    vertices).  chi_target prunes branches that can no longer reach a
    complete state with that Euler characteristic."""
    seed = [(0, 1, 2), (0, 1, 3), (0, 1, 4)] if allow_one_triple else [(0, 1, 2)]
    return _closures(n_max, seed, chi_target)


def _closures(n_max: int, seed: list, chi_target: Optional[int] = None):
    """Every complete state the seed grows into on n_max labels, closing
    the lowest open edge first, as (triangle ids, used_vertices,
    orientable); the ids index _triangles(n_max), and a caller decodes
    only the states it needs as triangles.

    The state is five ints: the edges in exactly one placed triangle, the
    full edges, the placed triangles, the labels used, and the direction
    pos in which each open edge's one triangle runs it (bit set when from
    the lower label to the higher).  A candidate at the open edge is
    admissible when it is not placed, takes at most the next label and
    misses the full edges.  Each full seed edge keeps its seed degree d,
    every other edge ends in two triangles, so 3 alpha2 = 2 alpha1 +
    extra, extra summing d - 2: that caps alpha2, and chi_target fixes
    alpha2 = 2 alpha0 - 2 chi + extra.

    orientable says whether the state has a coherent orientation: signs
    under which every edge lies in two triangles that run it opposite
    ways.  The sign s of a triangle (a, b, c) runs ab and bc forwards and
    ac backwards when s = 1.  Each triangle after the first in the seed
    shares an edge with an earlier one, and each placed triangle sits on
    an open edge, so the sign of the first fixes every other: a triangle
    placed at the open edge e takes the sign that runs e opposite to
    pos's bit, and every other edge it closes must then be run opposite
    too, one mask test per placement.  A seed edge in three or more
    triangles makes every state non-orientable.
    """
    used = max(map(max, seed)) + 1
    if used > n_max:
        return []
    tris = _triangles(n_max)
    edge_ids = {e: i for i, e in
                enumerate(itertools.combinations(range(n_max), 2))}
    # at_edge[e][d], for the triangle on e running it forwards (d = 1) or
    # not: each candidate's id, id bit, edge mask, top label and the edges
    # it runs forwards under the sign that runs e the other way
    at_edge: list[tuple[list, list]] = [([], []) for _ in edge_ids]
    for ti, (a, b, c) in enumerate(tris):
        ab, ac, bc = (1 << edge_ids[e] for e in ((a, b), (a, c), (b, c)))
        m, fwd = ab | ac | bc, ab | bc  # the sign 1 runs fwd forwards, -1 ac
        for e, f0, f1 in ((ab, fwd, ac), (ac, ac, fwd), (bc, fwd, ac)):
            back, ahead = at_edge[e.bit_length() - 1]
            back.append((ti, 1 << ti, m, c, f0))
            ahead.append((ti, 1 << ti, m, c, f1))

    degree = Counter(e for t in seed for e in itertools.combinations(t, 2))
    extra = sum(d - 2 for d in degree.values() if d > 2)
    cap = (2 * len(edge_ids) + extra) // 3
    if chi_target is not None:
        floor = extra - 2 * chi_target  # alpha2 = 2 alpha0 + floor
        cap = min(cap, 2 * n_max + floor)
    pos = seen = 0
    orientable = max(degree.values()) <= 2
    for a, b, c in seed:
        ab, ac, bc = (1 << edge_ids[e] for e in ((a, b), (a, c), (b, c)))
        shared = seen & (ab | ac | bc)
        # the sign running the edges shared with the seed so far opposite
        f = ab | bc if ((ab | bc) ^ pos) & shared == shared else ac
        orientable = orientable and (f ^ pos) & shared == shared
        pos |= f  # the bits of closed edges are never read again
        seen |= ab | ac | bc
    state = [tris.index(t) for t in seed]
    out = []

    def dfs(one: int, full: int, placed: int, used: int, pos: int,
            orientable: bool) -> None:
        if not one:
            out.append((tuple(state), used, orientable))
            return
        if len(state) >= cap:
            return
        if chi_target is not None and 2 * used + floor > cap:
            return
        e = (one & -one).bit_length() - 1
        for ti, bit, m, top, f in at_edge[e][pos >> e & 1]:
            if placed & bit or top > used or m & full:
                continue
            closing = one & m
            state.append(ti)
            dfs(one ^ m, full | closing, placed | bit, max(used, top + 1),
                pos | f, orientable and (f ^ pos) & closing == closing)
            state.pop()

    dfs(sum(1 << edge_ids[e] for e, d in degree.items() if d == 1),
        sum(1 << edge_ids[e] for e, d in degree.items() if d > 1),
        sum(1 << ti for ti in state), used, pos, orientable)
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
    on at most max_vertices vertices; found=False when none exists there.

    The enumerator hands over each complete state as triangle ids with
    its orientability, and states whose Euler characteristic or
    orientability differs from the target's are skipped.  With both
    matching, a state is the target exactly when every vertex link is a
    single cycle, so the rest are decoded to integer triangles and get
    only the link walk of the recognizer behind classify.  Only the
    first least one becomes a Complex2, the witness, and classify,
    which runs the full recognizer, confirms it."""
    _check_scale(max_vertices)
    chi = target.euler_characteristic
    complete = _enumerate_closed(max_vertices, allow_one_triple=False,
                                 chi_target=chi)
    tris = _triangles(max_vertices)
    best = None
    hits = 0
    for ids, used, orientable in complete:
        # every edge of a complete state lies in two triangles, so
        # alpha1 = 3 alpha2 / 2 and chi = used - alpha2 / 2
        if used - len(ids) // 2 != chi or orientable != target.orientable:
            continue
        state = [tris[ti] for ti in ids]
        if _link_apexes(state, used) is None:
            continue
        hits += 1
        if best is None or len(state) < len(best):
            best = state
    witness = None
    if best is not None:
        witness = Complex2.from_triangles(best)
        got = classify(witness).surface
        if got != target:
            raise AssertionError(
                f"search witness for {target} classifies as {got}")
    return SearchResult(
        target=target,
        max_vertices=max_vertices,
        found=best is not None,
        min_triangles=len(best) if best is not None else None,
        witness=witness,
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
    tris = _triangles(max_vertices)
    for ids, used, _orientable in _enumerate_closed(max_vertices,
                                                    allow_one_triple=True):
        state = [tris[ti] for ti in ids]
        key = _canonical_key(used, state)
        if key not in seen:
            seen.add(key)
            found.append(Complex2.from_triangles(state))
    return found
