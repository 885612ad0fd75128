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

The searches stay on integer states from start to finish, and no
search holds its states: the enumerator keeps bitmasks and hands each
complete state to a visitor the moment it closes, as the mask of its
triangles with its triangle count, the labels it uses and its
orientability, which it carries through the search as one more mask
(the direction in which each open edge's triangle runs it).  The
visitor keeps what it needs and the search goes on, so memory stays
flat however many states there are (308,134 on nine vertices for M2).
The minimum search drops every state whose Euler characteristic or
orientability differs from the target's; those two fix the surface once
every vertex link is a cycle, so the rest get only a link walk, one
vertex at a time on the vertex's star, on sums of link neighbours read
from a per-vertex table of link edges.  A vertex's
link is made of the triangles at it and nothing else, so each distinct
star is walked once per search and its answer reused.  No Complex2 is
built until a search has its witness, which classify, with the full
recognizer, then confirms.  The link walk takes as given what classify
checks on the 1-skeleton first, and every complete state of the closed
search has both by construction: it is connected, since
each triangle after the seed is placed on an edge already present, and
each of its edges lies in exactly two triangles, since an edge is left
open in one triangle or closed in two and no triangle is placed on a
closed edge.  canonical_form likewise runs on vertex indices, so the
triple-edge search keys its states as they come and builds a Complex2
only for a new class.  The branch and bound of canonical_form skips
every candidate that an automorphism found on the way proves equivalent
to one already tried, and tries only the candidates that share a
triangle with the lowest placed vertex still sharing one with an
unplaced vertex, when there are any: a least labeling always picks one
of them.  On a vertex-transitive complex, where the automorphisms run
out once two vertices are placed, the rule keeps the tree small: 1498
nodes for the circulant torus on 100 vertices.
Nothing here assumes the counting results elsewhere in the package.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .bounds import SurfaceId
from .complex2 import Complex2
from .gf2 import _bits_up
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
    allocates nothing for them.  A heap of interchangeable loose edges
    then costs a few descents per label instead of one leaf per
    automorphism.  Vertices with no edges are placed without branching:
    refinement gives them a cell of their own, and every labeling of that
    cell gives the same key.

    Orbit pruning runs out once two vertices are placed, since few
    automorphisms fix both, so one more rule cuts the candidates.  Call
    two vertices adjacent when they share a triangle.  At a node placing
    the label x of cell C, let u be the vertex of least label that has an
    unplaced adjacent vertex.  If u has unplaced adjacent vertices in C,
    every least labeling below the node gives x to one of them, so only
    they are tried, and a lone one is placed without a bound.  For let L
    below the node give x to another vertex, and let L' relabel C's
    unplaced vertices so that those adjacent to u take C's lowest free
    labels and the rest the others, each group keeping its order; L'
    respects the cells and agrees with L on the placed vertices.  The
    placed labels are the triangle-cell labels below x (cells own
    consecutive ranges), so a triangle with a vertex below u has every
    vertex placed, that vertex having no unplaced adjacent vertex, and
    keeps its code.  The triangles whose least label is u's are the
    triangles at u with no vertex below u under L and under L' alike, as
    every label L' moves is x or more.  On them L' raises no label: a
    vertex adjacent to u takes C's free label of its rank among those
    vertices, at most the label L gives it.  Every other triangle has its
    least label above u's.  So the codes of the triangles at u, sorted,
    are elementwise no greater under L' than under L, and not equal:
    under L' the label x lies in a triangle at u (whose third vertex is
    not below u, being adjacent to an unplaced vertex) and under L in
    none.  L' therefore has the smaller triangle list, and L is not
    least.  The loose edges play no part, the triangle lists being
    compared first.  The rule is off where it can cut nothing: when no
    cell has two vertices, or every vertex in a triangle is adjacent to
    every other.

    Orbit pruning and the tied-leaf jump stay exact beside the rule.
    Each skips the labelings below a candidate because an automorphism
    fixing the placed vertices carries them below a searched candidate.
    That automorphism keeps cells, labels and adjacency, so it carries a
    least labeling onto a least labeling, which obeys the rule at every
    node it passes (each such node has it below) and so lies in the part
    of the searched subtree that the rule keeps.  Along a path the placed
    set only grows, so u's position in the label order only moves
    forward: descend carries it, with the mask of unplaced vertices, and
    the rule costs a few int operations per node.
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

    cells = [0] * len(palette)  # colour -> the mask of its vertices
    for v in range(n):
        cells[colors[v]] |= 1 << v
    owner = []  # owner[x] is the mask of the vertices that may take label x
    left = []  # colour -> the least label its cell has not placed yet
    for cell in cells:
        left.append(len(owner))
        owner += [cell] * cell.bit_count()
    # the labels of cells in triangles first, each cell's in ascending order
    order = sorted(range(n),
                   key=lambda x: (not in_tris[owner[x].bit_length() - 1], x))
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

    best = None  # (triangle list, loose-edge list) of the least labeling
    best_at: list = []  # label -> vertex in that labeling
    autos: list = []  # the automorphisms found at tied leaves, vertex -> vertex
    # the lowest-vertex rule is void when no cell has two vertices or
    # every vertex in a triangle shares a triangle with every other
    m = len(in_tris)
    rule = len(cells) < n and len(on_tris) < m * (m - 1) // 2
    adj = [0] * n  # vertex -> the mask of those sharing a triangle with it
    for a, b in on_tris if rule else ():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    seq = [0] * n  # seq[j] is the vertex that takes label order[j]

    def descend(i: int, p: int, unplaced: int) -> int:
        """Place the labels order[i:] on the vertices of the mask unplaced,
        none of which shares a triangle with a vertex placed at a position
        below p; return the position whose node the search resumes at, or
        n to go on as usual.

        descend calls itself through its own closure cell, a reference
        cycle that would keep it, lists and every table they read alive
        until the cyclic collector ran.  The caller deletes the name once
        the search is done, which empties the cell, so the call's state is
        freed by reference counting on return.  Placing and unplacing a
        vertex are written out inline, as they run at every node."""
        nonlocal best, best_at
        forced = []  # labels with a single candidate, placed without a bound
        while i < n:
            free = owner[order[i]] & unplaced
            v = (free & -free).bit_length() - 1
            if free != 1 << v and nbrs[v]:
                if not rule:
                    break
                while p < i and not adj[seq[p]] & unplaced:
                    p += 1
                if p < i and free & adj[seq[p]]:
                    free &= adj[seq[p]]
                    v = (free & -free).bit_length() - 1
                if free != 1 << v:
                    break
            label[v] = x = order[i]  # place v
            left[colors[v]] = x + 1
            seq[i] = v
            unplaced ^= 1 << v
            forced.append(v)
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
            cands = []  # the candidates, lowest first
            while free:
                low = free & -free
                cands.append(low.bit_length() - 1)
                free ^= low
            free = cands
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
                label[v] = x = order[i]  # place v
                left[colors[v]] = x + 1
                seq[i] = v
                back = descend(i + 1, p, unplaced ^ 1 << v)
                left[colors[v]] = x  # unplace v
                label[v] = n
                if back < i:
                    break
                back = n
        for v in reversed(forced):  # unplace them
            left[colors[v]] = label[v]
            label[v] = n
        return back

    try:
        descend(0, 0, (1 << n) - 1)
    finally:
        del descend  # break the closure's cycle through its own cell
    codes, pairs = best
    mask = (1 << w) - 1
    key_tris = [(c >> w2, c >> w & mask, c & mask) for c in codes]
    key_edges = sorted({e for a, b, c in key_tris
                        for e in ((a, b), (a, c), (b, c))}
                       .union([(p >> w, p & mask) for p in pairs]))
    return (n, tuple(key_tris), tuple(key_edges))


@functools.cache
def _triangles(n_max: int) -> tuple:
    """The triangles on labels 0..n_max-1 in combinations order: bit i of
    a search state's placed-triangle mask on n_max labels is triangle i."""
    return tuple(itertools.combinations(range(n_max), 3))


@functools.cache
def _candidates(n_max: int) -> tuple:
    """(edge_ids, at_edge) for a search on n_max labels: edge_ids numbers
    the edges in combinations order, and at_edge[e][d][used] lists the
    triangles on edge e that run it forwards (d = 1) or not and that a
    state with labels 0..used-1 may place, those whose top label is at
    most used, in id order.  Each comes as its id bit, its edge mask, the
    label count once it is placed and the edges it runs forwards under
    the sign that runs e the other way."""
    edge_ids = {e: i for i, e in
                enumerate(itertools.combinations(range(n_max), 2))}
    at_edge: list[tuple[list, list]] = [([], []) for _ in edge_ids]
    for ti, (a, b, c) in enumerate(_triangles(n_max)):
        ab, ac, bc = (1 << edge_ids[e] for e in ((a, b), (a, c), (b, c)))
        m, fwd = ab | ac | bc, ab | bc  # the sign 1 runs fwd forwards, -1 ac
        for e, f0, f1 in ((ab, fwd, ac), (ac, ac, fwd), (bc, fwd, ac)):
            back, ahead = at_edge[e.bit_length() - 1]
            back.append((1 << ti, m, c, f0))
            ahead.append((1 << ti, m, c, f1))

    def by_count(side: list) -> tuple:
        return tuple(tuple((bit, m, max(used, top + 1), f)
                           for bit, m, top, f in side if top <= used)
                     for used in range(n_max + 1))

    return edge_ids, [(by_count(back), by_count(ahead))
                      for back, ahead in at_edge]


# the closed search seeds one triangle; the triple-edge search seeds the
# triple edge 01 with its three apexes
_SEED = [(0, 1, 2)]
_TRIPLE_SEED = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]


def _closures(n_max: int, seed: list,
              visit: Callable[[int, int, int, bool], object],
              chi_target: Optional[int] = None) -> int:
    """Grow the seed on n_max labels, closing the lowest open edge first,
    call visit(placed, alpha2, used, orientable) on each complete state
    as it closes, in search order, and return how many there were.

    A complete state has no edge in exactly one triangle.  placed is the
    mask of its triangles, bit i for triangle i of _triangles(n_max),
    alpha2 their number and used the number of labels they take, which
    are 0..used-1; orientable says whether the state has a coherent
    orientation.  The visitor reads the state before the search moves on
    and keeps only what it needs, so nothing here grows with the number
    of states.

    The search state is five ints: the edges in exactly one placed
    triangle, the full edges, the placed triangles, the labels used, and
    the direction pos in which each open edge's one triangle runs it (bit
    set when from the lower label to the higher).  A candidate at the
    open edge is admissible when it is not placed, takes at most the next
    label (_candidates lists only those for each label count) and misses
    the full edges.  Each full seed edge keeps its seed
    degree d, every other edge ends in two triangles, so 3 alpha2 =
    2 alpha1 + extra, extra summing d - 2: that caps alpha2, and
    chi_target fixes alpha2 = 2 alpha0 - 2 chi + extra.  Each placement
    is judged where it is made: one that leaves no open edge goes to the
    visitor, and one past either cap is not entered.

    A coherent orientation is a choice of signs under which every edge
    lies in two triangles that run it opposite ways.  The sign s of a
    triangle (a, b, c) runs ab and bc forwards and ac backwards when
    s = 1.  Each triangle after the first in the seed shares an edge with
    an earlier one, and each placed triangle sits on an open edge, so the
    sign of the first fixes every other: a triangle placed at the open
    edge e takes the sign that runs e opposite to pos's bit, and every
    other edge it closes must then be run opposite too, one mask test per
    placement.  A seed edge in three or more triangles makes every state
    non-orientable.
    """
    used = max(map(max, seed)) + 1
    if used > n_max:
        return 0
    edge_ids, at_edge = _candidates(n_max)

    degree = Counter(e for t in seed for e in itertools.combinations(t, 2))
    extra = sum(d - 2 for d in degree.values() if d > 2)
    cap = (2 * len(edge_ids) + extra) // 3
    # the most labels a state may use and still close within cap
    most_used = n_max
    if chi_target is not None:
        floor = extra - 2 * chi_target  # alpha2 = 2 alpha0 + floor
        cap = min(cap, 2 * n_max + floor)
        most_used = (cap - floor) // 2
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
    closed = 0

    def dfs(one: int, full: int, placed: int, alpha2: int, used: int,
            pos: int, orientable: bool) -> None:
        """Place each admissible triangle at the lowest open edge of a
        state that is neither complete nor cut, and go on from there.

        dfs calls itself through its own closure cell, a reference cycle
        that would keep it, the visitor and everything the visitor holds
        alive until the cyclic collector ran.  The caller deletes the name
        once the search is done, which empties the cell, so the search's
        state is freed by reference counting on return."""
        nonlocal closed
        e = (one & -one).bit_length() - 1
        alpha2 += 1
        for bit, m, grown, f in at_edge[e][pos >> e & 1][used]:
            if placed & bit or m & full:
                continue
            closing = one & m
            now_orientable = orientable and (f ^ pos) & closing == closing
            rest = one ^ m
            if not rest:
                closed += 1
                visit(placed | bit, alpha2, grown, now_orientable)
            elif alpha2 < cap and grown <= most_used:
                dfs(rest, full | closing, placed | bit, alpha2, grown,
                    pos | f, now_orientable)

    # a seed always leaves an edge open
    try:
        if len(seed) < cap and used <= most_used:
            dfs(sum(1 << edge_ids[e] for e, d in degree.items() if d == 1),
                sum(1 << edge_ids[e] for e, d in degree.items() if d > 1),
                sum(1 << _triangles(n_max).index(t) for t in seed),
                len(seed), used, pos, orientable)
    finally:
        del dfs  # break the closure's cycle through its own cell
    return closed


def _check_scale(max_vertices: int) -> None:
    if not (isinstance(max_vertices, int)
            and 3 <= max_vertices <= _MAX_VERTICES):
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


@functools.cache
def _link_edges(n_max: int) -> tuple:
    """For each vertex v on labels 0..n_max-1, the list indexed by
    triangle id of the other two vertices of each triangle at v (None
    for the triangles not at v): bit i of a star is the link edge
    _link_edges(n_max)[v][i]."""
    table = [[None] * len(_triangles(n_max)) for _ in range(n_max)]
    for i, (a, b, c) in enumerate(_triangles(n_max)):
        table[a][i], table[b][i], table[c][i] = (b, c), (a, c), (a, b)
    return tuple(map(tuple, table))


def _star_link_is_cycle(v: int, star: int, n: int) -> bool:
    """Whether the link of v is a single cycle in a complete state of a
    search on n labels whose triangles at v are those of the nonzero mask
    star, bit i for triangle i of _triangles(n).

    Every edge at v lies in two triangles of the star, as in every
    complete state, so each link vertex has two link neighbours, and
    their sum gives one from the other.  The walk from a link edge xy
    steps from y to the other neighbour than the vertex it came from: the
    link is a single cycle exactly when the walk first returns to x after
    as many steps as the star has triangles.  classify's recognizer
    answers for all the vertices at once, by counting classes of corners
    (surfaces._corner_classes), and a test ties the two together."""
    edges = _link_edges(n)[v]
    sums = [0] * n  # link vertex -> the sum of its two link neighbours
    count = 0
    while star:
        low = star & -star
        x, y = edges[low.bit_length() - 1]
        sums[x] += y
        sums[y] += x
        count += 1
        star ^= low
    prev, here, steps = x, y, 1
    while here != x:
        prev, here = here, sums[here] - prev
        steps += 1
    return steps == count


def min_triangles_for_surface(max_vertices: int, target: SurfaceId) -> SearchResult:
    """Exhaustively find the least triangle count of the target surface
    on at most max_vertices vertices; found=False when none exists there.

    Each complete state goes to a visitor as the enumerator closes it.
    Every edge of it lies in two triangles, so alpha1 = 3 alpha2 / 2 and
    chi = used - alpha2 / 2, and the visitor drops a state whose chi or
    orientability differs from the target's.  With both matching, the
    state is the target exactly when every vertex link is a single
    cycle, and the link of v is walked on its star, the placed triangles
    at v (_star_link_is_cycle).  The answer for each star is kept per
    vertex for the call: a vertex's link is made of the triangles at v
    and nothing else, so the same star gives the same answer in every
    state, and a star is walked once however many states share it.  Only
    the first least state becomes a Complex2, the witness, and classify,
    which runs the full recognizer, confirms it."""
    _check_scale(max_vertices)
    n = max_vertices
    chi, orientable = target.euler_characteristic, target.orientable
    tris = _triangles(n)
    stars = [0] * n  # the triangles at each vertex
    for i, t in enumerate(tris):
        for v in t:
            stars[v] |= 1 << i
    # per vertex, each star walked so far -> whether its link is a cycle
    cycles: list[dict[int, bool]] = [{} for _ in range(n)]
    best = best_size = None
    hits = 0

    def visit(placed: int, alpha2: int, used: int, state_orientable: bool) -> None:
        nonlocal best, best_size, hits
        if used - alpha2 // 2 != chi or state_orientable != orientable:
            return
        for v in range(used):
            star = placed & stars[v]
            cycle = cycles[v].get(star)
            if cycle is None:
                cycle = cycles[v][star] = _star_link_is_cycle(v, star, n)
            if not cycle:
                return
        hits += 1
        if best is None or alpha2 < best_size:
            best, best_size = placed, alpha2

    complete = _closures(n, _SEED, visit, chi)
    witness = None
    if best is not None:
        witness = Complex2.from_triangles([tris[i] for i in _bits_up(best)])
        got = classify(witness).surface
        if got != target:
            raise AssertionError(
                f"search witness for {target} classifies as {got}")
    return SearchResult(
        target=target,
        max_vertices=max_vertices,
        found=best is not None,
        min_triangles=best_size,
        witness=witness,
        complete_states=complete,
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

    def visit(placed: int, _alpha2: int, used: int, _orientable: bool) -> None:
        state = [tris[i] for i in _bits_up(placed)]
        key = _canonical_key(used, state)
        if key not in seen:
            seen.add(key)
            found.append(Complex2.from_triangles(state))

    _closures(max_vertices, _TRIPLE_SEED, visit)
    return found
