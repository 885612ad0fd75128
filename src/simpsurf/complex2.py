"""Finite 2-dimensional simplicial complexes.

A Complex2 is an immutable value: vertex labels (ints or strings), edges,
and triangles, all stored in a single canonical order (integer labels
sort numerically and come before string labels, which sort
lexicographically).  A complex is never edited: a changed complex is a
new value, built by a constructor.  A simplex is named by its vertex
tuple.  Its position in the canonical order of one value, a coordinate
of the chains and cochains over it, is NOT stable from one value to the
next, so anything that must carry over is recorded by vertex tuple.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, count, islice
from operator import eq, not_
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .gf2 import _Forest

__all__ = [
    "Label",
    "Complex2",
    "label_key",
    "canon_edge",
    "canon_triangle",
]

Label = Union[int, str]
Edge = tuple[Label, Label]
Triangle = tuple[Label, Label, Label]


def label_key(label: Label):
    """Sort key giving the canonical vertex order.  A bool is not a label:
    it would compare equal to 0 or 1 and merge with it."""
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label, "")
    if isinstance(label, str):
        return (1, 0, label)
    raise TypeError(f"vertex label {label!r} is not an int or str")


def _is_label(v) -> bool:
    """Whether v can be a vertex: an int or str, not a bool.  A bool or
    float may equal an int label, so a lookup alone would find it."""
    return isinstance(v, (int, str)) and not isinstance(v, bool)


def _is_sequence(s) -> bool:
    """Whether s can name an edge or a triangle: it has a length and is
    not a str, which is one label."""
    return hasattr(s, "__len__") and not isinstance(s, str)


def _are_labels(s, n: int) -> bool:
    """Whether s is a sequence of n items, each of which can be a vertex."""
    return _is_sequence(s) and len(s) == n and all(map(_is_label, s))


def canon_edge(a: Label, b: Label) -> Edge:
    u, v = sorted((a, b), key=label_key)
    return (u, v)


def canon_triangle(a: Label, b: Label, c: Label) -> Triangle:
    u, v, w = sorted((a, b, c), key=label_key)
    return (u, v, w)


def _labels(vertices, edges, triangles):
    """Every label occurrence of one build, in argument order."""
    return chain(vertices, chain.from_iterable(edges),
                 chain.from_iterable(triangles))


def _label_order(vertices, edges, triangles) -> Optional[Callable]:
    """The sort key giving the canonical order on one build's labels.

    One pass collects the type of every label occurrence, and each
    distinct type is checked once.  A label that is not an int or str
    raises label_key's TypeError, naming the first such label in argument
    order; types are taken per occurrence because True and 1.0 would
    merge with 1 in a set of labels.  When every label is an int, or every
    label is a str, plain comparison already is the label_key order, so no
    key is needed (None).  A mixed set is ranked by label_key once, and
    the key is each label's position in that order.
    """
    types = set(map(type, _labels(vertices, edges, triangles)))
    if len(types) == 1 and (int in types or str in types):
        return None  # the common case, without the checks below
    if bool in types or not all(issubclass(t, (int, str)) for t in types):
        for v in _labels(vertices, edges, triangles):
            label_key(v)
    if (all(issubclass(t, int) for t in types)
            or all(issubclass(t, str) for t in types)):
        return None
    ranked = sorted(set(_labels(vertices, edges, triangles)), key=label_key)
    return dict(zip(ranked, range(len(ranked)))).__getitem__


def _rows(simplices: list, key) -> list[tuple]:
    """Each simplex as a tuple sorted by key, in the given order."""
    if key is None:
        return list(map(tuple, map(sorted, simplices)))
    return [tuple(sorted(s, key=key)) for s in simplices]


def _tuple_key(key) -> Optional[Callable]:
    """The sort key of rows sorted inside by key: None for plain tuple
    comparison when key is None."""
    return None if key is None else (lambda s: tuple(map(key, s)))


def _columns(rows: list, arity: int) -> Optional[list[tuple]]:
    """The arity columns of sorted rows (empty when there are none), or
    None when a row does not hold arity distinct labels: a row of another
    length, or two equal neighbours."""
    if not rows:
        return [()] * arity
    try:
        columns = list(zip(*rows, strict=True))
    except ValueError:  # rows of different lengths
        return None
    if len(columns) != arity or any(map(eq, chain(*columns[:-1]), chain(*columns[1:]))):
        return None
    return columns


def _degenerate(edges: list, triangles: list, key) -> ValueError:
    """The error naming the first degenerate simplex, edges before
    triangles, as given; one of them must be degenerate."""
    for simplices, arity, what in ((edges, 2, "edge"), (triangles, 3, "triangle")):
        for s in simplices:
            if _columns(_rows([s], key), arity) is None:
                return ValueError(f"degenerate {what} {tuple(s)!r}")
    raise AssertionError("no degenerate simplex to name")


class Complex2:
    """An abstract simplicial complex of dimension at most 2.

    Both constructors make one pass over their arguments.  The type of
    every label is checked (a bool, float or None is a TypeError), one
    sort key is chosen from the label types, and each simplex is sorted
    with it once.  When every label is an int, or every label is a str,
    plain tuple comparison is the label_key order and no key is used; a
    mixed label set is ranked by label_key once and sorted by those ranks.
    The sorted tuples are split into columns, which the closure (or its
    check) needs anyway, and degenerate simplices are found on those
    columns as equal neighbours; the error names the first, as given,
    edges before triangles.  from_triangles, like the loader, takes the
    closure (_closure): the triangles are sorted once, in the canonical
    order, the closure's edges gathered from their columns and the given
    edges in first-seen order, so the edge sort runs over presorted runs,
    and the vertices read off the columns.  __init__ checks that the
    closure was given, first every triangle's edges, then every edge's
    endpoints, on its arguments taken once each in the order given
    (dict.fromkeys), and sorts those (_setup): a complex put together from
    the simplices of others, as wedge and relabeled do, sorts presorted
    runs.  That endpoint check lives in __init__ alone, the only
    constructor where an endpoint can be missing.  Every build ends in one
    storing step (_store): the simplex tuples, in order, and the vertex
    and edge positions, which homology, the cup form and canonical_form
    read.  Five indexes are built on first read and kept: the triangles
    at each edge, the edges at each vertex, the triangle positions, the
    three edge positions of each triangle, and the degree of each edge,
    counted over those positions.  The degrees serve every check of edge
    degrees (maximal_edges, classify, euler_bounds_check and the
    reduction's audit of its result), so none of them builds the
    triangles at each edge, which the per-edge queries read.
    connected_components() is computed once per value and kept too, the
    trees of the 1-skeleton's own spanning forest (gf2._Forest); nothing
    outside this module writes a cache.  Every query names a simplex by
    its vertices: a vertex by its label, an edge or a triangle by a
    sequence of labels in any order.  Only int and str labels (not bool)
    are vertices, and a str is a label, never a sequence of them:
    has_vertex, has_edge and has_triangle are False for a simplex with any
    other label or the wrong number of vertices, or for an argument
    without a length, and the vertex and edge queries raise ValueError for
    it.
    """

    __slots__ = ("vertices", "edges", "triangles",
                 "_vertex_index", "_edge_index",
                 # caches, each None until its first read
                 "_edge_triangles", "_vertex_edges", "_triangle_positions",
                 "_triangle_edge_positions", "_edge_degree_counts", "_components")

    def __init__(self,
                 vertices: Iterable[Label],
                 edges: Iterable[Sequence[Label]] = (),
                 triangles: Iterable[Sequence[Label]] = ()) -> None:
        vertices, edges, triangles = list(vertices), list(edges), list(triangles)
        key = _label_order(vertices, edges, triangles)
        edge_rows, tri_rows = _rows(edges, key), _rows(triangles, key)
        edge_columns, tri_columns = _columns(edge_rows, 2), _columns(tri_rows, 3)
        if edge_columns is None or tri_columns is None:
            raise _degenerate(edges, triangles, key)
        verts, edge_keys = dict.fromkeys(vertices), dict.fromkeys(edge_rows)
        a, b, c = tri_columns
        if not all(map(edge_keys.__contains__, chain(zip(a, b), zip(a, c), zip(b, c)))):
            t, e = next((t, e) for t in tri_rows
                        for e in combinations(t, 2) if e not in edge_keys)
            raise ValueError(f"edge {e!r} of triangle {t!r} is missing; "
                             "use from_triangles to take closures")
        if not all(map(verts.__contains__, chain(*edge_columns))):
            v, e = next((v, e) for e in edge_rows for v in e if v not in verts)
            raise ValueError(f"endpoint {v!r} of edge {e!r} is missing")
        self._setup(verts, edge_keys, dict.fromkeys(tri_rows), key)

    def _setup(self, vertices: Iterable, edges: Iterable, triangles: Iterable,
               key) -> None:
        """Store a closed complex's simplices, each given once and already
        sorted inside by key, in any order: each is sorted here, and a
        sequence that comes mostly in order, as runs of it, sorts fastest."""
        tuple_key = _tuple_key(key)
        self._store(tuple(sorted(vertices, key=key)),
                    tuple(sorted(edges, key=tuple_key)),
                    tuple(sorted(triangles, key=tuple_key)))

    def _store(self, vertices: tuple, edges: tuple, triangles: tuple) -> None:
        """Store a closed complex's simplices, each sorted inside and the
        three tuples in the canonical order, with the vertex and edge
        positions; the caches start empty."""
        self.vertices: tuple[Label, ...] = vertices
        self.edges: tuple[Edge, ...] = edges
        self.triangles: tuple[Triangle, ...] = triangles
        self._vertex_index = dict(zip(vertices, range(len(vertices))))
        self._edge_index = dict(zip(edges, range(len(edges))))
        self._edge_triangles = self._vertex_edges = None
        self._triangle_positions = self._triangle_edge_positions = None
        self._edge_degree_counts = self._components = None

    # The lazy indexes.  A loop reads one into a local first: each property
    # read is a call.  The reduction's working state builds its own edges
    # at each vertex and triangles at each edge, as dicts of sets it edits,
    # and hands them to _setup.  The three edge positions of each triangle
    # serve the boundary eliminations, the kill audit, the 1-cycles, the
    # cup form's front and back edges, the edge degrees and classify's
    # recognizer.

    @property
    def _tris_at_edge(self) -> dict:
        """The triangles at each edge, in order."""
        if self._edge_triangles is None:
            tris_at_edge: dict[Edge, list[Triangle]] = {e: [] for e in self.edges}
            for t in self.triangles:
                a, b, c = t
                tris_at_edge[a, b].append(t)
                tris_at_edge[a, c].append(t)
                tris_at_edge[b, c].append(t)
            self._edge_triangles = {e: tuple(ts) for e, ts in tris_at_edge.items()}
        return self._edge_triangles

    @property
    def _edges_at_vertex(self) -> dict:
        """The edges at each vertex, in order."""
        if self._vertex_edges is None:
            edges_at_vertex: dict[Label, list[Edge]] = {v: [] for v in self.vertices}
            for e in self.edges:
                edges_at_vertex[e[0]].append(e)
                edges_at_vertex[e[1]].append(e)
            self._vertex_edges = {v: tuple(es) for v, es in edges_at_vertex.items()}
        return self._vertex_edges

    @property
    def _triangle_index(self) -> dict:
        """The position of each triangle."""
        if self._triangle_positions is None:
            self._triangle_positions = dict(zip(self.triangles,
                                                range(len(self.triangles))))
        return self._triangle_positions

    @property
    def _triangle_edges(self) -> tuple:
        """The positions of each triangle's edges ab, ac and bc, in order."""
        if self._triangle_edge_positions is None:
            at = self._edge_index.__getitem__
            a, b, c = zip(*self.triangles) if self.triangles else ((), (), ())
            self._triangle_edge_positions = tuple(zip(
                map(at, zip(a, b)), map(at, zip(a, c)), map(at, zip(b, c))))
        return self._triangle_edge_positions

    @property
    def _edge_degrees(self) -> tuple:
        """The number of triangles at each edge, in order, counted over
        the triangles' edge positions."""
        if self._edge_degree_counts is None:
            degrees = [0] * len(self.edges)
            for e in chain.from_iterable(self._triangle_edges):
                degrees[e] += 1
            self._edge_degree_counts = tuple(degrees)
        return self._edge_degree_counts

    # ------------------------------------------------------------ building

    @classmethod
    def from_triangles(cls,
                       triangles: Iterable[Sequence[Label]],
                       extra_edges: Iterable[Sequence[Label]] = (),
                       extra_vertices: Iterable[Label] = ()) -> "Complex2":
        """Build the closure of the given triangles plus loose edges/vertices.

        The checks are __init__'s without the closure checks: every edge
        and vertex the closure needs is added, so none can be missing.
        """
        vertices, edges = list(extra_vertices), list(extra_edges)
        triangles = list(triangles)
        key = _label_order(vertices, edges, triangles)
        k = cls._closure(vertices, _rows(edges, key), _rows(triangles, key), key)
        if k is None:
            raise _degenerate(edges, triangles, key)
        return k

    @classmethod
    def _closure(cls, vertices: list, edge_rows: list, tri_rows: list,
                 key) -> Optional["Complex2"]:
        """The complex of the given simplices and all their faces, or None
        when one is degenerate; the rows are sorted inside by key, and a
        repeated one is taken once.

        The triangles are sorted once, by key, and split into columns.
        The closure's edges are gathered from those columns, ab, ac and bc,
        then the given edges, in first-seen order: the ab edges come in
        order, so the edge sort runs over presorted runs.  The vertices
        are read off the columns.
        """
        tuple_key = _tuple_key(key)
        triangles = sorted(tri_rows, key=tuple_key)
        if any(map(eq, triangles, islice(triangles, 1, None))):
            triangles = list(dict.fromkeys(triangles))
        edge_columns, tri_columns = _columns(edge_rows, 2), _columns(triangles, 3)
        if edge_columns is None or tri_columns is None:
            return None
        a, b, c = tri_columns
        edges = sorted(dict.fromkeys(chain(zip(a, b), zip(a, c), zip(b, c), edge_rows)),
                       key=tuple_key)
        vert_set = set(vertices)
        vert_set.update(*edge_columns, a, b, c)
        k = cls.__new__(cls)
        k._store(tuple(sorted(vert_set, key=key)), tuple(edges), tuple(triangles))
        return k

    def relabeled(self, mapping: Mapping[Label, Label]) -> "Complex2":
        """Apply an injective vertex relabeling; unmapped labels are kept."""
        image = [mapping.get(v, v) for v in self.vertices]
        # the labels first: True would merge with 1 in the set below
        _label_order(image, (), ())
        if len(set(image)) != len(image):
            raise ValueError("relabeling is not injective on the vertex set")
        return Complex2(image,
                        [tuple(mapping.get(v, v) for v in e) for e in self.edges],
                        [tuple(mapping.get(v, v) for v in t) for t in self.triangles])

    # ------------------------------------------------------------ queries

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    def has_vertex(self, v: Label) -> bool:
        return _is_label(v) and v in self._vertex_index

    def _as_vertex(self, v: Label) -> Label:
        if not self.has_vertex(v):
            raise ValueError(f"vertex {v!r} is not in the complex")
        return v

    def has_edge(self, e: Sequence[Label]) -> bool:
        return _are_labels(e, 2) and canon_edge(*e) in self._edge_index

    def has_triangle(self, t: Sequence[Label]) -> bool:
        return _are_labels(t, 3) and canon_triangle(*t) in self._triangle_index

    def _as_edge(self, e: Sequence[Label]) -> Edge:
        if not self.has_edge(e):
            shown = tuple(e) if _is_sequence(e) else e
            raise ValueError(f"edge {shown!r} is not in the complex")
        return canon_edge(*e)

    def edge_degree(self, e) -> int:
        """Number of triangles containing the edge."""
        return len(self._tris_at_edge[self._as_edge(e)])

    def triangles_at_edge(self, e) -> tuple[Triangle, ...]:
        return self._tris_at_edge[self._as_edge(e)]

    def edges_at_vertex(self, v: Label) -> tuple[Edge, ...]:
        return self._edges_at_vertex[self._as_vertex(v)]

    def triangles_at_vertex(self, v: Label) -> tuple[Triangle, ...]:
        """The triangles containing v, in order: a scan, as nothing hot asks."""
        v = self._as_vertex(v)
        return tuple(t for t in self.triangles if v in t)

    def maximal_edges(self) -> tuple[Edge, ...]:
        """Edges contained in no triangle, in canonical order."""
        return tuple(compress(self.edges, map(not_, self._edge_degrees)))

    def isolated_vertices(self) -> tuple[Label, ...]:
        edges_at_vertex = self._edges_at_vertex
        return tuple(v for v in self.vertices if not edges_at_vertex[v])

    def link_of_vertex(self, v: Label) -> tuple[tuple[Label, ...], tuple[Edge, ...]]:
        """The link graph: neighbouring vertices and opposite edges of triangles."""
        nodes = sorted({u for e in self.edges_at_vertex(v) for u in e if u != v}, key=label_key)
        opp = sorted((canon_edge(*(set(t) - {v})) for t in self.triangles_at_vertex(v)),
                     key=lambda e: tuple(map(label_key, e)))
        return tuple(nodes), tuple(opp)

    def connected_components(self) -> tuple[tuple[Label, ...], ...]:
        """Vertex sets of the components of the 1-skeleton, canonically
        ordered: the trees of its spanning forest, grown on the first call
        and kept."""
        if self._components is None:
            at = self._vertex_index.__getitem__
            u, v = zip(*self.edges) if self.edges else ((), ())
            forest = _Forest(self.n_vertices, zip(count(), map(at, u), map(at, v)))
            self._components = tuple(forest.trees(self.vertices))
        return self._components

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------ value

    def _key(self):
        return (self.vertices, self.edges, self.triangles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Complex2) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Complex2(alpha0={self.n_vertices}, alpha1={self.n_edges}, "
                f"alpha2={self.n_triangles})")
