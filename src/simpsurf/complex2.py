"""Finite 2-dimensional simplicial complexes.

A Complex2 is an immutable value: vertex labels (ints or strings), edges,
and triangles, all stored in a single canonical order (integer labels
sort numerically and come before string labels, which sort
lexicographically).  Editing operations return new complexes; simplex ids
are positions in the canonical order and are NOT stable across edits, so
anything that must survive an edit is recorded by vertex tuple instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import eq
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Label",
    "SimplexId",
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


def _proper(rows: list, arity: int) -> bool:
    """Whether every sorted row holds arity distinct labels, that is,
    has length arity and no two equal neighbours."""
    if set(map(len, rows)) != {arity}:
        return False
    columns = list(zip(*rows))
    return not any(map(eq, chain(*columns[:-1]), chain(*columns[1:])))


def _rows(simplices: list, key, arity: int, what: str) -> list[tuple]:
    """Each simplex as a tuple sorted by key, in the given order, checked
    to hold arity distinct labels; the ValueError names the first that
    does not, as given."""
    if key is None:
        rows = list(map(tuple, map(sorted, simplices)))
    else:
        rows = [tuple(sorted(s, key=key)) for s in simplices]
    if rows and not _proper(rows, arity):
        bad = next(s for s, row in zip(simplices, rows)
                   if not _proper([row], arity))
        raise ValueError(f"degenerate {what} {tuple(bad)!r}")
    return rows


@dataclass(frozen=True)
class SimplexId:
    """Position of a simplex in the canonical order of one complex value."""

    dimension: int
    index: int

    def __post_init__(self) -> None:
        if self.dimension not in (0, 1, 2):
            raise ValueError(f"dimension {self.dimension} not in (0, 1, 2)")
        if self.index < 0:
            raise ValueError(f"negative index {self.index}")


class Complex2:
    """An abstract simplicial complex of dimension at most 2.

    Both constructors make one pass over their arguments.  The type of
    every label is checked (a bool, float or None is a TypeError), one
    sort key is chosen from the label types, and each simplex is sorted
    with it once; the sorted tuples are checked for degenerate simplices
    (edges first, then triangles) and then serve the closure.  When every
    label is an int, or every label is a str, plain tuple comparison is
    the label_key order and no key is used; a mixed label set is ranked by
    label_key once and sorted by those ranks.  from_triangles takes the
    closure of the sorted simplices; __init__ checks that the closure was
    given: first every triangle's edges, then every edge's endpoints.
    That endpoint check lives in __init__ alone, the only constructor
    where an endpoint can be missing.  A build stores the simplex tuples
    and the vertex and edge positions, which homology, the cup form and
    canonical_form read.  Three indexes are built on first read and kept:
    the triangles at each edge, the edges at each vertex and the triangle
    positions; connected_components() is computed once per value and
    kept too.  Only int and str labels (not bool) are vertices:
    has_vertex, has_edge and has_triangle are False for a simplex with any
    other label, and the vertex, edge and triangle queries and simplex_id
    raise ValueError for it.
    """

    __slots__ = ("vertices", "edges", "triangles",
                 "_vertex_index", "_edge_index",
                 # caches, each None until its first read
                 "_edge_triangles", "_vertex_edges", "_triangle_positions",
                 "_components")

    def __init__(self,
                 vertices: Iterable[Label],
                 edges: Iterable[Sequence[Label]] = (),
                 triangles: Iterable[Sequence[Label]] = ()) -> None:
        vertices, edges, triangles = list(vertices), list(edges), list(triangles)
        key = _label_order(vertices, edges, triangles)
        edge_rows = _rows(edges, key, 2, "edge")
        tri_rows = _rows(triangles, key, 3, "triangle")
        vert_set, edge_set = set(vertices), set(edge_rows)
        if tri_rows:
            a, b, c = zip(*tri_rows)
            if not edge_set.issuperset(chain(zip(a, b), zip(a, c), zip(b, c))):
                t, e = next((t, e) for t in tri_rows
                            for e in combinations(t, 2) if e not in edge_set)
                raise ValueError(f"edge {e!r} of triangle {t!r} is missing; "
                                 "use from_triangles to take closures")
        if not vert_set.issuperset(chain.from_iterable(edge_rows)):
            v, e = next((v, e) for e in edge_rows for v in e if v not in vert_set)
            raise ValueError(f"endpoint {v!r} of edge {e!r} is missing")
        self._setup(vert_set, edge_set, set(tri_rows), key)

    def _setup(self, vert_set: set, edge_set: set, tri_set: set, key) -> None:
        """Store closed canonical simplex sets, already sorted inside by key."""
        tuple_key = None if key is None else (lambda s: tuple(map(key, s)))
        self.vertices: tuple[Label, ...] = tuple(sorted(vert_set, key=key))
        self.edges: tuple[Edge, ...] = tuple(sorted(edge_set, key=tuple_key))
        self.triangles: tuple[Triangle, ...] = tuple(sorted(tri_set, key=tuple_key))
        self._vertex_index = dict(zip(self.vertices, range(len(self.vertices))))
        self._edge_index = dict(zip(self.edges, range(len(self.edges))))
        self._edge_triangles = self._vertex_edges = None
        self._triangle_positions = self._components = None

    # The lazy indexes.  A loop reads one into a local first: each property
    # read is a call.  The reduction's working state copies the edges at
    # each vertex, which the components walk builds anyway, and builds its
    # own triangles at each edge from the triangles it keeps.

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
        edge_set = set(_rows(edges, key, 2, "edge"))
        return cls._closure(set(vertices), edge_set,
                            set(_rows(triangles, key, 3, "triangle")), key)

    @classmethod
    def _closure(cls, vert_set: set, edge_set: set, tri_set: set, key) -> "Complex2":
        """The complex of checked, sorted simplices and all their faces;
        vert_set and edge_set are completed in place."""
        if tri_set:
            a, b, c = zip(*tri_set)
            edge_set.update(zip(a, b), zip(a, c), zip(b, c))
        vert_set.update(chain.from_iterable(edge_set))
        k = cls.__new__(cls)
        k._setup(vert_set, edge_set, tri_set, key)
        return k

    def relabeled(self, mapping: Mapping[Label, Label]) -> "Complex2":
        """Apply an injective vertex relabeling; unmapped labels are kept."""
        image = [mapping.get(v, v) for v in self.vertices]
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
        return all(map(_is_label, e)) and canon_edge(*e) in self._edge_index

    def has_triangle(self, t: Sequence[Label]) -> bool:
        return all(map(_is_label, t)) and canon_triangle(*t) in self._triangle_index

    def simplex(self, sid: SimplexId):
        """The vertex tuple (or label, in dimension 0) behind an id."""
        pool = (self.vertices, self.edges, self.triangles)[sid.dimension]
        if sid.index >= len(pool):
            raise ValueError(f"{sid} out of range")
        return pool[sid.index]

    def simplex_id(self, simplex) -> SimplexId:
        try:
            if isinstance(simplex, (int, str)):
                return SimplexId(0, self._vertex_index[self._as_vertex(simplex)])
            vs = tuple(simplex)
            if len(vs) == 2:
                return SimplexId(1, self._edge_index[canon_edge(*vs)])
            if len(vs) == 3:
                return SimplexId(2, self._triangle_index[canon_triangle(*vs)])
        except (KeyError, TypeError):
            # TypeError: a label neither int nor str (tuple(1.0) or label_key)
            raise ValueError(f"simplex {simplex!r} is not in the complex") from None
        raise ValueError(f"not a simplex: {simplex!r}")

    def _as_edge(self, e) -> Edge:
        if isinstance(e, SimplexId):
            if e.dimension != 1:
                raise ValueError(f"{e} is not an edge id")
            return self.edges[e.index]
        if not self.has_edge(e):
            raise ValueError(f"edge {tuple(e)!r} is not in the complex")
        return canon_edge(*e)

    def _as_triangle(self, t) -> Triangle:
        if isinstance(t, SimplexId):
            if t.dimension != 2:
                raise ValueError(f"{t} is not a triangle id")
            return self.triangles[t.index]
        if not self.has_triangle(t):
            raise ValueError(f"triangle {tuple(t)!r} is not in the complex")
        return canon_triangle(*t)

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
        tris_at_edge = self._tris_at_edge
        return tuple(e for e in self.edges if not tris_at_edge[e])

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
        ordered; walked on the first call and kept."""
        if self._components is not None:
            return self._components
        edges_at_vertex = self._edges_at_vertex
        seen: set[Label] = set()
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for e in edges_at_vertex[u]:
                    for w in e:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
            seen |= comp
            comps.append(tuple(sorted(comp, key=self._vertex_index.__getitem__)))
        self._components = tuple(comps)
        return self._components

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------ edits

    def remove_open_triangle(self, t) -> "Complex2":
        """Drop one 2-simplex, keeping all of its faces.  chi drops by 1."""
        tri = self._as_triangle(t)
        return Complex2(self.vertices, self.edges,
                        [u for u in self.triangles if u != tri])

    def delete_maximal_edge(self, e) -> "Complex2":
        """Drop a triangle-free edge, keeping its endpoints.  chi grows by 1."""
        edge = self._as_edge(e)
        if self._tris_at_edge[edge]:
            raise ValueError(f"edge {edge!r} lies in a triangle, not maximal")
        return Complex2(self.vertices,
                        [f for f in self.edges if f != edge],
                        self.triangles)

    def remove_isolated_vertex(self, v: Label) -> "Complex2":
        if self.edges_at_vertex(v):  # a vertex in no edge is in no triangle
            raise ValueError(f"vertex {v!r} is not isolated")
        return Complex2([u for u in self.vertices if u != v], self.edges, self.triangles)

    def contract_maximal_edge(self, e) -> "Complex2":
        """Identify the endpoints of a maximal edge.

        Requires the endpoints to lie in different components of the complex
        with the edge removed; the quotient is then automatically simplicial
        (a common neighbour would be a connecting path) and chi is preserved.
        The surviving label is the canonically smaller endpoint.
        """
        edge = self._as_edge(e)
        if self._tris_at_edge[edge]:
            raise ValueError(f"edge {edge!r} lies in a triangle, not maximal")
        keep, gone = edge
        cut = self.delete_maximal_edge(edge)
        for comp in cut.connected_components():
            if keep in comp and gone in comp:
                raise ValueError(f"endpoints of {edge!r} stay connected without it; "
                                 "contraction would change homotopy")
        mapped_edges = [canon_edge(*(keep if v == gone else v for v in f)) for f in cut.edges]
        mapped_tris = [canon_triangle(*(keep if v == gone else v for v in t)) for t in cut.triangles]
        if len(set(mapped_edges)) != len(mapped_edges) or len(set(mapped_tris)) != len(mapped_tris):
            raise ValueError(f"contracting {edge!r} would identify distinct simplices")
        return Complex2([v for v in cut.vertices if v != gone], mapped_edges, mapped_tris)

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
