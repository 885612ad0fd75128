"""Dense bit-packed linear algebra over the two-element field.

Vectors are Python ints used as bitsets (bit i = coordinate i), so a row
operation is one XOR regardless of length.

There are two eliminations: the span, for any matrix, and the graphic
forest, for a matrix with at most two nonzeros per column.

The span's is Gf2Span._reduce_bits.  A span maps each pivot p to a row
whose lowest set bit is p; a vector is reduced by XOR-ing in the row of
its lowest remaining pivot bit until no pivot bit is left.  Ranks,
kernels, reduced row echelon forms and solve() all go through it.  Only a
reduced row echelon form back-substitutes: a rank is the number of
pivots, a kernel is the relations among the columns (_relations), and a
kernel vector at a chosen free column can be read off the echelon rows
(Gf2Span._kernel_at).  The reduced row echelon form of a matrix depends
only on its row space, so the order in which rows are eliminated never
shows in any result: kernel bases enumerate free columns in increasing
order, and solve() sets free variables to zero.

The graphic forest is _Forest, the package's one union-find.  A column
with its two nonzeros at rows a and b is an edge joining nodes a and b
(a column with one nonzero joins its row to one extra node, the same for
every such column), so the columns form the graphic matroid of that graph: the pivot columns of the
lowest-bit echelon basis, the greedy column basis in column order, are
Kruskal's forest grown over the edges in that order, and the kernel
vector at a free column is its fundamental cycle.  Connected components,
the dual graph of a surface and the side gluing of a polygon all use it.

How a span stores its pivots and how a forest stores its trees are known
only to this module; the others use the private span API: _span,
_relations, and the Gf2Span methods _added, _pivots, _free,
_reduced_rows and _kernel_at; and the _Forest attributes n and off and
its methods roots, trees, tree_nodes and cycles.

Wide ints are read and written through their binary digits: _bits_up
lists the set bits of an int, and _bitmask builds one from its set
positions, each in time linear in the digits it scans, where one bit at
a time would copy the int per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Gf2Vector",
    "Gf2Matrix",
    "Gf2Span",
]


def _low_bit(x: int) -> int:
    # index of the least significant set bit; x must be nonzero
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class Gf2Vector:
    """A vector in F2^length, coordinates packed into an int."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.length}")

    @classmethod
    def from_support(cls, length: int, indices: Iterable[int]) -> "Gf2Vector":
        """The vector with coordinate i set for each index i listed an odd
        number of times."""
        indices = list(indices)
        for i in indices:
            if not 0 <= i < length:
                raise IndexError(f"coordinate {i} out of range for length {length}")
        return cls(length, _bitmask(indices))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "Gf2Vector":
        return cls(len(coeffs), _bitmask([i for i, c in enumerate(coeffs) if c & 1]))

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"coordinate {i} out of range for length {self.length}")
        return self.bits >> i & 1

    def support(self) -> tuple[int, ...]:
        return tuple(_bits_up(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def dot(self, other: "Gf2Vector") -> int:
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")
        return bin(self.bits & other.bits).count("1") & 1

    def to_coeffs(self) -> list[int]:
        return [self.bits >> i & 1 for i in range(self.length)]

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")
        return Gf2Vector(self.length, self.bits ^ other.bits)

    def __repr__(self) -> str:
        return f"Gf2Vector('{''.join(str(b) for b in self.to_coeffs())}')"


class Gf2Matrix:
    """A matrix over F2 stored as one packed int per row (bit j = column j)."""

    __slots__ = ("n_rows", "n_cols", "_rows")

    def __init__(self, n_rows: int, n_cols: int, rows: Sequence[int]) -> None:
        if len(rows) != n_rows:
            raise ValueError(f"expected {n_rows} rows, got {len(rows)}")
        for r in rows:
            if r < 0 or r >> n_cols:
                raise ValueError(f"row 0x{r:x} out of range for {n_cols} columns")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._rows = tuple(rows)

    def rows(self) -> Iterator[Gf2Vector]:
        for r in self._rows:
            yield Gf2Vector(self.n_cols, r)

    def transpose(self) -> "Gf2Matrix":
        cols = [0] * self.n_cols
        for i, r in enumerate(self._rows):
            bit = 1 << i
            for j in _bits_up(r):
                cols[j] |= bit
        return Gf2Matrix(self.n_cols, self.n_rows, cols)

    def _rref(self) -> tuple[list[int], list[int]]:
        """Reduced row echelon form; returns (rows, pivot columns).

        Rows come in pivot order, padded with zero rows to n_rows.
        """
        span = _span(self._rows, self.n_cols)
        rows = span._reduced_rows()
        return rows + [0] * (self.n_rows - len(rows)), span._pivots()

    def rank(self) -> int:
        """The dimension of the row space; no back-substitution."""
        return _span(self._rows, self.n_cols).dim

    def kernel_basis(self) -> list[Gf2Vector]:
        """Basis of {x : M x = 0}, one vector per free column: the relations
        among the columns, in order."""
        _, relations = _relations(self.transpose()._rows, self.n_rows)
        return [Gf2Vector(self.n_cols, z) for z in relations]

    def solve(self, b: Gf2Vector) -> Optional[Gf2Vector]:
        """One solution of M x = b (free variables zero), or None.

        The right-hand side rides along as column n_cols; the system is
        inconsistent exactly when that column becomes a pivot.
        """
        if b.length != self.n_rows:
            raise ValueError(f"rhs length {b.length} != {self.n_rows} rows")
        n = self.n_cols
        augmented = Gf2Matrix(self.n_rows, n + 1, [r | (b.bits >> i & 1) << n
                                                  for i, r in enumerate(self._rows)])
        rows, pivots = augmented._rref()
        if pivots and pivots[-1] == n:
            return None
        return Gf2Vector(n, sum(1 << p for r, p in zip(rows, pivots) if r >> n & 1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Gf2Matrix)
                and (self.n_rows, self.n_cols, self._rows)
                == (other.n_rows, other.n_cols, other._rows))

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self._rows))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.n_rows}x{self.n_cols})"


class Gf2Span:
    """Incrementally built subspace, one row per pivot.

    The row stored at pivot p has p as its lowest set bit.  add() returns
    whether the vector enlarged the span, so this doubles as a greedy
    independence filter; reduce() gives the canonical residue of a vector
    modulo the span, the one that is zero at every pivot.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self._pivot_rows: dict[int, int] = {}
        self._mask = 0  # bit p set exactly when p is a pivot

    @property
    def dim(self) -> int:
        return len(self._pivot_rows)

    def _reduce_bits(self, bits: int) -> int:
        # the one elimination: clear the lowest pivot bit left until none is;
        # a row only adds bits above its pivot, so this ends
        rows, mask = self._pivot_rows, self._mask
        hit = bits & mask
        while hit:
            bits ^= rows[(hit & -hit).bit_length() - 1]
            hit = bits & mask
        return bits

    def _add_bits(self, bits: int) -> bool:
        bits = self._reduce_bits(bits)
        if not bits:
            return False
        p = _low_bit(bits)
        self._pivot_rows[p] = bits
        self._mask |= 1 << p
        return True

    def _added(self) -> list[tuple[int, int]]:
        """Each pivot with its row, in the order the rows were added: the
        residue of the vector added modulo the rows before it, until
        _reduced_rows back-substitutes."""
        return list(self._pivot_rows.items())

    def _pivots(self) -> list[int]:
        """The pivot columns, in increasing order."""
        return sorted(self._pivot_rows)

    def _free(self, width: int) -> list[int]:
        """The columns below width that are not pivots, in increasing order."""
        rows = self._pivot_rows
        return [c for c in range(width) if c not in rows]

    def _reduced_rows(self) -> list[int]:
        """The reduced row echelon form of the span, rows in pivot order.

        One back-substitution pass from the highest pivot down: each row
        less its pivot bit, which has only the bits above it, is reduced by
        the rows above it, which are already reduced.
        """
        rows, pivots = self._pivot_rows, self._pivots()
        for p in reversed(pivots):
            rows[p] = 1 << p | self._reduce_bits(rows[p] ^ 1 << p)
        return [rows[p] for p in pivots]

    def _kernel_at(self, columns: Sequence[int]) -> list[int]:
        """Kernel vectors of the span at some of its non-pivot columns.

        The vector of column f is f plus every pivot whose reduced row has
        f set, the kernel_basis vector there, but the reduced rows are
        never formed.  Back-substitution makes reduced row p the echelon
        row p plus the reduced rows at its other pivot bits, so their
        entries at the columns (packed, bit i for columns[i]) follow from
        the highest pivot down; a pivot above every column has none.  The
        columns must be distinct non-pivot columns: entries and watched
        are keyed by column.
        """
        # columns[i] -> 1 << i; pivot p -> reduced row p's entries at the columns
        entries = {f: 1 << i for i, f in enumerate(columns)}
        watched = sum(1 << f for f in columns)  # the keys of entries
        if len(entries) != len(columns) or watched & self._mask:
            raise ValueError(f"kernel columns {list(columns)} repeat a column "
                             "or name a pivot")
        rows = self._pivot_rows
        top = max(columns, default=0)
        for p in reversed([p for p in self._pivots() if p < top]):
            hits = rows[p] & watched
            if hits:
                at = 0
                for q in _bits_up(hits):
                    at ^= entries[q]
                if at:
                    entries[p] = at
                    watched |= 1 << p
        vectors = [0] * len(columns)
        for p, at in entries.items():
            for i in _bits_up(at):
                vectors[i] |= 1 << p
        return vectors

    def reduce(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.length:
            raise ValueError(f"length mismatch {v.length} != {self.length}")
        return Gf2Vector(self.length, self._reduce_bits(v.bits))

    def contains(self, v: Gf2Vector) -> bool:
        return self.reduce(v).is_zero()

    def add(self, v: Gf2Vector) -> bool:
        if v.length != self.length:
            raise ValueError(f"length mismatch {v.length} != {self.length}")
        return self._add_bits(v.bits)


def _bits_up(x: int) -> Iterator[int]:
    """The set bits of x, lowest first, found by scanning its binary
    digits: clearing one bit at a time would copy the int per bit, time
    quadratic in its length when it is dense."""
    digits = bin(x)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _span(rows: Iterable[int], width: int) -> Gf2Span:
    """The span of packed rows below bit width, inserted in order."""
    span = Gf2Span(width)
    for r in rows:
        span._add_bits(r)
    return span


def _relations(rows: Sequence[int], width: int) -> tuple[Gf2Span, list[int]]:
    """The rows eliminated in order, and the linear relations among them.

    Row j carries tag bit width + j, so reducing it sums the tags of the
    rows used.  A row whose bits below width reduce to zero is not added:
    its tags are its relation, j plus earlier independent positions, the
    kernel vector at free column j of the matrix whose columns are the
    rows.  The span holds the independent rows: its dim is their rank.
    """
    low = (1 << width) - 1
    span = Gf2Span(width + len(rows))
    relations = []
    for j, r in enumerate(rows):
        r = span._reduce_bits(r | 1 << width + j)
        below = r & low
        if below:
            # already reduced: stored at its lowest bit, as _add_bits would;
            # that bit is below width, so it is read off the part below
            p = _low_bit(below)
            span._pivot_rows[p] = r
            span._mask |= 1 << p
        else:
            relations.append(r >> width)
    return span, relations


class _Forest:
    """Kruskal's forest of a graph on the nodes 0 .. n - 1, grown over its
    edges, (position, end, end) triples, in the order given: each edge
    that joins two trees is kept, the others are off the forest, and off
    lists their positions in order.

    The union-find halves its paths inline (each node passed on the way
    up is hung on its grandparent) and hangs the first end's tree on the
    second's.  The forest is rooted, by one breadth-first pass, only when
    a cycle is asked for; that pass lists the trees too.  It walks the
    edges at each node as the caller lists them, which the caller has at
    hand (a triangle's three edges, a vertex's edges), and skips the
    edges off the forest itself, so no adjacency list is built here.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]) -> None:
        root = list(range(n))
        off = []
        for e, a, b in edges:
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a == b:
                off.append(e)
            else:
                root[a] = b
        self.n = n
        self._root = root
        self.off = off
        # parent node, edge up to it and depth of each node, and the trees
        # ordered by their first node, once a cycle has been asked for
        self._rooted: Optional[tuple[list[int], list[int], list[int], list[list[int]]]] = None

    def roots(self) -> list[int]:
        """The root of each node's tree, in node order: one find per node."""
        root = self._root
        found = []
        for r in range(self.n):
            while root[r] != r:
                root[r] = r = root[root[r]]
            found.append(r)
        return found

    def trees(self, names: Sequence) -> list[tuple]:
        """The trees, ordered by their first node, each the names of its
        nodes in node order."""
        trees: dict[int, list] = {}
        for r, name in zip(self.roots(), names):
            trees.setdefault(r, []).append(name)
        return list(map(tuple, trees.values()))

    def tree_nodes(self) -> list[Sequence[int]]:
        """The nodes of each tree, the trees ordered by their first node:
        breadth first off the rooted forest once a cycle has rooted it,
        else in node order."""
        if self._rooted:
            return self._rooted[3]
        return self.trees(range(self.n))

    def cycles(self, columns: Sequence[int], one: Sequence[int],
               two: Sequence[int], incident: Sequence[Iterable[int]]) -> list[int]:
        """The fundamental cycle of each edge in columns: its position
        plus the forest path between its ends, as a mask below len(one).

        one[e] and two[e] are the ends of each edge e, and incident[a]
        lists the edges at node a, each once, on the forest or off it, in
        any order.  The forest must have been grown over every position
        below len(one), so the edges kept are those not off it.  The path
        is walked up from both ends by parent pointers and depths to where
        they meet; the first call roots the forest with them.
        """
        if not columns:
            return []
        if self._rooted is None:
            self._rooted = self._rooting(one, two, incident)
        parent, up, depth, _ = self._rooted
        cycles = []
        for f in columns:
            a, b = one[f], two[f]
            path = [f]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                path.append(up[a])
                a = parent[a]
            cycles.append(_bitmask(path))
        return cycles

    def _rooting(self, one: Sequence[int], two: Sequence[int],
                 incident: Sequence[Iterable[int]]
                 ) -> tuple[list[int], list[int], list[int], list[list[int]]]:
        """Each node's parent, edge up and depth, and the trees, by one
        breadth-first pass from the lowest node of each tree over the
        caller's incidence, skipping the edges off the forest.  The path
        between two nodes of a forest is unique, so no cycle depends on
        the order of the pass."""
        n = self.n
        kept = bytearray(b"\1") * len(one)
        for e in self.off:
            kept[e] = 0
        parent, up, depth = [-1] * n, [-1] * n, [-1] * n
        trees = []
        for start in range(n):
            if depth[start] >= 0:
                continue
            depth[start] = 0
            nodes = [start]
            for a in nodes:  # grows as the pass goes: breadth first
                d, came = depth[a] + 1, up[a]
                for e in incident[a]:
                    # in a forest, the way back is the only kept edge seen
                    if kept[e] and e != came:
                        b = one[e] + two[e] - a
                        parent[b], up[b], depth[b] = a, e, d
                        nodes.append(b)
            trees.append(nodes)
        return parent, up, depth, trees


def _bitmask(positions: Sequence[int]) -> int:
    """The int with bit p set for each position p listed an odd number of
    times, read from its binary digits between the lowest position and the
    highest: linear in that span and the positions, where XOR-ing in one
    bit at a time is quadratic."""
    if not positions:
        return 0
    low, high = min(positions), max(positions)
    digits = bytearray(b"0") * (high - low + 1)  # highest position first
    for p in positions:
        digits[high - p] ^= 1  # "0" <-> "1"
    return int(digits, 2) << low
