"""Seeded construction of benchmark inputs, independent of simpsurf.

Every closed surface is assembled from two stored seeds, the 7-vertex
torus and the 6-vertex projective plane, by connected sums, then grown by
stellar subdivisions to a target triangle count and relabeled at random.
Wedge summands (further closed surfaces, sphere bubbles, circles) are
attached afterwards.  Because the construction is known, each input
carries the answers a correct program must give: reduced F2 Betti
numbers add over wedge summands, and every summand is a known surface.

Nothing here imports simpsurf, so the expected answers never come from
the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

# orbits of {0,1,3} and {0,2,3} modulo 7
TORUS7 = tuple(tuple(sorted((i + d) % 7 for d in offsets))
               for offsets in ((0, 1, 3), (0, 2, 3)) for i in range(7))
# the icosahedron quotient
RP2_6 = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
         (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6))
# boundary of the 3-simplex
SPHERE4 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass(frozen=True)
class Surface:
    """A closed surface by orientability and genus (the sphere is M0)."""

    orientable: bool
    genus: int

    @property
    def name(self) -> str:
        if self.orientable:
            return "S2" if self.genus == 0 else f"M{self.genus}"
        return f"N{self.genus}"

    @property
    def b1(self) -> int:
        return 2 * self.genus if self.orientable else self.genus

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    def min_alpha2(self) -> int:
        """Triangle count of the unsubdivided connected-sum model."""
        pieces = _pieces(self)
        return sum(map(len, pieces)) - 2 * (len(pieces) - 1)


def _pieces(s: Surface) -> list:
    """The seed surfaces whose connected sum is s: M_g is g tori, N_k is
    (k-1)//2 tori and one or two projective planes."""
    if s.genus == 0:
        return [SPHERE4]
    tori = s.genus if s.orientable else (s.genus - 1) // 2
    planes = 0 if s.orientable else s.genus - 2 * tori
    return [TORUS7] * tori + [RP2_6] * planes


def _sorted(t):
    return tuple(sorted(t))


def _relabel_fresh(tris, start: int):
    labels = sorted({v for t in tris for v in t})
    mapping = {v: start + i for i, v in enumerate(labels)}
    return [_sorted(mapping[v] for v in t) for t in tris], start + len(labels)


def _connected_sum(a: list, b: list, rng: random.Random) -> list:
    """Remove one triangle from each piece and glue the two boundaries."""
    next_label = max(v for t in a for v in t) + 1
    b, _ = _relabel_fresh(b, next_label)
    ta = a[rng.randrange(len(a))]
    tb = b[rng.randrange(len(b))]
    image = list(ta)
    rng.shuffle(image)
    glue = dict(zip(tb, image))
    out = [t for t in a if t != ta]
    out += [_sorted(glue.get(v, v) for v in t) for t in b if t != tb]
    return out


def _subdivide_to(tris: list, target: int, rng: random.Random) -> list:
    """Stellar subdivisions (of triangles or edges) until target triangles."""
    tris = list(tris)
    label = max(v for t in tris for v in t) + 1
    while len(tris) < target:
        i = rng.randrange(len(tris))
        a, b, c = tris[i]
        if rng.random() < 0.5:
            tris[i:i + 1] = [(a, b, label), (a, c, label), (b, c, label)]
        else:
            u, w = rng.choice(((a, b), (a, c), (b, c)))
            pair = [t for t in tris if u in t and w in t]
            if len(pair) != 2:
                raise AssertionError("subdivided complex is not a closed surface")
            for t in pair:
                tris.remove(t)
                (x,) = set(t) - {u, w}
                tris += [_sorted((u, label, x)), _sorted((label, w, x))]
        label += 1
    return tris


def build_surface(s: Surface, alpha2: int, rng: random.Random) -> list:
    """Triangles of a closed surface of type s with alpha2 triangles."""
    pieces = _pieces(s)
    rng.shuffle(pieces)
    tris = [tuple(t) for t in pieces[0]]
    for piece in pieces[1:]:
        tris = _connected_sum(tris, list(piece), rng)
    if alpha2 < len(tris) or (alpha2 - len(tris)) % 2:
        raise ValueError(f"{s.name} cannot have {alpha2} triangles here")
    return _subdivide_to(tris, alpha2, rng)


@dataclass
class Built:
    """One generated complex and what its construction says about it."""

    triangles: list
    loose_edges: list
    base: Surface                # the first summand
    surfaces: list               # every closed summand, base first
    circles: int
    connected: bool = True
    preserve: list = field(default_factory=list)  # base triangles, odd count

    @property
    def betti(self) -> tuple[int, int, int]:
        b0 = 0 if self.connected else len(self.surfaces) - 1
        return (b0, sum(s.b1 for s in self.surfaces) + self.circles,
                len(self.surfaces))

    @property
    def alpha(self) -> tuple[int, int, int]:
        verts = {v for t in self.triangles for v in t}
        verts |= {v for e in self.loose_edges for v in e}
        edges = {e for t in self.triangles
                 for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
        return (len(verts), len(edges) + len(self.loose_edges),
                len(self.triangles))

    @property
    def chi(self) -> int:
        a0, a1, a2 = self.alpha
        return a0 - a1 + a2

    def document(self, name: str) -> dict:
        return {"name": name, "edges": [list(e) for e in self.loose_edges],
                "triangles": [list(t) for t in self.triangles]}

    def content_hash(self) -> str:
        text = json.dumps([sorted(self.triangles), sorted(self.loose_edges)])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def assemble(base: Surface, base_alpha2: int, rng: random.Random, *,
             others: tuple = (), bubbles: int = 0, circles: int = 0,
             connected: bool = True, preserve_size: int = 1) -> Built:
    """Base surface wedged with other surfaces, bubbles and circles.

    `others` holds (Surface, alpha2) pairs; with connected=False they are
    added as disjoint components instead of wedge summands.  Labels are
    shuffled at the end so no summand sits at a predictable position.
    """
    tris = build_surface(base, base_alpha2, rng)
    preserve = rng.sample(tris, preserve_size)
    label = max(v for t in tris for v in t) + 1
    surfaces = [base]
    pieces = [build_surface(s, a2, rng) for s, a2 in others]
    pieces += [[tuple(t) for t in SPHERE4] for _ in range(bubbles)]
    surfaces += [s for s, _ in others] + [Surface(True, 0)] * bubbles
    for piece in pieces:
        piece, end = _relabel_fresh(piece, label)
        if connected:
            at = rng.choice([v for t in tris for v in t])
            hub = rng.choice([v for t in piece for v in t])
            piece = [_sorted(at if v == hub else v for v in t) for t in piece]
        tris += piece
        label = end
    loose = []
    for _ in range(circles):
        at = rng.choice([v for t in tris for v in t])
        loose += [(at, label), (at, label + 1), (label, label + 1)]
        label += 2
    verts = sorted({v for t in tris for v in t} | {v for e in loose for v in e})
    image = list(range(len(verts)))
    rng.shuffle(image)
    mapping = dict(zip(verts, image))
    tris = [_sorted(mapping[v] for v in t) for t in tris]
    loose = [_sorted(mapping[v] for v in e) for e in loose]
    preserve = [_sorted(mapping[v] for v in t) for t in preserve]
    rng.shuffle(tris)
    return Built(tris, loose, base, surfaces, circles, connected, preserve)


def circulant_torus(n: int) -> list:
    """Vertex-transitive torus on Z/n: orbits of {0,1,3} and {0,2,3}."""
    return [_sorted((i + d) % n for d in offsets)
            for offsets in ((0, 1, 3), (0, 2, 3)) for i in range(n)]
