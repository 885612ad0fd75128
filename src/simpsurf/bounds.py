"""Triangle-count bounds for 2-complexes and closed-surface groups.

Everything here is exact integer arithmetic; the vertex floor in
particular is computed with isqrt bracketing because a one-ulp float
error would flip the ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .complex2 import Complex2

__all__ = [
    "NotApplicableError",
    "SurfaceId",
    "parse_surface_id",
    "GroupProfile",
    "surface_group_profile",
    "free_group_profile",
    "baumslag_solitar_profile",
    "truncated_euler_characteristic",
    "vertex_floor",
    "free_product_lower_bound",
    "minimal_triangle_count",
    "EXCEPTIONAL_SURFACES",
    "EulerBoundsReport",
    "euler_bounds_check",
    "ComplexityCertificate",
    "complexity_certificate",
]


class NotApplicableError(ValueError):
    """A bound or certificate was asked for outside its hypotheses."""


@dataclass(frozen=True)
class SurfaceId:
    """A closed surface up to homeomorphism: orientability plus genus."""

    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        if self.orientable and self.genus < 0:
            raise ValueError(f"orientable genus {self.genus} < 0")
        if not self.orientable and self.genus < 1:
            raise ValueError(f"non-orientable genus {self.genus} < 1")

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def name(self) -> str:
        if self.orientable:
            return "S2" if self.genus == 0 else f"M{self.genus}"
        return f"N{self.genus}"

    def __str__(self) -> str:
        return self.name


SPHERE = SurfaceId(True, 0)
EXCEPTIONAL_SURFACES = frozenset({SurfaceId(True, 2), SurfaceId(False, 2), SurfaceId(False, 3)})


_SURFACE_ALIASES = {
    "sphere": "S2",
    "torus": "M1",
    "rp2": "N1",
    "projective-plane": "N1",
    "klein": "N2",
    "klein-bottle": "N2",
}


def parse_surface_id(text: str) -> SurfaceId:
    """Parse 'S2', 'M<g>' (g >= 1), 'N<k>' (k >= 1), or a common alias;
    the genus is written in ASCII digits."""
    text = _SURFACE_ALIASES.get(text.strip().lower(), text.strip())
    if text == "S2":
        return SPHERE
    digits = text[1:]
    if text[:1] in ("M", "N") and digits.isascii() and digits.isdigit():
        try:
            genus = int(digits)
        except ValueError:  # more digits than the interpreter converts
            genus = 0
        if genus >= 1:
            return SurfaceId(text[0] == "M", genus)
    raise ValueError(f"unrecognized surface id {text!r}; expected S2, M<g>, or N<k>")


def vertex_floor(chi: int) -> int:
    """Least vertex count allowing Euler characteristic chi with every edge
    in at least two triangles.

    This is the least n with chi <= n - (1/6) * 2 * C(n, 2) turned into the
    closed form ceil((7 + sqrt(49 - 24 chi)) / 2), evaluated exactly.
    """
    if chi > 2:
        raise NotApplicableError(f"no such complex has chi = {chi} > 2")
    d = 49 - 24 * chi
    s = isqrt(d)
    num = 7 + s
    if s * s == d:
        return (num + 1) // 2
    return num // 2 + 1


@dataclass(frozen=True)
class GroupProfile:
    """F2 homology data of a finitely presented group, as asserted inputs.

    h1 and h2 are dim H_1(G; F2) and dim H_2(G; F2).  property_a records
    whether every nonzero class in H^1(G; F2) cups nontrivially with some
    class; it is an asserted flag justified in presentation_note, not
    something computed from a presentation.
    """

    name: str
    h1: int
    h2: int
    property_a: bool
    presentation_note: str = ""

    def __post_init__(self) -> None:
        if self.h1 < 0 or self.h2 < 0:
            raise ValueError("negative Betti number in a group profile")


def truncated_euler_characteristic(profile: GroupProfile) -> int:
    """h2 - h1 + 1: the Euler characteristic truncated above degree 2."""
    return profile.h2 - profile.h1 + 1


def surface_group_profile(surface: SurfaceId) -> GroupProfile:
    """Fundamental-group profile of a closed surface, over F2.

    The sphere group is trivial; the projective-plane group is order two
    with full F2 homology in low degrees; every other surface group is a
    one-relator group whose homology matches the surface.
    """
    if surface == SPHERE:
        return GroupProfile("pi1(S2)", 0, 0, True, "trivial group; the property holds vacuously")
    if surface.orientable:
        h1 = 2 * surface.genus
        note = ("symplectic intersection pairing on H^1 is nondegenerate")
    else:
        h1 = surface.genus
        note = ("the F2 intersection pairing on H^1 is nondegenerate; "
                "for genus 1 the generator squares to the fundamental class")
    return GroupProfile(f"pi1({surface.name})", h1, 1, True, note)


def free_group_profile(rank: int) -> GroupProfile:
    if rank < 0:
        raise ValueError(f"negative rank {rank}")
    return GroupProfile(f"F{rank}", rank, 0, rank == 0,
                        "free; H^2 vanishes, so any nonzero H^1 class is radical")


def baumslag_solitar_profile(m: int, n: int) -> GroupProfile:
    """BS(m, n) = <a, t | t a^m t^-1 = a^-n> for odd m and n."""
    if m % 2 == 0 or n % 2 == 0:
        raise NotApplicableError(
            f"BS({m},{n}): the cup-pairing property is only asserted for odd m, n")
    return GroupProfile(f"BS({m},{n})", 2, 1, True,
                        "one-relator; for odd exponents the pairing on H^1 is nonzero")


def free_product_lower_bound(profile: GroupProfile) -> int:
    """Least triangle count of any 2-complex whose fundamental group is the
    free product of this group with any finitely presented group.

    Requires the cup-pairing property, h2 > 0, and truncated Euler
    characteristic at most 2.
    """
    chi = truncated_euler_characteristic(profile)
    if not profile.property_a:
        raise NotApplicableError(f"{profile.name}: cup-pairing property missing or unknown")
    if profile.h2 == 0:
        raise NotApplicableError(f"{profile.name}: h2 = 0, nothing survives the reduction")
    if chi > 2:
        raise NotApplicableError(f"{profile.name}: truncated chi {chi} > 2")
    return 2 * vertex_floor(chi) - 2 * chi


def minimal_triangle_count(surface: SurfaceId) -> int:
    """Number of triangles in a smallest triangulation of the surface.

    The generic value 2 * vertex_floor(chi) - 2 * chi is corrected by +2
    for the three exceptional surfaces (orientable genus 2 and
    non-orientable genus 2 and 3), where the generic count is not realized.
    """
    chi = surface.euler_characteristic
    base = 2 * vertex_floor(chi) - 2 * chi
    return base + 2 if surface in EXCEPTIONAL_SURFACES else base


@dataclass(frozen=True)
class EulerBoundsReport:
    """Counting bounds for a complex whose edges all carry >= 2 triangles."""

    applicable: bool
    failures: tuple[str, ...]
    chi: int
    alpha0: int
    alpha0_floor: int
    alpha0_ok: bool
    alpha2: int
    alpha2_floor: int
    alpha2_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.applicable and self.alpha0_ok and self.alpha2_ok


def euler_bounds_check(k: Complex2) -> EulerBoundsReport:
    """Check alpha0 >= vertex_floor(chi) and alpha2 >= 2 alpha0 - 2 chi.

    Preconditions (reported, not raised): connected, at least one triangle,
    every edge in at least two triangles, chi <= 2.
    """
    failures = []
    if not k.is_connected():
        failures.append("disconnected")
    if k.n_triangles == 0:
        failures.append("no triangles")
    if any(len(ts) < 2 for ts in k._tris_at_edge.values()):
        failures.append("an edge lies in fewer than two triangles")
    chi = k.euler_characteristic()
    if chi > 2:
        failures.append(f"chi = {chi} > 2")
    applicable = not failures
    floor0 = vertex_floor(chi) if chi <= 2 else 0
    floor2 = 2 * k.n_vertices - 2 * chi
    return EulerBoundsReport(
        applicable=applicable,
        failures=tuple(failures),
        chi=chi,
        alpha0=k.n_vertices,
        alpha0_floor=floor0,
        alpha0_ok=applicable and k.n_vertices >= floor0,
        alpha2=k.n_triangles,
        alpha2_floor=floor2,
        alpha2_ok=applicable and k.n_triangles >= floor2,
    )


@dataclass(frozen=True)
class ComplexityCertificate:
    """Certified least triangle count over all complexes with the surface's
    fundamental group, with the bound chain that proves it."""

    surface: SurfaceId
    profile: GroupProfile
    triangle_complexity: int
    lower_bound: int
    exceptional: bool
    witness_alpha2: Optional[int]


def complexity_certificate(surface: SurfaceId) -> ComplexityCertificate:
    """Certify the triangle complexity of a surface group.

    The value equals minimal_triangle_count(surface); the certificate pairs
    it with the free-product lower bound (equal except on the three
    exceptional surfaces, where the gap is exactly 2) and the catalog
    triangulation's size as the upper-bound witness.  The witness is None
    where the catalog builds none (below its least Euler characteristic);
    the certified value does not depend on it.
    """
    if surface == SPHERE:
        raise NotApplicableError(
            "S2: the trivial group is realized by complexes with no triangles at all")
    profile = surface_group_profile(surface)
    lower = free_product_lower_bound(profile)
    value = minimal_triangle_count(surface)
    witness = None
    # deferred: surfaces imports this module
    from .surfaces import CATALOG_MIN_CHI, catalog
    if surface.euler_characteristic >= CATALOG_MIN_CHI:
        witness = catalog(surface).n_triangles
        if witness < value:
            raise AssertionError(
                f"catalog witness for {surface} beats the certified value")
    return ComplexityCertificate(
        surface=surface,
        profile=profile,
        triangle_complexity=value,
        lower_bound=lower,
        exceptional=surface in EXCEPTIONAL_SURFACES,
        witness_alpha2=witness,
    )
