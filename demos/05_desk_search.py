"""
Exhaustive searches at desk scale
=================================

Up to eight vertices, every closed candidate complex can be enumerated
outright.  Two headline facts fall out: the projective plane genuinely
needs 10 triangles (and the torus does not fit on 6 vertices at all), and
no complex has all edges of degree 2 except a single edge of degree 3:
mod 2 the boundary of the sum of all triangles would be that one edge,
and an edge's boundary is not zero.
"""

from simpsurf import (canonical_form, catalog, complexes_with_one_triple_edge,
                      min_triangles_for_surface, parse_surface_id)

rp2 = parse_surface_id("N1")
result = min_triangles_for_surface(6, rp2)
print(f"N1 on <= 6 vertices: min = {result.min_triangles} triangles "
      f"({result.complete_states} closed states examined)")

# the found witness is the icosahedron-quotient triangulation, up to
# relabeling
assert canonical_form(result.witness) == canonical_form(catalog(rp2))
print("witness is the catalog triangulation up to relabeling")

torus = parse_surface_id("M1")
print("M1 on <= 6 vertices:",
      "found" if min_triangles_for_surface(6, torus).found else "impossible")
result = min_triangles_for_surface(7, torus)
print(f"M1 on <= 7 vertices: min = {result.min_triangles} triangles")

# the parity obstruction behind the exceptional surfaces: at an endpoint of
# a lone odd edge, the link would be a graph with exactly one odd-degree
# vertex; the search starts from that edge and finds no completion
for n in (6, 7, 8):
    found = complexes_with_one_triple_edge(n)
    print(f"single degree-3 edge on <= {n} vertices: {len(found)} complexes")
