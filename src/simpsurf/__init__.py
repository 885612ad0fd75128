"""Finite 2-dimensional simplicial complexes over F2.

Core objects: immutable complexes with canonical simplex order, F2 chain
and cochain algebra, cup pairings on H^1, homology-preserving reduction of
2-complexes, closed-surface recognition, a catalog of minimal surface
triangulations, triangle-count bounds for surface groups and their free
products, and exhaustive desk-scale searches.
"""

from .bounds import (EXCEPTIONAL_SURFACES, SPHERE, ComplexityCertificate,
                     EulerBoundsReport, GroupProfile, NotApplicableError,
                     SurfaceId, baumslag_solitar_profile,
                     complexity_certificate, euler_bounds_check,
                     free_group_profile, free_product_lower_bound,
                     minimal_triangle_count, parse_surface_id,
                     surface_group_profile, truncated_euler_characteristic,
                     vertex_floor)
from .complex2 import Complex2, canon_edge, canon_triangle, label_key
from .gf2 import Gf2Matrix, Gf2Span, Gf2Vector
from .homology import (ChainVector, CochainVector, CupForm, HomologySummary,
                       PropertyAResult, betti_numbers, boundary_matrix, chain,
                       chain_support, cochain, cup_pairing_on_h1, cup_product,
                       h2_coordinates, has_property_a, homology_summary,
                       property_a_brute_force)
from .io import (FormatError, complex_from_dict, complex_to_dict, dump_complex,
                 dumps_complex, load_complex, load_functionals,
                 load_group_profile, load_named_complex)
from .reduction import (PreservationSpec, ReductionTrace, collapse_all,
                        eliminate_maximal_edges, kill_step,
                        simplify_pipeline)
from .search import (SearchResult, canonical_form,
                     complexes_with_one_triple_edge, min_triangles_for_surface)
from .surfaces import (ClassificationResult, SurfaceHypothesesReport,
                       attach_circle, catalog, classify, expected_betti,
                       fundamental_class_cochain, is_closed_surface,
                       surface_hypotheses_report, verify_orientation_witness,
                       wedge)

__version__ = "0.1.0"
