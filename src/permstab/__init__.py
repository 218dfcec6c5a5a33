"""Stability toolkit for permutation-valued structures on graphs and complexes.

Three families of objects live here, together with the testers that probe
them locally and the searches that measure their distance to globally valid
objects:

* maps from presentation generators to permutations, tested against relators;
* coverings of a graph underlying a polygonal complex, tested by lifting
  polygons;
* permutation-valued 1-cochains, tested by coboundary values on polygons.

The three pictures translate into each other exactly, and those translations
preserve both the local defects (tester rejection probabilities) and the
global defects (distance to the nearest valid object).
"""

from .perm import (Permutation, SignedWord, all_permutations, compose,
                   evaluate_word, hamming_distance_with_errors,
                   hs_distance_check, random_permutation)
from .graphs import (CombinatorialMap, Covering, EditDistanceResult, Graph,
                     LabeledGraph, ValidationReport, check_covering,
                     edit_distance, is_connected, reduce_path, spanning_tree,
                     validate_graph, validate_map)
from .complexes import (FundamentalPresentation, PolygonClass,
                        PolygonalComplex, Presentation, WeightingSystem,
                        fundamental_presentation, polygon_orbit,
                        polygon_weights, presentation_complex,
                        uniform_distribution, validate_complex)
from .cochains import (Cochain0, Cochain1, act0on1, coboundary0, coboundary1,
                       coboundary_distance, cochain_distance, cochain_norm,
                       cochain_to_covering, cochain_to_images,
                       covering_to_cochain, edge_norm, identity_cochain0,
                       identity_cochain1, images_to_cochain, is_coboundary,
                       is_cocycle, orbit_distance, tree_normalize)
from .testers import (DefectReport, TestOutcome, cocycle_local_defect,
                      cover_local_defect, dm_cover_local_defect,
                      hom_local_defect, local_defect, matrix_tester,
                      matrix_to_presentation, run_sampled, vector_to_images)
from .stability import (CheegerReport, GlobalDefectResult, SpectralReport,
                        cheeger, enumerate_homomorphisms, global_defect,
                        h0_vanishing_check, h1_vanishing_check, spectral_gap,
                        stability_profile, zero_dim_bound_check)
from .errors import GuardExceeded

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
