"""Zeta functions of finite partially directed multigraphs.

Exact reciprocal zeta polynomials via the three-matrix determinant,
pole analysis with Riemann-hypothesis classification, Ramanujan and
functional-equation checks, prime-geodesic censuses from dart-matrix
traces, and generators plus a verified reference catalog of brane-tiling
graphs.
"""

from .catalog import (CatalogError, CatalogRecord, ade_graph, dimer_graph,
                      dimer_rh, dimer_zeta_closed, load_catalog,
                      quiver_to_graph, verify_catalog)
from .census import (CensusError, Dart, PrimeCensus, build_darts,
                     count_closed_paths, enumerate_primes, pnt_ratios)
from .graphs import (DegreeProfile, GraphFormatError, MatrixBundle,
                     MixedGraph, bipartition, degree_profile, is_connected,
                     matrices, normalize, total_degrees)
from .intpoly import (DivisibilityError, IntPoly, SeriesError, exact_div,
                      least_positive_root, log_derivative_series,
                      mobius_invert, poly_gcd, squarefree_factors)
from .polydet import char_poly, det_poly
from .rootfind import NumericalError, RootSet, find_roots
from .zeta import (STRONG, TRIVIAL, VIOLATED, WEAK, ZetaReport,
                   adjacency_spectrum, analyze, directed_zeta_inverse,
                   is_ramanujan, plot_points, xi_functional_check,
                   zeta_inverse)

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "DivisibilityError", "SeriesError", "exact_div", "poly_gcd",
    "squarefree_factors", "least_positive_root", "log_derivative_series",
    "mobius_invert",
    "det_poly", "char_poly",
    "RootSet", "NumericalError", "find_roots",
    "MixedGraph", "MatrixBundle", "DegreeProfile", "GraphFormatError",
    "normalize", "matrices", "degree_profile", "total_degrees",
    "bipartition", "is_connected",
    "ZetaReport", "zeta_inverse", "directed_zeta_inverse",
    "adjacency_spectrum", "is_ramanujan", "xi_functional_check", "analyze",
    "plot_points", "STRONG", "WEAK", "VIOLATED", "TRIVIAL",
    "Dart", "PrimeCensus", "CensusError", "build_darts",
    "count_closed_paths", "enumerate_primes", "pnt_ratios",
    "CatalogRecord", "CatalogError", "ade_graph", "dimer_graph",
    "dimer_zeta_closed", "dimer_rh", "quiver_to_graph", "load_catalog",
    "verify_catalog",
]
