"""Analysis toolkit for binary stationary subdivision schemes for curves."""

from .symbols import LaurentPoly
from .masks import (Mask, SchemeRecord, SchemeFormatError, SymmetryClass,
                    catalog_get, catalog_names, classify_symmetry, load_scheme,
                    recenter, save_scheme)
from .convergence import (ConvergenceReport, NotFactorableError, Verdict,
                          certify, contractivity_norm, difference_scheme,
                          is_contractive, necessary_conditions, smooth_lift)
from .localmatrix import (EigensolveError, LocalMatrix, Spectrum,
                          build_local_matrix, complex_region_predicate,
                          eigenvalues, matrix_from_coeffs, w5_closed_form,
                          w6_closed_form, w6_discriminant)
from .refine import (ControlPolygon, MeshType, RefinementLimitError,
                     SampledCurve, basis_experiment, basis_points_exact,
                     basis_polygon, delta, parameterize, refine_k, refine_once)
from .dynamics import (EigenMode, TrajectoryReport, decompose_modes,
                       iterate_local, window_vector)
from .search import (Cell, CellClass, GridRange, MinWidthReport, SearchResult,
                     SearchSpec, c1_w6_obstruction, min_width_report,
                     negativity_lemma_check, palindromic_coeffs, scan)

__version__ = "0.1.0"
