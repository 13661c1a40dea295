"""Analysis toolkit for binary stationary subdivision schemes for curves."""

from .masks import (Mask, SchemeRecord, SchemeFormatError, SymmetryClass,
                    catalog_get, catalog_names, classify_symmetry, load_scheme,
                    recenter)
# localmatrix, the largest module, is imported first of those that use
# numpy: without a bytecode cache each module is compiled at import, and
# compiling it after numpy is loaded raised the peak RSS of a process by
# about 0.8 MB
from .localmatrix import (EigensolveError, LocalMatrix, Spectrum, eigenvalues,
                          matrix_from_coeffs, w6_discriminant)
from .convergence import (ConvergenceReport, NotFactorableError, Verdict,
                          certify, smooth_lift)
from .refine import (ControlPolygon, MeshType, RefinementLimitError,
                     basis_points_exact, basis_polygon, delta, refine_k)
from .dynamics import EigenMode, TrajectoryReport, iterate_local
from .search import (Cell, CellClass, GridRange, MinWidthReport, SearchResult,
                     SearchSpec, c1_w6_obstruction, min_width_report,
                     negativity_lemma_check, palindromic_coeffs, scan)

__version__ = "0.1.0"
