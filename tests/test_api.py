import types

import subdiv

# every public name the package exports, by home module; adding or removing
# one is a reviewed edit here
PUBLIC = {
    # masks
    "Mask", "SchemeRecord", "SchemeFormatError", "SymmetryClass", "catalog_get",
    "catalog_names", "classify_symmetry", "load_scheme", "recenter", "save_scheme",
    # convergence
    "ConvergenceReport", "NotFactorableError", "Verdict", "certify",
    "contractivity_norm", "difference_scheme", "is_contractive",
    "necessary_conditions", "smooth_lift",
    # localmatrix
    "EigensolveError", "LocalMatrix", "Spectrum", "build_local_matrix",
    "complex_region_predicate", "eigenvalues", "matrix_from_coeffs",
    "w5_closed_form", "w6_closed_form", "w6_discriminant",
    # refine
    "ControlPolygon", "MeshType", "RefinementLimitError", "SampledCurve",
    "basis_experiment", "basis_points_exact", "basis_polygon", "delta",
    "parameterize", "refine_k",
    # dynamics
    "EigenMode", "TrajectoryReport", "decompose_modes", "iterate_local",
    "window_vector",
    # search
    "Cell", "CellClass", "GridRange", "MinWidthReport", "SearchResult",
    "SearchSpec", "c1_w6_obstruction", "min_width_report",
    "negativity_lemma_check", "palindromic_coeffs", "scan",
}


def test_public_api_inventory():
    # submodules are left out: which ones are attributes depends on what the
    # process has imported so far
    got = {name for name, value in vars(subdiv).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert got == PUBLIC
