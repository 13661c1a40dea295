import inspect
import types

import subdiv

# every public name the package exports, by home module; adding or removing
# one is a reviewed edit here
PUBLIC = {
    # masks
    "Mask", "SchemeRecord", "SchemeFormatError", "SymmetryClass", "catalog_get",
    "catalog_names", "classify_symmetry", "load_scheme", "recenter", "save_scheme",
    # convergence
    "ConvergenceReport", "NotFactorableError", "Verdict", "certify", "smooth_lift",
    # localmatrix
    "EigensolveError", "LocalMatrix", "Spectrum", "build_local_matrix",
    "eigenvalues", "matrix_from_coeffs", "w5_closed_form", "w6_closed_form",
    "w6_discriminant",
    # refine
    "ControlPolygon", "MeshType", "RefinementLimitError", "basis_points_exact",
    "basis_polygon", "delta", "refine_k",
    # dynamics
    "EigenMode", "TrajectoryReport", "decompose_modes", "iterate_local",
    # search
    "Cell", "CellClass", "GridRange", "MinWidthReport", "SearchResult",
    "SearchSpec", "c1_w6_obstruction", "min_width_report",
    "negativity_lemma_check", "palindromic_coeffs", "scan",
}

# every parameter with a default of every public function, as
# "function(parameter)": a caller can leave it out, so it is a knob of the
# API, and adding one is a reviewed edit here (the fields of the public
# classes are their data, not knobs)
KNOBS = {"iterate_local(norm)"}


def test_public_api_inventory():
    # submodules are left out: which ones are attributes depends on what the
    # process has imported so far
    got = {name for name, value in vars(subdiv).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert got == PUBLIC


def test_knob_inventory():
    got = {"%s(%s)" % (name, p.name)
           for name, value in vars(subdiv).items() if name in PUBLIC and inspect.isfunction(value)
           for p in inspect.signature(value).parameters.values() if p.default is not p.empty}
    assert got == KNOBS
