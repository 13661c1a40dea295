import dataclasses
import enum
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

# the public members of every public class that is no enum and no
# exception: its public names in vars(cls), its public dataclass fields, and
# the container protocol it defines; a member that only tests call is dead
# code in src/, so adding one is a reviewed edit here
MEMBERS = {
    "Cell": {"cls", "degenerate", "max_imag", "params"},
    "ControlPolygon": {"__getitem__", "den", "first_index", "last_index", "level", "mesh",
                       "nums", "values"},
    "ConvergenceReport": {"certified_smoothness", "difference_mask", "necessary_ok", "norm",
                          "s_at_1", "s_at_minus1", "to_json", "verdict"},
    "EigenMode": {"coefficients", "eigenvalue", "is_complex_pair", "magnitudes", "sign_flips"},
    "GridRange": {"count", "hi", "lo", "step", "values"},
    "LocalMatrix": {"B", "L", "as_float", "column_offset", "n", "to_json"},
    "Mask": {"coeffs", "is_zero", "support_min", "width"},
    "MinWidthReport": {"counts_by_width", "min_width", "witnesses"},
    "SchemeRecord": {"mask", "name", "smoothness"},
    "SearchResult": {"cells", "codes", "complex_convergent_params", "counts", "degenerate",
                     "max_imag", "params", "values", "width", "witnesses"},
    "SearchSpec": {"convergence_filter", "param_ranges", "width"},
    "Spectrum": {"convergence_spectral_ok", "eigenvalues", "from_values", "has_complex",
                 "negative_real_count", "subdominant_modulus", "to_json"},
    "TrajectoryReport": {"distances", "fixed_point", "matrix", "mode_diagnostic", "modes",
                         "monotonicity_violations", "rotation", "transients"},
}

_PROTOCOL = ("__getitem__", "__len__", "__iter__")


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


def members(cls) -> set[str]:
    names = {name for name in vars(cls) if not name.startswith("_") or name in _PROTOCOL}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    return names


def test_member_inventory():
    got = {name: members(value) for name, value in vars(subdiv).items()
           if name in PUBLIC and isinstance(value, type)
           and not issubclass(value, (enum.Enum, BaseException))}
    assert got == MEMBERS


def test_deleted_members_stay_gone():
    # members that only tests called, deleted with their callers rewritten
    # to the API above: coeffs from support_min, values from first_index,
    # sum(values) and count
    gone = {"Mask": ("support_max", "support", "__getitem__"),
            "ControlPolygon": ("items", "total"), "GridRange": ("__len__",)}
    for name, attrs in gone.items():
        for attr in attrs:
            assert attr not in MEMBERS[name] and not hasattr(getattr(subdiv, name), attr)
