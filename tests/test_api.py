import ast
import dataclasses
import enum
import inspect
import types
from pathlib import Path

import subdiv

# every public name the package exports, by home module; adding or removing
# one is a reviewed edit here
PUBLIC = {
    # masks
    "Mask", "SchemeRecord", "SchemeFormatError", "SymmetryClass", "catalog_get",
    "catalog_names", "classify_symmetry", "load_scheme", "recenter",
    # convergence
    "ConvergenceReport", "NotFactorableError", "Verdict", "certify", "smooth_lift",
    # localmatrix
    "EigensolveError", "LocalMatrix", "Spectrum", "build_local_matrix",
    "eigenvalues", "matrix_from_coeffs", "w6_discriminant",
    # refine
    "ControlPolygon", "MeshType", "RefinementLimitError", "basis_points_exact",
    "basis_polygon", "delta", "refine_k",
    # dynamics
    "EigenMode", "TrajectoryReport", "iterate_local",
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
    "EigenMode": {"coefficients", "eigenvalue", "magnitudes"},
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
    "TrajectoryReport": {"distances", "modes", "transients"},
}

# the members of MEMBERS that no code in src/subdiv reads, each with the
# reason it stays
UNREAD = {
    ("Cell", "cls"): "the class of a cell that SearchResult.cells yields: without it "
                     "the cell does not say what it is",
    ("SearchResult", "cells"): "read by perfbench's tracer, which counts the scanned cells",
    ("TrajectoryReport", "transients"): "the trajectory itself; tests check its floats bit "
                                        "for bit against the exact recurrence",
}

# the public functions that no code in src/subdiv calls, each with the
# reason it stays
UNCALLED = {
    "smooth_lift": "the paper's smoothness lift; its reader comes with the smooth-scheme "
                   "search (ROADMAP direction 7)",
    "negativity_lemma_check": "the paper's negativity lemma; its reader comes with the "
                              "min-width proofs (ROADMAP direction 4)",
    "c1_w6_obstruction": "the paper's width-6 C1 obstruction; its reader comes with the "
                         "min-width proofs (ROADMAP direction 4)",
    "palindromic_coeffs": "a name perfbench's tracer wraps; it leaves src/ with the "
                          "tracer's rewrite (ROADMAP direction 1, step 1)",
    "basis_points_exact": "a name perfbench's tracer wraps; it leaves src/ with the "
                          "tracer's rewrite (ROADMAP direction 1, step 1)",
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
    # sum(values) and count; the monotone profile from distances, the
    # rotation from a pair's eigenvalue and the alternation from coefficients;
    # the float matrix, whose one eigendecomposition iterate_local now takes
    # itself, and with it the export of decompose_modes; the diagnostic,
    # one constant string exactly when modes is None, and the pair flag,
    # which restated coefficients is None; and the precision cap of the
    # fixed-point route, whose first bracket finds a P past the float range
    gone = {"Mask": ("support_max", "support", "__getitem__"),
            "ControlPolygon": ("items", "total"), "GridRange": ("__len__",),
            "TrajectoryReport": ("fixed_point", "monotonicity_violations", "rotation", "matrix",
                                 "mode_diagnostic"),
            "EigenMode": ("sign_flips", "is_complex_pair")}
    for name, attrs in gone.items():
        for attr in attrs:
            assert attr not in MEMBERS[name] and not hasattr(getattr(subdiv, name), attr)
    assert not hasattr(subdiv, "decompose_modes")
    assert not hasattr(subdiv.dynamics, "_MAX_P")


def test_every_member_is_read_in_src():
    """Every member in MEMBERS is read somewhere in src/subdiv, as an
    attribute load (obj.name) or, for __getitem__, as any subscript, unless
    UNREAD excuses it.  The match is by name, not by class: a dead member
    that shares its name with a live one (a values or to_json elsewhere)
    slips through."""
    src = Path(subdiv.__file__).parent
    nodes = [node for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    if any(isinstance(node, ast.Subscript) for node in nodes):
        read.add("__getitem__")
    unread = {(cls, name) for cls, names in MEMBERS.items() for name in names
              if name not in read}
    assert unread == set(UNREAD)


def _callees(node, outer=()):
    """The names called in node, as f(...) or obj.f(...), each outside
    every function of its own name that encloses the call."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        outer += (node.name,)
    called = set()
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None and name not in outer:
            called.add(name)
    for child in ast.iter_child_nodes(node):
        called |= _callees(child, outer)
    return called


def test_every_public_function_is_called_in_src():
    """Every public function is called somewhere in src/subdiv outside its
    own body, unless UNCALLED excuses it; an import or a docstring mention
    is no call.  The match is by name: a dead function that shares its
    name with a live method slips through."""
    src = Path(subdiv.__file__).parent
    called = set().union(*(_callees(ast.parse(path.read_text(encoding="utf-8")))
                           for path in sorted(src.glob("*.py"))))
    functions = {name for name in PUBLIC if inspect.isfunction(getattr(subdiv, name))}
    assert functions - called == set(UNCALLED)
