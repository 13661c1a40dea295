import ast
import dataclasses
import enum
import inspect
import types
from pathlib import Path

import numpy as np

import subdiv
from subdiv import cli

# every public name the package exports, by home module; adding or removing
# one is a reviewed edit here
PUBLIC = {
    # masks
    "Mask", "SchemeRecord", "SchemeFormatError", "SymmetryClass", "catalog_get",
    "catalog_names", "classify_symmetry", "load_scheme", "recenter",
    # convergence
    "ConvergenceReport", "NotFactorableError", "Verdict", "certify", "smooth_lift",
    # localmatrix
    "EigensolveError", "LocalMatrix", "Spectrum", "eigenvalues", "matrix_from_coeffs",
    "w6_discriminant",
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

# every parameter with a default of every public function and of the
# constructor of every public class of MEMBERS, as "name(parameter)": a
# caller can leave it out, so it is a knob of the API, and adding one (a
# dataclass field with a default too) is a reviewed edit here
KNOBS = {"iterate_local(norm)", "ControlPolygon(mesh)", "SchemeRecord(smoothness)",
         "SearchSpec(convergence_filter)"}

# the public members of every public class that is no enum and no
# exception: its public names in vars(cls), its public dataclass fields, and
# the container protocol it defines; a member that only tests call is dead
# code in src/, so adding one is a reviewed edit here
MEMBERS = {
    "Cell": {"cls", "max_imag", "params"},
    "ControlPolygon": {"den", "first_index", "last_index", "level", "mesh", "nums"},
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

# the members of MEMBERS that the CLI does not read on CORPUS, each with
# the reason it stays
UNREAD = {
    ("Cell", "cls"): "the class of a cell that SearchResult.cells yields: without it "
                     "the cell does not say what it is",
    ("SearchResult", "cells"): "read by perfbench's tracer, which counts the scanned cells",
    ("TrajectoryReport", "transients"): "the trajectory itself, the read-only array the "
                                        "distances and modes are taken from; tests check its "
                                        "floats bit for bit against the exact recurrence",
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

# the CLI requests the member guard runs, one of each command, each small
CORPUS = (
    ["catalog"],
    ["analyze", "--scheme", "catalog:a"],
    ["dynamics", "--scheme", "catalog:b", "--K", "30"],
    ["basis", "--scheme", "catalog:a", "--iters", "3", "--format", "svg"],
    ["refine", "--scheme", "catalog:d", "--iters", "3", "--points", "1,-1/3,2"],
    ["search", "--width", "6", "--out", "{tmp}/w6"],
    ["search", "--min-width"],
)


def test_public_api_inventory():
    # submodules are left out: which ones are attributes depends on what the
    # process has imported so far
    got = {name for name, value in vars(subdiv).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert got == PUBLIC


def classes() -> dict[str, type]:
    """The public classes that are no enum and no exception, by name."""
    return {name: value for name, value in vars(subdiv).items()
            if name in PUBLIC and isinstance(value, type)
            and not issubclass(value, (enum.Enum, BaseException))}


def test_knob_inventory():
    callables = {name: value for name, value in vars(subdiv).items()
                 if name in PUBLIC and inspect.isfunction(value)} | classes()
    got = {"%s(%s)" % (name, p.name) for name, value in callables.items()
           for p in inspect.signature(value).parameters.values() if p.default is not p.empty}
    assert got == KNOBS


def members(cls) -> set[str]:
    names = {name for name in vars(cls) if not name.startswith("_") or name in _PROTOCOL}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    return names


def test_member_inventory():
    assert {name: members(cls) for name, cls in classes().items()} == MEMBERS


def test_deleted_members_stay_gone():
    # members that only tests called, deleted with their callers rewritten
    # to the API above: coeffs from support_min, values from first_index,
    # sum(values) and count; the monotone profile from distances, the
    # rotation from a pair's eigenvalue and the alternation from coefficients;
    # the float matrix, whose one eigendecomposition iterate_local now takes
    # itself, and with it the export of decompose_modes; the diagnostic,
    # one constant string exactly when modes is None, and the pair flag,
    # which restated coefficients is None; the precision cap of the
    # fixed-point route, whose first bracket finds a P past the float range;
    # a polygon's Fraction views of nums / den, and a cell's degenerate
    # flag, which SearchResult.degenerate holds
    gone = {"Mask": ("support_max", "support", "__getitem__"),
            "ControlPolygon": ("items", "total", "values", "__getitem__"),
            "Cell": ("degenerate",), "GridRange": ("__len__",),
            "TrajectoryReport": ("fixed_point", "monotonicity_violations", "rotation", "matrix",
                                 "mode_diagnostic"),
            "EigenMode": ("sign_flips", "is_complex_pair")}
    for name, attrs in gone.items():
        for attr in attrs:
            assert attr not in MEMBERS[name] and not hasattr(getattr(subdiv, name), attr)
    assert not hasattr(subdiv, "decompose_modes")
    assert not hasattr(subdiv.dynamics, "_MAX_P")
    # the one-line wrapper of matrix_from_coeffs, which the CLI now calls
    assert not hasattr(subdiv.localmatrix, "build_local_matrix")


class _Read:
    """Stands in a class for one of its attributes: records each read, at
    class level, on an instance or as an implicit special method lookup,
    and gives what the attribute gives."""

    def __init__(self, value, key, seen: set):
        self.value, self.key, self.seen = value, key, seen

    def __get__(self, obj, owner=None):
        self.seen.add(self.key)
        get = getattr(type(self.value), "__get__", None)
        return self.value if get is None else get(self.value, obj, owner)


def record_reads(monkeypatch, watched: dict[str, tuple[type, set[str]]]) -> set:
    """The set, filled as the program runs, of the (key, name) pairs of the
    watched names read on their own class (watched maps a key to the class
    and its names).  An instance read passes the class's __getattribute__,
    which the data fields need; a class-level read (Spectrum.from_values)
    or an implicit one (x[i] looks __getitem__ up on the type) bypasses
    it, so each watched name in vars(cls) is wrapped in a _Read as well.
    monkeypatch puts every class back."""
    seen = set()
    for key, (cls, names) in watched.items():
        for name in names & vars(cls).keys():
            monkeypatch.setattr(cls, name, _Read(vars(cls)[name], (key, name), seen))

        def getattribute(obj, name, get=cls.__getattribute__, key=key, names=names):
            if name in names:
                seen.add((key, name))
            return get(obj, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    return seen


def test_record_reads_sees_every_kind_of_read(monkeypatch):
    class Box:
        def __init__(self):
            self.field = 1

        @classmethod
        def make(cls):
            return cls()

        def __getitem__(self, i):
            return i

        def unread(self):
            pass

    seen = record_reads(monkeypatch, {"Box": (Box, {"field", "make", "__getitem__", "unread"})})
    box = Box.make()
    assert (box.field, box[2]) == (1, 2)
    assert seen == {("Box", "field"), ("Box", "make"), ("Box", "__getitem__")}
    monkeypatch.undo()
    assert "__getattribute__" not in vars(Box) and not isinstance(vars(Box)["make"], _Read)


def test_every_member_is_read_by_the_cli(monkeypatch, tmp_path):
    """Every member in MEMBERS is read on its own class while cli.main runs
    CORPUS, unless UNREAD excuses it; a member that only tests read is dead
    code in src/."""
    seen = record_reads(monkeypatch, {name: (getattr(subdiv, name), names)
                                      for name, names in MEMBERS.items()})
    for argv in CORPUS:
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 0, argv
    monkeypatch.undo()
    unread = {(cls, name) for cls, names in MEMBERS.items() for name in names} - seen
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


def test_array_members_are_read_only():
    """Every array member of a result is one read-only ndarray, the one
    copy of its datum: no tuple beside it and no reader that writes it."""
    mask = subdiv.catalog_get("a").mask
    M = subdiv.matrix_from_coeffs(mask.support_min, mask.coeffs)
    result = subdiv.scan(subdiv.SearchSpec(5, subdiv.search.family(5).grid))
    traj = subdiv.iterate_local([float(i == M.n // 2) for i in range(M.n)], M, 30)
    assert any(m.coefficients is None for m in traj.modes)
    arrays = [M.B, subdiv.refine_k(subdiv.delta(), mask, 3).nums,
              result.codes, result.max_imag, result.degenerate,
              traj.transients, traj.distances]
    arrays += [x for m in traj.modes for x in (m.magnitudes, m.coefficients) if x is not None]
    for x in arrays:
        assert isinstance(x, np.ndarray) and not x.flags.writeable
