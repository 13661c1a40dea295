"""Test-suite settings and shared oracles.

Hypothesis runs a fixed sequence of examples and keeps no example
database, so every run checks the same cases.  Its other cache (constants
read from the source, filled while tests are collected) goes to a
temporary directory removed at exit, so a test run leaves no .hypothesis/
behind."""
import json
import shutil
import tempfile
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from subdiv.localmatrix import LocalMatrix, matrix_from_coeffs
from subdiv.masks import record_to_json

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def save_scheme(record, path):
    """Write a SchemeRecord as a scheme file, in the JSON form analyze
    prints, for the CLI and load_scheme to read."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record_to_json(record), f, indent=2)
        f.write("\n")


def polygon_values(P):
    """The stored values of a ControlPolygon as Fractions, nums / den."""
    return tuple(Fraction(v, P.den) for v in P.nums.tolist())


def polygon_key(P):
    """A ControlPolygon as plain data, equal exactly for equal polygons:
    level, first_index, the numerators as a tuple of ints, den and mesh."""
    return P.level, P.first_index, tuple(P.nums.tolist()), P.den, P.mesh


def local_matrix(L, rows):
    """The LocalMatrix A = B / L of nested rows of ints, B held as
    matrix_from_coeffs holds it: a read-only array of Python ints
    (dtype=object).  Its column offset is 0."""
    B = np.array(rows, dtype=object)
    B.flags.writeable = False
    return LocalMatrix(L, B, 0)


def mask_matrix(mask):
    """The local matrix of a Mask, as the CLI builds it."""
    return matrix_from_coeffs(mask.support_min, mask.coeffs)


def fraction_entries(M):
    """The entries of a LocalMatrix as Fractions, A = B / L."""
    return tuple(tuple(Fraction(b, M.L) for b in row) for row in M.B)


Z = sympy.Symbol("z")


def sympy_symbol(support_min, coeffs):
    """The z-transform sum_k c_k z^k of a coefficient run (ints or
    Fractions) starting at exponent support_min, as a sympy expression."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * Z ** k
                       for k, c in enumerate(coeffs, support_min)))


def laurent_terms(expr):
    """{exponent: Fraction} of the nonzero terms of a Laurent polynomial in Z."""
    terms = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, e = term.as_coeff_exponent(Z)
        if c:
            terms[int(e)] = Fraction(int(c.p), int(c.q))
    return terms
