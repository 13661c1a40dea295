"""Test-suite settings and shared oracles.

Hypothesis runs a fixed sequence of examples and keeps no example
database, so every run checks the same cases.  Its other cache (constants
read from the source, filled while tests are collected) goes to a
temporary directory removed at exit, so a test run leaves no .hypothesis/
behind."""
import shutil
import tempfile
from fractions import Fraction

import sympy
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


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
