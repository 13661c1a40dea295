"""The paper's closed-form spectra of the width-5 and width-6 palindromic
families, kept as test oracles for the exact eigensolve: the program
decides both families through localmatrix.spectra and
palindromic_classes, and never calls these."""
import math
from fractions import Fraction

from subdiv.localmatrix import Spectrum, w6_discriminant


def w5_closed_form(a) -> Spectrum:
    """Spectrum of the width-5 palindromic family a_{+-2}=a, a_{+-1}=1/2,
    a_0 = 1-2a: always {1, 1/2, 1/2-2a, a, a}, real."""
    a = Fraction(a)
    return Spectrum.from_values([1.0, 0.5, float(Fraction(1, 2) - 2 * a), float(a), float(a)])


def w6_closed_form(a, b) -> Spectrum:
    """Eigenvalues {1, a, a, b-a, ((1-a-b) +- sqrt(D))/2} of the width-6 family."""
    a, b = Fraction(a), Fraction(b)
    D = w6_discriminant(a, b)
    base = float(1 - a - b)
    if D < 0:
        root = complex(0.0, math.sqrt(float(-D)))
    else:
        root = complex(math.sqrt(float(D)), 0.0)
    mu5, mu6 = (base + root) / 2, (base - root) / 2
    return Spectrum.from_values([1.0, float(a), float(a), float(b - a), mu5, mu6])
