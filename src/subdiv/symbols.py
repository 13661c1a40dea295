"""Exact Laurent polynomial arithmetic over the rationals.

A Laurent polynomial is stored as a map from integer exponent to a nonzero
Fraction coefficient, so the support is always exact.  All operations are
pure and return new objects.  This one type serves both the z-transform
symbol of a mask (products and evaluation for the smooth lift and the
necessary conditions) and the characteristic polynomial of a local
matrix's central block when the eigensolve falls back to Yun's square-free
split (long division, derivative and gcd); divmod is the only
long-division loop.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction, str]

_ZERO = Fraction(0)


class LaurentPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike], min_exp: int = 0) -> "LaurentPoly":
        """Build from an ordered coefficient run starting at exponent min_exp."""
        return cls({min_exp + i: v for i, v in enumerate(coeffs)})

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._c)

    def __getitem__(self, exponent: int) -> Fraction:
        return self._c.get(exponent, _ZERO)

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return max(self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __repr__(self) -> str:
        if not self._c:
            return "LaurentPoly(0)"
        terms = " + ".join("(%s)z^%d" % (c, e) for e, c in sorted(self._c.items()))
        return "LaurentPoly(%s)" % terms

    # -- arithmetic ------------------------------------------------------

    def __call__(self, z: RationalLike) -> Fraction:
        """Evaluate exactly at a nonzero rational point."""
        z = Fraction(z)
        if z == 0:
            raise ValueError("Laurent polynomial cannot be evaluated at z = 0")
        return sum((c * z ** e for e, c in self._c.items()), Fraction(0))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, _ZERO) + v
        return LaurentPoly(c)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            c: dict[int, Fraction] = {}
            for e1, v1 in self._c.items():
                for e2, v2 in other._c.items():
                    e = e1 + e2
                    c[e] = c.get(e, _ZERO) + v1 * v2
            return LaurentPoly(c)
        s = Fraction(other)
        return LaurentPoly({e: c * s for e, c in self._c.items()})

    __rmul__ = __mul__

    def deriv(self) -> "LaurentPoly":
        """d/dz, term by term."""
        return LaurentPoly({e - 1: e * c for e, c in self._c.items() if e})

    def divmod(self, d: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Polynomial long division: (q, r) with self = q*d + r and r == 0
        or deg r < deg d.  Defined for operands with no negative exponent."""
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if d.min_exp < 0 or (self and self.min_exp < 0):
            raise ValueError("divmod needs operands with no negative exponent")
        n = d.max_exp
        r = [self[e] for e in range(self.max_exp + 1)] if self else []
        dc = [(j, c) for j, c in d._c.items() if j < n]
        lead = d._c[n]
        q = {}
        for k in range(len(r) - 1 - n, -1, -1):
            c = r[k + n] / lead
            if c:
                q[k] = c
                for j, dj in dc:
                    r[k + j] -= c * dj
        return LaurentPoly(q), LaurentPoly(dict(enumerate(r[:n])))

    def gcd(self, other: "LaurentPoly") -> "LaurentPoly":
        """Monic greatest common divisor by Euclid's algorithm (divmod);
        zero when both operands are zero."""
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a * (1 / a[a.max_exp]) if a else a

