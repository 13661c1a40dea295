"""Exact Laurent polynomial arithmetic over the rationals.

A Laurent polynomial is stored as a map from integer exponent to a nonzero
Fraction coefficient, so the support is always exact.  All operations are
pure and return new objects.  This is the z-transform symbol of a mask:
products and exact evaluation, for the smooth lift and the necessary
conditions.  Other polynomial work is done on integer coefficient lists
where it happens (division by (1+z) in convergence, the characteristic
polynomial and its square-free split in localmatrix).
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
