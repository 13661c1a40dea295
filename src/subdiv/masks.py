"""Subdivision masks, symmetry classification, the scheme catalog, and JSON I/O."""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence


class SymmetryClass(Enum):
    PRIMAL = "primal"        # odd width, a_i = a_{-i} after centering
    DUAL = "dual"            # even width, a_i = a_{1-i}
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class Mask:
    """Finite mask a_{support_min} .. a_{support_min + width - 1}.

    End coefficients must be nonzero except for the canonical zero mask,
    which is the single coefficient 0.
    """

    support_min: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("mask needs at least one coefficient")
        if len(coeffs) > 1 and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("mask end coefficients must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support_min", int(self.support_min))

    @property
    def width(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return self.width == 1 and self.coeffs[0] == 0


def parse_rational(s) -> Fraction:
    """Fraction(s), the one parser of user rationals (scheme-file coeffs,
    CLI values).  A decimal exponent above 4300 in absolute value is a
    ValueError first: Fraction would build 10**exp before any size check
    ran.  The bound is CPython's digit limit for int strings, but an
    admitted exponent can still build an int that str() refuses (10^4300
    has 4301 digits), so a caller that prints its values checks them."""
    exp = isinstance(s, str) and re.search(r"[eE]([-+]?\d+(_\d+)*)\s*$", s)
    if exp and abs(int(exp[1])) > 4300:
        raise ValueError("decimal exponent %s is past +-4300" % exp[1])
    return Fraction(s)


def lcm_tree(xs: list[int]) -> int:
    """The lcm of the ints xs by a balanced tree of pairwise lcms: a left
    fold costs time quadratic in len(xs) once the lcm outgrows each x."""
    while len(xs) > 1:
        xs = [math.lcm(*xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return math.lcm(*xs)


def integer_run(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, nums): L the lcm of the denominators of the rationals (ints or
    Fractions, lcm_tree), nums the values as integer numerators over L."""
    L = lcm_tree([v.denominator for v in values])
    return L, [v.numerator * (L // v.denominator) for v in values]


def classify_symmetry(mask: Mask) -> SymmetryClass:
    """Symmetry class from the coefficient run alone (translation invariant)."""
    c = mask.coeffs
    if c != tuple(reversed(c)):
        return SymmetryClass.ASYMMETRIC
    return SymmetryClass.PRIMAL if mask.width % 2 == 1 else SymmetryClass.DUAL


def recenter(mask: Mask) -> Mask:
    """Translate a palindromic mask to the centered support, which starts at
    -floor((w - 1) / 2) for width w: -m for width 2m+1, 1-m for width 2m.
    Others are unchanged."""
    if classify_symmetry(mask) is SymmetryClass.ASYMMETRIC:
        return mask
    return Mask(-((mask.width - 1) // 2), mask.coeffs)


@dataclass(frozen=True)
class SchemeRecord:
    name: str
    mask: Mask
    smoothness: Optional[int] = None  # documented C^m, if known


_CATALOG: dict[str, SchemeRecord] = {
    # width-6 dual scheme with a complex eigenvalue pair, C^0
    "a": SchemeRecord("a", Mask(-2, ("-1/10", "3/10", "4/5", "4/5", "3/10", "-1/10")), 0),
    # its (1+z)/2 lift, C^1
    "b": SchemeRecord("b", Mask(-3, ("-1/20", "1/10", "11/20", "4/5", "11/20", "1/10", "-1/20")), 1),
    # two-point ("simplest") scheme, C^0
    "c": SchemeRecord("c", Mask(-1, ("1/2", "1", "1/2")), 0),
    # cubic B-spline scheme, C^2
    "d": SchemeRecord("d", Mask(-2, ("1/8", "4/8", "6/8", "4/8", "1/8")), 2),
}

def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_get(name: str) -> SchemeRecord:
    rec = _CATALOG.get(name)
    if rec is None:
        raise KeyError("unknown catalog scheme: %r" % name)
    return rec


class SchemeFormatError(ValueError):
    """A scheme file failed validation; the message names the bad field."""


def record_to_json(record: SchemeRecord) -> dict:
    return {
        "name": record.name,
        "support_min": record.mask.support_min,
        "coeffs": [str(c) for c in record.mask.coeffs],
        "smoothness": record.smoothness,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def record_from_json(data: dict) -> SchemeRecord:
    if not isinstance(data, dict):
        raise SchemeFormatError("scheme file must contain a JSON object")
    for field in ("name", "support_min", "coeffs"):
        if field not in data:
            raise SchemeFormatError("missing field %r" % field)
    if not isinstance(data["name"], str):
        raise SchemeFormatError("field 'name' must be a string")
    # JSON true and false load as bool, which Python counts as an int
    if not _is_int(data["support_min"]):
        raise SchemeFormatError("field 'support_min' must be an integer")
    if not isinstance(data["coeffs"], list) or not data["coeffs"]:
        raise SchemeFormatError("field 'coeffs' must be a nonempty list")
    coeffs = []
    for i, s in enumerate(data["coeffs"]):
        try:
            if isinstance(s, bool):
                raise TypeError("a boolean is not a number")
            coeffs.append(parse_rational(s))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            # OverflowError: JSON Infinity loads as a float with no ratio
            raise SchemeFormatError("coeffs[%d] = %r is not a valid rational: %s" % (i, s, exc)) from exc
    smoothness = data.get("smoothness")
    if smoothness is not None and not _is_int(smoothness):
        raise SchemeFormatError("field 'smoothness' must be an integer or null")
    try:
        mask = Mask(data["support_min"], tuple(coeffs))
    except ValueError as exc:
        raise SchemeFormatError(str(exc)) from exc
    return SchemeRecord(data["name"], mask, smoothness)


def load_scheme(path) -> SchemeRecord:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemeFormatError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg)) from exc
        except ValueError as exc:  # an integer past the int-string digit limit, or bad UTF-8
            raise SchemeFormatError("unreadable scheme file: %s" % exc) from exc
    return record_from_json(data)
