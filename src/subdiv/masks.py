"""Subdivision masks, symmetry classification, the scheme catalog, and JSON I/O."""
from __future__ import annotations

import json
import math
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
    """Finite mask a_{support_min} .. a_{support_max}.

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

    @property
    def support_max(self) -> int:
        return self.support_min + self.width - 1

    @property
    def support(self) -> range:
        return range(self.support_min, self.support_max + 1)

    def is_zero(self) -> bool:
        return self.width == 1 and self.coeffs[0] == 0

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient at absolute index i; zero outside the support."""
        if self.support_min <= i <= self.support_max:
            return self.coeffs[i - self.support_min]
        return Fraction(0)


def integer_run(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, nums): L the lcm of the denominators of the rationals (ints or
    Fractions), nums the values as integer numerators over L."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


def classify_symmetry(mask: Mask) -> SymmetryClass:
    """Symmetry class from the coefficient run alone (translation invariant)."""
    c = mask.coeffs
    if c != tuple(reversed(c)):
        return SymmetryClass.ASYMMETRIC
    return SymmetryClass.PRIMAL if mask.width % 2 == 1 else SymmetryClass.DUAL


def canonical_support_min(mask: Mask) -> int:
    """Centered support start for palindromic masks: -m for width 2m+1, 1-m for width 2m."""
    w = mask.width
    return -((w - 1) // 2) if w % 2 == 1 else -(w // 2) + 1


def recenter(mask: Mask) -> Mask:
    """Translate a palindromic mask to the centered support; others unchanged."""
    if classify_symmetry(mask) is SymmetryClass.ASYMMETRIC:
        return mask
    return Mask(canonical_support_min(mask), mask.coeffs)


@dataclass(frozen=True)
class SchemeRecord:
    name: str
    mask: Mask
    smoothness: Optional[int] = None  # documented C^m, if known


def _F(s: str) -> Fraction:
    return Fraction(s)


_CATALOG: dict[str, SchemeRecord] = {
    # width-6 dual scheme with a complex eigenvalue pair, C^0
    "a": SchemeRecord("a", Mask(-2, tuple(map(_F, ("-1/10", "3/10", "4/5", "4/5", "3/10", "-1/10")))), 0),
    # its (1+z)/2 lift, C^1
    "b": SchemeRecord("b", Mask(-3, tuple(map(_F, ("-1/20", "1/10", "11/20", "4/5", "11/20", "1/10", "-1/20")))), 1),
    # two-point ("simplest") scheme, C^0
    "c": SchemeRecord("c", Mask(-1, tuple(map(_F, ("1/2", "1", "1/2")))), 0),
    # cubic B-spline scheme, C^2
    "d": SchemeRecord("d", Mask(-2, tuple(map(_F, ("1/8", "4/8", "6/8", "4/8", "1/8")))), 2),
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


def record_from_json(data: dict) -> SchemeRecord:
    if not isinstance(data, dict):
        raise SchemeFormatError("scheme file must contain a JSON object")
    for field in ("name", "support_min", "coeffs"):
        if field not in data:
            raise SchemeFormatError("missing field %r" % field)
    if not isinstance(data["name"], str):
        raise SchemeFormatError("field 'name' must be a string")
    if not isinstance(data["support_min"], int):
        raise SchemeFormatError("field 'support_min' must be an integer")
    if not isinstance(data["coeffs"], list) or not data["coeffs"]:
        raise SchemeFormatError("field 'coeffs' must be a nonempty list")
    coeffs = []
    for i, s in enumerate(data["coeffs"]):
        try:
            coeffs.append(Fraction(s))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise SchemeFormatError("coeffs[%d] = %r is not a valid rational: %s" % (i, s, exc)) from exc
    smoothness = data.get("smoothness")
    if smoothness is not None and not isinstance(smoothness, int):
        raise SchemeFormatError("field 'smoothness' must be an integer or null")
    try:
        mask = Mask(data["support_min"], tuple(coeffs))
    except ValueError as exc:
        raise SchemeFormatError(str(exc)) from exc
    return SchemeRecord(data["name"], mask, smoothness)


def save_scheme(record: SchemeRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record_to_json(record), f, indent=2)
        f.write("\n")


def load_scheme(path) -> SchemeRecord:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemeFormatError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg)) from exc
    return record_from_json(data)
