"""Convergence certification via symbol factorization.

Necessary conditions s(1) = 2, s(-1) = 0; the difference scheme from the
(1+z) factor; the parity-sum contractivity norm; and a certification ladder
that peels (1+z)/2 factors to certify higher smoothness.  Contractivity
(norm of the difference scheme < 1) is decided in one place, is_contractive,
which both the ladder and the family scan use.  The norm test is sufficient
only, so a failed test yields "inconclusive", never "divergent".
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .masks import Mask, recenter
from .symbols import InexactDivisionError, LaurentPoly

_ONE_PLUS_Z = LaurentPoly({0: 1, 1: 1})


class Verdict(Enum):
    DIVERGENT = "Divergent"
    C0_CERTIFIED = "C0Certified"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConvergenceReport:
    s_at_1: Fraction
    s_at_minus1: Fraction
    necessary_ok: bool
    difference_mask: Optional[Mask]
    norm: Optional[Fraction]
    verdict: Verdict
    certified_smoothness: Optional[int]

    def to_json(self) -> dict:
        return {
            "s_at_1": str(self.s_at_1),
            "s_at_minus1": str(self.s_at_minus1),
            "necessary_ok": self.necessary_ok,
            "difference_mask": None if self.difference_mask is None else {
                "support_min": self.difference_mask.support_min,
                "coeffs": [str(c) for c in self.difference_mask.coeffs],
            },
            "norm": None if self.norm is None else str(self.norm),
            "verdict": self.verdict.value,
            "certified_smoothness": self.certified_smoothness,
        }


class NotFactorableError(ValueError):
    """The symbol has no (1+z) factor (s(-1) != 0)."""


def necessary_conditions(mask: Mask) -> tuple[Fraction, Fraction, bool]:
    s = mask.symbol()
    if not s:
        return Fraction(0), Fraction(0), False
    s1, sm1 = s(1), s(-1)
    return s1, sm1, s1 == 2 and sm1 == 0


def difference_scheme(mask: Mask) -> Mask:
    """Mask b with s_a(z) = (1+z) s_b(z), exact."""
    s = mask.symbol()
    if not s or s(-1) != 0:
        raise NotFactorableError("s(-1) = %s != 0, no (1+z) factor" % (s(-1) if s else "undefined",))
    return Mask.from_symbol(s.div_exact(_ONE_PLUS_Z))


def contractivity_norm(b: Mask) -> Fraction:
    """max of the even- and odd-index absolute coefficient sums."""
    return max(b.symbol().parity_sums())


def is_contractive(mask: Mask) -> bool:
    """True iff the difference scheme of mask has contractivity norm < 1.

    The mask must satisfy s(-1) = 0 (NotFactorableError otherwise).
    """
    return contractivity_norm(difference_scheme(mask)) < 1


def smooth_lift(mask: Mask) -> Mask:
    """Mask of ((1+z)/2) * s_a(z); palindromic results are recentered."""
    if mask.is_zero():
        return mask
    lifted = Mask.from_symbol(mask.symbol() * _ONE_PLUS_Z * Fraction(1, 2))
    return recenter(lifted)


def certify(mask: Mask, target_m: int) -> ConvergenceReport:
    """Certify the largest smoothness m <= target_m via the division ladder.

    Writes s_a = ((1+z)/2)^m s_q for the largest m such that the division is
    exact and S_q passes the necessary conditions with a contractive
    difference scheme (is_contractive).
    """
    if target_m < 0:
        raise ValueError("target_m must be >= 0")
    s1, sm1, ok = necessary_conditions(mask)
    if not ok:
        return ConvergenceReport(s1, sm1, False, None, None, Verdict.DIVERGENT, None)

    b = difference_scheme(mask)
    norm = contractivity_norm(b)

    half = _ONE_PLUS_Z * Fraction(1, 2)
    quotients = [mask.symbol()]
    while len(quotients) <= target_m:
        try:
            quotients.append(quotients[-1].div_exact(half))
        except InexactDivisionError:
            break

    for m in range(len(quotients) - 1, -1, -1):
        q = quotients[m]
        if q(1) == 2 and q(-1) == 0 and is_contractive(Mask.from_symbol(q)):
            return ConvergenceReport(s1, sm1, True, b, norm, Verdict.C0_CERTIFIED, m)

    return ConvergenceReport(s1, sm1, True, b, norm, Verdict.INCONCLUSIVE, None)
