"""Convergence certification on the mask's coefficient run.

Necessary conditions s(1) = 2, s(-1) = 0, two sums of the run; the
difference scheme from the (1+z) factor; the parity-sum contractivity
norm; and a certification ladder that peels (1+z)/2 factors to certify
higher smoothness.

(1+z) is the only divisor, so division is synthetic division on a
coefficient run, _over_one_plus_z: the quotient b_k = a_k - b_{k-1} keeps
the run's start exponent, and the division is exact iff the last step
leaves zero (s(-1) = 0).  The ladder scales the run once to integer
numerators over L (masks.integer_run) and makes one chain of such
divisions, d_{j+1} = d_j / (1+z), while each is exact; rung m's quotient by
((1+z)/2)^m is 2^m d_m / L.  Contractivity (norm of the difference scheme
< 1) is decided in one place, is_contractive, which both the ladder and the
family scan call on a coefficient run.  The norm test is sufficient only,
so a failed test yields "inconclusive", never "divergent".
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .masks import Mask, integer_run, recenter


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


def _parity_sums(support_min: int, coeffs) -> list:
    """[sum over even, sum over odd absolute indices] of the run, in its
    number type."""
    sums = [0, 0]
    for k, c in enumerate(coeffs, support_min):
        sums[k % 2] += c
    return sums


def necessary_conditions(mask: Mask) -> tuple[Fraction, Fraction, bool]:
    """s(1) = sum a_k and s(-1) = sum (-1)^k a_k, k the absolute index, and
    whether they are 2 and 0."""
    even, odd = _parity_sums(mask.support_min, mask.coeffs)
    s1, sm1 = even + odd, even - odd
    return s1, sm1, s1 == 2 and sm1 == 0


def _over_one_plus_z(coeffs: Sequence[Fraction]) -> Optional[list]:
    """Quotient run of s(z) / (1+z), same start exponent, by synthetic
    division; None when s(-1) != 0.  The zero run gives the empty run."""
    q, r = [], 0
    for c in coeffs:
        r = c - r
        q.append(r)
    return q[:-1] if r == 0 else None


def difference_scheme(mask: Mask) -> Mask:
    """Mask b with s_a(z) = (1+z) s_b(z), exact."""
    q = _over_one_plus_z(mask.coeffs)
    if not q:  # None when s(-1) != 0, empty for the zero mask
        raise NotFactorableError("s(-1) != 0, no (1+z) factor" if q is None
                                 else "the zero mask has no difference scheme")
    return Mask(mask.support_min, tuple(q))


def contractivity_norm(b: Mask) -> Fraction:
    """max of the even- and odd-index absolute coefficient sums."""
    return Fraction(max(_parity_sums(b.support_min, map(abs, b.coeffs))))


def is_contractive(support_min: int, coeffs: Sequence[Fraction], den: int = 1) -> bool:
    """True iff the difference scheme of the run a_{support_min}, ... has
    contractivity norm < 1.  Zero end coefficients are allowed.  With den,
    the run holds integer numerators over den and the test stays in
    integers: the division by (1+z) is linear, so the norm is < den.

    The run must satisfy s(-1) = 0 (NotFactorableError otherwise).
    """
    q = _over_one_plus_z(coeffs)
    if q is None:
        raise NotFactorableError("s(-1) != 0, no (1+z) factor")
    return max(_parity_sums(support_min, map(abs, q))) < den


def smooth_lift(mask: Mask) -> Mask:
    """Mask of ((1+z)/2) * s_a(z); palindromic results are recentered."""
    if mask.is_zero():
        return mask
    c = mask.coeffs
    lifted = [(a + b) / 2 for a, b in zip((Fraction(0),) + c, c + (Fraction(0),))]
    return recenter(Mask(mask.support_min, tuple(lifted)))


def certify(mask: Mask, target_m: int) -> ConvergenceReport:
    """Certify the largest smoothness m <= target_m via the division ladder.

    Writes s_a = ((1+z)/2)^m s_q for the largest m such that the division is
    exact and S_q passes the necessary conditions with a contractive
    difference scheme (is_contractive).  s_q(-1) = 0 is the exactness of
    the next division in the chain; s_q(1) = s_a(1) = 2 on every rung.
    """
    if target_m < 0:
        raise ValueError("target_m must be >= 0")
    s1, sm1, ok = necessary_conditions(mask)
    if not ok:
        return ConvergenceReport(s1, sm1, False, None, None, Verdict.DIVERGENT, None)

    b = difference_scheme(mask)
    norm = contractivity_norm(b)

    # d[j] = L s_a / (1+z)^j in integers while exact; rung m needs d[m + 1]
    # (q(-1) = 0)
    L, nums = integer_run(mask.coeffs)
    d = [nums]
    while len(d) <= target_m + 1 and (nxt := _over_one_plus_z(d[-1])) is not None:
        d.append(nxt)

    for m in range(len(d) - 2, -1, -1):
        if is_contractive(mask.support_min, [x << m for x in d[m]], L):
            return ConvergenceReport(s1, sm1, True, b, norm, Verdict.C0_CERTIFIED, m)

    return ConvergenceReport(s1, sm1, True, b, norm, Verdict.INCONCLUSIVE, None)
