"""Convergence certification on the mask's coefficient run.

A certification ladder that peels (1+z)/2 factors to certify smoothness,
whose first rung gives the necessary conditions s(1) = 2, s(-1) = 0, the
difference scheme from the (1+z) factor and its parity-sum contractivity
norm.

(1+z) is the only divisor, and one routine, _divide, does every division.
It works on the alternated run, the coefficients of s(-z) (entries at odd
absolute index negated): there the synthetic division q_k = a_k - q_{k-1}
is the prefix sum p_k = (-1)^k q_k = sum_{j <= k} (-1)^j a_j, one np.cumsum
on a stack of runs, whose last column is the remainder s(-1) and whose
other columns are the quotient's alternated run, same start exponent.
|p_k| = |q_k|, so one routine, _parity_norm, takes the norm of a quotient
with no sign restored (refine's growth bound takes it of a mask's taps).
contractive_runs divides a stack of runs and takes their norms (the
family scan calls it once per block of cells, and one run is its one-row
stack).  Each step keeps the dtype of the runs it is given
(localmatrix.int_array): int64 only from search.scan, Python ints from
every other caller.  The ladder, certify, scales the run once to integer
numerators over L (masks.integer_run) and makes one chain of divisions,
d_j = L s_a / (1+z)^j, while each is exact; the first gives s(-1) and the
difference mask, and rung m's quotient by ((1+z)/2)^m has difference
scheme 2^m d_{m+1} / L, so one _parity_norm call on the stacked chain
gives the difference mask's norm and every rung's verdict.  certify(mask,
0) is the one source of s(1), s(-1), the necessary-conditions flag, the
difference mask and its norm; it gives no difference mask unless s(1) = 2
and s(-1) = 0.  The norm test is sufficient only, so a failed test yields
"inconclusive", never "divergent".
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .localmatrix import int_array
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


def _alternate(support_min: int, runs) -> np.ndarray:
    """The runs a_{support_min}, ... (last axis) as an array of the
    coefficients (-1)^k a_k of s(-z), k the absolute index, of the runs'
    dtype (int_array).  Its own inverse."""
    runs = int_array(runs)
    return runs * (-1) ** ((support_min % 2 + np.arange(runs.shape[-1])) % 2)


def _divide(alt: np.ndarray) -> np.ndarray:
    """The division by (1+z) of alternated runs, at their width: prefix sums
    along the last axis.  The last column is the remainder s(-1); when it is
    0 the others are the quotient's alternated run, same start exponent."""
    return np.cumsum(alt, axis=-1)


def _parity_norm(runs) -> np.ndarray:
    """For runs (last axis), the larger of the sums of |entries| over the
    even and over the odd columns: the parity norm, whichever of them holds
    the even absolute indices.  Of the runs' dtype (int_array), so one run
    of Python ints gives a Python int: np.maximum is told the dtype, as it
    would cast two bare Python ints to int64."""
    runs = abs(int_array(runs))
    return np.maximum(runs[..., ::2].sum(axis=-1), runs[..., 1::2].sum(axis=-1), dtype=runs.dtype)


def contractive_runs(support_min: int, runs, den: int) -> np.ndarray:
    """For each row of an (N, n) stack of runs a_{support_min}, ... (an
    array or nested sequences of ints or Fractions), whether its difference
    scheme has contractivity norm < 1.  Zero end coefficients are allowed.
    The runs hold numerators over den (1 for the coefficients themselves),
    and integer numerators keep the test in integers: the division by (1+z)
    is linear, so the norm is < den.
    Every row must satisfy s(-1) = 0 (NotFactorableError otherwise).  The
    norm is read off the alternated quotients, whose |q_k| are those of the
    quotients.
    """
    q = _divide(_alternate(support_min, runs))
    if (q[:, -1] != 0).any():
        raise NotFactorableError("s(-1) != 0, no (1+z) factor")
    return _parity_norm(q) < den


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
    difference scheme.  s_q(-1) = 0 is the exactness of the next division
    in the chain; s_q(1) = s_a(1) = 2 on every rung.  Each quotient of the
    chain is computed once, and every rung's norm comes from one stacked
    _parity_norm call.
    """
    if target_m < 0:
        raise ValueError("target_m must be >= 0")
    # d[j] = L s_a / (1+z)^(j+1), alternated, in integers at the mask's width
    # while exact: the first remainder is L s(-1), and rung m's difference
    # scheme is 2^m d[m] / L
    L, nums = integer_run(mask.coeffs)
    d = [_divide(_alternate(mask.support_min, nums))]
    s1, sm1 = Fraction(sum(nums), L), Fraction(d[0][-1], L)
    if s1 != 2 or sm1:
        return ConvergenceReport(s1, sm1, False, None, None, Verdict.DIVERGENT, None)
    while len(d) <= target_m and not (q := _divide(d[-1]))[-1]:
        d.append(q)
    norms = _parity_norm(d)  # one row per rung
    b = Mask(mask.support_min, tuple(_alternate(mask.support_min, d[0][:-1]) * Fraction(1, L)))
    m = max((m for m, norm in enumerate(norms) if norm << m < L), default=None)
    return ConvergenceReport(s1, sm1, True, b, Fraction(norms[0], L),
                             Verdict.INCONCLUSIVE if m is None else Verdict.C0_CERTIFIED, m)
