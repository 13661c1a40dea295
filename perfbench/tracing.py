"""Spans around calls into the program's public functions, and the
statistics the benchmark reports.

Tracing wraps functions from outside the program.  Modules bind imported
names (``from .localmatrix import eigenvalues``), so a function is replaced
in every module that holds it, and methods are replaced on their class,
under every attribute name that refers to them (``__rmul__ = __mul__``).
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, qualified name) of every traced function, as reported.
TRACED = (
    ("localmatrix", "eigenvalues"), ("localmatrix", "matrix_from_coeffs"),
    ("localmatrix", "classify"), ("localmatrix", "w6_discriminant"),
    ("search", "scan"), ("search", "palindromic_coeffs"), ("search", "family_symbol"),
    ("search", "write_search_csv"), ("search", "search_summary_json"),
    ("symbols", "LaurentPoly.div_exact"), ("symbols", "LaurentPoly.__mul__"),
    ("symbols", "LaurentPoly.parity_sums"),
    ("convergence", "certify"), ("convergence", "iterated_norm"),
    ("convergence", "difference_scheme"),
    ("masks", "load_scheme"), ("masks", "classify_symmetry"),
    ("refine", "refine_once"), ("refine", "basis_points_exact"),
    ("refine", "basis_experiment"), ("refine", "parameterize"),
    ("refine", "curve_csv_text"), ("refine", "curve_svg_text"),
    ("dynamics", "iterate_local"), ("dynamics", "decompose_modes"),
    ("dynamics", "write_trajectory_csv"),
    ("cli", "main"),
)
COUNTERS = ("search.cells", "refine.points_out", "refine.den_bits_max", "refine.emit_bytes")


@dataclass
class Tracer:
    """Spans kept in memory: [name, start, end, parent index, request id]."""
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    request: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(self.counters, args, result)
                except (AttributeError, TypeError, ValueError):
                    pass  # a counter that no longer fits the program stays as it is
            return result
        return traced

    def install(self, package: str = "subdiv") -> None:
        """Replace every traced function wherever the program looks it up."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for mod_name, qual in TRACED:
            owner = sys.modules.get("%s.%s" % (package, mod_name))
            parts = qual.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p, None)
            original = getattr(owner, parts[-1], None)
            if original is None:
                continue  # gone from the program: reported as 0 calls
            wrapped = self.wrap("%s.%s" % (mod_name, qual), original,
                                _AFTER.get("%s.%s" % (mod_name, qual)))
            holders = [owner] if len(parts) > 1 else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, req in self.spans:
                f.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (name, start, end, parent, req))


def _count_cells(counters, args, result):
    counters["search.cells"] += len(result.cells)


def _count_den_bits(counters, args, result):
    bits = max(v.denominator.bit_length() for v in result.values)
    counters["refine.den_bits_max"] = max(counters["refine.den_bits_max"], bits)


def _count_emit(counters, args, result):
    counters["refine.points_out"] += len(args[0].points)
    counters["refine.emit_bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "search.scan": _count_cells,
    "refine.refine_once": _count_den_bits,
    "refine.curve_csv_text": _count_emit,
    "refine.curve_svg_text": _count_emit,
}


# -- statistics ----------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - union_length(kids))
    return out


def per_function(spans, slowdown=None) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds), each span's self time divided by
    slowdown[request] when a slowdown per request is given."""
    agg: dict[str, list] = {}
    for (name, _, _, _, req), st in zip(spans, self_times(spans)):
        a = agg.setdefault(name, [0, 0.0])
        a[0] += 1
        a[1] += st / slowdown[req] if slowdown else st
    return {k: (v[0], v[1]) for k, v in agg.items()}


def window_median(at, values, lo: float, hi: float) -> float:
    """Median of the values whose times fall in [lo, hi]; when none does,
    the value nearest in time to the window."""
    inside = [v for t, v in zip(at, values) if lo <= t <= hi]
    if inside:
        return statistics.median(inside)
    return min(zip(at, values), key=lambda tv: min(abs(tv[0] - lo), abs(tv[0] - hi)))[1]


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    return xs[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> Optional[int]:
    """Highest whole percentile with at least `beyond` of n samples above its
    nearest-rank value, or None when no percentile from 50 up has that many."""
    for q in range(99, 49, -1):
        if n - max(1, math.ceil(q / 100 * n)) >= beyond:
            return q
    return None
