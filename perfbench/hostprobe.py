"""Host-speed probe: scales measured times to a reference host speed.

The virtual machines this benchmark runs on share their cores, and the
speed they give a process moves by up to 2x in phases of seconds to minutes.
The probe is a fixed piece of work that no change to the program can move.
It is read between requests, and each request's time is divided by the
probe's slowdown against its reading on the reference host, taken around
that request.

Contention slows kinds of work unequally: on the reference host, small
pure-Python ``Fraction`` arithmetic slows most, big-integer products least,
and the program's requests in between.  So the probe mixes three kernels of
about equal time: small-integer ``Fraction`` arithmetic, small float
eigensolves and big-integer products, the kinds of work the program spends
its time in.  They use the standard library and numpy only, never the
program.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

from tracing import window_median

# Half-width of the time window whose probe readings give a request's
# slowdown: wide enough to hold several readings, narrow enough to follow
# the host's phases.
WINDOW_S = 1.0

_MATRICES = [np.random.default_rng(i).random((6, 6)) for i in range(8)]
_BIG = 3 ** 4000


def fraction_loop() -> None:
    acc = 0
    for i in range(1000):
        x = Fraction(i % 89 + 1, i % 97 + 2) * Fraction(i % 13 + 1, i % 11 + 2)
        acc += (x + Fraction(1, i % 7 + 3)).denominator & 1


def eigensolves() -> None:
    for _ in range(30):
        for m in _MATRICES:
            np.linalg.eigvals(m)


def bigint_products() -> None:
    for i in range(45):
        (_BIG * (_BIG + i)) % (_BIG - 7)


KERNELS = (fraction_loop, eigensolves, bigint_products)
# Seconds one reading takes on the reference host (a 2-vCPU x86-64 VM with
# Python 3.11) in a quiet phase.
REFERENCE_S = 0.0125


def read_once() -> float:
    """Seconds for one pass over the kernels.  The cyclic garbage collector
    is off meanwhile, so the heap the program leaves behind does not change
    the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for kernel in KERNELS:
            kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Readings of the probe, each kept with the time it was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.readings: list[float] = []

    def read(self) -> None:
        t0 = time.perf_counter()
        self.readings.append(read_once())
        self.at.append((t0 + time.perf_counter()) / 2)

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown against the reference around [start, end]: the
        median reading within WINDOW_S of it over the reference reading."""
        return window_median(self.at, self.readings, start - WINDOW_S,
                             end + WINDOW_S) / REFERENCE_S
