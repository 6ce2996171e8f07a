"""Host-speed calibration: a fixed chunk of stdlib-only interpreter work.

On a shared host, other tenants slow the vCPU by up to a factor of two, in
phases from under a second to minutes, and CPU time slows with wall time.
Timing this chunk right next to a request tells how fast the host runs at
that moment.  A request's time on the reference host, one where the chunk
takes REF_S, is its measured time times REF_S over the chunk's time.

The chunk does what alcovekit's hot paths do (small-tuple building and
hashing, dict updates, small-int and Fraction arithmetic) and uses nothing
from alcovekit, so no change to the program can move it.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the chunk's time on the reference host; about its fastest time on a
# 2.1 GHz Xeon vCPU under Python 3.11
REF_S = 0.001


def _chunk() -> int:
    counts: dict = {}
    s = 0
    for i in range(3000):
        t = (i % 7, i % 11, -(i % 5))
        counts[t] = counts.get(t, 0) + 1
        s += hash(t) & 7
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    return s + f.denominator % 7


def measure() -> float:
    """Seconds one chunk takes now."""
    t = perf_counter()
    _chunk()
    return perf_counter() - t


def scale(seconds: float, chunk_s: float) -> float:
    """`seconds` measured while the chunk took `chunk_s`, on the reference host."""
    return seconds * REF_S / chunk_s
