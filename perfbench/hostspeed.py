"""Host speed, sampled while the program runs, to normalise its timings.

A shared host's speed drifts: fixed kernels timed back to back on a 2-vCPU
VM rose and fell together by factors of 1.4-1.7 within seconds to minutes,
in process CPU time as much as in wall time, so it is not time stolen by
the hypervisor. No amount of work inside one run averages that out. The
benchmark therefore times a small fixed reference kernel every PERIOD
seconds, from a SIGALRM handler that interrupts the program, and reports
each program interval in *reference seconds*: its host time scaled by
REFERENCE_S over the reference kernel's time around that interval.

The kernel uses only the standard library and nothing from `tidsim`, so no
change to the program can change it. It is a pure-Python scalar
multiplication on secp256k1 in affine coordinates: 256-bit modular
arithmetic, modular inverses and small tuples in an interpreted loop, the
mix of the program's hot paths (trial decryption is curve arithmetic). Of
the kernels tried, it tracked the program's own drift best: repeated
batches of fixed items varied by 1.3-3.9% (coefficient of variation) once
scaled by it, against 5.7-17% unscaled, 2.2-4.5% for a plain interpreter
loop and 4.4-6.4% for a deepcopy of contract-like state. The handler's own time is taken out of
every interval it lands in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

_P = 2**256 - 2**32 - 977  # secp256k1's field prime
_G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)
_SCALAR = 0xB5C3F1A2D4E6  # 48 bits: about 3 ms on the baseline host

# The unit's scale: an interval during which the kernel takes REFERENCE_S
# keeps its host time. On the 2-vCPU baseline host (see README.md) that
# makes a reference second close to a host second for the simulator
# workloads. Changing it rescales every figure recorded with it.
REFERENCE_S = 0.0023
PERIOD = 0.1
# Reference samples this close to an interval also describe its speed;
# the host's speed holds for seconds at a time.
MARGIN = 0.3


def _add(p, q):
    if p is None:
        return q
    if p[0] == q[0]:
        if (p[1] + q[1]) % _P == 0:
            return None
        slope = 3 * p[0] * p[0] * pow(2 * p[1], -1, _P) % _P
    else:
        slope = (q[1] - p[1]) * pow(q[0] - p[0], -1, _P) % _P
    x = (slope * slope - p[0] - q[0]) % _P
    return x, (slope * (p[0] - x) - p[1]) % _P


def reference_kernel():
    """_SCALAR times the generator, by double-and-add."""
    result, addend, k = None, _G, _SCALAR
    while k:
        if k & 1:
            result = _add(result, addend)
        addend = _add(addend, addend)
        k >>= 1
    return result


# Set-up is mostly imports, dynamic linking and class creation, which the
# kernel does not track, so setup_s is scaled by this reference start-up
# instead: a fresh interpreter importing the modules tidsim imports,
# creating dataclasses as tidsim's modules do, and running the kernel about
# as long as tidsim builds its base table.
STARTUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import argparse, contextlib, copy, csv, enum, fractions, hashlib, hmac, io, json, math, os
import pathlib, random, traceback, typing
from dataclasses import dataclass, field
import numpy
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
import hostspeed
for i in range(16):
    dataclass(type(f"Record{i}", (), {"__annotations__": {f"f{j}": int for j in range(8)}}))
for _ in range(7):
    hostspeed.reference_kernel()
print(time.perf_counter() - started)
"""
# The scale of setup_s: a set-up exactly as long as its paired reference
# start-up reads as STARTUP_REFERENCE_S.
STARTUP_REFERENCE_S = 0.15


class HostSpeed:
    """While entered, times the reference kernel every PERIOD seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        started = perf_counter()
        reference_kernel()
        self.starts.append(started)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Host seconds in [start, end] not spent in the handler."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - spent

    def reference(self, start: float, end: float) -> float:
        """Program seconds in [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - MARGIN)
        hi = bisect.bisect_right(self.starts, end + MARGIN)
        if lo == hi:
            raise RuntimeError("no host-speed sample near an interval; was HostSpeed entered?")
        kernel = statistics.median(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return self.busy(start, end) * REFERENCE_S / kernel
