"""Machine-speed references for rescaling measured times.

Shared two-core hosts change speed by tens of percent within seconds, as
other tenants come and go, and a raw wall time moves with them.  So each
measured time is taken next to a fixed reference that uses only the
standard library and never calls ``noricert`` -- a change to the program
does not move it -- and is rescaled to the nominal speed of the reference:

    rescaled = measured * nominal / mean(reference times around it)

* Work: ``chunk`` -- big-integer products and ``Fraction`` Horner steps, the
  operations ``noricert`` spends its time in; nominal ``NOMINAL_CHUNK_S``.
  While a workload runs, ``Sampler`` times one chunk every ``INTERVAL_S`` of
  wall time from a SIGALRM handler (the main thread runs it between
  bytecodes) and the chunks are subtracted from the measured time.
* Set-up: ``start_reference`` -- a fresh interpreter that imports the
  standard-library modules ``noricert`` imports; nominal
  ``NOMINAL_START_S``.  Its cost is the same kind as the set-up's:
  process start, page faults and module loading, which a compute chunk
  does not track.
"""

import signal
import sys
import time
from fractions import Fraction

NOMINAL_CHUNK_S = 0.005
NOMINAL_START_S = 0.055
INTERVAL_S = 0.1
START_REFERENCE = (
    "import argparse, dataclasses, enum, fractions, hashlib, heapq, json, math, os, random, typing"
)

_A = 3**4000
_B = 7**3000 + 1
_SHIFT = _B.bit_length()
_COEFFS = [Fraction(3**i + 1, 7 ** (i % 5) + 2) for i in range(12)] * 3
_POINT = Fraction(2, 3)


def chunk() -> float:
    """Run the reference computation once; return its duration in seconds."""
    started = time.perf_counter()
    x = _A
    for _ in range(90):
        x = (x * _B) >> _SHIFT
    acc = Fraction(0)
    for c in _COEFFS:
        acc = acc * _POINT + c
    return time.perf_counter() - started


def start_reference(env: dict) -> float:
    """Start the reference interpreter once; return its duration in seconds."""
    import subprocess  # only the runner needs it; keep it out of the worker's memory

    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_REFERENCE], env=env, check=True)
    return time.perf_counter() - started


def rescale(seconds: float, references: list, nominal: float = NOMINAL_CHUNK_S) -> float:
    return seconds * nominal * len(references) / sum(references)


class Sampler:
    """Context manager that times a chunk every ``INTERVAL_S`` while open."""

    def __init__(self):
        self.chunks = []

    def _sample(self, signum, frame):
        self.chunks.append(chunk())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_seconds(self, wall: float) -> float:
        """``wall`` minus the time the sampled chunks took."""
        return wall - sum(self.chunks)
