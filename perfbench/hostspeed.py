"""Host-speed probes, to report times at a fixed CPU speed.

On a shared host the same single-threaded code runs up to about 1.7 times
slower for seconds at a time, whenever other tenants load the physical
core. The guest sees no steal time, and CPU time slows as much as wall
time, so neither clock can tell a slower program from a busier host. The
slow spells come and go within one operation and do not show on the
other vCPU, so the speed has to be sampled on the timed thread itself.

A probe is a fixed piece of the work rvredeem does, interpreter loops and
small-array NumPy calls. `sampling()` runs one every INTERVAL_S seconds
inside the block it wraps, from a SIGALRM handler on the main thread, so
the probes share the CPU, and its slow spells, with the code being timed.
`normalize` turns a measured time into seconds at the nominal speed: the
time minus the probes' own, times NOMINAL_S over the probes' mean
duration. On an idle host the two agree.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Seconds between probes, and one probe's duration at the nominal speed:
# about its time on an unloaded core of the 2.0 GHz Xeon the benchmark was
# tuned on. Only the ratio matters; changing either rescales every result.
INTERVAL_S = 0.05
NOMINAL_S = 0.25e-3

_VECTOR = np.arange(64.0)


def _work(loops: int, calls: int) -> None:
    acc = 0
    for i in range(loops):
        acc += i * i
    for _ in range(calls):
        _VECTOR.sum()
        np.sqrt(_VECTOR)


def probe() -> float:
    """Seconds taken by the fixed probe work, right now.

    A tenth of the work runs first, untimed, to bring the probe's code back
    into cache after the timed code evicted it; cold, a probe reads about 3%
    slow after memory-heavy code, warm within 2%.
    """
    _work(300, 3)
    start = time.perf_counter()
    _work(3000, 30)
    return time.perf_counter() - start


def burst(count: int = 20) -> list[float]:
    """`count` probes back to back (about 5 ms)."""
    return [probe() for _ in range(count)]


class Samples(list):
    """Probe durations, and the seconds spent probing (warm-up included)."""

    spent = 0.0


@contextmanager
def sampling():
    """Probe every INTERVAL_S inside the block; yields a `Samples`, which
    gets one more probe after the block so that it is never empty. Restores
    the previous SIGALRM handler and timer on exit."""
    samples = Samples()

    def handler(signum, frame):
        start = time.perf_counter()
        samples.append(probe())
        samples.spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(probe())


def slowdown(samples: list[float]) -> float:
    """How many times slower than nominal the probes ran."""
    return statistics.fmean(samples) / NOMINAL_S


def normalize(seconds: float, samples: list[float], probe_seconds: float = 0.0) -> float:
    """`seconds` less `probe_seconds` spent probing, at the nominal speed."""
    return (seconds - probe_seconds) / slowdown(samples)
