"""Deterministic pseudo-random generator used for every random draw in the package.

The generator is splitmix64: a counter advanced by the 64-bit golden-ratio
constant, with each output passed through a fixed xor-shift-multiply finalizer.
It is specified exactly so that an independent implementation can reproduce
every stream bit for bit:

    state    <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z        <- state
    z        <- ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z        <- ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output   <- z xor (z >> 31)

Doubles are derived from the top 53 bits: (output >> 11) * 2^-53, giving a
uniform value in [0, 1).

Independent streams are split off a master seed with `derive_seed(seed, tag)`
where the tags below name each consumer. Deriving rather than sharing one
stream keeps stage outputs stable when an unrelated stage changes its number
of draws.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# Stream tags for derive_seed. Fixed constants; never renumber.
STREAM_SCENE = 1
STREAM_BASICBLOCK = 2
STREAM_HDMK = 3
STREAM_POOL_FINE = 4
STREAM_POOL_COARSE = 5
STREAM_HEAD = 6


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, tag: int) -> int:
    """Child seed for a named stream: mix64(seed xor ((tag + 1) * golden)).

    Seeds outside [0, 2^64) raise rather than alias another seed's streams.
    """
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return mix64(seed ^ (((tag + 1) * _GOLDEN) & _MASK))


class DetRng:
    """splitmix64 stream with scalar and vectorized draws.

    The vectorized methods consume exactly the same underlying sequence as the
    equivalent number of scalar calls, so mixing the two styles stays
    reproducible.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform doubles in [low, high), identical to n uniform() calls."""
        if n < 0:
            raise ValueError(f"draw count must be nonnegative, got {n}")
        # The passes run in place: the same operations in the same order as
        # the scalar recurrence, through one scratch array for the shifts.
        z = np.arange(1, n + 1, dtype=np.uint64)
        shifted = np.empty_like(z)
        with np.errstate(over="ignore"):
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self._state)
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(z, np.uint64(shift), out=shifted)
                z ^= shifted
                z *= np.uint64(mix)
            np.right_shift(z, np.uint64(31), out=shifted)
            z ^= shifted
        self._state = (self._state + n * _GOLDEN) & _MASK
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0**-53
        u *= high - low
        u += low
        return u
