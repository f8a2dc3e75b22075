"""Deterministic random streams built on SplitMix64.

SplitMix64 (Steele/Lea/Flood; the splittable generator shipped in Java 8
and used as a seeder by most modern PRNG libraries) passes BigCrush and is
counter based: draw k of a stream with seed s is ``mix64(s + (k+1)*GAMMA)``.
Two properties make it the right fit here:

* independent substreams are derived by hashing tuples such as
  (base seed, grid point, run, ballot), so parallel execution order cannot
  change results;
* a whole matrix of draws can be produced with vectorised numpy uint64
  arithmetic that matches the scalar stream bit for bit.

Reproducibility is guaranteed within this implementation; bit compatibility
with other SplitMix64 *stream protocols* is not a goal.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_TO_DOUBLE = 2.0 ** -53

_GAMMA_U = np.uint64(GAMMA)
_M1_U = np.uint64(_M1)
_M2_U = np.uint64(_M2)


def mix64(z: int) -> int:
    """The SplitMix64 finalizer: avalanche one 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Hash a tuple of non-negative integers into one 64-bit seed."""
    acc = 0
    for p in parts:
        acc = mix64((acc + GAMMA + (p & MASK64)) & MASK64)
    return acc


class RandomStream:
    """A seeded stream of uniform draws.

    Identical seeds give identical draw sequences.  Draw k is a pure
    function of (seed, k), so a consumer that skips draws still sees the
    same values at the same positions as one that reads them all.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._count = 0

    def next_raw(self) -> int:
        self._count += 1
        return mix64((self.seed + self._count * GAMMA) & MASK64)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_raw() >> 11) * _TO_DOUBLE

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """``mix64`` on a uint64 array, in place; returns the array."""
    z ^= z >> np.uint64(30)
    z *= _M1_U
    z ^= z >> np.uint64(27)
    z *= _M2_U
    z ^= z >> np.uint64(31)
    return z


def seed_vector(prefix_parts: tuple[int, ...], start: int, count: int) -> np.ndarray:
    """Seeds for ``count`` consecutive substreams (start, start+1, ...).

    Equals ``derive_seed(*prefix_parts, i)`` for each index i, computed as a
    uint64 array.
    """
    acc = np.uint64((derive_seed(*prefix_parts) + GAMMA) & MASK64)
    idx = np.arange(start, start + count, dtype=np.uint64)
    return _mix64_vec(acc + idx)


def draw_matrix(seeds: np.ndarray, draw_index: np.ndarray) -> np.ndarray:
    """Uniform float64 draws: draw ``draw_index`` (0-based) of ``RandomStream(seed)``.

    ``seeds`` and ``draw_index`` broadcast against each other.  Two flat
    arrays give one draw per (stream, index) pair, the form the simulation
    uses; ``seeds[:, None]`` against ``np.arange(n)`` gives each stream's
    first n draws as a row.
    """
    ks = np.asarray(draw_index).astype(np.uint64)
    ks += np.uint64(1)
    ks *= _GAMMA_U
    raw = _mix64_vec(seeds + ks)
    raw >>= np.uint64(11)
    draws = raw.astype(np.float64)
    draws *= _TO_DOUBLE
    return draws


def flat_layout(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay runs of the given sizes end to end.

    Returns, for every element, the index of its run and its position
    within that run: the (stream, draw index) pairs of ``draw_matrix`` when
    run i holds the draws of stream i.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return owner, np.arange(len(owner)) - np.repeat(starts, sizes)
