"""Deterministic random streams built on SplitMix64.

SplitMix64 (Steele/Lea/Flood; the splittable generator shipped in Java 8
and used as a seeder by most modern PRNG libraries) passes BigCrush and is
counter based: draw k of a stream with seed s is ``mix64(s + (k+1)*GAMMA)``.
Two properties make it the right fit here:

* independent substreams are derived by hashing tuples such as
  (base seed, run, ballot), so parallel execution order cannot change
  results, and every rate of a sweep can read the same draws;
* a whole matrix of draws can be produced with vectorised numpy uint64
  arithmetic that matches the scalar stream bit for bit.

Reproducibility is guaranteed within this implementation; bit compatibility
with other SplitMix64 *stream protocols* is not a goal.
"""
from __future__ import annotations

import math

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


def _mix64_vec(z: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` on a uint64 array, in place, with one spare array of its shape; returns the array."""
    if spare is None:
        spare = np.empty_like(z)
    for shift, multiplier in ((30, _M1_U), (27, _M2_U), (31, None)):
        np.right_shift(z, np.uint64(shift), out=spare)
        z ^= spare
        if multiplier is not None:
            z *= multiplier
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
    return uniforms(_mix64_vec(seeds + ks))


def uniforms(words: np.ndarray) -> np.ndarray:
    """The float64 draws in [0, 1) that ``uniform`` makes of raw words."""
    draws = (words >> np.uint64(11)).astype(np.float64)
    draws *= _TO_DOUBLE
    return draws


def raw_words(seeds: np.ndarray, sizes: np.ndarray, stride: int = 1) -> np.ndarray:
    """The raw 64-bit words of a ragged set of streams, end to end.

    Stream i (seed ``seeds[i]``) gives its draws ``stride * k`` for
    k < ``sizes[i]``: the words that ``RandomStream(seeds[i]).next_raw``
    returns there, before ``uniform`` scales them.  Element k of stream i's
    run is ``mix64(s_i + (1 + stride * k) * GAMMA)``; the runs are laid out
    in one pass, as each run's base repeated plus its flat index times
    ``stride * GAMMA``, and mixed in place.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    base = (1 - stride * starts).astype(np.uint64)  # modulo 2^64
    base *= _GAMMA_U
    base += seeds
    words = np.repeat(base, sizes)
    spare = np.arange(len(words), dtype=np.uint64)
    spare *= np.uint64(stride * GAMMA & MASK64)
    words += spare
    return _mix64_vec(words, spare)


def rate_bound(rate: float) -> int:
    """The integer bound of a rate: ``uniform() < rate`` exactly when the draw's raw word is below it.

    ``uniform()`` is ``(raw >> 11) * 2^-53``, and ``rate * 2^53`` is exact,
    so the draw fires when ``raw >> 11 < ceil(rate * 2^53)``, that is when
    ``raw < ceil(rate * 2^53) * 2^11``.  A rate of 1 gives 2^64, above
    every word: it always fires.
    """
    return math.ceil(rate * 2.0 ** 53) << 11


def below(words: np.ndarray, bound: int) -> np.ndarray:
    """``words < bound`` for uint64 words and a ``rate_bound``, which may be 2^64."""
    if bound > MASK64:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(bound)


def locate(sizes: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run and the position within it of each flat index, when runs of the given sizes lie end to end."""
    ends = np.cumsum(sizes)
    owner = np.searchsorted(ends, flat, side="right")
    return owner, flat - (ends - sizes)[owner]
