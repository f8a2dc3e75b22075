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


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """``mix64`` on a uint64 array, in place, with one spare array of its shape; returns the array."""
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


def _steps(n: int, stride: int) -> np.ndarray:
    """``k * stride * GAMMA`` modulo 2^64 for k < n, as uint64."""
    steps = np.arange(n, dtype=np.uint64)
    steps *= np.uint64(stride * GAMMA & MASK64)
    return steps


class DrawPlan:
    """The layout of the raw words that a ragged set of streams gives end to end, in blocks.

    Stream i gives ``sizes[i]`` words: its draws ``stride * k`` for
    k < ``sizes[i]``, the words that ``RandomStream(seed_i).next_raw``
    returns there, before ``uniform`` scales them.  Its word k lies at flat
    index ``start_i + k``.  The streams fall into blocks of consecutive
    streams (``bounds``: the first stream of each block, then the number of
    streams; by default one block), and a block's words are made together:
    stream i's word k is ``mix64(seed_i + (1 + stride * k) * GAMMA)``, that
    is the stream's base ``(1 - stride * b_i) * GAMMA``, where b_i is where
    its words start within its block, plus its seed, plus the step
    ``stride * GAMMA`` times the word's index within the block, modulo 2^64.
    Everything but the seeds is a function of the sizes and the blocks, so a
    plan keeps the sizes, the run ends and the bases (one entry per stream),
    the block bounds and one step table as long as the largest block, and
    makes any seeds' words one block at a time.  The sizes sum to less than
    2^31, so flat indices and positions are int32.
    """

    __slots__ = ("stride", "sizes", "ends", "bases", "bounds", "steps")

    def __init__(self, sizes, stride: int = 1, bounds=None):
        sizes = np.asarray(sizes).astype(np.int32)
        ends = np.cumsum(sizes, dtype=np.int64)
        total = int(ends[-1]) if len(ends) else 0
        if total >= 1 << 31:
            raise ValueError(f"a draw plan holds fewer than 2^31 words, not {total}")
        self.stride = stride
        self.sizes = sizes
        self.ends = ends.astype(np.int32)
        self.bounds = np.array((0, len(sizes)) if bounds is None else bounds, dtype=np.int32)
        block_words = np.append(0, ends)[self.bounds]  # where each block's words start; the end
        ends -= sizes  # the starts
        ends -= np.repeat(block_words[:-1], np.diff(self.bounds))  # within the block
        ends *= -stride
        ends += 1
        self.bases = ends.astype(np.uint64)  # modulo 2^64
        self.bases *= _GAMMA_U
        self.steps = _steps(int(np.diff(block_words).max(initial=0)), stride)

    def select(self, seeds: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stream, the position (int32) and the raw word of each word that ``keep`` keeps, in flat order.

        ``seeds`` holds one uint64 seed per stream, and ``keep`` takes a
        block's words and returns a bool mask of those to keep, so no array
        of words outgrows one block.  The kept words of every block are
        located at once.
        """
        flats, kept = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint64)]
        bounds = self.bounds.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            words = np.repeat(self.bases[lo:hi] + seeds[lo:hi], self.sizes[lo:hi])
            words += self.steps[:len(words)]
            index = np.flatnonzero(keep(_mix64_vec(words)))
            kept.append(words[index])
            flats.append(index + (int(self.ends[lo - 1]) if lo else 0))
        return *self.locate(np.concatenate(flats)), np.concatenate(kept)

    def locate(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stream and the position (int32) within its run of each flat word index."""
        flat = flat.astype(np.int32)  # so that the search and the sums do not widen the plan's arrays
        owner = np.searchsorted(self.ends, flat, side="right")
        flat -= self.ends[owner]
        flat += self.sizes[owner]
        return owner, flat


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
