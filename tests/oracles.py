"""Independent reference implementations used to cross-check the engine.

These deliberately avoid the package's counting machinery: the IRV oracle
works on plain tallies with no weights, quotas or piles, and the retention
reference derives its numbers from the documented digit model and
interpretation rule without the package's RNG, corruption or
interpretation code.  ``random_election`` draws the uniformly random BTL
elections that the count is cross-checked on.
"""
from __future__ import annotations

import itertools
import math
import random

from stvsim import Candidate, ElectionMeta, Group, Preferences, VoteStyle


def irv_winner(ballots: list[tuple[Preferences, int]], candidate_ids: list[str]) -> str:
    """Brute-force instant-runoff: eliminate the lowest tally until one stands.

    Ties break exactly like the engine: most recent prior round with a
    differing tally, then the lowest candidate index loses.
    """
    continuing = list(candidate_ids)
    history: list[dict[str, int]] = []
    while len(continuing) > 1:
        tallies = {c: 0 for c in continuing}
        for prefs, mult in ballots:
            for cid in prefs.ranking:
                if cid in tallies:
                    tallies[cid] += mult
                    break
        history.append(tallies)

        def key(cid: str):
            past = tuple(h[cid] for h in reversed(history[:-1]))
            return (tallies[cid], past, candidate_ids.index(cid))

        continuing.remove(min(continuing, key=key))
    return continuing[0]


def truncation_length_pmf(n_prefs: int, rate: float) -> list[float]:
    """Exact output-length distribution of the truncation model."""
    pmf = []
    for length in range(n_prefs + 1):
        survive = (1 - rate) ** length
        pmf.append(survive * (rate if length < n_prefs else 1.0))
    return pmf


def enumerate_digit_errors(digits: str, max_errors: int):
    """Every string within ``max_errors`` digit substitutions of ``digits``.

    Yields ``(n_errors, mutated)``; each mutated string appears once, under
    the number of positions at which it differs from ``digits``.
    """
    for n_errors in range(max_errors + 1):
        for positions in itertools.combinations(range(len(digits)), n_errors):
            choices = [[d for d in "0123456789" if d != digits[p]] for p in positions]
            for replacement in itertools.product(*choices):
                mutated = list(digits)
                for pos, digit in zip(positions, replacement):
                    mutated[pos] = digit
                yield n_errors, "".join(mutated)


def prefix_length(values: list[int]) -> int:
    """Length of the ranking read from box values: 1, 2, ... while each is held once."""
    held = [v for v in values if v > 0]
    length = 0
    while held.count(length + 1) == 1:
        length += 1
    return length


def digit_reading_pmf(value: int, rate: float) -> list[float]:
    """Exact distribution of the number read from a box marked ``value``.

    Under the uniform digit model each digit of ``str(value)`` keeps its
    value with probability ``1 - 0.9 * rate`` and becomes each of the nine
    other digits with probability ``rate / 10``.  Entry ``w`` is the
    probability that the box reads ``w``: leading zeros drop, and 0 reads
    as an unmarked box.
    """
    text = str(value)
    keep, other = 1 - 0.9 * rate, rate / 10
    pmf = [0.0] * 10 ** len(text)
    for digits in itertools.product("0123456789", repeat=len(text)):
        pmf[int("".join(digits))] += math.prod(keep if d == o else other for d, o in zip(digits, text))
    return pmf


#: Upper bound, at a 1% digit error rate, on what the events that
#: ``digit_retention_reference`` leaves out add to the mean retained length,
#: keyed by list length (see that function).
RETENTION_SWAP_ALLOWANCE = {60: 0.05, 10: 0.001}


def digit_retention_reference(n_prefs: int, rate: float, required: int) -> tuple[float, float]:
    """Mean and per-ballot SD of the preferences a ballot keeps under digit errors.

    The ballot marks 1..``n_prefs`` in ``n_prefs`` boxes.  Each box's
    reading is independent, with the distribution ``digit_reading_pmf``
    gives.  The ranking read back stops at the first number that is absent
    or repeated, and a ranking shorter than ``required`` makes the ballot
    informal, which keeps 0 preferences.  So the kept length is
    ``M = L * 1{L >= required}`` for the read-back length ``L``.

    ``P(L >= k)`` is taken as the product of two factors: every box
    ``v <= k`` still reads ``v``, and no box ``v > k`` reads a value in
    ``1..k``.  Then ``P(M >= k) = P(L >= max(k, required))``,
    ``E[M] = sum P(M >= k)`` and ``E[M^2] = sum (2k - 1) P(M >= k)``.

    The product leaves out only the events in which corrupted boxes swap
    values: a corrupted box takes over the number that another corrupted
    box lost, e.g. box 3 reads 7 and box 7 reads 3, or box 3 reads 0 and
    box 43 reads 3.  Those events only lengthen rankings, so the
    result is a lower bound on the exact mean.  At a 1% rate they add less
    than ``RETENTION_SWAP_ALLOWANCE``: the events with exactly two
    misplaced boxes add 0.021 at 60 preferences and 0.00078 at 10, and
    exact enumeration of up to three digit errors on the 10-preference
    ballot puts the whole excess there at 0.00078-0.00080.
    """
    pmfs = [digit_reading_pmf(v, rate) for v in range(1, n_prefs + 1)]
    at_least = []  # P(L >= k) for k = 1..n_prefs
    for k in range(1, n_prefs + 1):
        own = math.prod(pmfs[v - 1][v] for v in range(1, k + 1))
        clear = math.prod(1 - sum(pmfs[v - 1][1:k + 1]) for v in range(k + 1, n_prefs + 1))
        at_least.append(own * clear)
    kept = [at_least[max(k, required) - 1] for k in range(1, n_prefs + 1)]
    mean = sum(kept)
    second = sum((2 * k - 1) * p for k, p in enumerate(kept, start=1))
    return mean, math.sqrt(second - mean**2)


def sample_stream(seed: int, n: int) -> list[float]:
    """Plain Python re-derivation of the SplitMix64 stream used by the package."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    out = []
    state = seed & mask
    for k in range(1, n + 1):
        z = (state + k * gamma) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53)
    return out


def random_marksheet(rng: random.Random, boxes: list[str], max_mark: int = 12):
    """Raw marks with duplicates and gaps, for interpretation fuzzing."""
    marked = rng.sample(boxes, rng.randint(0, len(boxes)))
    return {box: str(rng.randint(0, max_mark)) for box in marked}


def random_election(
    rng: random.Random,
    max_candidates: int = 5,
    max_ballots: int = 100,
    seats: int = 1,
) -> tuple[ElectionMeta, list[tuple[Preferences, int]]]:
    """A uniformly random BTL election for engine cross-checks."""
    n_candidates = rng.randint(max(2, seats + 1), max_candidates)
    n_ballots = rng.randint(1, max_ballots)
    group = Group("G", "Everyone")
    candidates = tuple(
        Candidate(f"c{i}", f"Candidate {i}", "G", i + 1) for i in range(n_candidates)
    )
    meta = ElectionMeta("random fixture", seats, (group,), candidates)
    ids = [c.id for c in candidates]
    ballots = []
    for _ in range(n_ballots):
        k = rng.randint(1, n_candidates)
        ranking = tuple(rng.sample(ids, k))
        ballots.append((Preferences(VoteStyle.BTL, ranking), 1))
    return meta, ballots
