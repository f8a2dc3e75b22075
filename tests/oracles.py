"""Independent reference implementations used to cross-check the engine.

These deliberately avoid the package's counting machinery: the IRV oracle
works on plain tallies with no weights, quotas or piles, and the retention
reference derives its numbers from the documented digit model and
interpretation rule without the package's RNG, corruption or
interpretation code.  ``random_election`` draws the uniformly random BTL
elections that the count is cross-checked on.  ``reference_count`` is a
multi-seat STV count written apart from ``stvsim.count``, which it must
never import.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

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


class ReferenceRound(NamedTuple):
    """One round of ``reference_count``, field for field what ``to_text()`` prints of a round."""

    number: int
    kind: str
    source: str | None
    transfer_value: Fraction | None
    tallies: dict
    elected: list
    eliminated: str | None
    exhausted: int | Fraction
    loss: int | Fraction
    ties: list


def reference_count(ballots, candidate_ids, seats: int, weighted: bool = True, exact: bool = False):
    """A plain STV count, slow on purpose: returns (elected, quota, rounds).

    ``ballots`` are (ranking of candidate ids, papers) pairs, and
    ``candidate_ids`` are in ballot-paper order.  Each pair is one record
    with its own ``Fraction`` weight and the index in its ranking of the
    candidate who holds it, so no two records share anything.  The rules:

    - the quota is Droop's, floor(papers / (seats + 1)) + 1;
    - each round, candidates at or above quota are elected, highest first;
      each surplus (tally minus quota) is then passed on, in order of
      election, before anyone is eliminated;
    - a surplus moves every paper the candidate holds to its next
      continuing preference: weighted inclusive Gregory multiplies each
      paper's weight by surplus / tally, and unweighted inclusive Gregory
      sets it to surplus / papers held.  The candidate keeps the quota;
    - with no surplus to pass on, the lowest candidate is eliminated and
      its papers move on at their weight;
    - unless ``exact``, what each candidate receives in one transfer, and
      what exhausts in it, is floored to an integer.  What is lost by that
      accumulates as the loss, and can be negative when the papers' weight
      is more than the floored tally they came from;
    - ties go by countback: the candidate whose tally was higher in the
      latest round that tells them apart stands higher; if none does, the
      earlier on the ballot paper is elected first, and eliminated first;
    - when as many candidates continue as seats are left, all of them are
      elected, highest first, and the count stops;
    - every round that elects candidates, by quota or as the last seats,
      notes each tally that two or more of them share, the tallies in the
      order that their first holder comes on the ballot paper:
      "election-order tie among <holders, in ballot-paper order> at
      <tally>; ordered by countback/index".  An elimination among tied
      candidates notes "elimination tie among <tied> at <tally>; <loser>
      eliminated by countback/index".
    """
    order = list(candidate_ids)
    records = [[tuple(ranking), 0, papers, Fraction(1)] for ranking, papers in ballots]  # ranking, at, papers, weight
    total = sum(record[2] for record in records)
    quota = total // (seats + 1) + 1
    settle = (lambda amount: amount) if exact else math.floor
    tallies = {cid: 0 for cid in order}
    for ranking, _, papers, _ in records:
        tallies[ranking[0]] += papers
    continuing = list(order)
    elected: list[str] = []
    to_pass_on: list[str] = []
    rounds: list[ReferenceRound] = []
    exhausted = loss = 0

    def above(a: str, b: str) -> bool | None:
        """Whether a stands above b by countback, or None if no round tells them apart."""
        for tally_of in [tallies, *(past.tallies for past in reversed(rounds))]:
            if tally_of[a] != tally_of[b]:
                return tally_of[a] > tally_of[b]
        return None

    def standing(a: str, b: str) -> int:
        """Sort key comparison: the higher first, and the earlier on the ballot paper on a full tie."""
        ahead = above(a, b)
        if ahead is None:
            return order.index(a) - order.index(b)
        return -1 if ahead else 1

    def shared_tallies(cids: list[str]) -> list[str]:
        """The election-order note for each tally that two or more of cids, in ballot-paper order, share."""
        notes = []
        for tally in dict.fromkeys(tallies[cid] for cid in cids):
            holders = [cid for cid in cids if tallies[cid] == tally]
            if len(holders) > 1:
                notes.append(f"election-order tie among {', '.join(holders)} at {tally}; ordered by countback/index")
        return notes

    def held_by(cid: str) -> list[list]:
        return [record for record in records if record[1] is not None and record[0][record[1]] == cid]

    def move_on(moving: list[list], moved_out) -> None:
        nonlocal exhausted, loss
        received = {}
        gone = 0
        for record in moving:
            ranking = record[0]
            at = record[1] + 1
            while at < len(ranking) and ranking[at] not in continuing:
                at += 1
            value = record[2] * record[3]
            if at == len(ranking):
                record[1] = None
                gone += value
            else:
                record[1] = at
                received[ranking[at]] = received.get(ranking[at], 0) + value
        delivered = settle(gone)
        exhausted += delivered
        for cid, amount in received.items():
            tallies[cid] += settle(amount)
            delivered += settle(amount)
        loss += moved_out - delivered

    def close(number: int, kind: str, source=None, transfer_value=None, eliminated=None, ties=()) -> None:
        reachers = [cid for cid in continuing if tallies[cid] >= quota]
        ties = [*ties, *shared_tallies(reachers)]
        newly = []
        for cid in sorted(reachers, key=functools.cmp_to_key(standing)):
            if len(elected) < seats:
                continuing.remove(cid)
                elected.append(cid)
                to_pass_on.append(cid)
                newly.append((cid, tallies[cid] - quota))
        rounds.append(ReferenceRound(number, kind, source, transfer_value, dict(tallies), newly, eliminated,
                                     exhausted, loss, ties))

    close(1, "first-preferences")
    number = 1
    while len(elected) < seats:
        number += 1
        if len(continuing) == seats - len(elected):
            last = sorted(continuing, key=functools.cmp_to_key(standing))
            elected += last
            rounds.append(ReferenceRound(number, "remaining-seats", None, None, dict(tallies),
                                         [(cid, None) for cid in last], None, exhausted, loss,
                                         shared_tallies(continuing)))
            break
        if to_pass_on:
            cid = to_pass_on.pop(0)
            tally = tallies[cid]
            surplus = tally - quota
            moving = held_by(cid)
            papers = sum(record[2] for record in moving)
            tv = Fraction(surplus) / tally if weighted else Fraction(surplus) / papers
            for record in moving:
                record[3] = record[3] * tv if weighted else tv
            tallies[cid] = quota
            move_on(moving, surplus)
            close(number, "surplus", source=cid, transfer_value=tv)
        else:
            lowest = min(tallies[cid] for cid in continuing)
            tied = [cid for cid in continuing if tallies[cid] == lowest]
            loser = tied[0]
            for cid in tied[1:]:
                if above(loser, cid):
                    loser = cid
            notes = [f"elimination tie among {', '.join(tied)} at {lowest}; {loser} eliminated by countback/index"]
            continuing.remove(loser)
            moving = held_by(loser)
            move_on(moving, tallies.pop(loser))
            close(number, "elimination", source=loser, eliminated=loser, ties=notes if len(tied) > 1 else ())
    return elected, quota, rounds
