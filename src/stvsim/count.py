"""Deterministic STV tabulation with an auditable round-by-round transcript.

Counting follows the classic cycle: candidates whose tallies reach the
Droop quota are elected and their surplus (tally minus quota) is passed on
at reduced weight; when nobody reaches quota the lowest-tally candidate is
eliminated and their ballots move on at current weight; the count ends when
every seat is filled or the number of continuing candidates equals the
number of unfilled seats.

Ballot weights are exact rationals throughout.  A candidate's pile is held
as parcels of papers that share one exact weight, keyed by its integer
(numerator, denominator), so a transfer does its rational arithmetic once
per (parcel, receiving candidate), not per paper; a whole weight's receipts
are int products.  One countback key orders the candidates elected in a
round and picks who is eliminated: the current tally, then each earlier
round's tally, most recent first, and then ballot-paper order.
Under the default TRUNCATE_TO_INTEGER rounding, reported tallies are
integers: each candidate's received transfer is floored and the units that
vanish are tracked as cumulative rounding loss, so the conservation identity

    sum(held votes) + exhausted + rounding loss == total formal ballots

holds exactly, in integers, after every round.  In EXACT mode the same
identity holds in rationals with zero loss.
"""
from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .ballots import CandidateRanking, ElectionMeta


class CountError(ValueError):
    """The count cannot proceed on the given inputs."""


class CountInvariantError(RuntimeError):
    """Internal bookkeeping broke; carries the transcript so far."""

    def __init__(self, message: str, transcript: "CountTranscript | None" = None):
        super().__init__(message)
        self.transcript = transcript


class SurplusMethod(Enum):
    #: Multiply every ballot's weight by surplus/tally.
    WEIGHTED_INCLUSIVE_GREGORY = "weighted-inclusive-gregory"
    #: Set every ballot's weight to surplus/papers (AEC style).
    UNWEIGHTED_INCLUSIVE_GREGORY = "unweighted-inclusive-gregory"


class TallyRounding(Enum):
    TRUNCATE_TO_INTEGER = "truncate"
    EXACT = "exact"


@dataclass(frozen=True)
class CountRules:
    surplus_method: SurplusMethod = SurplusMethod.WEIGHTED_INCLUSIVE_GREGORY
    tally_rounding: TallyRounding = TallyRounding.TRUNCATE_TO_INTEGER


def droop_quota(num_formal_ballots: int, seats: int) -> int:
    """floor(ballots / (seats + 1)) + 1."""
    if num_formal_ballots < 0:
        raise CountError("ballot count cannot be negative")
    if seats < 1:
        raise CountError("seats must be >= 1")
    return num_formal_ballots // (seats + 1) + 1


@dataclass
class RoundRecord:
    number: int
    # "first-preferences" | "surplus" | "elimination" | "remaining-seats"
    kind: str
    source: str | None = None
    transfer_value: Fraction | None = None
    #: Votes held after this round by every candidate not yet eliminated.
    #: Elected candidates appear at their retained amount (their full tally
    #: until their surplus is distributed, the quota afterwards).
    tallies: dict[str, int | Fraction] = field(default_factory=dict)
    #: (candidate, surplus) for candidates elected this round; surplus is
    #: None for remaining-seat allocations, which need no quota.
    elected: list[tuple[str, int | Fraction | None]] = field(default_factory=list)
    eliminated: str | None = None
    exhausted: int | Fraction = 0  # cumulative
    rounding_loss: int | Fraction = 0  # cumulative
    ties: list[str] = field(default_factory=list)


@dataclass
class CountTranscript:
    election_name: str
    seats: int
    total_ballots: int
    quota: int
    rules: CountRules
    rounds: list[RoundRecord] = field(default_factory=list)
    elected: list[str] = field(default_factory=list)

    @property
    def exhausted(self) -> int | Fraction:
        return self.rounds[-1].exhausted if self.rounds else 0

    @property
    def rounding_loss(self) -> int | Fraction:
        return self.rounds[-1].rounding_loss if self.rounds else 0

    def final_margin(self) -> int | Fraction | None:
        """Tally gap between the last two candidates competing for the final
        seat, measured in the round that decided between them; None if the
        count never came down to a head-to-head pair."""
        done: set[str] = set()
        result: int | Fraction | None = None
        for rec in self.rounds:
            competing = [t for cid, t in rec.tallies.items() if cid not in done]
            if len(competing) == 2:
                lo, hi = sorted(competing)
                result = hi - lo
            done |= {c for c, _ in rec.elected}
        return result

    def to_text(self) -> str:
        """Stable plain-text rendering, one record per round (golden-file friendly)."""

        def fmt(v: int | Fraction | None) -> str:
            if v is None:
                return "-"
            if isinstance(v, Fraction) and v.denominator != 1:
                return f"{v.numerator}/{v.denominator}"
            return str(int(v))

        lines = [
            f"election\t{self.election_name}",
            f"seats\t{self.seats}",
            f"total-formal\t{self.total_ballots}",
            f"quota\t{self.quota}",
            f"rules\t{self.rules.surplus_method.value}\t{self.rules.tally_rounding.value}",
        ]
        for rec in self.rounds:
            head = f"round {rec.number}\t{rec.kind}"
            if rec.source is not None:
                head += f"\tfrom {rec.source}"
            if rec.transfer_value is not None:
                head += f"\ttv {fmt(rec.transfer_value)}"
            lines.append(head)
            for cid in sorted(rec.tallies):
                lines.append(f"  tally\t{cid}\t{fmt(rec.tallies[cid])}")
            for cid, surplus in rec.elected:
                lines.append(f"  elected\t{cid}\tsurplus {fmt(surplus)}")
            if rec.eliminated is not None:
                lines.append(f"  eliminated\t{rec.eliminated}")
            for note in rec.ties:
                lines.append(f"  tie\t{note}")
            lines.append(f"  exhausted\t{fmt(rec.exhausted)}\tloss\t{fmt(rec.rounding_loss)}")
        lines.append("elected\t" + " ".join(self.elected))
        return "\n".join(lines) + "\n"


#: Papers that some candidate holds: the ranking, the index in it of the
#: holder, and the number of papers; a parcel is rows with their one weight.
_Papers = tuple[tuple[str, ...], int, int]
_Parcel = tuple[Fraction, list[_Papers]]


class _Count:
    """One count's state, from ``count_stv``'s (``CandidateRanking``, papers) pairs, whose ids are not checked again."""

    def __init__(self, ballots: Iterable[tuple[CandidateRanking, int]], meta: ElectionMeta, rules: CountRules):
        self.meta = meta
        self.rules = rules
        self.trunc = rules.tally_rounding is TallyRounding.TRUNCATE_TO_INTEGER
        #: In ballot-paper order, as is ``tallies`` (which drops the eliminated).
        self.continuing: dict[str, None] = dict.fromkeys(meta.candidate_ids)
        self.elected: list[str] = []
        zero = 0 if self.trunc else Fraction(0)
        self.tallies: dict[str, int | Fraction] = {cid: zero for cid in meta.candidate_ids}
        self.exhausted: int | Fraction = zero
        self.loss: int | Fraction = zero
        self.surplus_queue: deque[str] = deque()

        total = 0
        first: dict[str, list[_Papers]] = {cid: [] for cid in meta.candidate_ids}
        for ranking, mult in ballots:
            try:
                mult = operator.index(mult)
            except TypeError:
                raise CountError(f"ballot multiplicity must be an integer, got {mult!r}") from None
            if mult < 1:
                raise CountError("ballot multiplicity must be >= 1")
            if not isinstance(ranking, CandidateRanking):
                raise TypeError(f"count a CandidateRanking from expand_to_candidates, not {type(ranking).__name__}")
            if not ranking:
                raise CountError("a ballot must rank at least one candidate")
            first[ranking[0]].append((ranking, 0, mult))
            self.tallies[ranking[0]] += mult
            total += mult
        #: Each candidate's pile: (weight, rows) parcels keyed by the weight's
        #: (numerator, denominator); a first preference's papers are one parcel of whole weight.
        whole = Fraction(1)
        self.piles: dict[str, dict[tuple[int, int], _Parcel]] = {
            cid: {(1, 1): (whole, rows)} if rows else {} for cid, rows in first.items()
        }
        if total == 0:
            raise CountError("cannot count an election with no formal ballots")
        self.total = total
        self.quota = droop_quota(total, meta.seats)
        self.transcript = CountTranscript(
            election_name=meta.name,
            seats=meta.seats,
            total_ballots=total,
            quota=self.quota,
            rules=rules,
        )

    # -- tie-breaking ------------------------------------------------------

    def _history(self, cids: list[str]) -> dict[str, tuple]:
        """Countback's key: each of cids' current tally, then its tallies from the latest round back.

        Fewer than two candidates need none.  A continuing candidate has a tally in every round.
        """
        if len(cids) < 2:
            return dict.fromkeys(cids, ())
        tallies_of = operator.itemgetter(*cids)
        columns = [tallies_of(self.tallies), *(tallies_of(rec.tallies) for rec in reversed(self.transcript.rounds))]
        return dict(zip(cids, zip(*columns)))

    def _order_descending(self, cids: list[str]) -> list[str]:
        # sorted is stable under reverse, so a full-history tie keeps ballot-paper order.
        return sorted(cids, key=self._history(cids).__getitem__, reverse=True)

    def _pick_elimination(self, rec: RoundRecord) -> str:
        lowest = min(self.tallies[c] for c in self.continuing)
        tied = [c for c in self.continuing if self.tallies[c] == lowest]
        # min keeps the first of equal keys: a full-history tie goes to ballot-paper order.
        loser = min(tied, key=self._history(tied).__getitem__)
        if len(tied) > 1:
            rec.ties.append(
                f"elimination tie among {', '.join(tied)} "
                f"at {self.tallies[loser]}; {loser} eliminated by countback/index"
            )
        return loser

    # -- transfers ---------------------------------------------------------

    def _move_pile(self, pile: dict[tuple[int, int], _Parcel], new_weight, moved_out: int | Fraction) -> None:
        """Distribute a pile and keep the conservation ledger balanced.

        ``moved_out`` is the tally amount leaving the source (the surplus, or
        an eliminated candidate's whole tally).  Each parcel's papers are
        summed per receiving candidate (or exhaustion) as they are grouped,
        and weighed once: an int product for a whole weight, one ``Fraction``
        product otherwise.  Each receipt, and the exhausted amount, is floored
        under integer rounding and kept exact otherwise.  The event's loss is
        moved_out minus everything delivered: exactly 0 in exact mode, and
        under integer rounding it can go negative once a pile's exact weight
        has drifted above its floored tally; the running identity stays exact
        either way.  A group's rows join the receiver's parcel in one append.
        """
        continuing = self.continuing
        received: dict[str | None, int | Fraction] = {}  # None: exhausted
        for weight, parcel in pile.values():
            w = new_weight(weight)
            num, den = w.numerator, w.denominator
            if not (0 <= num <= den):
                raise CountInvariantError(f"ballot weight {w} outside [0, 1]", self.transcript)
            moved: dict[str | None, list] = {}  # holder -> [papers, rows]
            for ranking, pos, n in parcel:
                for nxt in range(pos + 1, len(ranking)):
                    if ranking[nxt] in continuing:
                        holder = ranking[nxt]
                        break
                else:
                    nxt = holder = None
                group = moved.get(holder)
                if group is None:
                    group = moved[holder] = [0, []]
                group[0] += n
                group[1].append((ranking, nxt, n))
            for cid, (papers, rows) in moved.items():
                received[cid] = received.get(cid, 0) + (papers * num if den == 1 else w * papers)
                if cid is not None:
                    self.piles[cid].setdefault((num, den), (w, []))[1].extend(rows)

        settle = (lambda v: v.numerator // v.denominator) if self.trunc else (lambda v: v)
        delivered = settle(received.pop(None, 0))
        self.exhausted += delivered
        for cid, amount in received.items():
            got = settle(amount)
            self.tallies[cid] += got
            delivered += got
        self.loss += moved_out - delivered

    # -- rounds ------------------------------------------------------------

    def _close_round(self, rec: RoundRecord) -> None:
        self._record(rec)
        self._elect_reachers(rec)

    def _record(self, rec: RoundRecord) -> None:
        rec.tallies = dict(self.tallies)
        rec.exhausted = self.exhausted
        rec.rounding_loss = self.loss
        self.transcript.rounds.append(rec)
        self._check_conservation(rec)

    def _check_conservation(self, rec: RoundRecord) -> None:
        held = sum(rec.tallies.values())
        # Exact mode delivers every transfer whole, so any loss there is a fault.
        if held + self.exhausted + self.loss != self.total or (self.loss and not self.trunc):
            raise CountInvariantError(
                f"conservation broke in round {rec.number}: held={held} "
                f"exhausted={self.exhausted} loss={self.loss} total={self.total}",
                self.transcript,
            )

    def _elect_reachers(self, rec: RoundRecord) -> None:
        reachers = [c for c in self.continuing if self.tallies[c] >= self.quota]
        if not reachers:
            return
        ordered = self._order_descending(reachers)
        by_tally: dict[object, list[str]] = {}
        for c in reachers:
            by_tally.setdefault(self.tallies[c], []).append(c)
        for tally, group in by_tally.items():
            if len(group) > 1:
                rec.ties.append(
                    f"election-order tie among {', '.join(group)} "
                    f"at {tally}; ordered by countback/index"
                )
        for cid in ordered:
            if len(self.elected) == self.meta.seats:
                break
            del self.continuing[cid]
            self.elected.append(cid)
            surplus = self.tallies[cid] - self.quota
            rec.elected.append((cid, surplus))
            self.surplus_queue.append(cid)

    def _distribute_surplus(self, cid: str, number: int) -> None:
        tally = self.tallies[cid]
        surplus = tally - self.quota
        pile = self.piles[cid]
        self.piles[cid] = {}
        if self.rules.surplus_method is SurplusMethod.WEIGHTED_INCLUSIVE_GREGORY:
            tv = Fraction(surplus) / Fraction(tally)
            new_weight = lambda w: w * tv
        else:
            papers = sum(n for _, parcel in pile.values() for _, _, n in parcel)
            tv = Fraction(surplus) / papers if papers else Fraction(0)
            new_weight = lambda w: tv
        if not (0 <= tv <= 1):
            raise CountInvariantError(f"transfer value {tv} outside [0, 1]", self.transcript)
        self.tallies[cid] = self.quota
        rec = RoundRecord(number, "surplus", source=cid, transfer_value=tv)
        self._move_pile(pile, new_weight, surplus)
        self._close_round(rec)

    def _eliminate(self, number: int) -> None:
        rec = RoundRecord(number, "elimination")
        loser = self._pick_elimination(rec)
        rec.source = loser
        rec.eliminated = loser
        del self.continuing[loser]
        removed = self.tallies.pop(loser)
        pile = self.piles.pop(loser)
        self._move_pile(pile, lambda w: w, removed)
        self._close_round(rec)

    def run(self) -> tuple[list[str], CountTranscript]:
        rec = RoundRecord(1, "first-preferences")
        self._close_round(rec)
        for number in itertools.count(2):
            if len(self.elected) == self.meta.seats:
                break
            remaining = self.meta.seats - len(self.elected)
            if len(self.continuing) == remaining:
                rec = RoundRecord(number, "remaining-seats")
                for cid in self._order_descending(list(self.continuing)):
                    del self.continuing[cid]
                    self.elected.append(cid)
                    rec.elected.append((cid, None))
                self._record(rec)
                break
            if self.surplus_queue:
                self._distribute_surplus(self.surplus_queue.popleft(), number)
            else:
                self._eliminate(number)
        self.transcript.elected = list(self.elected)
        if len(self.elected) != self.meta.seats or len(set(self.elected)) != self.meta.seats:
            raise CountInvariantError("terminated without filling every seat exactly once", self.transcript)
        return list(self.elected), self.transcript


def count_stv(
    ballots: Iterable[tuple[CandidateRanking, int]],
    meta: ElectionMeta,
    rules: CountRules | None = None,
) -> tuple[list[str], CountTranscript]:
    """Count an election.  Returns (elected candidate ids in order, transcript).

    Each ballot is a (``CandidateRanking``, papers) pair: the checked result
    of ``expand_to_candidates`` for ``meta`` (or a prefix or re-read of
    one), counted as it is.  Any other ranking, ``Preferences`` included,
    raises ``TypeError``.  Papers that are not an integer (numpy ints pass)
    or are below 1, and an empty ranking, raise ``CountError``.
    """
    return _Count(ballots, meta, rules or CountRules()).run()
