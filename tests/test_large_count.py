"""A pinned Senate-sized count: 58 candidates, 12 seats, party-shaped ballots.

The transcript goldens (``test_transcript_golden.py``) cover elections of
at most 9 candidates and 400 one-paper BTL ballots.  This file builds one
seeded election at the size of a Senate count, with what those goldens
lack: groups with ATL papers that expand into candidate rankings, sheets
of many papers, chains of surpluses at fractional transfer values, and
ties at elimination.  Each rule set's ``to_text()`` is pinned by its
SHA-256, so a rewrite of ``stvsim.count`` cannot move a single byte of a
large count unnoticed.  The election is built here, from its own seed, so
that no change to a benchmark generator can move it.  A change to a digest
must be deliberate and logged in CHANGES.md.

To print the digests (only on purpose), from the repository root:

    PYTHONPATH=src python tests/test_large_count.py
"""
from __future__ import annotations

import functools
import hashlib
import random
import re

import pytest

from stvsim import (
    UNGROUPED,
    Candidate,
    CountRules,
    ElectionMeta,
    Group,
    Preferences,
    SurplusMethod,
    TallyRounding,
    VoteStyle,
    count_stv,
    expand_to_candidates,
)

RULES = [CountRules(surplus, rounding) for surplus in SurplusMethod for rounding in TallyRounding]

DIGESTS = {
    "weighted-inclusive-gregory-truncate": "a2dfe8475c5880cc0489dbd11f06a55e656f28900322b704bf1f2c7be7ca62d4",
    "weighted-inclusive-gregory-exact": "0d7d7d56582d2f09f4d3b090dac92b6205be0a6b1dd9a0d62f449c6802481702",
    "unweighted-inclusive-gregory-truncate": "79cfe5165c666e55bb8c8799d2346c0cdf37ade92e7d70e226e6b8c23e1b3aed",
    "unweighted-inclusive-gregory-exact": "513f3c13914d03a8cad6214bb5769ed8890f968b9914a15a6a95213cb6752c03",
}


def rules_id(rules: CountRules) -> str:
    return f"{rules.surplus_method.value}-{rules.tally_rounding.value}"


def large_election(seed: int = 2024) -> tuple[ElectionMeta, list[tuple[Preferences, int]]]:
    """58 candidates in 16 groups plus 2 ungrouped, 12 seats, and ~1,500 sheets of 1-40 papers.

    Three large parties take most first preferences, mostly above the line,
    so their leaders' surpluses pass down their columns; a long tail of
    small groups and candidates with few or no first preferences ties at
    elimination.
    """
    rng = random.Random(seed)
    sizes = [6, 6, 5, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2, 4]
    groups = tuple(Group(f"G{g}", f"Group {g}") for g in range(len(sizes)))
    candidates = [
        Candidate(f"g{g}c{p}", f"Candidate {g}.{p}", f"G{g}", p + 1)
        for g, size in enumerate(sizes)
        for p in range(size)
    ]
    candidates += [Candidate(f"u{i}", f"Independent {i}", UNGROUPED, i + 1) for i in range(2)]
    meta = ElectionMeta("large fixture", 12, groups, tuple(candidates))
    ids = list(meta.candidate_ids)
    gids = list(meta.group_ids)
    # First-preference weight of each group: three large parties, then a tail.
    pull = [30, 24, 18, 5, 4, 3, 2, 2, 1, 1, 1, 1, 1, 0.5, 0.5, 0.5]

    ballots: list[tuple[Preferences, int]] = []
    for _ in range(1500):
        papers = rng.choice((1, 1, 1, 2, 3, 5, 8, 13, 21, 40))
        lead = rng.choices(gids, weights=pull)[0]
        if rng.random() < 0.7:
            rest = [g for g in gids if g != lead]
            rng.shuffle(rest)
            ranking = [lead, *rest[: rng.randint(0, 8)]]
            ballots.append((Preferences(VoteStyle.ATL, tuple(ranking)), papers))
            continue
        column = list(meta.candidates_of_group(lead))
        if rng.random() < 0.5:
            rng.shuffle(column)
        rest = [c for c in ids if c not in column]
        rng.shuffle(rest)
        ranking = column + rest[: rng.randint(0, 57 - len(column))]
        ballots.append((Preferences(VoteStyle.BTL, tuple(ranking)), papers))
    return meta, ballots


@functools.cache
def transcript(rules: CountRules) -> str:
    meta, ballots = large_election()
    checked = [(expand_to_candidates(prefs, meta), papers) for prefs, papers in ballots]
    return count_stv(checked, meta, rules)[1].to_text()


@pytest.mark.parametrize("rules", RULES, ids=rules_id)
def test_large_count_matches_pinned_digest(rules):
    text = transcript(rules)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[rules_id(rules)]


@pytest.mark.parametrize("rules", RULES, ids=rules_id)
def test_large_count_exercises_what_small_goldens_lack(rules):
    meta, ballots = large_election()
    assert len(meta.candidate_ids) == 58 and meta.seats == 12
    assert any(prefs.style is VoteStyle.ATL for prefs, _ in ballots)
    assert max(papers for _, papers in ballots) > 1
    text = transcript(rules)
    fractional = re.findall(r"\tsurplus\t.*\ttv \d+/\d+\n", text)
    assert len(fractional) >= 8
    # At least one elimination tie is decided by tally history, not by ballot-paper order.
    ties = re.findall(r"\n  tie\telimination tie among (.*) at \S+; (\S+) eliminated", text)
    assert any(loser != tied.split(", ")[0] for tied, loser in ties)


if __name__ == "__main__":
    for count_rules in RULES:
        digest = hashlib.sha256(transcript(count_rules).encode("utf-8")).hexdigest()
        print(f'    "{rules_id(count_rules)}": "{digest}",')
