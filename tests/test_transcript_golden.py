"""Golden count transcripts: the counting engine's round-by-round output.

Each file under ``tests/golden/transcripts/`` holds, for one combination of
surplus method and tally rounding, ``CountTranscript.to_text()`` of the
first 25 random elections of acceptance criterion 3, one after another.
The test recounts them and compares the text byte for byte, so a rewrite
of ``stvsim.count`` cannot move a tally, a transfer value, a rounding loss
or a tie-break unnoticed.  The elections' ``Preferences`` are handed to
the count as the checked candidate rankings of ``expand_to_candidates``.
A change to a golden file must be deliberate and logged in CHANGES.md.

To rewrite the files (only on purpose), from the repository root:

    PYTHONPATH=src python tests/test_transcript_golden.py
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from stvsim import (
    BallotError,
    CandidateRanking,
    CountError,
    CountRules,
    Preferences,
    SurplusMethod,
    TallyRounding,
    VoteStyle,
    count_stv,
    expand_to_candidates,
)

from oracles import random_election

GOLDEN_DIR = Path(__file__).parent / "golden" / "transcripts"
ELECTIONS = 25
RULES = [CountRules(surplus, rounding) for surplus in SurplusMethod for rounding in TallyRounding]


def elections() -> list:
    """The first ``ELECTIONS`` (meta, ballots) pairs of criterion 3, each ballot's ranking expanded."""
    rng = random.Random(3141)
    out = []
    for _ in range(ELECTIONS):
        seats = rng.randint(2, 4)
        meta, ballots = random_election(rng, max_candidates=9, max_ballots=400, seats=seats)
        out.append((meta, [(expand_to_candidates(prefs, meta), papers) for prefs, papers in ballots]))
    return out


def file_name(rules: CountRules) -> str:
    return f"{rules.surplus_method.value}-{rules.tally_rounding.value}.txt"


def transcripts(rules: CountRules) -> str:
    """The elections' transcripts, one after another."""
    return "".join(count_stv(ballots, meta, rules)[1].to_text() for meta, ballots in elections())


@pytest.mark.parametrize("rules", RULES, ids=[file_name(r)[:-4] for r in RULES])
def test_transcripts_match_golden_files(rules):
    assert transcripts(rules) == (GOLDEN_DIR / file_name(rules)).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "ballot, error, message",
    [
        ((Preferences(VoteStyle.BTL, ("c0", "zz")), 1), BallotError, "ranking references unknown candidate 'zz'"),
        ((Preferences(VoteStyle.ATL, ("Z",)), 1), BallotError, "unknown group id 'Z'"),
        ((CandidateRanking(("c0",)), 0), CountError, "ballot multiplicity must be >= 1"),
        ((CandidateRanking(("c0",)), 2.5), CountError, "ballot multiplicity must be an integer, got 2.5"),
        ((CandidateRanking(("c0",)), 2.0), CountError, "ballot multiplicity must be an integer, got 2.0"),
        ((("c0",), 1), TypeError, "count a CandidateRanking from expand_to_candidates, not tuple"),
        ((Preferences(VoteStyle.BTL, ("c0",)), 1), TypeError,
         "count a CandidateRanking from expand_to_candidates, not Preferences"),
        ((CandidateRanking(()), 1), CountError, "a ballot must rank at least one candidate"),
    ],
    ids=["unknown-candidate", "unknown-group", "no-papers", "fractional-papers", "float-papers", "unchecked-tuple",
         "preferences", "empty-ranking"],
)
def test_bad_ballots_fail_in_the_count(ballot, error, message):
    meta, ballots = elections()[0]
    ranking, papers = ballot
    with pytest.raises(error) as info:
        if error is BallotError:  # an unknown id fails where the ranking is checked, before the count
            ranking = expand_to_candidates(ranking, meta)
        count_stv([*ballots, (ranking, papers)], meta)
    assert type(info.value) is error and str(info.value) == message


def test_goldens_exercise_tie_breaking():
    for rules in RULES:
        text = (GOLDEN_DIR / file_name(rules)).read_text(encoding="utf-8")
        assert text.count("\n  tie\t") > 0, file_name(rules)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for count_rules in RULES:
        target = GOLDEN_DIR / file_name(count_rules)
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(transcripts(count_rules))
        print(target, file=sys.stderr)
