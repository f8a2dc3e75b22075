"""``count_stv`` against ``oracles.reference_count``, round by round.

The reference is a plain count written apart from ``stvsim.count``: one
record per (ranking, papers) pair with its own ``Fraction`` weight, no
parcels and no shared code.  Every round must agree in its kind, source,
transfer value, tallies, elected candidates and surpluses, eliminated
candidate, exhausted amount, rounding loss and tie notes, on the transcript
goldens' elections and the large Senate-sized election under all four rule
sets, on one election whose election order only countback decides, and on
Hypothesis elections of 2-5 seats built to tie.  A disagreement is a
finding about one count or the other: neither is fitted to the other.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stvsim
from stvsim import Candidate, CandidateRanking, ElectionMeta, Group, SurplusMethod, TallyRounding, count_stv

import oracles
from oracles import reference_count
from test_large_count import RULES, large_election, rules_id
from test_transcript_golden import elections


def assert_counts_agree(ballots, meta, rules) -> None:
    winners, transcript = count_stv(ballots, meta, rules)
    elected, quota, rounds = reference_count(
        ballots,
        meta.candidate_ids,
        meta.seats,
        weighted=rules.surplus_method is SurplusMethod.WEIGHTED_INCLUSIVE_GREGORY,
        exact=rules.tally_rounding is TallyRounding.EXACT,
    )
    assert transcript.quota == quota
    for rec, ref in zip(transcript.rounds, rounds):
        mine = (rec.number, rec.kind, rec.source, rec.transfer_value, rec.tallies, rec.elected, rec.eliminated,
                rec.exhausted, rec.rounding_loss, rec.ties)
        assert mine == tuple(ref), f"round {rec.number}"
    assert len(transcript.rounds) == len(rounds)
    assert winners == transcript.elected == elected


@pytest.mark.parametrize("rules", RULES, ids=rules_id)
def test_the_transcript_goldens_elections_agree(rules):
    for meta, ballots in elections():
        assert_counts_agree(ballots, meta, rules)


@pytest.mark.parametrize("rules", RULES, ids=rules_id)
def test_the_large_election_agrees(rules):
    meta, ballots = large_election()
    checked = [(stvsim.expand_to_candidates(prefs, meta), papers) for prefs, papers in ballots]
    assert_counts_agree(checked, meta, rules)


def test_an_election_order_that_only_countback_decides_agrees():
    # Quota 10.  a and b reach it together when e's papers move (2 to a, 1 to
    # b); b held more in round 1, so b is elected first, though a comes first
    # on the ballot paper.
    candidates = tuple(Candidate(c, c, "G", i) for i, c in enumerate("abcde", 1))
    meta = ElectionMeta("order", 3, (Group("G", "G"),), candidates)
    records = [("a",), 8], [("b",), 9], [("c",), 9], [("d",), 7], [("e", "a"), 2], [("e", "b"), 1]
    ballots = [(CandidateRanking(r), papers) for r, papers in records]
    for rules in RULES:
        assert_counts_agree(ballots, meta, rules)
        assert count_stv(ballots, meta, rules)[1].rounds[1].elected == [("b", 0), ("a", 0)]


@st.composite
def tied_elections(draw):
    """2-5 seats, and few papers per record, so that tallies tie often.

    Half the elections add a copy of every record with two candidates
    swapped: the two then tie in every round until one of them is elected
    or eliminated, so only ballot-paper order parts them.
    """
    seats = draw(st.integers(2, 5))
    n = draw(st.integers(seats + 1, seats + 4))
    ids = [f"c{i}" for i in range(n)]
    meta = ElectionMeta("tied", seats, (Group("G", "G"),),
                        tuple(Candidate(cid, cid, "G", i + 1) for i, cid in enumerate(ids)))
    ranking = st.permutations(ids).flatmap(lambda order: st.integers(1, n).map(lambda k: tuple(order[:k])))
    records = draw(st.lists(st.tuples(ranking, st.integers(1, 4)), min_size=1, max_size=20))
    if draw(st.booleans()):
        a, b = draw(st.permutations(ids))[:2]
        swap = {a: b, b: a}
        records += [(tuple(swap.get(cid, cid) for cid in r), papers) for r, papers in records]
    return meta, [(CandidateRanking(r), papers) for r, papers in records]


@settings(max_examples=200, deadline=None)
@given(tied_elections())
def test_elections_built_to_tie_agree(case):
    meta, ballots = case
    for rules in RULES:
        assert_counts_agree(ballots, meta, rules)


def test_the_reference_imports_nothing_from_the_count():
    count_tree = ast.parse(Path(stvsim.count.__file__).read_text(encoding="utf-8"))
    count_names = {node.name for node in count_tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert "count_stv" in count_names and "stvsim" in imported
    assert not [name for name in imported if name == "count" or name.endswith(".count")]
    assert not imported & count_names
