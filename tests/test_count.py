import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stvsim
from stvsim import (
    Candidate,
    CountError,
    CountRules,
    ElectionMeta,
    Group,
    Preferences,
    SurplusMethod,
    TallyRounding,
    VoteStyle,
    count_stv,
    droop_quota,
    expand_to_candidates,
)

from oracles import irv_winner, random_election

EXACT = CountRules(tally_rounding=TallyRounding.EXACT)
UIG = CountRules(surplus_method=SurplusMethod.UNWEIGHTED_INCLUSIVE_GREGORY)
ALL_RULES = [CountRules(surplus, rounding) for surplus in SurplusMethod for rounding in TallyRounding]


def btl(ranking, mult=1):
    return (Preferences(VoteStyle.BTL, tuple(ranking)), mult)


def count(ballots, meta, rules=None):
    """``count_stv`` of (``Preferences``, papers) pairs, each ranking expanded first, as the count takes them."""
    return count_stv([(expand_to_candidates(prefs, meta), papers) for prefs, papers in ballots], meta, rules)


def simple_meta(n, seats=1):
    return ElectionMeta(
        "test", seats, (Group("G", "G"),),
        tuple(Candidate(f"c{i}", f"C{i}", "G", i + 1) for i in range(n)),
    )


class TestDroopQuota:
    def test_forced_cases(self):
        assert droop_quota(100, 1) == 51
        assert droop_quota(10, 2) == 4

    def test_large_case(self):
        assert droop_quota(339159, 12) == 26090

    def test_validation(self):
        with pytest.raises(CountError):
            droop_quota(-1, 1)
        with pytest.raises(CountError):
            droop_quota(10, 0)


class TestCountExamples:
    def test_majority_single_seat(self):
        meta = simple_meta(2)
        winners, tr = count([btl(["c0"], 60), btl(["c1"], 40)], meta)
        assert winners == ["c0"]
        assert tr.quota == 51
        assert len(tr.rounds) == 1

    def test_two_seat_surplus(self):
        meta = simple_meta(3, seats=2)
        winners, tr = count([btl(["c0", "c1"], 60), btl(["c2"], 40)], meta)
        assert tr.quota == 34
        assert winners == ["c0", "c2"]

    def test_elimination_then_majority(self):
        meta = simple_meta(3)
        ballots = [btl(["c0"], 40), btl(["c1"], 35), btl(["c2", "c1"], 25)]
        winners, tr = count(ballots, meta)
        assert winners == ["c1"]
        assert tr.rounds[1].eliminated == "c2"
        assert tr.rounds[1].tallies["c1"] == 60

    def test_surplus_methods_agree_at_weight_one(self):
        meta = simple_meta(3, seats=2)
        ballots = [btl(["c0", "c1"], 60), btl(["c2"], 40)]
        wig, _ = count(ballots, meta)
        uig, _ = count(ballots, meta, UIG)
        assert wig == uig

    def test_empty_election_raises(self):
        with pytest.raises(CountError):
            count([], simple_meta(3))

    def test_integer_papers_of_any_int_type_count_as_python_ints(self):
        meta = simple_meta(3, seats=2)
        ballots = [btl(["c0", "c1"], 60), btl(["c2"], 40)]
        _, tr = count(ballots, meta)
        _, np_tr = count([(prefs, np.int64(n)) for prefs, n in ballots], meta)
        assert np_tr.to_text() == tr.to_text()
        assert all(type(t) is int for rec in np_tr.rounds for t in rec.tallies.values())

    def test_the_count_module_imports_no_unchecked_ballot_form(self):
        source = Path(stvsim.count.__file__).read_text(encoding="utf-8")
        imported = {alias.asname or alias.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "CandidateRanking" in imported
        assert not imported & {"Preferences", "expand_to_candidates", "VoteStyle"}


class TestSurplusDistribution:
    def test_weighted_transfer_value(self):
        # 80 ballots [c0, c1], 20 [c2]; 2 seats; Q = 34; surplus 46 at tv 46/80
        meta = simple_meta(3, seats=2)
        winners, tr = count([btl(["c0", "c1"], 80), btl(["c2"], 20)], meta, EXACT)
        surplus_round = tr.rounds[1]
        assert surplus_round.kind == "surplus"
        assert surplus_round.transfer_value == Fraction(46, 80)
        assert surplus_round.tallies["c1"] == Fraction(46)
        assert winners == ["c0", "c1"]

    def test_truncation_rounding_loss_observable(self):
        meta = simple_meta(4, seats=2)
        ballots = [btl(["c0", "c1"], 79), btl(["c0", "c2"], 21), btl(["c3"], 1)]
        winners, tr = count(ballots, meta)
        surplus_round = tr.rounds[1]
        # Q=34, surplus 66, tv 66/100: c1 floor(79*0.66)=52, c2 floor(21*0.66)=13, loss 1
        assert surplus_round.transfer_value == Fraction(66, 100)
        assert surplus_round.tallies["c1"] == 52
        assert surplus_round.tallies["c2"] == 13
        assert surplus_round.rounding_loss == 1

    def test_unweighted_sets_flat_weight(self):
        # second-round surplus where incoming weights differ between methods
        meta = simple_meta(4, seats=3)
        ballots = [btl(["c0", "c1", "c2"], 90), btl(["c3"], 10)]
        w_wig, t_wig = count(ballots, meta, EXACT)
        w_uig, t_uig = count(
            ballots, meta, CountRules(SurplusMethod.UNWEIGHTED_INCLUSIVE_GREGORY, TallyRounding.EXACT)
        )
        assert w_wig == w_uig  # same winners here, different arithmetic paths
        assert t_wig.rounds[1].transfer_value == Fraction(64, 90)
        assert t_uig.rounds[1].transfer_value == Fraction(64, 90)


class TestTieBreaks:
    def test_countback_uses_prior_round(self):
        # c1 and c2 tie at elimination time, but c2 trailed in round 1
        meta = simple_meta(4)
        ballots = [
            btl(["c0"], 10),
            btl(["c1"], 5),
            btl(["c2"], 4),
            btl(["c3", "c2"], 1),
        ]
        winners, tr = count(ballots, meta)
        # round 2: c3 eliminated, c2 -> 5 (ties c1); countback says c2 had 4 in round 1
        elim_rounds = [r for r in tr.rounds if r.eliminated]
        assert elim_rounds[0].eliminated == "c3"
        assert elim_rounds[1].eliminated == "c2"
        assert any(r.ties for r in tr.rounds)

    def test_full_history_tie_lowest_index_loses(self):
        meta = simple_meta(3)
        ballots = [btl(["c0"], 5), btl(["c1"], 5), btl(["c2"], 8)]
        winners, tr = count(ballots, meta)
        first_elim = next(r for r in tr.rounds if r.eliminated)
        assert first_elim.eliminated == "c0"

    def test_countback_reaches_back_to_the_first_round_that_differs(self):
        # c1 and c2 tie at 5 after c4 goes, and at 4 after c3 goes; only the
        # first round (c1 4, c2 3) tells them apart, so c2 goes, not c1, which
        # comes first on the ballot paper.
        meta = simple_meta(5)
        ballots = [
            btl(["c0"], 9),
            btl(["c1"], 4),
            btl(["c2"], 3),
            btl(["c3", "c2"], 1),
            btl(["c4", "c1"], 1),
            btl(["c4", "c2"], 1),
        ]
        winners, tr = count(ballots, meta)
        assert [r.eliminated for r in tr.rounds if r.eliminated] == ["c3", "c4", "c2", "c1"]
        assert [(r.tallies["c1"], r.tallies["c2"]) for r in tr.rounds[:3]] == [(4, 3), (4, 4), (5, 5)]
        assert tr.rounds[3].ties == ["elimination tie among c1, c2 at 5; c2 eliminated by countback/index"]
        assert winners == ["c0"]

    def test_a_tie_over_every_round_goes_to_ballot_paper_order(self):
        # c2 and c1 hold 3 each in both rounds; c1 comes first on the ballot
        # paper, so it goes, though c2 is the one listed first on the ballots.
        meta = simple_meta(4)
        ballots = [btl(["c0"], 7), btl(["c2"], 3), btl(["c1"], 3), btl(["c3"], 1)]
        winners, tr = count(ballots, meta)
        assert [r.eliminated for r in tr.rounds if r.eliminated] == ["c3", "c1", "c2"]
        assert [(r.tallies["c1"], r.tallies["c2"]) for r in tr.rounds[:2]] == [(3, 3), (3, 3)]
        assert tr.rounds[2].ties == ["elimination tie among c1, c2 at 3; c1 eliminated by countback/index"]
        assert winners == ["c0"]

    def test_tie_notes_do_not_depend_on_hash_order(self):
        # Two election-order ties in one round (quota 23): the notes follow
        # ballot-paper order under every hash seed.
        code = (
            "from stvsim import Candidate, CandidateRanking, ElectionMeta, Group, count_stv\n"
            "meta = ElectionMeta('tie', 4, (Group('G', 'G'),),\n"
            "    tuple(Candidate(c, c, 'G', i) for i, c in enumerate('abcde', 1)))\n"
            "ballots = [(CandidateRanking((c,)), n) for c, n in zip('abcd', (30, 30, 25, 25))]\n"
            "print(count_stv(ballots, meta)[1].to_text(), end='')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(stvsim.__file__).resolve().parents[1])}
        texts = {
            subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                           capture_output=True, text=True, check=True).stdout
            for seed in ("1", "2", "3", "4")
        }
        assert len(texts) == 1
        notes = [line for line in texts.pop().splitlines() if line.startswith("  tie")]
        assert notes == [
            "  tie\telection-order tie among a, b at 30; ordered by countback/index",
            "  tie\telection-order tie among c, d at 25; ordered by countback/index",
        ]

    def test_deterministic_repeat(self):
        rng = random.Random(314)
        meta, ballots = random_election(rng, max_candidates=6, max_ballots=60, seats=2)
        first = count(ballots, meta)
        second = count(ballots, meta)
        assert first[0] == second[0]
        assert first[1].to_text() == second[1].to_text()


class TestOracleEquivalence:
    def test_single_seat_matches_instant_runoff(self):
        rng = random.Random(20240101)
        for _ in range(300):
            meta, ballots = random_election(rng)
            winners, _ = count(ballots, meta)
            assert winners[0] == irv_winner(ballots, list(meta.candidate_ids))

    def test_strict_majority_always_wins(self):
        rng = random.Random(77)
        ids = [f"c{i}" for i in range(4)]
        for _ in range(100):
            meta = simple_meta(4)
            majority = rng.choice(ids)
            ballots = [btl([majority], 51)]
            others = [c for c in ids if c != majority]
            for i, c in enumerate(others):
                ballots.append(btl([c] + rng.sample([x for x in ids if x != c], 2), 15 + i))
            winners, _ = count(ballots, meta)
            assert winners == [majority]


class TestConservation:
    @pytest.mark.parametrize("rules", [CountRules(), EXACT, UIG,
                                       CountRules(SurplusMethod.UNWEIGHTED_INCLUSIVE_GREGORY,
                                                  TallyRounding.EXACT)])
    def test_per_round_identity(self, rules):
        rng = random.Random(hash((rules.surplus_method.value, rules.tally_rounding.value)) & 0xFFFF)
        for _ in range(40):
            seats = rng.randint(1, 4)
            meta, ballots = random_election(rng, max_candidates=8, max_ballots=250, seats=seats)
            winners, tr = count(ballots, meta, rules)
            assert len(winners) == seats
            assert len(set(winners)) == seats
            for rec in tr.rounds:
                held = sum(rec.tallies.values())
                assert held + rec.exhausted + rec.rounding_loss == tr.total_ballots
            if rules.tally_rounding is TallyRounding.EXACT:
                assert tr.rounding_loss == 0

    def test_transfer_values_in_unit_interval(self):
        rng = random.Random(818)
        for _ in range(50):
            meta, ballots = random_election(rng, max_candidates=7, max_ballots=200, seats=3)
            _, tr = count(ballots, meta)
            for rec in tr.rounds:
                if rec.transfer_value is not None:
                    assert 0 <= rec.transfer_value <= 1


@st.composite
def split_and_shuffled(draw):
    """A random BTL election, and the same ballots with every record of two
    or more papers split in two at a random point, in a shuffled order."""
    n = draw(st.integers(3, 8))
    meta = simple_meta(n, seats=draw(st.integers(1, n - 1)))
    ids = list(meta.candidate_ids)
    ranking = st.permutations(ids).flatmap(lambda order: st.integers(1, n).map(lambda k: order[:k]))
    records = draw(st.lists(st.tuples(ranking, st.integers(1, 60)), min_size=1, max_size=25))
    ballots = [btl(r, m) for r, m in records]
    split = []
    for r, m in records:
        cut = draw(st.integers(1, m - 1)) if m > 1 else m
        split += [btl(r, cut)] + ([btl(r, m - cut)] if cut < m else [])
    return meta, ballots, draw(st.permutations(split))


class TestOrderAndSplitInvariance:
    """The count depends on the ballot multiset only: not on the order of its
    records, nor on how one ranking's papers are split across records."""

    @settings(max_examples=150, deadline=None)
    @given(split_and_shuffled())
    def test_same_transcript_under_every_rule_set(self, case):
        meta, ballots, split = case
        for rules in ALL_RULES:
            _, tr = count(ballots, meta, rules)
            assert count(split, meta, rules)[1].to_text() == tr.to_text()
            if rules.tally_rounding is TallyRounding.EXACT:
                assert tr.rounding_loss == 0


class TestTranscript:
    def test_golden_text(self):
        meta = simple_meta(3)
        ballots = [btl(["c0"], 40), btl(["c1"], 35), btl(["c2", "c1"], 25)]
        _, tr = count(ballots, meta)
        assert tr.to_text() == (
            "election\ttest\n"
            "seats\t1\n"
            "total-formal\t100\n"
            "quota\t51\n"
            "rules\tweighted-inclusive-gregory\ttruncate\n"
            "round 1\tfirst-preferences\n"
            "  tally\tc0\t40\n"
            "  tally\tc1\t35\n"
            "  tally\tc2\t25\n"
            "  exhausted\t0\tloss\t0\n"
            "round 2\telimination\tfrom c2\n"
            "  tally\tc0\t40\n"
            "  tally\tc1\t60\n"
            "  elected\tc1\tsurplus 9\n"
            "  eliminated\tc2\n"
            "  exhausted\t0\tloss\t0\n"
            "elected\tc1\n"
        )

    def test_final_margin(self):
        meta = simple_meta(3)
        ballots = [btl(["c0"], 40), btl(["c1"], 35), btl(["c2", "c1"], 25)]
        _, tr = count(ballots, meta)
        assert tr.final_margin() == 20  # 60 vs 40 in the deciding round

    def test_exhausted_ballots_tracked(self):
        meta = simple_meta(3)
        ballots = [btl(["c0"], 10), btl(["c1"], 9), btl(["c2"], 2)]
        _, tr = count(ballots, meta)
        assert tr.rounds[1].exhausted == 2  # c2's ballots have nowhere to go
        assert tr.exhausted == 11  # ... and later c1's join them
