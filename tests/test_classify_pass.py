"""The one array classification pass against ``classify_formality``, sheet by sheet.

``ballots._classify`` reads every sheet's marks once and decides every
formality variant from two run lengths per sheet.  The reference is the
record loop: ``classify_formality`` on each sheet, and
``expand_to_candidates`` on each distinct formal result.  Generated
elections mix leading zeros, "0", repeated numbers, gaps, 25-digit marks
(longer than int64), sheets marked in both styles and layouts where a group
id equals a candidate id; every (btl_required, atl_required) pair from
(1..9) x (1..3) must classify each sheet as the reference does.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from stvsim import (
    Candidate,
    CandidateRanking,
    ElectionFile,
    ElectionMeta,
    FormalityRules,
    Group,
    MarkSheet,
    VoteStyle,
    classify_formality,
    expand_to_candidates,
    formal_ballots,
)
from stvsim.ballots import _classify
from stvsim.sim import _prepare

from test_differential import mixed_election

VARIANTS = [FormalityRules(btl, atl) for btl in range(1, 10) for atl in range(1, 4)]
LONG_MARKS = ("0" * 24 + "1", "0" * 23 + "12", "9" * 25, "1" + "0" * 24)


def check_against_record_loop(election: ElectionFile) -> None:
    meta = election.meta
    for rules in VARIANTS:
        reference = [classify_formality(sheet, rules) for sheet in election.sheets]
        merged = Counter()
        for prefs, sheet in zip(reference, election.sheets):
            if prefs is not None:
                merged[prefs] += sheet.multiplicity
        ballots = formal_ballots(election, rules)
        assert ballots == [(expand_to_candidates(prefs, meta), papers) for prefs, papers in merged.items()]
        assert all(type(ranking) is CandidateRanking for ranking, _ in ballots)
        # sheet by sheet: each record's first paper names its distinct sheet,
        # whose style the prefix ends keep (None for BTL)
        ((_, physical_sheet, *_),) = _classify(election.meta, election.sheets, [rules])
        (prep,) = _prepare(election, [rules])
        first_paper = list(accumulate((s.multiplicity for s in election.sheets), initial=0))[:-1]
        for prefs, ballot in zip(reference, physical_sheet[first_paper].tolist()):
            assert (prefs is None) == (ballot == -1)
            if prefs is not None:
                assert ballots[ballot][0] == expand_to_candidates(prefs, meta)
                assert (prep.prefix_ends[ballot] is None) == (prefs.style is VoteStyle.BTL)

    # All variants in one pass: variants share a group exactly when they
    # classify every record alike, and each group's rankings are the
    # reference's distinct formal preferences, expanded once each.
    groups = _prepare(election, VARIANTS)
    assert sorted((rules for prep in groups for rules in prep.rules), key=VARIANTS.index) == VARIANTS
    firsts = [VARIANTS.index(prep.rules[0]) for prep in groups]
    assert firsts == sorted(firsts)
    decisions = {
        rules: tuple(None if p is None else p.style for p in (classify_formality(s, rules) for s in election.sheets))
        for rules in VARIANTS
    }
    for prep in groups:
        assert len({decisions[rules] for rules in prep.rules}) == 1
        distinct = dict.fromkeys(
            p for s in election.sheets if (p := classify_formality(s, prep.rules[0])) is not None
        )
        assert prep.rankings == [expand_to_candidates(p, meta) for p in distinct]
        assert prep.prefix_ends == [
            None if p.style is VoteStyle.BTL
            else tuple(accumulate((len(meta.candidates_of_group(g)) for g in p.ranking), initial=0))
            for p in distinct
        ]
    assert len({decisions[prep.rules[0]] for prep in groups}) == len(groups)


MARK = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(1, 3), st.integers(0, 12)).map(lambda t: "0" * t[0] + str(t[1])),
    st.sampled_from(LONG_MARKS),
)


@st.composite
def style_marks(draw, boxes: list[str]) -> dict[str, str]:
    """A clean ranking of some boxes, then a few boxes rewritten: repeats, gaps, zeros and long marks."""
    order = draw(st.permutations(boxes))
    marks = {box: str(rank) for rank, box in enumerate(order[:draw(st.integers(0, len(boxes)))], start=1)}
    for box, mark in draw(st.lists(st.tuples(st.sampled_from(boxes), MARK), max_size=3)):
        marks[box] = mark
    return marks


@st.composite
def elections(draw) -> ElectionFile:
    n_groups = draw(st.integers(1, 4))
    groups = [f"G{g}" for g in range(n_groups)]
    candidates = [
        Candidate(f"c{g}{p}", "", group, p)
        for g, group in enumerate(groups) for p in range(1, draw(st.integers(2 if g == 0 else 1, 3)) + 1)
    ]
    candidates += [Candidate(f"u{i}", "", "-", i) for i in range(1, draw(st.integers(0, 2)) + 1)]
    if draw(st.booleans()):  # a group id that equals a candidate id
        clash = draw(st.sampled_from(candidates)).id
        groups[0] = clash
        candidates = [c if c.group != "G0" else Candidate(c.id, "", clash, c.position) for c in candidates]
    meta = ElectionMeta("generated", 1, tuple(Group(g, "") for g in groups), tuple(candidates))
    sheets = draw(st.lists(
        st.builds(
            MarkSheet,
            style_marks(list(meta.group_ids)),
            style_marks(list(meta.candidate_ids)),
            st.integers(1, 3),
        ),
        min_size=1, max_size=8,
    ))
    sheets += draw(st.lists(st.sampled_from(sheets), max_size=3))  # repeated records
    return ElectionFile(meta, tuple(sheets))


@settings(max_examples=100, deadline=None)
@given(elections())
def test_the_array_pass_matches_the_record_loop(election):
    check_against_record_loop(election)


def test_the_mixed_election_matches_the_record_loop():
    check_against_record_loop(mixed_election())  # variants 6 and 1 among the rest


def test_long_marks_read_as_their_numbers():
    meta = ElectionMeta(
        "long", 1, (Group("A", ""),), tuple(Candidate(f"a{i}", "", "A", i) for i in range(1, 4))
    )
    sheets = (
        MarkSheet({}, {"a1": "0" * 24 + "1", "a2": "0" * 30 + "2"}, 1),  # reads 1, 2
        MarkSheet({}, {"a1": "1", "a2": "9" * 25, "a3": "2"}, 1),  # 9...9 never joins a prefix
        MarkSheet({}, {"a1": "1", "a2": "2" + "0" * 24, "a3": "0"}, 1),
    )
    election = ElectionFile(meta, sheets)
    ballots = formal_ballots(election, FormalityRules(btl_required_prefs=1))
    assert ballots == [(("a1", "a2"), 1), (("a1", "a3"), 1), (("a1",), 1)]
    check_against_record_loop(election)
