import random

import pytest

from stvsim import (
    BallotError,
    Candidate,
    ElectionMeta,
    FormalityRules,
    Group,
    MarkSheet,
    Preferences,
    VoteStyle,
    classify_formality,
    expand_to_candidates,
    interpret_marks,
    marks_from_preferences,
)

from oracles import random_marksheet


@pytest.fixture
def meta():
    return ElectionMeta(
        name="fixture",
        seats=2,
        groups=(Group("A", "Party A"), Group("C", "Party C")),
        candidates=(
            Candidate("a1", "A One", "A", 1),
            Candidate("a2", "A Two", "A", 2),
            Candidate("a3", "A Three", "A", 3),
            Candidate("c1", "C One", "C", 1),
            Candidate("c2", "C Two", "C", 2),
            Candidate("u1", "Indie", "-", 1),
        ),
    )


class TestInterpretMarks:
    def test_permutation_no_gaps(self):
        assert interpret_marks({"b1": 2, "b2": 1, "b3": 3}) == ("b2", "b1", "b3")

    def test_absent_number_truncates(self):
        # 2 is absent, so 2 and everything after is disregarded
        assert interpret_marks({"b1": 1, "b2": 3, "b3": 3}) == ("b1",)

    def test_repeated_number_truncates(self):
        assert interpret_marks({"b1": 1, "b2": 2, "b3": 2, "b4": 4}) == ("b1",)

    def test_empty_and_zero(self):
        assert interpret_marks({}) == ()
        assert interpret_marks({"b1": 0}) == ()
        assert interpret_marks({"b1": 0, "b2": 1}) == ("b2",)

    def test_idempotent_on_own_output(self):
        rng = random.Random(99)
        boxes = [f"b{i}" for i in range(9)]
        for _ in range(300):
            marks = {b: int(m) for b, m in random_marksheet(rng, boxes).items()}
            ranking = interpret_marks(marks)
            rewritten = {box: rank for rank, box in enumerate(ranking, start=1)}
            assert interpret_marks(rewritten) == ranking


class TestClassifyFormality:
    def test_full_btl_is_formal(self):
        sheet = MarkSheet({}, {f"c{i}": str(i) for i in range(1, 7)})
        prefs = classify_formality(sheet)
        assert prefs is not None and prefs.style is VoteStyle.BTL
        assert len(prefs) == 6

    def test_invalid_btl_falls_back_to_atl(self):
        # five BTL preferences fail the 1..6 rule; the valid ATL vote counts instead
        sheet = MarkSheet({"A": "1"}, {f"c{i}": str(i) for i in range(1, 6)})
        prefs = classify_formality(sheet)
        assert prefs is not None and prefs.style is VoteStyle.ATL
        assert prefs.ranking == ("A",)

    def test_short_btl_alone_is_informal(self):
        sheet = MarkSheet({}, {f"c{i}": str(i) for i in range(1, 6)})
        assert classify_formality(sheet) is None

    def test_double_first_preference_atl_is_informal(self):
        assert classify_formality(MarkSheet({"A": "1", "B": "1"}, {})) is None

    def test_mark_zero_and_leading_zeros(self):
        # 0 is unmarked; "07" ranks as 7
        sheet = MarkSheet({"A": "0", "B": "1"}, {})
        prefs = classify_formality(sheet)
        assert prefs.ranking == ("B",)
        sheet = MarkSheet({}, {"c1": "01", "c2": "02", "c3": "3", "c4": "4", "c5": "5", "c6": "06"})
        assert len(classify_formality(sheet)) == 6

    def test_exactly_one_outcome(self):
        rng = random.Random(5)
        groups = [f"g{i}" for i in range(4)]
        cands = [f"c{i}" for i in range(8)]
        for _ in range(500):
            sheet = MarkSheet(random_marksheet(rng, groups), random_marksheet(rng, cands))
            outcomes = []
            prefs = classify_formality(sheet)
            if prefs is None:
                outcomes.append("informal")
            else:
                outcomes.append(prefs.style.value)
            assert len(outcomes) == 1  # total function, single outcome

    def test_btl_threshold_monotone(self):
        rng = random.Random(6)
        cands = [f"c{i}" for i in range(10)]
        for _ in range(300):
            sheet = MarkSheet({}, random_marksheet(rng, cands, max_mark=10))
            formal_at = [
                classify_formality(sheet, FormalityRules(btl_required_prefs=r)) is not None
                and classify_formality(sheet, FormalityRules(btl_required_prefs=r)).style is VoteStyle.BTL
                for r in range(1, 10)
            ]
            # formal at threshold r implies formal at every r' <= r
            for i in range(1, len(formal_at)):
                if formal_at[i]:
                    assert all(formal_at[: i + 1])

    def test_precedence_flag(self):
        sheet = MarkSheet({"A": "1"}, {f"c{i}": str(i) for i in range(1, 7)})
        assert classify_formality(sheet).style is VoteStyle.BTL


class TestExpandToCandidates:
    def test_atl_walks_groups_in_position_order(self, meta):
        prefs = Preferences(VoteStyle.ATL, ("A", "C"))
        assert expand_to_candidates(prefs, meta) == ("a1", "a2", "a3", "c1", "c2")

    def test_btl_identity(self, meta):
        prefs = Preferences(VoteStyle.BTL, ("c2", "c1"))
        assert expand_to_candidates(prefs, meta) == ("c2", "c1")

    def test_single_group(self, meta):
        assert expand_to_candidates(Preferences(VoteStyle.ATL, ("C",)), meta) == ("c1", "c2")

    def test_unknown_ids_raise(self, meta):
        with pytest.raises(BallotError):
            expand_to_candidates(Preferences(VoteStyle.ATL, ("Z",)), meta)
        with pytest.raises(BallotError):  # ungrouped candidates have no ATL box
            expand_to_candidates(Preferences(VoteStyle.ATL, ("-",)), meta)
        with pytest.raises(BallotError):
            expand_to_candidates(Preferences(VoteStyle.BTL, ("nope",)), meta)

    def test_never_duplicates(self, meta):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(1, 2)
            prefs = Preferences(VoteStyle.ATL, tuple(rng.sample(["A", "C"], k)))
            expanded = expand_to_candidates(prefs, meta)
            assert len(set(expanded)) == len(expanded)


class TestMetaValidation:
    def test_rejects_bad_seats(self):
        with pytest.raises(BallotError):
            ElectionMeta("x", 2, (Group("A", "a"),), (Candidate("c1", "n", "A", 1),
                                                      Candidate("c2", "n", "A", 2)))

    def test_rejects_position_gap(self):
        with pytest.raises(BallotError):
            ElectionMeta("x", 1, (Group("A", "a"),),
                         (Candidate("c1", "n", "A", 1), Candidate("c2", "n", "A", 3)))

    def test_rejects_unknown_group(self):
        with pytest.raises(BallotError):
            ElectionMeta("x", 1, (Group("A", "a"),),
                         (Candidate("c1", "n", "B", 1), Candidate("c2", "n", "A", 1)))

    def test_ungrouped_candidates_allowed(self, meta):
        assert meta.group_of_candidate["u1"] == "-"
        assert "-" not in meta.group_ids


class TestMarksFromPreferences:
    def test_round_trip_through_interpretation(self):
        prefs = Preferences(VoteStyle.BTL, ("c3", "c1", "c2"))
        sheet = marks_from_preferences(prefs)
        assert sheet.btl_marks == {"c3": "1", "c1": "2", "c2": "3"}
        assert sheet.atl_marks == {}
        assert classify_formality(sheet, FormalityRules(btl_required_prefs=3)) == prefs

    def test_atl_style_never_marks_btl(self):
        sheet = marks_from_preferences(Preferences(VoteStyle.ATL, ("A", "B")))
        assert sheet.btl_marks == {}
        assert sheet.atl_marks == {"A": "1", "B": "2"}


class TestValidation:
    def test_marksheet_rejects_non_digit_marks(self):
        with pytest.raises(BallotError):
            MarkSheet({"A": "x"}, {})
        with pytest.raises(BallotError):
            MarkSheet({}, {"c": ""})

    def test_a_mark_is_ascii_digits(self):
        # str.isdigit also takes superscript two and the Arabic-Indic one.
        for mark in ("²", "\u0661", "1²"):
            with pytest.raises(BallotError):
                MarkSheet({}, {"c": mark})

    def test_marksheet_rejects_zero_multiplicity(self):
        with pytest.raises(BallotError):
            MarkSheet({}, {}, 0)

    def test_preferences_reject_duplicates_and_empty(self):
        with pytest.raises(BallotError):
            Preferences(VoteStyle.BTL, ("a", "a"))
        with pytest.raises(BallotError):
            Preferences(VoteStyle.BTL, ())

    def test_rules_bounds(self):
        with pytest.raises(BallotError):
            FormalityRules(btl_required_prefs=0)
        with pytest.raises(BallotError):
            FormalityRules(btl_required_prefs=10)
