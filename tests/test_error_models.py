import math
import random

import numpy as np
import pytest

from stvsim import (
    BUNDLED_CONFUSION_TABLE,
    ConfusionModel,
    ErrorModelError,
    FormalityRules,
    MarkSheet,
    Preferences,
    RandomStream,
    TruncationModel,
    UniformDigitModel,
    VoteStyle,
    apply_confusion_model,
    apply_digit_model,
    apply_truncation_model,
    derive_seed,
    load_confusion_table,
    marks_from_preferences,
    perturb_ballot,
)
from stvsim.error_models import corrupt_digits_batch, truncation_lengths_batch
from stvsim.rng import seed_vector

from oracles import truncation_length_pmf

RULES = FormalityRules()


@pytest.fixture(scope="module")
def table():
    return load_confusion_table(BUNDLED_CONFUSION_TABLE)


def btl_prefs(k):
    return Preferences(VoteStyle.BTL, tuple(f"c{i}" for i in range(1, k + 1)))


def stream(*parts):
    return RandomStream(derive_seed(*parts))


def corrupt_rows(digits, model, seeds):
    """One corrupted copy of ``digits`` per seed, through the batch form: every ballot reads the same store."""
    n, d = len(seeds), len(digits)
    _, ballot, position, new = corrupt_digits_batch(digits, np.zeros(n, dtype=np.int64), np.full(n, d), [model], seeds)
    rows = np.tile(digits, (n, 1))
    rows[ballot, position] = new
    return rows


class TestTruncationModel:
    def test_rate_zero_is_identity(self):
        prefs = btl_prefs(8)
        for seed in range(20):
            assert apply_truncation_model(prefs, 0.0, stream(seed)) == prefs.ranking

    def test_rate_one_truncates_everything(self):
        prefs = btl_prefs(5)
        for seed in range(20):
            assert apply_truncation_model(prefs, 1.0, stream(seed)) == ()

    def test_length_distribution_matches_enumeration(self):
        # length-3 list at rate 0.5: P(len) = (0.5, 0.25, 0.125, 0.125)
        prefs = btl_prefs(3)
        trials = 120_000
        (lengths,) = truncation_lengths_batch(np.full(trials, 3), [0.5], seed_vector((42,), 0, trials))
        pmf = truncation_length_pmf(3, 0.5)
        assert pmf == [0.5, 0.25, 0.125, 0.125]
        for length, p in enumerate(pmf):
            observed = int((lengths == length).sum())
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(observed - trials * p) < 3 * sigma, (length, observed)

    def test_scalar_matches_batch(self):
        prefs = btl_prefs(7)
        seeds = seed_vector((9, 0, 0), 0, 200)
        (lengths,) = truncation_lengths_batch(np.full(200, 7), [0.3], seeds)
        for i in range(200):
            out = apply_truncation_model(prefs, 0.3, RandomStream(int(seeds[i])))
            assert len(out) == lengths[i]
            assert out == prefs.ranking[: lengths[i]]


class TestUniformDigitModel:
    def test_rate_zero_is_identity(self):
        sheet = marks_from_preferences(btl_prefs(12))
        out = apply_digit_model(sheet, 0.0, stream(1))
        assert out == sheet

    def test_digit_count_preserved_and_boxes_unchanged(self):
        rng = random.Random(31)
        for trial in range(100):
            k = rng.randint(1, 15)
            sheet = marks_from_preferences(btl_prefs(k))
            out = apply_digit_model(sheet, 0.8, stream(trial))
            assert set(out.btl_marks) == set(sheet.btl_marks)
            for box, mark in sheet.btl_marks.items():
                assert len(out.btl_marks[box]) == len(mark)
            assert out.atl_marks == {}

    def test_effective_change_rate_is_09_eps(self):
        # per-digit change probability is 0.9 * eps (replacement may match)
        eps = 0.2
        digits = np.array([3] * 40, dtype=np.uint8)
        n = 25_000
        out = corrupt_rows(digits, UniformDigitModel(eps), seed_vector((8,), 0, n))
        changed = (out != digits[None, :]).mean()
        p = 0.9 * eps
        sigma = math.sqrt(p * (1 - p) / (n * 40))
        assert abs(changed - p) < 3 * sigma

    def test_two_digit_mark_fully_random_at_rate_one(self):
        sheet = MarkSheet({}, {"c1": "12"})
        same = 0
        trials = 40_000
        for seed in range(trials):
            out = apply_digit_model(sheet, 1.0, stream(seed))
            if out.btl_marks["c1"] == "12":
                same += 1
        p = 1 / 100  # both digits uniform
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(same / trials - p) < 3 * sigma

    def test_change_indicators_independent_across_positions(self):
        digits = np.array([5, 7], dtype=np.uint8)
        n = 60_000
        out = corrupt_rows(digits, UniformDigitModel(0.3), seed_vector((15,), 0, n))
        x = (out[:, 0] != 5).astype(float)
        y = (out[:, 1] != 7).astype(float)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3 / math.sqrt(n)

    def test_scalar_matches_batch(self):
        prefs = btl_prefs(13)  # mixes one- and two-digit marks
        sheet = marks_from_preferences(prefs)
        order = sorted(sheet.btl_marks)
        digits = np.array([int(ch) for box in order for ch in sheet.btl_marks[box]], dtype=np.uint8)
        seeds = seed_vector((77, 1, 2), 10, 50)
        batch = corrupt_rows(digits, UniformDigitModel(0.25), seeds)
        for i in range(50):
            out = apply_digit_model(sheet, 0.25, RandomStream(int(seeds[i])))
            flat = [int(ch) for box in order for ch in out.btl_marks[box]]
            assert flat == batch[i].tolist()


class TestConfusionModel:
    def test_paper_cells(self, table):
        # row 9 / column 4 is 0.72%; digit 0 survives with 99.22%
        assert table.matrix[9, 4] == pytest.approx(0.0072, abs=2e-5)
        assert table.matrix[0, 0] == pytest.approx(0.9922, abs=2e-5)

    def test_columns_normalised(self, table):
        assert np.allclose(table.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_mean_change_rate_near_measured_089(self, table):
        assert abs(table.mean_change_rate - 0.0089) < 0.0005

    def test_identity_matrix_never_changes(self):
        model = ConfusionModel(np.eye(10))
        sheet = marks_from_preferences(btl_prefs(9))
        for seed in range(30):
            assert apply_confusion_model(sheet, model, stream(seed)) == sheet

    def test_sampled_rates_match_column(self, table):
        n = 200_000
        digits = np.full(1, 4, dtype=np.uint8)
        out = corrupt_rows(digits, table, seed_vector((3,), 0, n)).ravel()
        observed_9 = (out == 9).mean()
        p = table.matrix[9, 4]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(observed_9 - p) < 3 * sigma

    def test_scalar_matches_batch(self, table):
        # the bundled table, and one where each digit reads as itself or the
        # next digit with equal odds (zero entries: tied CDF values)
        shifted = ConfusionModel(0.5 * np.eye(10) + 0.5 * np.roll(np.eye(10), 1, axis=0))
        sheet = marks_from_preferences(btl_prefs(11))
        order = sorted(sheet.btl_marks)
        digits = np.array([int(ch) for box in order for ch in sheet.btl_marks[box]], dtype=np.uint8)
        seeds = seed_vector((5, 5), 0, 50)
        for model in (table, shifted):
            batch = corrupt_rows(digits, model, seeds)
            for i in range(50):
                out = apply_confusion_model(sheet, model, RandomStream(int(seeds[i])))
                flat = [int(ch) for box in order for ch in out.btl_marks[box]]
                assert flat == batch[i].tolist()

    def test_batch_matches_scalar_where_digits_leave_the_stay_window(self, table):
        # The batch form skips words inside every digit's stay window.  Here
        # the windows do not overlap at all: column 5 sends all its mass to
        # 3, a permutation moves every digit, and a uniform table gives each
        # digit its own tenth.  Where each digit stays with odds 0.55 and
        # moves to each other digit with odds 0.05, they share only
        # [0.45, 0.55).  The identity keeps every word in the window.
        to_three = table.matrix.copy()
        to_three[:, 5] = np.eye(10)[3]
        tables = {
            "five-to-three": ConfusionModel(to_three),
            "permutation": ConfusionModel(np.roll(np.eye(10), 1, axis=0)),
            "uniform": ConfusionModel(np.full((10, 10), 0.1)),
        }
        sheets = [marks_from_preferences(btl_prefs(k)) if k else MarkSheet({}, {}) for k in (1, 12, 5, 0, 10, 13)]
        digits = [[int(ch) for box in sorted(sheet.btl_marks) for ch in sheet.btl_marks[box]] for sheet in sheets]
        sizes = np.array([len(d) for d in digits])
        store = np.array([x for d in digits for x in d], dtype=np.uint8)
        seeds = seed_vector((6, 1), 0, len(sheets))
        others = [
            ("barely", ConfusionModel(0.5 * np.eye(10) + 0.05)),
            ("bundled", table),
            ("identity", ConfusionModel(np.eye(10))),
        ]
        for name, model in [*tables.items(), *others]:
            low, high = model.stay_window
            assert (low >= high) == (name in tables), name
            changes = corrupt_digits_batch(store, np.cumsum(sizes) - sizes, sizes, [model], seeds)
            m, ballot, position, new = (a.tolist() for a in changes)
            assert set(m) <= {0}
            if name == "identity":
                assert ballot == []
            for i, (sheet, clean) in enumerate(zip(sheets, digits)):
                out = apply_confusion_model(sheet, model, RandomStream(int(seeds[i])))
                batch = list(clean)
                for b, k, v in zip(ballot, position, new):
                    if b == i:
                        batch[k] = v
                assert [int(ch) for box in sorted(out.btl_marks) for ch in out.btl_marks[box]] == batch, (name, i)
            if name in ("permutation", "uniform", "barely"):
                assert len(ballot) > sizes.sum() / 3  # many digits moved

    def test_rejects_bad_tables(self):
        with pytest.raises(ErrorModelError):
            ConfusionModel(np.zeros((9, 10)))
        with pytest.raises(ErrorModelError):
            ConfusionModel(-np.eye(10))
        with pytest.raises(ErrorModelError, match="finite"):
            ConfusionModel(np.full((10, 10), np.nan))
        infinite = np.eye(10)
        infinite[3, 3] = np.inf
        with pytest.raises(ErrorModelError, match="finite"):
            ConfusionModel(infinite)


class TestPerturbBallot:
    def test_zero_rate_is_identity_embedding(self):
        for model in (TruncationModel(0.0), UniformDigitModel(0.0), ConfusionModel(np.eye(10))):
            for k in (1, 6, 12):
                rules = FormalityRules(btl_required_prefs=min(k, 9))
                for style in (VoteStyle.ATL, VoteStyle.BTL):
                    prefs = Preferences(style, tuple(f"x{i}" for i in range(k)))
                    assert perturb_ballot(prefs, model, rules, stream(k)) == prefs

    def test_single_digit_break_makes_six_pref_btl_informal(self):
        # marks 1..6; forcing "3" -> "8" leaves 3 absent, so only two readable
        prefs = btl_prefs(6)
        sheet = marks_from_preferences(prefs)
        mutated = dict(sheet.btl_marks)
        mutated["c3"] = "8"
        from stvsim import classify_formality, interpret_marks

        ranking = interpret_marks({box: int(mark) for box, mark in mutated.items()})
        assert ranking == ("c1", "c2")
        assert classify_formality(MarkSheet({}, mutated), RULES) is None

    def test_atl_single_pref_dies_with_its_digit(self):
        prefs = Preferences(VoteStyle.ATL, ("G",))
        survived = informal = 0
        for seed in range(4000):
            out = perturb_ballot(prefs, UniformDigitModel(0.5), RULES, stream(seed))
            if out is None:
                informal += 1
            else:
                assert out == prefs
                survived += 1
        p = 1 - 0.9 * 0.5
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(survived / 4000 - p) < 3 * sigma

    def test_style_never_flips(self):
        for seed in range(300):
            out = perturb_ballot(btl_prefs(8), UniformDigitModel(0.5), RULES, stream(seed))
            if out is not None:
                assert out.style is VoteStyle.BTL
            out = perturb_ballot(
                Preferences(VoteStyle.ATL, ("a", "b", "c")), UniformDigitModel(0.5), RULES, stream(seed)
            )
            if out is not None:
                assert out.style is VoteStyle.ATL

    def test_formal_and_unchanged_probability_closed_form(self):
        # P(formal and unchanged) = (1 - 0.9 eps)^D with D total digits
        eps = 0.05
        for k, digits in ((3, 3), (11, 13)):
            prefs = btl_prefs(k)
            rules = FormalityRules(btl_required_prefs=min(k, 9))
            hits = 0
            trials = 12_000
            for seed in range(trials):
                out = perturb_ballot(prefs, UniformDigitModel(eps), rules, stream(k, seed))
                if out == prefs:
                    hits += 1
            p = (1 - 0.9 * eps) ** digits
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(hits / trials - p) < 3 * sigma, k

    def test_seed_determinism(self):
        prefs = btl_prefs(10)
        model = UniformDigitModel(0.3)
        a = [perturb_ballot(prefs, model, RULES, stream(4, i)) for i in range(50)]
        b = [perturb_ballot(prefs, model, RULES, stream(4, i)) for i in range(50)]
        assert a == b

    def test_truncation_respects_formality_threshold(self):
        prefs = btl_prefs(6)
        for seed in range(2000):
            out = perturb_ballot(prefs, TruncationModel(0.3), RULES, stream(seed))
            if out is not None:
                assert len(out) == 6  # anything shorter fails the 1..6 rule
