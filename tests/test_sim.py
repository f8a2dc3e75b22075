import dataclasses
import gc
import json
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate, pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvsim import (
    BUNDLED_CONFUSION_TABLE,
    BallotError,
    Candidate,
    CandidateRanking,
    ConfusionModel,
    CountInvariantError,
    CountRules,
    ElectionFile,
    ElectionMeta,
    FormalityRules,
    Group,
    MarkSheet,
    Preferences,
    RandomStream,
    SimConfig,
    SimError,
    TruncationModel,
    UniformDigitModel,
    VoteStyle,
    apply_confusion_model,
    apply_digit_model,
    apply_truncation_model,
    classify_formality,
    count_stv,
    expand_to_candidates,
    formal_ballots,
    formality_rate_report,
    interpret_marks,
    load_confusion_table,
    marks_from_preferences,
    partition_by_preference,
    preference_position_histogram,
    run_sweep,
    read_election_file,
    write_election_file,
    write_report,
)
from stvsim import ballots, count, error_models, sim
from stvsim.cli import EXIT_OK, main
from stvsim.error_models import corrupt_digits_batch, draw_stride, truncation_lengths_batch
from stvsim.rng import DrawPlan, seed_vector
from stvsim.synth import formality_bias_election, marks_for_ranking, truncation_ladder_election

from test_differential import HEAVY_CONFUSION, mixed_election


@pytest.fixture(scope="module")
def small_election():
    # 6 candidates over two groups; a mix of ATL and BTL ballots
    meta = ElectionMeta(
        "small", 1,
        (Group("A", "Alpha"), Group("B", "Beta")),
        (
            Candidate("a1", "", "A", 1), Candidate("a2", "", "A", 2), Candidate("a3", "", "A", 3),
            Candidate("b1", "", "B", 1), Candidate("b2", "", "B", 2), Candidate("b3", "", "B", 3),
        ),
    )
    sheets = (
        MarkSheet({"A": "1"}, {}, 300),
        MarkSheet({"B": "1", "A": "2"}, {}, 260),
        MarkSheet({}, marks_for_ranking(["b1", "b2", "b3", "a1", "a2", "a3"]), 200),
        MarkSheet({}, {"a1": "1"}, 40),  # informal at the default 6-pref rule
    )
    return ElectionFile(meta, sheets)


class TestRunSweep:
    def test_baseline_winner_has_frequency_one(self, small_election):
        config = SimConfig(base_seed=7, runs_per_point=5, model="digit", rates=())
        report = run_sweep(small_election, config)
        (point,) = report.points
        assert point.rate == 0.0
        assert point.no_result_runs == 0
        assert len(point.winner_sets) == 1
        ((winners, runs),) = point.winner_sets.items()
        assert runs == 5
        assert point.candidate_frequency(winners[0]) == 1.0

    def test_grid_shape(self, small_election):
        config = SimConfig(base_seed=7, runs_per_point=2, model="digit",
                           rates=(0.0, 1.0), btl_required_grid=(6, 1))
        report = run_sweep(small_election, config)
        assert len(report.points) == 4  # 2 rates x 2 variants
        assert [(p.rate, p.btl_required) for p in report.points] == [
            (0.0, 6), (1.0, 6), (0.0, 1), (1.0, 1)]

    def test_repeated_variants_and_rates_run_once(self, small_election):
        once = SimConfig(base_seed=7, runs_per_point=3, model="digit", rates=(0.1,))
        twice = SimConfig(base_seed=7, runs_per_point=3, model="digit",
                          rates=(0.1, 0.0, 0.1), btl_required_grid=(6, 6))
        assert twice.rates == (0.1,) and twice.btl_required_grid == (6,)
        assert run_sweep(small_election, twice).to_json_dict() == run_sweep(small_election, once).to_json_dict()

    def test_frequencies_sum_to_one(self, small_election):
        config = SimConfig(base_seed=3, runs_per_point=40, model="digit", rates=(0.3,))
        report = run_sweep(small_election, config)
        for p in report.points:
            total = sum(p.winner_set_frequencies.values()) + p.no_result_frequency
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_informal_runs_recorded_not_resampled(self, small_election):
        # truncation at rate 1 kills every ballot: every run is a no-result
        config = SimConfig(base_seed=1, runs_per_point=10, model="truncation", rates=(1.0,))
        report = run_sweep(small_election, config)
        point = report.point(1.0)
        assert point.no_result_runs == 10
        assert point.winner_sets == {}

    def test_reproducible_and_schedule_independent(self, small_election):
        config = dict(base_seed=11, runs_per_point=12, model="digit", rates=(0.02,))
        serial = run_sweep(small_election, SimConfig(**config, jobs=1))
        parallel = run_sweep(small_election, SimConfig(**config, jobs=3))
        import json

        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            parallel.to_json_dict(), sort_keys=True
        )
        for a, b in zip(serial.points, parallel.points):
            assert np.array_equal(a.formal_runs_per_ballot, b.formal_runs_per_ballot)
            assert np.array_equal(a.atl_formal_by_run, b.atl_formal_by_run)

    def test_import_leaves_multiprocessing_unloaded(self):
        # Only a sweep with jobs > 1 needs the process pool.
        src = str(Path(sim.__file__).parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import stvsim; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_atl_formality_dominates_btl(self, small_election):
        config = SimConfig(base_seed=5, runs_per_point=60, model="digit", rates=(0.01, 0.05))
        report = run_sweep(small_election, config)
        for rate in (0.01, 0.05):
            p = report.point(rate)
            diff = p.atl_formal_by_run / p.atl_ballots - p.btl_formal_by_run / p.btl_ballots
            sigma = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() > 3 * sigma

    def test_matched_rules_close_the_formality_gap(self, small_election):
        # with 1 required preference each way and single-digit ranks, the two
        # styles' single-preference ballots survive at the same rate
        meta = small_election.meta
        sheets = (MarkSheet({"A": "1"}, {}, 500), MarkSheet({}, {"b1": "1"}, 500))
        election = ElectionFile(meta, sheets)
        config = SimConfig(base_seed=9, runs_per_point=400, model="digit",
                           rates=(0.05,), btl_required_grid=(1,))
        p = run_sweep(election, config).point(0.05)
        diff = p.atl_formal_by_run / p.atl_ballots - p.btl_formal_by_run / p.btl_ballots
        sigma = max(diff.std(ddof=1) / math.sqrt(len(diff)), 1e-9)
        assert abs(diff.mean()) < 3 * sigma

    def test_bias_fixture_flips_at_two_percent(self):
        from stvsim.synth import formality_bias_election

        election = formality_bias_election()
        config = SimConfig(base_seed=18, runs_per_point=60, model="digit", rates=(0.02,))
        report = run_sweep(election, config)
        baseline_set = next(iter(report.point(0.0).winner_sets))
        flipped = report.point(0.02)
        changed = sum(
            runs for winners, runs in flipped.winner_sets.items() if winners != baseline_set
        )
        assert changed / flipped.runs > 0.95

    def test_confusion_family_uses_matrix_point(self, small_election):
        from stvsim import BUNDLED_CONFUSION_TABLE, load_confusion_table

        table = load_confusion_table(BUNDLED_CONFUSION_TABLE)
        config = SimConfig(base_seed=2, runs_per_point=3, model="confusion", confusion=table)
        report = run_sweep(small_election, config)
        assert len(report.points) == 2
        assert report.points[0].rate == 0.0
        assert report.points[1].rate == pytest.approx(table.mean_change_rate)

    def test_validation(self, small_election):
        with pytest.raises(SimError):
            SimConfig(base_seed=1, runs_per_point=0)
        with pytest.raises(SimError):
            SimConfig(base_seed=1, model="confusion")
        with pytest.raises(SimError):
            SimConfig(base_seed=1, rates=(1.5,))
        table = ConfusionModel(np.eye(10))
        with pytest.raises(SimError, match="takes no rates"):
            SimConfig(base_seed=1, model="confusion", confusion=table, rates=(0.01,))
        for model in ("digit", "truncation"):
            with pytest.raises(SimError, match="only with the confusion model"):
                SimConfig(base_seed=1, model=model, rates=(0.01,), confusion=table)

    def test_seeds_outside_64_bits_are_refused(self, small_election):
        # Seeds are hashed modulo 2^64: -1 would read as 2^64 - 1, and 2^64 as 0.
        for seed in (-1, 1 << 64):
            with pytest.raises(SimError, match=r"base seed must lie in \[0, 2\^64\)"):
                SimConfig(base_seed=seed)
            with pytest.raises(SimError, match="base seed"):
                formality_rate_report(small_election, UniformDigitModel(0.1), 1, base_seed=seed)
        for seed in (0, (1 << 64) - 1):
            assert SimConfig(base_seed=seed, runs_per_point=1).base_seed == seed


class TestFormalityRateReport:
    def test_zero_rate_gives_rate_one(self, small_election):
        report = formality_rate_report(small_election, UniformDigitModel(0.0), 20, base_seed=4)
        formal = report.style_codes >= 0
        assert np.all(report.ballot_formality_rates[formal] == 1.0)

    def test_single_digit_atl_matches_analytic(self):
        meta = ElectionMeta(
            "one", 1, (Group("A", ""), Group("B", "")),
            (Candidate("a1", "", "A", 1), Candidate("b1", "", "B", 1)),
        )
        election = ElectionFile(meta, (MarkSheet({"A": "1"}, {}, 4000),))
        eps = 0.1
        report = formality_rate_report(election, UniformDigitModel(eps), 50, base_seed=8)
        p = 1 - 0.9 * eps
        observed = report.ballot_formality_rates[report.style_codes == 0]
        sigma = math.sqrt(p * (1 - p) / (50 * len(observed)))
        assert abs(observed.mean() - p) < 3 * sigma

    def test_six_pref_btl_bounded_by_enumeration(self, small_election):
        # every single-digit error breaks a 1..6 ranking, so the formality
        # rate sits between (1-0.9e)^6 and (1-0.9e)^6 plus the mass of
        # multi-error events
        from oracles import enumerate_digit_errors
        from stvsim import interpret_marks

        digits = "123456"
        formal_single_errors = 0
        for n_errors, mutated in enumerate_digit_errors(digits, 1):
            if n_errors == 0:
                continue
            marks = {f"c{i+1}": mutated[i] for i in range(6)}
            ranking = interpret_marks({b: int(m) for b, m in marks.items()})
            if len(ranking) >= 6:
                formal_single_errors += 1
        assert formal_single_errors == 0

        eps = 0.02
        q = 1 - 0.9 * eps
        runs = 400
        report = formality_rate_report(small_election, UniformDigitModel(eps), runs, base_seed=13)
        btl = report.ballot_formality_rates[report.style_codes == 1]
        lower = q**6
        upper = q**6 + (1 - q**6 - 6 * 0.9 * eps * q**5)  # + P(>= 2 effective errors)
        n = runs * len(btl)
        sigma = math.sqrt(lower * (1 - lower) / n)
        assert btl.mean() >= lower - 3 * sigma
        assert btl.mean() <= upper + 3 * sigma


class TestTruncationStats:
    def test_zero_rate_preserves_counts(self, small_election):
        stats = formality_rate_report(small_election, UniformDigitModel(0.0), 5, base_seed=1).mean_surviving
        assert stats == {1: 1.0, 2: 2.0, 6: 6.0}

    def test_ten_pref_ballots_keep_almost_ten(self):
        election = truncation_ladder_election(long_ballots=1, short_ballots=1500)
        stats = formality_rate_report(election, UniformDigitModel(0.01), 120, base_seed=6).mean_surviving
        assert abs(stats[10] - 10) <= 1.0  # "almost 10": within one preference

    def test_sixty_pref_ballots_lose_heavily(self):
        election = truncation_ladder_election(long_ballots=1500, short_ballots=1)
        stats = formality_rate_report(election, UniformDigitModel(0.01), 120, base_seed=6).mean_surviving
        assert stats[60] < 45  # severe truncation, unlike the 10-pref bucket


class TestPartition:
    def test_partition_cells(self, small_election):
        table = partition_by_preference(small_election, "a1", "b1")
        # ATL: 300 prefer A(a1), 260 prefer B(b1); BTL: 200 prefer b1
        assert table.atl == (300, 260, 0)
        assert table.btl == (0, 200, 0)
        assert table.total == 760  # equals the number of formal ballots

    def test_neither_cell(self, small_election):
        meta = small_election.meta
        sheets = (MarkSheet({"A": "1"}, {}, 5),)
        election = ElectionFile(meta, sheets)
        table = partition_by_preference(election, "b1", "b2")  # same group: neither
        assert table.atl == (0, 0, 5)

    def test_distinct_candidates_required(self, small_election):
        with pytest.raises(BallotError):
            partition_by_preference(small_election, "a1", "a1")


class TestHistograms:
    def test_known_rank_multiset(self, small_election):
        meta = small_election.meta
        sheets = (
            MarkSheet({}, {"b1": "1"}, 1),
            MarkSheet({}, {"b1": "1", "b2": "2"}, 1),
            MarkSheet({}, {"b2": "1", "b1": "2"}, 1),
            MarkSheet({}, marks_for_ranking(["b3", "b2", "a1", "a2", "b1", "a3"]), 1),
        )
        election = ElectionFile(meta, sheets)
        rules = FormalityRules(btl_required_prefs=1)
        hist = preference_position_histogram(election, "b1", rules)
        assert hist["BTL"] == {1: 2, 2: 1, 5: 1}
        assert hist["ATL"] == {}

    def test_never_ranked_is_empty(self, small_election):
        meta = small_election.meta
        election = ElectionFile(meta, (MarkSheet({"A": "1"}, {}, 3),))
        hist = preference_position_histogram(election, "b1")
        assert hist == {"ATL": {}, "BTL": {}}

    def test_atl_uses_group_rank(self, small_election):
        hist = preference_position_histogram(small_election, "b2")
        assert hist["ATL"] == {1: 260}  # group B ranked first on 260 ballots
        assert hist["BTL"] == {2: 200}


class TestReportSerialisation:
    def test_write_report_is_deterministic(self, small_election, tmp_path):
        config = SimConfig(base_seed=21, runs_per_point=8, model="digit", rates=(0.05,))
        report = run_sweep(small_election, config)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        names1 = write_report(report, d1, ballot_rates=True)
        names2 = write_report(run_sweep(small_election, config), d2, ballot_rates=True)
        assert names1 == names2
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_headers(self, small_election, tmp_path):
        config = SimConfig(base_seed=21, runs_per_point=2, model="digit", rates=())
        write_report(run_sweep(small_election, config), tmp_path)
        assert (tmp_path / "winners.csv").read_text().splitlines()[0] == \
            "model,rate,btl_required,candidate,wins,frequency"
        assert (tmp_path / "report.json").exists()

    def test_no_formal_atl_ballot_writes_empty_atl_formality(self, small_election, tmp_path):
        # And, the other way round, no formal BTL ballot leaves the BTL mean empty.
        config = SimConfig(base_seed=21, runs_per_point=2, model="digit", rates=(0.05,))
        for sheets, ballots, style in (
            (small_election.sheets[2:], ["0", "200"], "atl"),  # BTL sheets only
            (small_election.sheets[:2], ["560", "0"], "btl"),  # ATL sheets only
        ):
            write_report(run_sweep(ElectionFile(small_election.meta, sheets), config), tmp_path / style)
            header, *rows = (tmp_path / style / "formality.csv").read_text().splitlines()
            table = [dict(zip(header.split(","), row.split(","))) for row in rows]
            assert [[r["atl_ballots"], r["btl_ballots"], r[f"mean_formality_{style}"]] for r in table] == [
                ballots + [""]] * 2
            points = json.loads((tmp_path / style / "report.json").read_text())["points"]
            assert [p["formality"][f"mean_{style}"] for p in points] == [None, None]


class TestOneCleanCount:
    # Variants 6 and 1 classify the bias fixture alike, so they share one
    # clean count; the mixed fixture reads a 3-preference BTL sheet as ATL
    # under 6 only, so each variant counts its own clean election.
    @pytest.mark.parametrize(
        "fixture, groups, jobs",
        [pytest.param(lambda: formality_bias_election(60, 60), 1, jobs, id=str(jobs)) for jobs in (1, 2)]
        + [pytest.param(mixed_election, 2, jobs, id=f"own-classifications-{jobs}") for jobs in (1, 2)],
    )
    def test_count_builds_do_not_depend_on_jobs(self, monkeypatch, tmp_path, fixture, groups, jobs):
        # Patched before the pool forks, so workers log their builds too.
        log = tmp_path / "builds"
        init = count._Count.__init__

        def logged(self, *args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(".")
            init(self, *args)

        monkeypatch.setattr(count._Count, "__init__", logged)
        config = SimConfig(base_seed=1, runs_per_point=8, model="digit", rates=(0.01,),
                           btl_required_grid=(6, 1), jobs=jobs)
        election = fixture()
        assert len(sim._prepare(election, map(config.rules_for, (6, 1)))) == groups
        run_sweep(election, config)
        assert len(log.read_text()) == groups + 2 * 8  # one clean count per group, one per run and variant


class TestCheckedRankings:
    """The count takes each sheet's ranking as ``_prepare`` built it from the one classification pass."""

    @pytest.mark.parametrize("model", ["digit", "truncation"])
    @pytest.mark.parametrize(
        "fixture",
        [mixed_election, lambda: formality_bias_election(60, 60)],
        ids=["own-classifications", "shared-classification"],
    )
    def test_a_sweep_calls_no_classify_expand_or_preferences_build(self, monkeypatch, fixture, model):
        election = fixture()
        config = SimConfig(base_seed=7, runs_per_point=6, model=model, rates=(0.2, 0.4), btl_required_grid=(6, 1),
                           track_candidates=("a1",))
        prepared, calls, reread = [], Counter(), []
        prepare, post_init, interpret = sim._prepare, Preferences.__post_init__, sim.interpret_marks

        def logged_prepare(*args):
            groups = prepare(*args)
            prepared.extend(groups)
            return groups

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def counting_interpret(marks):
            reread.append(marks)
            return interpret(marks)

        monkeypatch.setattr(sim, "_prepare", logged_prepare)
        monkeypatch.setattr(Preferences, "__post_init__", counted("Preferences", post_init))
        for module in (ballots, count, error_models, sim):
            for name in ("classify_formality", "expand_to_candidates"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(sim, "interpret_marks", counting_interpret)
        run_sweep(election, config)
        monkeypatch.undo()

        assert not hasattr(sim, "classify_formality") and not hasattr(sim, "expand_to_candidates")
        assert model == "truncation" or reread  # some ballots moved and were read again
        assert calls == Counter()
        # Each group's rankings are the reference's: the record loop's distinct
        # formal preferences in file order, each expanded once.
        for prep in prepared:
            distinct = dict.fromkeys(
                prefs for sheet in election.sheets if (prefs := classify_formality(sheet, prep.rules[0])) is not None
            )
            assert prep.rankings == [expand_to_candidates(prefs, election.meta) for prefs in distinct]
            assert all(type(ranking) is CandidateRanking for ranking in prep.rankings)
            assert prep.prefix_ends == [
                None if prefs.style is VoteStyle.BTL
                else tuple(accumulate((len(election.meta.candidates_of_group(g)) for g in prefs.ranking), initial=0))
                for prefs in distinct
            ]


class TestCoupledDraws:
    """Every point reads the same draws: ballot i of run r is seeded by (base seed, r, i)."""

    @pytest.mark.parametrize("model", ["digit", "truncation"])
    def test_point_does_not_depend_on_the_other_rates(self, model):
        election = mixed_election()
        a, b = (0.3, 0.1) if model == "digit" else (0.1, 0.3)  # a is the higher rate once and the lower once

        def point_a(rates):
            config = SimConfig(base_seed=31, runs_per_point=5, model=model, rates=rates, btl_required_grid=(6, 1))
            return [
                (p.winner_sets, p.no_result_runs, p.surviving_sums, p.formal_runs_per_ballot.tolist(),
                 p.atl_formal_by_run.tolist(), p.btl_formal_by_run.tolist())
                for p in run_sweep(election, config).points if p.rate == a
            ]

        alone = point_a((a,))
        assert len(alone) == 2  # one point per formality variant
        assert point_a((a, b)) == alone
        assert point_a((b, a)) == alone

    @pytest.mark.parametrize("model", ["digit", "truncation"])
    @pytest.mark.parametrize(
        "fixture",
        [mixed_election, lambda: formality_bias_election(60, 60)],
        ids=["own-classifications", "shared-classification"],
    )
    def test_point_does_not_depend_on_the_other_variants(self, model, fixture):
        election = fixture()
        reports = {
            grid: run_sweep(election, SimConfig(base_seed=31, runs_per_point=5, model=model, rates=(0.1, 0.3),
                                                btl_required_grid=grid))
            for grid in [(6,), (1,), (6, 1), (1, 6)]
        }

        def points_of(variant, grid):
            report = reports[grid]
            return [
                (json.dumps(doc, sort_keys=True), p.formal_runs_per_ballot.tolist(),
                 p.atl_formal_by_run.tolist(), p.btl_formal_by_run.tolist())
                for doc, p in zip(report.to_json_dict()["points"], report.points) if p.btl_required == variant
            ]

        for variant in (6, 1):
            alone = points_of(variant, (variant,))
            assert len(alone) == 3  # the zero-error point and two rates
            assert points_of(variant, (6, 1)) == alone
            assert points_of(variant, (1, 6)) == alone

    def test_lower_rates_change_a_subset(self):
        # 13 preferences: one- and two-digit marks.
        prefs = Preferences(VoteStyle.BTL, tuple(f"c{i}" for i in range(1, 14)))
        sheet = marks_from_preferences(prefs)
        order = sorted(sheet.btl_marks)
        digits = np.array([int(ch) for box in order for ch in sheet.btl_marks[box]], dtype=np.uint8)
        rates = (0.4, 0.05, 0.2, 1.0)
        models = [UniformDigitModel(r) for r in rates]
        n, d = 40, len(digits)
        for run in range(3):
            seeds = seed_vector((12, run), 0, n)
            plan = DrawPlan(np.full(n, d), draw_stride(models))
            model, ballot, position, new = corrupt_digits_batch(digits, np.zeros(n, dtype=np.int64), plan, models, seeds)
            rows = np.tile(digits, (len(rates), n, 1))
            rows[model, ballot, position] = new
            lengths = truncation_lengths_batch(DrawPlan(np.full(n, len(prefs.ranking))), rates, seeds)
            for i, seed in enumerate(seeds.tolist()):
                for j, rate in enumerate(rates):  # each row is the scalar path's outcome at its rate
                    scalar = apply_digit_model(sheet, rate, RandomStream(seed))
                    assert rows[j, i].tolist() == [int(ch) for box in order for ch in scalar.btl_marks[box]]
                    assert lengths[j, i] == len(apply_truncation_model(prefs, rate, RandomStream(seed)))
                for low, high in pairwise(sorted(range(len(rates)), key=rates.__getitem__)):
                    changed = rows[low, i] != digits
                    assert not (changed & (rows[high, i] == digits)).any()
                    assert np.array_equal(rows[low, i][changed], rows[high, i][changed])
                    assert lengths[high, i] <= lengths[low, i]

    @pytest.mark.parametrize(
        "fixture",
        [mixed_election, lambda: formality_bias_election(60, 60)],
        ids=["own-classifications", "shared-classification"],
    )
    def test_a_run_that_changes_nothing_returns_the_clean_ballots(self, fixture):
        election = fixture()
        rules = [FormalityRules(btl_required_prefs=v) for v in (6, 1)]
        models = [UniformDigitModel(1e-12), UniformDigitModel(2e-12)]
        seeds = seed_vector((5, 0), 0, election.total_ballots)
        for prep in sim._prepare(election, rules):
            rows = list(sim._perturb_run(prep, models, sim._draw_plan(prep, models), seeds))
            assert len(rows) == len(prep.rules) * len(models)
            for changed, lengths, ballots in rows:
                assert len(changed) == len(lengths) == 0
                assert ballots == list(zip(prep.rankings, prep.papers))

    @pytest.mark.parametrize(
        "model",
        [UniformDigitModel(0.005), TruncationModel(0.005), load_confusion_table(BUNDLED_CONFUSION_TABLE)],
        ids=["digit", "truncation", "confusion"],
    )
    def test_a_run_holds_less_than_one_array_over_the_sheet_prefix_keys(self, model):
        # 4,000 distinct 58-preference BTL sheets, one paper each: a run's
        # working memory follows the ballots it changed, not the
        # sum(n_boxes + 1) (sheet, prefix length) keys of the election.
        candidates = tuple(Candidate(f"c{i:02d}", "", "G", i) for i in range(1, 59))
        meta = ElectionMeta("wide", 12, (Group("G", "G"),), candidates)
        rng = random.Random(16)
        ids = list(meta.candidate_ids)
        rankings = list(dict.fromkeys(tuple(rng.sample(ids, len(ids))) for _ in range(4000)))
        assert len(rankings) == 4000
        election = ElectionFile(meta, tuple(MarkSheet({}, marks_for_ranking(r), 1) for r in rankings))
        (prep,) = sim._prepare(election, [FormalityRules()])
        key_array = int((prep.n_boxes + 1).sum()) * np.dtype(np.int64).itemsize
        seeds = seed_vector((3, 0), 0, election.total_ballots)
        # Untraced warm-up, so the reading starts from the same free lists in any test order.
        for _ in sim._perturb_run(prep, [model], sim._draw_plan(prep, [model]), seeds):
            pass
        tracemalloc.start()
        try:
            rows = 0
            plan = sim._draw_plan(prep, [model])  # built once per task; counted here
            for changed, _, _ in sim._perturb_run(prep, [model], plan, seeds):
                assert len(changed) > 0
                rows += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 1
        assert peak < key_array, (peak, key_array)

    @pytest.mark.parametrize("family", ["truncation", "digit"])
    def test_a_tasks_memory_does_not_grow_with_its_runs(self, family):
        # 2,000 distinct 30-preference BTL sheets, one paper each: most of a
        # run's cut rankings are new, so a task that kept them past their row
        # would peak about 3.7x higher at 20 runs than at 2.
        candidates = tuple(Candidate(f"c{i:02d}", "", f"G{i // 5}", i % 5 + 1) for i in range(30))
        meta = ElectionMeta("wide", 5, tuple(Group(f"G{g}", f"G{g}") for g in range(6)), candidates)
        rng = random.Random(28)
        ids = list(meta.candidate_ids)
        rankings = list(dict.fromkeys(tuple(rng.sample(ids, len(ids))) for _ in range(2000)))
        assert len(rankings) == 2000
        election = ElectionFile(meta, tuple(MarkSheet({}, marks_for_ranking(r), 1) for r in rankings))
        (prep,) = sim._prepare(election, [FormalityRules()])
        points = sim._build_points(SimConfig(base_seed=11, runs_per_point=20, model=family, rates=(0.05,)))[1:]
        task = (prep, meta, CountRules(), points, 11, 0, 2)
        sim._run_chunk(task)  # untraced warm-up, so both readings start from the same free lists
        peaks = []
        for runs in (2, 20):
            tracemalloc.start()
            try:
                sim._run_chunk((prep, meta, CountRules(), points, 11, 0, runs))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("block_digits", [sim.BLOCK_DIGITS, 64], ids=["default-blocks", "one-ballot-blocks"])
    @pytest.mark.parametrize(
        "model",
        [UniformDigitModel(0.005), TruncationModel(0.005), HEAVY_CONFUSION],
        ids=["digit", "truncation", "confusion"],
    )
    def test_a_tasks_plans_hold_three_numbers_per_ballot_and_one_step_table(self, model, block_digits, monkeypatch):
        # The ladder's 111-digit BTL ballots each fill a block of their own at 64 digits.
        monkeypatch.setattr(sim, "BLOCK_DIGITS", block_digits)
        (prep,) = sim._prepare(truncation_ladder_election(), [FormalityRules()])
        plan = sim._draw_plan(prep, [model])
        bounds = prep.bounds.tolist()
        assert len(bounds) > 2 and bounds[0] == 0 and bounds[-1] == len(prep.ballot_sheet)
        assert plan.bounds.tolist() == bounds
        words = (prep.n_boxes if isinstance(model, TruncationModel) else prep.n_digits)[prep.ballot_sheet]
        assert plan.sizes.tolist() == words.tolist()
        assert len(plan.steps) == max(int(words[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:]))
        arrays = (plan.sizes, plan.ends, plan.bases, plan.bounds, plan.steps)
        assert sum(a.nbytes for a in arrays) <= 24 * len(prep.ballot_sheet) + 8 * (block_digits + int(words.max()))

    def test_a_variants_points_share_its_arrays_across_workers(self):
        # Variants 6 and 1 classify mixed_election() apart, so each is its own
        # group, and at jobs=2 each point's runs come back from the workers.
        config = SimConfig(
            base_seed=4, runs_per_point=4, model="digit", rates=(0.05, 0.2), btl_required_grid=(6, 1), jobs=2
        )
        report = run_sweep(mixed_election(), config)
        for variant in (6, 1):
            first, *rest = [p for p in report.points if p.btl_required == variant]
            assert len(rest) == 2
            for p in rest:
                assert p.style_codes is first.style_codes and p.orig_prefs is first.orig_prefs
                assert p.bucket_counts == first.bucket_counts
        assert report.point(0.0, 6).style_codes is not report.point(0.0, 1).style_codes

    def test_uneven_chunks_give_the_same_report(self, tmp_path):
        # 13 runs at jobs=3 are chunks of 5, 5 and 3.
        election = truncation_ladder_election(long_ballots=40, short_ballots=40)
        config = dict(base_seed=17, runs_per_point=13, model="truncation", rates=(0.02, 0.005, 0.01))
        for jobs in (1, 3):
            write_report(run_sweep(election, SimConfig(**config, jobs=jobs)), tmp_path / str(jobs))
        assert (tmp_path / "3" / "report.json").read_bytes() == (tmp_path / "1" / "report.json").read_bytes()


class TestDigitStore:
    @pytest.mark.parametrize(
        "model, scalar",
        [
            (UniformDigitModel(0.5), lambda sheet, stream: apply_digit_model(sheet, 0.5, stream)),
            (HEAVY_CONFUSION, lambda sheet, stream: apply_confusion_model(sheet, HEAVY_CONFUSION, stream)),
        ],
        ids=["digit", "confusion"],
    )
    def test_changed_boxes_match_the_scalar_marks_up_to_three_digits(self, model, scalar):
        # A 110-preference BTL sheet writes one-, two- and three-digit marks.
        groups = tuple(Group(f"G{g:02d}", "") for g in range(11))
        candidates = tuple(Candidate(f"c{i:03d}", "", f"G{i // 10:02d}", i % 10 + 1) for i in range(110))
        meta = ElectionMeta("wide", 12, groups, candidates)
        rng = random.Random(20)
        ranking = rng.sample(list(meta.candidate_ids), 110)
        election = ElectionFile(meta, (
            MarkSheet({}, marks_for_ranking(ranking), 100),
            MarkSheet(marks_for_ranking(rng.sample([g.id for g in groups], 11)), {}, 100),
        ))
        (prep,) = sim._prepare(election, [FormalityRules()])
        # the record loop's distinct formal sheets, in first-record order: the order of prep's sheet ids
        sheets = list(dict.fromkeys(p for sheet in election.sheets if (p := classify_formality(sheet)) is not None))
        assert prep.rankings == [expand_to_candidates(prefs, meta) for prefs in sheets]
        seeds = seed_vector((20, 0), 0, election.total_ballots)
        plan = DrawPlan(prep.n_digits[prep.ballot_sheet], draw_stride([model]))  # one block of every ballot
        row, rank, new = sim._changed_boxes(prep, [model], plan, seeds[prep.ballot_index])
        expected = set()
        for ballot, (i, s) in enumerate(zip(prep.ballot_index.tolist(), prep.ballot_sheet.tolist())):
            clean = marks_from_preferences(sheets[s])
            mutated = scalar(clean, RandomStream(int(seeds[i])))
            for old, changed in ((clean.atl_marks, mutated.atl_marks), (clean.btl_marks, mutated.btl_marks)):
                expected |= {(ballot, int(old[box]), int(changed[box])) for box in old if changed[box] != old[box]}
        assert set(zip(row.tolist(), rank.tolist(), new.tolist())) == expected
        assert len(row) == len(expected)
        assert any(r >= 100 and r // 100 != v // 100 for _, r, v in expected)  # a changed hundreds digit


@st.composite
def changed_boxes(draw):
    """Ballots of 1-12 preferences, each with a set of changed boxes (by rank) and their new values."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    ballot, rank, value = [], [], []
    for b, n in enumerate(counts):
        for r in sorted(draw(st.sets(st.integers(1, n), max_size=n))):
            ballot.append(b)
            rank.append(r)
            value.append(draw(st.one_of(st.integers(0, n + 2), st.integers(100, 999)).filter(lambda v: v != r)))
    return counts, ballot, rank, value


@settings(max_examples=300, deadline=None)
@given(changed_boxes())
def test_cut_prefixes_read_the_changed_boxes_as_interpret_marks_does(boxes):
    counts, ballot, rank, value = boxes
    prefix = np.array(counts, dtype=np.int64)
    sim._cut_prefixes(prefix, np.array(ballot, dtype=np.int64), np.array(rank), np.array(value))
    for b, n in enumerate(counts):
        marks = {r: r for r in range(1, n + 1)}  # each box by its clean value
        marks.update((r, v) for owner, r, v in zip(ballot, rank, value) if owner == b)
        assert prefix[b] == len(interpret_marks(marks)), b


class TestCollector:
    @pytest.mark.parametrize("family", ["digit", "truncation", "confusion"])
    def test_a_sweep_leaves_no_cyclic_garbage(self, family):
        # A task runs with the collector off, so a reference cycle made
        # inside one would stay until the next collection.
        election = formality_bias_election(60, 60) if family == "digit" else truncation_ladder_election(20, 20)
        config = SimConfig(
            base_seed=5, runs_per_point=3, model=family, btl_required_grid=(6, 1),
            rates=() if family == "confusion" else (0.05, 0.2),
            confusion=HEAVY_CONFUSION if family == "confusion" else None,
        )
        gc.collect()
        report = run_sweep(election, config)
        assert gc.collect() == 0
        assert report.points[1].formal_runs_per_ballot.sum() < report.points[0].formal_runs_per_ballot.sum()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_a_task_restores_the_collectors_state_when_a_count_fails(self, small_election, monkeypatch, enabled):
        during = []

        def fail(self, rec):
            during.append(gc.isenabled())
            raise CountInvariantError("injected fault", self.transcript)

        monkeypatch.setattr(count._Count, "_check_conservation", fail)
        config = SimConfig(base_seed=3, runs_per_point=2, model="digit", rates=(0.5,))
        points = sim._build_points(config)
        (prep,) = sim._prepare(small_election, [config.rules_for(6)])
        caller = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for task in (points[:1], points[1:]):  # the zero-error task, then a perturbed one
                with pytest.raises(CountInvariantError, match="injected fault"):
                    sim._run_chunk((prep, small_election.meta, CountRules(), task, 3, 0, 2))
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if caller else gc.disable)()
        assert during == [False, False]


class TestCountFailureContext:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_point_run_and_seed(self, small_election, monkeypatch, jobs):
        clean_total = sum(papers for _, papers in formal_ballots(small_election))
        check = count._Count._check_conservation

        def fail_when_perturbed(self, rec):
            if self.total != clean_total:
                raise CountInvariantError("injected fault", self.transcript)
            check(self, rec)

        monkeypatch.setattr(count._Count, "_check_conservation", fail_when_perturbed)
        config = SimConfig(base_seed=3, runs_per_point=4, model="digit", rates=(0.5,), jobs=jobs)
        with pytest.raises(CountInvariantError, match=r"^grid point 1, run 0, base seed 3: injected fault$") as info:
            run_sweep(small_election, config)
        assert info.value.transcript.rounds  # it crossed the process boundary at jobs=2

    def test_zero_error_point_names_its_first_run(self, small_election, monkeypatch):
        def fail(self, rec):
            raise CountInvariantError("injected fault", self.transcript)

        monkeypatch.setattr(count._Count, "_check_conservation", fail)
        config = SimConfig(base_seed=3, runs_per_point=4)
        (point,) = sim._build_points(config)
        (prep,) = sim._prepare(small_election, [config.rules_for(6)])
        chunk = (prep, small_election.meta, CountRules(), [point], 3, 2, 4)
        with pytest.raises(CountInvariantError, match=r"^grid point 0, run 2, base seed 3: "):
            sim._run_chunk(chunk)


class TestOneClassificationPass:
    def test_sweep_classifies_every_record_and_variant_in_one_pass(self, small_election, monkeypatch):
        passes, scalar = [], []
        classify = sim._classify

        def counting_pass(meta, sheets, variants):
            passes.append(list(variants))
            return classify(meta, sheets, variants)

        def counting_scalar(sheet, rules=None):
            scalar.append(sheet)
            return classify_formality(sheet, rules)

        monkeypatch.setattr(sim, "_classify", counting_pass)
        monkeypatch.setattr(ballots, "classify_formality", counting_scalar)
        monkeypatch.setattr(error_models, "classify_formality", counting_scalar)
        config = SimConfig(
            base_seed=3, runs_per_point=2, model="digit", rates=(0.1,),
            btl_required_grid=(6, 1), track_candidates=("a1", "b1"),
        )
        report = run_sweep(small_election, config)
        assert passes == [[config.rules_for(6), config.rules_for(1)]]
        assert scalar == []
        assert not hasattr(sim, "classify_formality")
        monkeypatch.undo()
        assert report.position_histograms == {
            cid: {v: preference_position_histogram(small_election, cid, config.rules_for(v)) for v in (6, 1)}
            for cid in ("a1", "b1")
        }

    def test_unknown_tracked_candidate_fails_before_any_run(self, small_election, monkeypatch):
        def no_runs(args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(sim, "_run_chunk", no_runs)
        config = SimConfig(base_seed=3, runs_per_point=2, model="digit", rates=(0.1,), track_candidates=("zz",))
        with pytest.raises(BallotError, match="zz"):
            run_sweep(small_election, config)

    @pytest.mark.parametrize("btl_required", [6, 1])
    def test_formal_ballots_merge_the_record_loop(self, btl_required):
        election = mixed_election()
        rules = FormalityRules(btl_required_prefs=btl_required)
        merged = Counter()
        formal = 0
        for sheet in election.sheets:
            prefs = classify_formality(sheet, rules)
            if prefs is not None:
                merged[prefs] += sheet.multiplicity
                formal += sheet.multiplicity
        ballots = formal_ballots(election, rules)
        assert ballots == [(expand_to_candidates(prefs, election.meta), papers) for prefs, papers in merged.items()]
        assert all(type(ranking) is CandidateRanking for ranking, _ in ballots)
        assert sum(papers for _, papers in ballots) == formal
        # each distinct sheet keeps its style: an ATL sheet has prefix ends, a BTL sheet None
        (prep,) = sim._prepare(election, [rules])
        assert [ends is None for ends in prep.prefix_ends] == [prefs.style is VoteStyle.BTL for prefs in merged]

    @pytest.mark.parametrize("btl_required", [6, 1])
    def test_count_command_matches_record_loop(self, btl_required, tmp_path):
        election = mixed_election()
        path = tmp_path / "mixed.stv"
        write_election_file(election, path)
        assert len(read_election_file(path).sheets) == len(election.sheets)
        out = tmp_path / "count"
        args = ["count", "--election", str(path), "--btl-required", str(btl_required), "--out", str(out)]
        assert main(args) == EXIT_OK
        rules = FormalityRules(btl_required_prefs=btl_required)
        records = [
            (expand_to_candidates(prefs, election.meta), sheet.multiplicity)
            for sheet in election.sheets
            if (prefs := classify_formality(sheet, rules)) is not None
        ]
        assert len(records) > len(formal_ballots(election, rules))  # a repeated record is merged
        _, transcript = count_stv(records, election.meta)
        assert (out / "transcript.txt").read_text(encoding="utf-8") == transcript.to_text()

    def test_count_command_expands_no_sheet_and_builds_no_preferences(self, tmp_path, monkeypatch):
        path = tmp_path / "mixed.stv"
        write_election_file(mixed_election(), path)
        calls = Counter()
        post_init = Preferences.__post_init__

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Preferences, "__post_init__", counted("Preferences", post_init))
        for module in (ballots, count, sim):
            for name in ("classify_formality", "expand_to_candidates"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert main(["count", "--election", str(path), "--out", str(tmp_path / "count")]) == EXIT_OK
        monkeypatch.undo()
        assert calls == Counter()

    def test_count_command_seat_override_counts_the_record_loop_for_those_seats(self, tmp_path):
        election = mixed_election()
        path = tmp_path / "mixed.stv"
        write_election_file(election, path)
        out = tmp_path / "count"
        assert main(["count", "--election", str(path), "--seats", "5", "--out", str(out)]) == EXIT_OK
        records = [
            (expand_to_candidates(prefs, election.meta), sheet.multiplicity)
            for sheet in election.sheets
            if (prefs := classify_formality(sheet)) is not None
        ]
        winners, transcript = count_stv(records, dataclasses.replace(election.meta, seats=5))
        assert len(winners) == 5 != election.meta.seats
        assert (out / "winners.txt").read_text(encoding="utf-8") == "\n".join(winners) + "\n"
        assert (out / "transcript.txt").read_text(encoding="utf-8") == transcript.to_text()
