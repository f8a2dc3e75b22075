import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stvsim
from stvsim import (
    MarkSheet,
    StatsError,
    VoteStyle,
    binomial_estimate,
    digit_budget,
    repeated_and_skipped_table,
)
from stvsim.stats import anomaly_table_csv


class TestBinomialEstimate:
    def test_audit_sample_estimate(self):
        # 4 errors in 9,060 verified digits
        assert binomial_estimate(4, 9060).as_percent_string() == "0.04% (0.01%, 0.11%)"

    def test_colleague_experiment_estimate(self):
        # 3 single-digit errors in 2,325 digits
        assert binomial_estimate(3, 2325).as_percent_string() == "0.13% (0.03%, 0.38%)"

    def test_zero_errors_closed_form(self):
        est = binomial_estimate(0, 100)
        assert est.point == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(1 - 0.025 ** (1 / 100), abs=1e-12)

    def test_all_errors_upper_is_one(self):
        est = binomial_estimate(10, 10)
        assert est.ci_high == 1.0
        assert est.ci_low < 1.0

    def test_interval_orders(self):
        for k, n in [(0, 5), (1, 7), (3, 9), (9, 9), (50, 1000)]:
            est = binomial_estimate(k, n)
            assert 0.0 <= est.ci_low <= est.point <= est.ci_high <= 1.0

    def test_monotone_in_errors(self):
        previous = binomial_estimate(0, 500)
        for k in range(1, 60):
            est = binomial_estimate(k, 500)
            assert est.point >= previous.point
            assert est.ci_low >= previous.ci_low
            assert est.ci_high >= previous.ci_high
            previous = est

    def test_coverage_at_small_p(self):
        # Exact Clopper-Pearson never under-covers; at n=1000, p=0.005 the
        # discreteness of k makes the true coverage ~98.1%, well above the
        # nominal 95%.  Check the empirical coverage of 10^4 draws against
        # the exactly computed coverage (independent oracle: binomial pmf).
        from scipy.stats import binom

        n, p, draws = 1000, 0.005, 10_000
        exact = 0.0
        intervals = {}
        for k in range(0, 40):
            est = binomial_estimate(k, n)
            intervals[k] = (est.ci_low, est.ci_high)
            if est.ci_low <= p <= est.ci_high:
                exact += binom.pmf(k, n, p)
        assert exact >= 0.95  # conservatism of the exact interval

        rng = np.random.default_rng(20240817)
        ks = rng.binomial(n, p, size=draws)
        covered = sum(
            intervals[int(k)][0] <= p <= intervals[int(k)][1] for k in ks
        )
        sigma = np.sqrt(exact * (1 - exact) / draws)
        assert abs(covered / draws - exact) < 3 * sigma

    def test_validation(self):
        with pytest.raises(StatsError):
            binomial_estimate(1, 0)
        with pytest.raises(StatsError):
            binomial_estimate(5, 4)


class TestDigitBudget:
    def test_victoria_2019_full_ballot(self):
        assert digit_budget(82, 82) == 155  # 9 + 73*2

    def test_all_single_digit(self):
        assert digit_budget(9, 9) == 9

    def test_three_digit_ranks(self):
        assert digit_budget(150, 150) == 9 + 90 * 2 + 51 * 3

    def test_partial_marking(self):
        assert digit_budget(82, 6) == 6

    def test_validation(self):
        with pytest.raises(StatsError):
            digit_budget(5, 6)
        with pytest.raises(StatsError):
            digit_budget(5, 0)


class TestRepeatedAndSkipped:
    def test_skip_detection(self):
        # 1 present, 2 absent, 3 present -> skipped(2)
        sheet = MarkSheet({}, {"b1": "1", "b2": "3"})
        rows = repeated_and_skipped_table([sheet], VoteStyle.BTL, 3)
        assert [(r.preference, r.repeated, r.skipped) for r in rows] == [
            (1, 0, 0), (2, 0, 1), (3, 0, 0)]

    def test_repeat_detection(self):
        sheet = MarkSheet({}, {"b1": "1", "b2": "1"})
        rows = repeated_and_skipped_table([sheet], VoteStyle.BTL, 2)
        assert rows[0].repeated == 1
        assert rows[0].skipped == 0

    def test_no_zero_needed_before_one(self):
        # no 1, but 2 present: skipped(1) counts without requiring a 0
        sheet = MarkSheet({}, {"b1": "2", "b2": "3"})
        rows = repeated_and_skipped_table([sheet], VoteStyle.BTL, 3)
        assert rows[0].skipped == 1

    def test_multiplicity_weighting_and_order_invariance(self):
        a = MarkSheet({}, {"b1": "1", "b2": "3"}, 4)
        b = MarkSheet({}, {"b1": "1", "b2": "1"}, 2)
        forward = repeated_and_skipped_table([a, b], VoteStyle.BTL, 3)
        reverse = repeated_and_skipped_table([b, a], VoteStyle.BTL, 3)
        assert forward == reverse
        assert forward[1].skipped == 4
        assert forward[0].repeated == 2

    def test_style_selects_marks(self):
        sheet = MarkSheet({"A": "1", "B": "1"}, {"b1": "1"})
        atl = repeated_and_skipped_table([sheet], VoteStyle.ATL, 1)
        btl = repeated_and_skipped_table([sheet], VoteStyle.BTL, 1)
        assert atl[0].repeated == 1
        assert btl[0].repeated == 0

    def test_csv_layout(self):
        sheet = MarkSheet({}, {"b1": "1", "b2": "3"})
        rows = repeated_and_skipped_table([sheet], VoteStyle.BTL, 2)
        assert anomaly_table_csv(rows) == "preference,repeated,skipped\n1,0,0\n2,0,1\n"


def test_import_leaves_scipy_unloaded():
    # scipy.stats takes about a second to import and only binomial_estimate
    # uses it, so importing the package must not load scipy
    src = str(Path(stvsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, stvsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
