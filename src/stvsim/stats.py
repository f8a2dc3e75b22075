"""Error-rate estimation and ballot forensics.

Point estimates for observed error counts come with exact two-sided 95%
Clopper-Pearson intervals (beta quantiles via scipy's regularised
incomplete-beta inverse, accurate well past the 1e-10 we need).  The
forensics table counts repeated and skipped preference numbers in raw
marks, the observable residue of errors that did not invalidate a ballot.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ballots import MarkSheet, VoteStyle


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class RateEstimate:
    errors: int
    trials: int
    point: float
    ci_low: float
    ci_high: float

    def as_percent_string(self) -> str:
        """E.g. ``0.04% (0.01%, 0.11%)`` -- two decimals, in percent."""
        return (
            f"{100 * self.point:.2f}% "
            f"({100 * self.ci_low:.2f}%, {100 * self.ci_high:.2f}%)"
        )


def binomial_estimate(errors: int, trials: int) -> RateEstimate:
    """Binomial point estimate with an exact two-sided 95% Clopper-Pearson interval.

    The lower bound is 0 when no errors were seen and the upper bound is 1
    when every trial erred.
    """
    if trials < 1:
        raise StatsError("trials must be >= 1")
    if not 0 <= errors <= trials:
        raise StatsError(f"errors must be in [0, {trials}], got {errors}")
    # scipy.stats takes about a second to import; only this function needs it
    from scipy.stats import beta

    low = 0.0 if errors == 0 else float(beta.ppf(0.025, errors, trials - errors + 1))
    high = 1.0 if errors == trials else float(beta.ppf(0.975, errors + 1, trials - errors))
    return RateEstimate(errors, trials, errors / trials, low, high)


def digit_budget(candidates: int, prefs_marked: int) -> int:
    """Digits written on a sheet ranking ``prefs_marked`` of ``candidates`` boxes.

    Sum of the decimal lengths of the rank numbers 1..prefs_marked; e.g. a
    fully marked 82-candidate paper carries 9 + 73*2 = 155 digits.
    """
    if not 1 <= prefs_marked <= candidates:
        raise StatsError("need 1 <= prefs_marked <= candidates")
    return sum(len(str(rank)) for rank in range(1, prefs_marked + 1))


@dataclass(frozen=True)
class PreferenceAnomalyRow:
    preference: int
    repeated: int
    skipped: int


def repeated_and_skipped_table(
    sheets: Iterable[MarkSheet],
    style: VoteStyle,
    max_pref: int,
) -> list[PreferenceAnomalyRow]:
    """Count ballots whose raw marks repeat or skip each preference number.

    For preference p, ``repeated`` counts papers marking p on two or more
    boxes; ``skipped`` counts papers with no p but with p+1 present and,
    except for p = 1, with p-1 present.  Counts are weighted by sheet
    multiplicity and use the raw (untruncated) marks of the given style.
    """
    if max_pref < 1:
        raise StatsError("max_pref must be >= 1")
    repeated = [0] * (max_pref + 1)
    skipped = [0] * (max_pref + 1)
    for sheet in sheets:
        marks = sheet.btl_marks if style is VoteStyle.BTL else sheet.atl_marks
        tallies = Counter(map(int, marks.values()))  # boxes per number; 0 is never read
        for p in range(1, max_pref + 1):
            if tallies[p] >= 2:
                repeated[p] += sheet.multiplicity
            if not tallies[p] and tallies[p + 1] and (p == 1 or tallies[p - 1]):
                skipped[p] += sheet.multiplicity
    return [PreferenceAnomalyRow(p, repeated[p], skipped[p]) for p in range(1, max_pref + 1)]


def anomaly_table_csv(rows: Sequence[PreferenceAnomalyRow]) -> str:
    lines = ["preference,repeated,skipped"]
    lines.extend(f"{r.preference},{r.repeated},{r.skipped}" for r in rows)
    return "\n".join(lines) + "\n"
