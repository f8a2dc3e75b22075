"""Checks of a sweep's written outputs against references computed apart from stvsim.

Every reference here is derived from the documented models and the
interpretation rule alone: a box's reading comes from
``tests/oracles.digit_reading_pmf`` (uniform digit model) or from the
normalised columns of the confusion table, parsed here; truncation lengths
come from ``tests/oracles.truncation_length_pmf``, where
``P(L >= k) = (1 - p) ** k``.  None of the package's RNG, corruption,
interpretation or counting code is used.

A ballot that marks 1..k stays formal under a rule that needs ``r``
preferences exactly when each of the numbers 1..r is read from exactly one
box.  ``formal_probability`` computes that probability exactly, swapped
boxes included, by dynamic programming over the subsets of 1..r already
read.

Statistical checks allow 4 standard errors, taken for the whole run: a
run makes K of them, and each allows the number of standard errors whose
two-sided normal tail is 1/K of the tail beyond 4 (4.6-4.7 for K = 14-24).
So a correct program fails a run's checks as rarely as it would fail one
4-SE check.  With 4 SE for each check alone, one seed of ``ladder_models``
failed a check at 4.01 SE among about 500 checks made on correct code.
The winner-frequency check uses the exact binomial interval with the same
tail mass.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import binom, norm

from oracles import digit_reading_pmf, truncation_length_pmf

TAIL = 0.5 * math.erfc(4 / math.sqrt(2))  # one-sided normal tail beyond 4 SE


def load_confusion_columns(path: Path) -> np.ndarray:
    """The confusion table with each column (actual digit) scaled to sum to one."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([0.0 if cell == "-" else float(cell) for cell in line.split()])
    table = np.array(rows)
    return table / table.sum(axis=0)


def confusion_reading_pmf(value: int, columns: np.ndarray) -> np.ndarray:
    """Distribution of the number read from a box marked ``value``: each digit d
    becomes digit i with probability ``columns[i, d]``."""
    pmf = np.ones(1)
    for ch in str(value):
        pmf = np.outer(pmf, columns[:, int(ch)]).reshape(-1)
    return pmf


def formal_probability(pmfs: list, required: int) -> float:
    """P(each of 1..required is read from exactly one box), boxes independent."""
    states = np.zeros(1 << required)
    states[0] = 1.0
    masks = np.arange(1 << required)
    for pmf in pmfs:
        hits = [pmf[w] if w < len(pmf) else 0.0 for w in range(1, required + 1)]
        nxt = states * (1.0 - sum(hits))
        for w, p in enumerate(hits):
            bit = 1 << w
            holder = (masks & bit) != 0
            nxt[holder] += states[masks[holder] ^ bit] * p
        states = nxt
    return float(states[-1])


class Checker:
    """Collects the description of every check that failed.

    Exact checks are decided at once; statistical ones when ``finish`` knows
    how many there are.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0
        self._close: list[tuple[str, float, float, float]] = []
        self._binomial: list[tuple[str, int, int, float]] = []

    def that(self, ok: bool, label: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(label)

    def close(self, label: str, observed: float, expected: float, se: float) -> None:
        self._close.append((label, observed, expected, se))

    def binomial(self, label: str, hits: int, trials: int, p: float) -> None:
        self._binomial.append((label, hits, trials, p))

    def finish(self) -> None:
        """Decide the statistical checks, each at 1/K of the 4-SE tail."""
        tail = TAIL / max(1, len(self._close) + len(self._binomial))
        sigmas = float(norm.isf(tail))
        for label, observed, expected, se in self._close:
            tol = sigmas * se + 1e-12
            self.that(abs(observed - expected) <= tol,
                      f"{label}: observed {observed!r}, reference {expected!r} +/- {tol:.3g} ({sigmas:.2f} SE)")
        for label, hits, trials, p in self._binomial:
            lo, hi = int(binom.ppf(tail, trials, p)), int(binom.isf(tail, trials, p))
            self.that(lo <= hits <= hi, f"{label}: {hits} of {trials}, reference p={p!r} allows {lo}..{hi}")
        self._close.clear()
        self._binomial.clear()


def style_formality(lengths: dict[str, int], p_formal) -> tuple[float, float]:
    """Expected formal share of one style's ballots and the per-run variance of
    its formal count; ``p_formal(k)`` is the chance a k-preference ballot stays formal."""
    total = mean = var = 0.0
    for length, ballots in lengths.items():
        p = p_formal(int(length))
        total += ballots
        mean += ballots * p
        var += ballots * p * (1 - p)
    return mean / total, var


def digit_formal(reading, required: int, longest: int):
    """``p_formal`` for boxes marked 1..k whose readings ``reading(value)`` gives."""
    pmfs = [reading(v) for v in range(1, longest + 1)]
    return lambda k: formal_probability(pmfs[:k], required)


def truncation_kept(n: int, rate: float, required: int) -> tuple[float, float, float]:
    """P(formal), and mean and per-ballot SD of the kept length M = L * 1{L >= required}."""
    kept = [(length, p) for length, p in enumerate(truncation_length_pmf(n, rate)) if length >= required]
    mean = sum(length * p for length, p in kept)
    second = sum(length * length * p for length, p in kept)
    return sum(p for _, p in kept), mean, math.sqrt(max(second - mean * mean, 0.0))


def p_first_beats_second(n_a: int, p_a: float, n_b: int, p_b: float) -> float:
    """P(A > B) for independent A ~ Bin(n_a, p_a) and B ~ Bin(n_b, p_b)."""
    a = np.arange(n_a + 1)
    return float(np.sum(binom.pmf(a, n_a, p_a) * binom.cdf(a - 1, n_b, p_b)))


def check_point(chk: Checker, where: str, point: dict, makeup: dict, required: dict, reading) -> None:
    """Properties every point has, and its formality against the reference.

    ``reading(value)`` gives a box's reading distribution at this point, or
    is None for the truncation model.
    """
    runs, rate = point["runs"], point["rate"]
    form = point["formality"]
    lengths = makeup["lengths"]
    decided = sum(row["runs"] for row in point["winner_sets"])
    chk.that(decided + point["no_result_runs"] == runs, f"{where}: winner-set runs {decided} + no-result runs "
             f"{point['no_result_runs']} != {runs}")
    for style, key in (("ATL", "atl_ballots"), ("BTL", "btl_ballots")):
        chk.that(form[key] == sum(lengths[style].values()), f"{where}: {key} {form[key]} != make-up")
    buckets = Counter()
    for style in ("ATL", "BTL"):
        for n, ballots in lengths[style].items():
            buckets[int(n)] += ballots
    got = {row["original_prefs"]: row["ballots"] for row in point["truncation"]}
    chk.that(got == dict(buckets), f"{where}: truncation buckets differ from the make-up")

    if rate == 0.0:
        for style, key in (("ATL", "mean_atl"), ("BTL", "mean_btl")):
            if lengths[style]:
                chk.that(form[key] == 1.0, f"{where}: {key} {form[key]!r} at the zero-error point")
        chk.that(all(row["mean_surviving"] == row["original_prefs"] for row in point["truncation"]),
                 f"{where}: a list lost preferences at the zero-error point")
        chk.that(len(point["winner_sets"]) == 1, f"{where}: the zero-error point elected more than one winner set")
        return

    for style, key in (("ATL", "mean_atl"), ("BTL", "mean_btl")):
        if not lengths[style]:
            continue
        if reading is None:
            p_formal = lambda k, r=required[style]: truncation_kept(k, rate, r)[0]
        else:
            p_formal = digit_formal(reading, required[style], max(map(int, lengths[style])))
        share, var = style_formality(lengths[style], p_formal)
        n = sum(lengths[style].values())
        chk.close(f"{where}: {key}", form[key], share, math.sqrt(var / runs) / n)

    if reading is None:
        for row in point["truncation"]:
            styles = [s for s in ("ATL", "BTL") if str(row["original_prefs"]) in lengths[s]]
            if len(styles) == 1:
                _, mean, sd = truncation_kept(row["original_prefs"], rate, required[styles[0]])
                chk.close(f"{where}: mean_surviving of {row['original_prefs']}-preference ballots",
                          row["mean_surviving"], mean, sd / math.sqrt(row["ballots"] * runs))


def check_bias_winners(chk: Checker, where: str, point: dict, makeup: dict, required: int) -> None:
    """``a1`` wins exactly when more ATL than BTL ballots survive; ties go to ``b1``."""
    runs, rate = point["runs"], point["rate"]
    wins = {row["candidate"]: row["wins"] for row in point["candidates"]}
    if rate == 0.0:
        chk.that(wins.get("b1", 0) == runs, f"{where}: b1 won {wins.get('b1', 0)} of {runs} clean runs")
        return
    reading = lambda v: digit_reading_pmf(v, rate)
    atl, btl = makeup["lengths"]["ATL"], makeup["lengths"]["BTL"]
    n_atl, n_btl = sum(atl.values()), sum(btl.values())
    p_atl, _ = style_formality(atl, digit_formal(reading, 1, max(map(int, atl))))
    p_btl, _ = style_formality(btl, digit_formal(reading, required, max(map(int, btl))))
    chk.binomial(f"{where}: a1 wins", wins.get("a1", 0), runs, p_first_beats_second(n_atl, p_atl, n_btl, p_btl))


def check_ballot_rates(chk: Checker, outdir: Path, report: dict) -> None:
    """Each per-ballot rate file agrees with its point's mean formality."""
    for i, point in enumerate(report["points"]):
        formal = Counter()
        rows = 0
        with open(outdir / f"ballot_rates_{i:02d}.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                _, style, _, formal_runs, _ = line.rstrip("\n").split(",")
                formal[style] += int(formal_runs)
                rows += 1
        form = point["formality"]
        chk.that(rows == form["atl_ballots"] + form["btl_ballots"], f"ballot_rates_{i:02d}.csv: {rows} rows")
        for style, n, mean in (("ATL", form["atl_ballots"], form["mean_atl"]),
                               ("BTL", form["btl_ballots"], form["mean_btl"])):
            if n:
                chk.that(abs(formal[style] / (point["runs"] * n) - mean) <= 1e-12,
                         f"ballot_rates_{i:02d}.csv: {style} rates disagree with mean formality {mean!r}")


def check_sweep(chk: Checker, label: str, outdir: Path, makeup: dict, atl_required: int,
                confusion_columns: np.ndarray | None, bias: bool, ballot_rates: bool) -> None:
    """Check every point of one sweep's ``report.json`` (and rate files, if written)."""
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    for point in report["points"]:
        where = f"{label} {point['model']} rate={point['rate']} btl_required={point['btl_required']}"
        required = {"ATL": atl_required, "BTL": point["btl_required"]}
        if point["model"] == "truncation":
            reading = None
        elif point["model"] == "confusion":
            reading = lambda v: confusion_reading_pmf(v, confusion_columns)
        else:
            reading = lambda v, rate=point["rate"]: digit_reading_pmf(v, rate)
        check_point(chk, where, point, makeup, required, reading)
        if bias:
            check_bias_winners(chk, where, point, makeup, point["btl_required"])
    if ballot_rates:
        check_ballot_rates(chk, outdir, report)
