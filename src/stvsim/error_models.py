"""Stochastic digitisation-error models for formal ballots.

Three models, in increasing order of realism:

* ``TruncationModel`` -- each preference independently triggers, with
  probability ``rate``, truncation of the list at that preference (the
  triggering preference is dropped too: a corrupted number is unreadable).
* ``UniformDigitModel`` -- each written digit is independently replaced,
  with probability ``rate``, by a digit drawn uniformly from 0-9 (possibly
  the original, so the effective per-digit change rate is 0.9 * rate).
* ``ConfusionModel`` -- each digit is independently resampled from a 10x10
  digit-confusion column for its value, as measured for a real handwritten
  digit recogniser.

Digit models operate on the clean mark sheet rendered from a ballot's
canonical preferences (ranks 1..k written in the ranked boxes), never on a
box that is unmarked: errors change numerals, not which boxes are marked.
After corruption the marks are re-interpreted and the formality rules are
applied again, so an error can shorten a ranking or knock the ballot out of
the count entirely.

Randomness is explicit.  Digits are visited in a fixed canonical order (ATL
boxes in sorted id order, then BTL boxes in sorted id order, digits left to
right) and every digit consumes a fixed number of draws, so the scalar
functions here and the vectorised batch helpers used by the simulation
harness produce bit-identical outcomes from the same stream seed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .ballots import (
    FormalityRules,
    MarkSheet,
    Preferences,
    classify_formality,
    marks_from_preferences,
)
from .rng import RandomStream, draw_matrix, flat_layout


class ErrorModelError(ValueError):
    """Bad error-model parameters or confusion-table data."""


@dataclass(frozen=True)
class TruncationModel:
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ErrorModelError(f"rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class UniformDigitModel:
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ErrorModelError(f"rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class ConfusionModel:
    """Column-stochastic digit confusion: column y holds P(predicted | actual=y)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (10, 10):
            raise ErrorModelError(f"confusion matrix must be 10x10, got {m.shape}")
        if (m < 0).any():
            raise ErrorModelError("confusion matrix entries must be non-negative")
        sums = m.sum(axis=0)
        if (sums <= 0).any():
            raise ErrorModelError("every confusion column needs positive mass")
        m = m / sums
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def column_cdfs(self) -> np.ndarray:
        return np.cumsum(self.matrix, axis=0)

    @property
    def mean_change_rate(self) -> float:
        """Per-digit change probability averaged over the ten actual digits."""
        return float(1.0 - np.trace(self.matrix) / 10.0)


ErrorModel = Union[TruncationModel, UniformDigitModel, ConfusionModel]

#: Location of the measured handwritten-digit confusion table shipped with
#: the package (percent entries; row = predicted digit, column = actual).
BUNDLED_CONFUSION_TABLE = os.path.join(os.path.dirname(__file__), "data", "digit_confusion.txt")


def load_confusion_table(path: str) -> ConfusionModel:
    """Read a plain-text 10x10 confusion table.

    Each non-comment line holds the ten column entries for one predicted
    digit (row 0 first), whitespace separated, in percent.  A ``-`` entry
    means "below measurement resolution" and reads as zero.  Columns are
    normalised to sum to one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split()
        if len(cells) != 10:
            raise ErrorModelError(f"line {lineno}: expected 10 entries, got {len(cells)}")
        try:
            rows.append([0.0 if c == "-" else float(c) for c in cells])
        except ValueError as exc:
            raise ErrorModelError(f"line {lineno}: {exc}") from None
    if len(rows) != 10:
        raise ErrorModelError(f"expected 10 rows, got {len(rows)}")
    return ConfusionModel(np.array(rows))


def apply_truncation_model(prefs: Preferences, rate: float, stream: RandomStream) -> tuple[str, ...]:
    """Surviving prefix of the ranking; may be empty."""
    ranking = prefs.ranking
    for i in range(len(ranking)):
        if stream.uniform() < rate:
            return ranking[:i]
    return ranking


def _corrupt_marks_uniform(marks: dict[str, str], rate: float, stream: RandomStream) -> dict[str, str]:
    out = {}
    for box in sorted(marks):
        digits = []
        for ch in marks[box]:
            fire = stream.uniform() < rate
            replacement = stream.randint(10)  # drawn unconditionally: fixed draw budget
            digits.append(str(replacement) if fire else ch)
        out[box] = "".join(digits)
    return out


def _corrupt_marks_confusion(marks: dict[str, str], cdfs: np.ndarray, stream: RandomStream) -> dict[str, str]:
    out = {}
    for box in sorted(marks):
        digits = []
        for ch in marks[box]:
            u = stream.uniform()
            new = int(np.searchsorted(cdfs[:, int(ch)], u, side="right"))
            digits.append(str(min(new, 9)))
        out[box] = "".join(digits)
    return out


def apply_digit_model(sheet: MarkSheet, rate: float, stream: RandomStream) -> MarkSheet:
    """Independently replace each digit with probability ``rate`` by a uniform digit."""
    return MarkSheet(
        _corrupt_marks_uniform(sheet.atl_marks, rate, stream),
        _corrupt_marks_uniform(sheet.btl_marks, rate, stream),
        sheet.multiplicity,
    )


def apply_confusion_model(sheet: MarkSheet, model: ConfusionModel, stream: RandomStream) -> MarkSheet:
    """Independently resample each digit from its confusion column."""
    cdfs = model.column_cdfs
    return MarkSheet(
        _corrupt_marks_confusion(sheet.atl_marks, cdfs, stream),
        _corrupt_marks_confusion(sheet.btl_marks, cdfs, stream),
        sheet.multiplicity,
    )


def perturb_ballot(
    prefs: Preferences,
    model: ErrorModel,
    rules: FormalityRules,
    stream: RandomStream,
) -> Preferences | None:
    """Inject random errors into one formal ballot and re-check formality.

    Returns the ballot's new canonical preferences, or None if the errors
    made it informal.  The truncation model acts on the preference list
    directly; the digit models corrupt the rendered mark sheet, which is
    then re-interpreted from scratch.  A sheet rendered from an ATL ballot
    has no BTL marks (and vice versa), so errors never flip the vote style.
    """
    if isinstance(model, TruncationModel):
        surviving = apply_truncation_model(prefs, model.rate, stream)
        if len(surviving) >= rules.required(prefs.style):
            return Preferences(prefs.style, surviving)
        return None
    sheet = marks_from_preferences(prefs)
    if isinstance(model, UniformDigitModel):
        mutated = apply_digit_model(sheet, model.rate, stream)
    elif isinstance(model, ConfusionModel):
        mutated = apply_confusion_model(sheet, model, stream)
    else:
        raise ErrorModelError(f"unknown error model {model!r}")
    return classify_formality(mutated, rules)


# -- vectorised batch helpers -------------------------------------------------
#
# These compute, for many independent substreams at once, the same outcomes
# as the scalar functions above.  They work on the flat form the simulation
# harness uses: every element carries its own substream seed and its index
# in that stream's canonical order, so one call covers the ballots of many
# mark sheets.


def truncation_lengths_batch(n_prefs: np.ndarray, rate: float, seeds: np.ndarray) -> np.ndarray:
    """Surviving length of each ballot under the truncation model.

    Ballot i ranks ``n_prefs[i]`` preferences and owns substream ``seeds[i]``.
    Preference k consumes draw k of it, and the list ends before the first
    preference whose draw falls below ``rate``.
    """
    lengths = np.array(n_prefs, dtype=np.int64)
    owner, index = flat_layout(lengths)
    fired = draw_matrix(seeds[owner], index) < rate
    np.minimum.at(lengths, owner[fired], index[fired])
    return lengths


def corrupt_digits_batch(
    digits: np.ndarray, model: ErrorModel, seeds: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Corrupted copy of a flat digit array.

    ``digits[i]`` (uint8, 0-9) is digit ``positions[i]`` of its ballot's
    digit sequence in canonical order, and ``seeds[i]`` is that ballot's
    substream seed.  Matches the scalar draw discipline: under the uniform
    model digit k fires on draw 2k and takes its replacement from draw
    2k + 1 (read only where it fired); the confusion model resamples digit k
    from draw k.
    """
    if isinstance(model, UniformDigitModel):
        out = digits.copy()
        fired = np.flatnonzero(draw_matrix(seeds, 2 * positions) < model.rate)
        out[fired] = (draw_matrix(seeds[fired], 2 * positions[fired] + 1) * 10).astype(np.uint8)
        return out
    if isinstance(model, ConfusionModel):
        draws = draw_matrix(seeds, positions)
        cdfs = model.column_cdfs  # (predicted, actual)
        # The new digit is the number of CDF values in column d at or below
        # the draw (at most 9).  That number is d itself exactly when
        # cdfs[d-1, d] <= draw < cdfs[d, d], so only the other digits need
        # the full count.
        low = np.append(0.0, np.diagonal(cdfs, offset=1))[digits]
        moved = np.flatnonzero((draws < low) | (draws >= np.diagonal(cdfs)[digits]))
        out = digits.copy()
        out[moved] = np.minimum((draws[moved] >= cdfs[:, digits[moved]]).sum(axis=0), 9)
        return out
    raise ErrorModelError(f"model {model!r} does not corrupt digits")
