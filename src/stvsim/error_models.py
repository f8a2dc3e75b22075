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
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .ballots import (
    FormalityRules,
    MarkSheet,
    Preferences,
    classify_formality,
    marks_from_preferences,
)
from .rng import RandomStream, below, draw_matrix, locate, rate_bound, raw_words, uniforms


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
        if not np.isfinite(m).all():
            raise ErrorModelError("confusion matrix entries must be finite")
        if (m < 0).any():
            raise ErrorModelError("confusion matrix entries must be non-negative")
        sums = m.sum(axis=0)
        if (sums <= 0).any():
            raise ErrorModelError("every confusion column needs positive mass")
        m = m / sums
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def column_cdfs(self) -> np.ndarray:
        cdfs = np.cumsum(self.matrix, axis=0)
        cdfs.setflags(write=False)
        return cdfs

    @cached_property
    def stay_window(self) -> tuple[int, int]:
        """The raw words that leave every digit as it is: the rate bounds [low, high).

        Digit d reads as itself when its draw lies in [cdfs[d-1, d], cdfs[d, d])
        (from 0 for digit 0, and up to 1 for digit 9, since a new digit is at
        most 9), so the window is the intersection of those intervals as
        ``rate_bound`` values.  It is empty (low >= high) when they do not
        overlap.
        """
        cdfs = self.column_cdfs
        low = max(rate_bound(cdfs[d - 1, d]) for d in range(1, 10))
        high = min(rate_bound(cdfs[d, d]) for d in range(9))
        return low, high

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
# as the scalar functions above.  Ballot i owns substream ``seeds[i]`` and
# reads its draws in canonical order, so one call covers the ballots of many
# mark sheets.  One call also covers several models of one family: the
# draws are made once and each model reads them, so model j's outcome is
# the scalar function's under model j, whatever the other models are.
#
# A draw fires (``uniform() < rate``) exactly when its raw SplitMix64 word
# is below the rate's integer bound, ``ceil(rate * 2^53) * 2^11``
# (``rng.rate_bound``), so the helpers draw raw words (``rng.raw_words``)
# and compare them with integers.  Only the words that can change something
# under some model are kept, and only those get a ballot, a position and
# whatever else their outcome needs: under truncation, the words below the
# highest rate's bound; under the uniform model, the fire words below it;
# under the confusion model, the words outside the window in which every
# digit stays as it is (``ConfusionModel.stay_window``).


def truncation_lengths_batch(n_prefs: np.ndarray, rates: Sequence[float], seeds: np.ndarray) -> np.ndarray:
    """Surviving length of each ballot under the truncation model, one row per rate.

    Ballot i ranks ``n_prefs[i]`` preferences and owns substream ``seeds[i]``.
    Preference k consumes draw k of it, and the list ends before the first
    preference whose draw falls below the rate, so a ballot's length never
    grows as the rate rises.
    """
    n_prefs = np.asarray(n_prefs, dtype=np.int64)
    lengths = np.tile(n_prefs, (len(rates), 1))
    words = raw_words(seeds, n_prefs)
    low = np.flatnonzero(below(words, rate_bound(max(rates))))
    words = words[low]
    owner, index = locate(n_prefs, low)
    for row, rate in zip(lengths, rates):
        fired = below(words, rate_bound(rate))
        np.minimum.at(row, owner[fired], index[fired])
    return lengths


def corrupt_digits_batch(
    digits: np.ndarray, start: np.ndarray, n_digits: np.ndarray, models: Sequence[ErrorModel], seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits each model changes on the ballots of a ragged digit store.

    Ballot i writes the ``n_digits[i]`` digits (uint8, 0-9) from
    ``digits[start[i]]`` on, in canonical order, and owns substream
    ``seeds[i]``; ``start`` and ``n_digits`` are integer arrays.  The
    models are all uniform or all confusion models.  Returns the changed
    digits in (model, ballot, position) order as four arrays: the model's
    index, the ballot's, the digit's position in its ballot and its new
    value.  Matches the scalar draw discipline: under the uniform model
    digit k fires on draw 2k and takes its replacement from draw 2k + 1
    (read only where it fired at the highest rate), so the digits changed
    at a lower rate are a subset of those changed at a higher one, with the
    same new values; the confusion model resamples digit k from draw k.
    """
    if all(isinstance(m, UniformDigitModel) for m in models):
        words = raw_words(seeds, n_digits, stride=2)
        kept = np.flatnonzero(below(words, rate_bound(max(m.rate for m in models))))
        words = words[kept]
        ballot, position = locate(n_digits, kept)
        clean = digits[start[ballot] + position]
        new = (draw_matrix(seeds[ballot], 2 * position + 1) * 10).astype(np.uint8)
        differs = new != clean
        hits = [np.flatnonzero(below(words, rate_bound(m.rate)) & differs) for m in models]
        values = [new[hit] for hit in hits]
    elif all(isinstance(m, ConfusionModel) for m in models):
        words = raw_words(seeds, n_digits)
        low = max(m.stay_window[0] for m in models)
        high = min(m.stay_window[1] for m in models)
        kept = np.flatnonzero(below(words, low) | ~below(words, high))
        draws = uniforms(words[kept])
        ballot, position = locate(n_digits, kept)
        clean = digits[start[ballot] + position]
        # The new digit is the number of CDF values in its column at or below the draw, at most 9.
        news = [np.minimum((draws >= m.column_cdfs[:, clean]).sum(axis=0), 9).astype(np.uint8) for m in models]
        hits = [np.flatnonzero(new != clean) for new in news]
        values = [new[hit] for new, hit in zip(news, hits)]
    else:
        raise ErrorModelError(f"models {models!r} do not corrupt digits as one family")
    hit = np.concatenate(hits)
    model = np.repeat(np.arange(len(models)), [len(h) for h in hits])
    return model, ballot[hit], position[hit], np.concatenate(values)
