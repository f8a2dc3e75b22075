"""Seeded Monte Carlo harness: sweep error models over an election.

For every grid point (error model x rate x formality-rule variant) the
harness perturbs each formal ballot independently, re-checks formality,
counts the survivors, and aggregates winner frequencies, per-ballot
formality rates and truncation statistics.

Reproducibility: the substream used for physical ballot i in run r is
seeded with ``derive_seed(base_seed, r, i)``, with no grid-point index, so
every grid point sees the same draws (common random numbers).  Each
point's own distribution is what fresh draws would give, while differences
between points lose the noise they share.  Aggregation sums fixed-indexed
counters, so reports are byte-identical no matter how runs are scheduled
across processes, and a point's results do not depend on which other rates
or formality variants are in the grid.

One "physical ballot" is one paper: a mark sheet with multiplicity m covers
m consecutive physical indices in file order.

Layout.  Formality variants that classify every record alike form one
group, which stores every distinct formal sheet once: its ranked boxes in
canonical digit order, their clean values and where their digits end in
one digit store, and the preferences each variant needs.  A formal
physical ballot is just a sheet id.  A run draws over all formal ballots
in blocks of consecutive ballots holding at most ``BLOCK_DIGITS`` digits,
so the per-digit raw words never outgrow one block.  In each block, every
(ballot, digit) gets draw k of its ballot's substream (the scalar path's
draw discipline) as a raw 64-bit word, read off the ballots' digit counts
and offsets into the digit store with no per-digit layout.  A draw fires
exactly when its word is below the rate's integer bound, so a block
compares words once at the highest rate, and only the digits that fire
there (or, under the confusion model, that leave every digit's stay
window) get their ballot, position, clean digit and new value: a digit
that fires at one rate fires, with the same new value, at every higher
rate, and a list cut at one rate is cut no later at a higher one.  A
fired digit finds its box by binary search over the box ends.  The
truncation model draws one word per preference in the same way.
Under every model a block keeps only one change record per changed box:
its (rate, ballot) row, its rank and its new value, where under
truncation the box of the preference that fired reads 0.  The rest of the
run reads only those rows: the first number 1, 2, ... no longer held by
exactly one box cuts a ranking, and one comparison decides formality for
every (variant, rate, changed ballot).
Every other ballot keeps its clean ranking, so a (variant, rate) row
hands the count one list of (``Preferences``, papers) pairs: each sheet's
clean papers that no changed ballot took, one pair per distinct prefix
that changed ballots were cut to and stay formal with, and one pair per
ballot where a changed box took a rank inside the prefix, the only
ballots interpreted on their own.  A row's memory follows the ballots its
run changed, and a run yields its rows one at a time.  A group's
zero-error points, the clean election in every run, are one task.  A task
returns each point's raw tallies over its runs, and each point's result is
built once from its tasks' tallies, in run order.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .ballots import (
    BallotError,
    FormalityRules,
    Preferences,
    VoteStyle,
    classify_formality,
    interpret_marks,
)
from .count import CountInvariantError, CountRules, count_stv
from .error_models import (
    ConfusionModel,
    ErrorModel,
    TruncationModel,
    UniformDigitModel,
    corrupt_digits_batch,
    truncation_lengths_batch,
)
from .ingest import ElectionFile
from .rng import MASK64, seed_vector

MODEL_FAMILIES = ("truncation", "digit", "confusion")


class SimError(ValueError):
    pass


def _check_seed(base_seed: int) -> None:
    # Seeds are hashed modulo 2^64, so one outside [0, 2^64) would alias one inside.
    if not 0 <= base_seed <= MASK64:
        raise SimError(f"base seed must lie in [0, 2^64), got {base_seed}")


@dataclass(frozen=True)
class SimConfig:
    base_seed: int
    runs_per_point: int = 1000
    model: str = "digit"
    rates: tuple[float, ...] = ()
    confusion: ConfusionModel | None = None
    btl_required_grid: tuple[int, ...] = (6,)
    atl_required_prefs: int = 1
    count_rules: CountRules = field(default_factory=CountRules)
    track_candidates: tuple[str, ...] = ()
    jobs: int = 1

    def __post_init__(self) -> None:
        # Each distinct rate and variant once, in order; 0 is always a point.
        object.__setattr__(self, "rates", tuple(r for r in dict.fromkeys(self.rates) if r != 0.0))
        object.__setattr__(self, "btl_required_grid", tuple(dict.fromkeys(self.btl_required_grid)))
        object.__setattr__(self, "track_candidates", tuple(self.track_candidates))
        _check_seed(self.base_seed)
        if self.runs_per_point < 1:
            raise SimError("runs_per_point must be >= 1")
        if self.model not in MODEL_FAMILIES:
            raise SimError(f"model must be one of {MODEL_FAMILIES}, got {self.model!r}")
        if self.model == "confusion" and self.confusion is None:
            raise SimError("the confusion model needs a confusion matrix")
        if self.model == "confusion" and self.rates:
            raise SimError("the confusion model takes no rates: its table sets the error rate")
        if self.model != "confusion" and self.confusion is not None:
            raise SimError(f"a confusion matrix goes only with the confusion model, not {self.model!r}")
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise SimError(f"rates must lie in [0, 1], got {r}")
        if not self.btl_required_grid:
            raise SimError("at least one formality variant is required")
        if self.jobs < 1:
            raise SimError("jobs must be >= 1")

    def rules_for(self, btl_required: int) -> FormalityRules:
        return FormalityRules(btl_required_prefs=btl_required, atl_required_prefs=self.atl_required_prefs)


@dataclass(frozen=True)
class GridPoint:
    index: int
    model_name: str
    rate: float  # label: epsilon, or the confusion table's mean change rate
    btl_required: int
    model: ErrorModel | None  # None: the always-included zero-error baseline


def _grid_point(index: int, btl_required: int, model: ErrorModel) -> GridPoint:
    if isinstance(model, ConfusionModel):
        return GridPoint(index, "confusion", model.mean_change_rate, btl_required, model)
    name = "digit" if isinstance(model, UniformDigitModel) else "truncation"
    return GridPoint(index, name, model.rate, btl_required, model)


def _build_points(config: SimConfig) -> list[GridPoint]:
    if config.model == "confusion":
        models: list[ErrorModel] = [config.confusion]
    else:
        family = UniformDigitModel if config.model == "digit" else TruncationModel
        models = [family(r) for r in config.rates]
    points = []
    for variant in config.btl_required_grid:
        points.append(GridPoint(len(points), config.model, 0.0, variant, None))
        for model in models:
            points.append(_grid_point(len(points), variant, model))
    return points


# -- prepared ballot data, one per classification group --------------------------

#: Digit budget of one block of a run's flat pass: the per-digit arrays
#: (raw words and one spare array) exist for one block at a time, so a
#: run's working memory does not grow with the election.  At 2^15 each
#: 8-byte array of a block is 256 KiB.  Only the few digits that fire get
#: more than a word, so a block costs a fixed number of numpy calls plus
#: time per digit, and larger blocks amortise those calls.
BLOCK_DIGITS = 1 << 15

# Powers of ten from 10: one plus the number of them at or below a box
# value is the number of digits that write it.
_POWERS_OF_TEN = 10 ** np.arange(1, 10)


@dataclass
class _Prepared:
    """The formal ballots of formality variants that classify alike, in one digit store.

    Each distinct formal sheet (one set of canonical preferences) is kept
    once: the clean value (its rank) of each ranked box, in canonical digit
    order (sorted ids), the digits that write it, and the preferences each
    variant needs.  A formal physical ballot is only a sheet id; a run names
    it by its index into ``ballot_index`` ("formal ballot").  ``papers``
    is the clean tally that a run's changed ballots are taken from.
    """

    rules: list[FormalityRules]  # the variants, one per row of required
    n_physical: int
    style_codes: np.ndarray  # int8: -1 informal, 0 ATL, 1 BTL
    orig_prefs: np.ndarray  # int32: baseline preference count (0 if informal)
    bucket_counts: dict[int, int]
    # per distinct formal sheet
    sheets: list[Preferences]
    papers: list[int]  # formal physical ballots
    required: np.ndarray  # (variant, sheet): preferences it needs to stay formal
    n_boxes: np.ndarray  # ranked boxes, i.e. preferences
    n_digits: np.ndarray
    digit_start: np.ndarray  # offset of its digits in digits
    box_values: np.ndarray  # int32 per box: the clean value, its rank
    box_end: np.ndarray  # int64 per box: the offset in digits where its digits end
    digits: np.ndarray  # uint8 per digit
    # per formal physical ballot, in physical order
    ballot_index: np.ndarray  # physical index
    ballot_sheet: np.ndarray  # int32 sheet id
    blocks: list[tuple[int, int]]  # ballot ranges of at most BLOCK_DIGITS digits, or one ballot


def _classify(election: ElectionFile, rules: FormalityRules) -> tuple[list[Preferences], np.ndarray]:
    """The one formality pass over an election's sheets.

    Returns each distinct formal ``Preferences`` once, in file order, and
    every physical ballot's index into that list (-1 if informal).
    """
    ids: dict[Preferences, int] = {}
    record = [
        -1 if (prefs := classify_formality(sheet, rules)) is None else ids.setdefault(prefs, len(ids))
        for sheet in election.sheets
    ]
    return list(ids), np.repeat(np.array(record, dtype=np.int32), [s.multiplicity for s in election.sheets])


def formal_ballots(election: ElectionFile, rules: FormalityRules | None = None) -> list[tuple[Preferences, int]]:
    """Each distinct formal ballot with its number of papers, in file order."""
    sheets, physical_sheet = _classify(election, rules or FormalityRules())
    return list(zip(sheets, np.bincount(physical_sheet[physical_sheet >= 0], minlength=len(sheets)).tolist()))


def _prepare(election: ElectionFile, variants: Iterable[FormalityRules]) -> list[_Prepared]:
    """One ``_Prepared`` per group of variants that classify alike, in order of their first variant."""
    groups: list[tuple[list[Preferences], np.ndarray, list[FormalityRules]]] = []
    for rules in variants:
        sheets, physical_sheet = _classify(election, rules)
        group = next((g for g in groups if np.array_equal(g[1], physical_sheet) and g[0] == sheets), None)
        if group is None:
            groups.append(group := (sheets, physical_sheet, []))
        group[2].append(rules)
    return [_layout(*group) for group in groups]


def _layout(sheets: list[Preferences], physical_sheet: np.ndarray, variants: list[FormalityRules]) -> _Prepared:
    n_physical = len(physical_sheet)
    baseline = physical_sheet >= 0
    ballot_sheet = physical_sheet[baseline]

    values: list[int] = []
    for prefs in sheets:
        order = sorted(range(len(prefs.ranking)), key=prefs.ranking.__getitem__)
        values.extend(i + 1 for i in order)
    box_values = np.array(values, dtype=np.int32)
    widths = np.searchsorted(_POWERS_OF_TEN, box_values, side="right") + 1
    box_end = np.cumsum(widths)
    digits = np.empty(int(widths.sum()), dtype=np.uint8)
    for exponent in range(int(widths.max(initial=0))):  # a box's digit of place 10 ** exponent, from its end
        wide = widths > exponent
        digits[box_end[wide] - 1 - exponent] = box_values[wide] // 10 ** exponent % 10
    n_boxes = np.array([len(p.ranking) for p in sheets], dtype=np.int64)
    sheet_end = np.concatenate(([0], box_end))[np.cumsum(n_boxes)]
    n_digits = np.diff(sheet_end, prepend=0)
    digit_start = sheet_end - n_digits

    # Blocks: runs of consecutive formal ballots within the digit budget.
    ends = np.cumsum(n_digits[ballot_sheet])
    blocks = []
    lo = 0
    while lo < len(ends):
        budget = (ends[lo - 1] if lo else 0) + BLOCK_DIGITS
        hi = max(int(np.searchsorted(ends, budget, side="right")), lo + 1)
        blocks.append((lo, hi))
        lo = hi

    sheet_style = np.array([0 if p.style is VoteStyle.ATL else 1 for p in sheets], dtype=np.int8)
    styles = np.full(n_physical, -1, dtype=np.int8)
    styles[baseline] = sheet_style[ballot_sheet]
    orig = np.zeros(n_physical, dtype=np.int32)
    orig[baseline] = n_boxes[ballot_sheet]
    buckets = np.bincount(orig[baseline])
    return _Prepared(
        rules=variants,
        n_physical=n_physical,
        style_codes=styles,
        orig_prefs=orig,
        bucket_counts={int(k): int(buckets[k]) for k in np.flatnonzero(buckets)},
        sheets=sheets,
        papers=np.bincount(ballot_sheet, minlength=len(sheets)).tolist(),
        required=np.array([[rules.required(p.style) for p in sheets] for rules in variants], dtype=np.int64),
        n_boxes=n_boxes,
        n_digits=n_digits,
        digit_start=digit_start,
        box_values=box_values,
        box_end=box_end,
        digits=digits,
        ballot_index=np.flatnonzero(baseline),
        ballot_sheet=ballot_sheet,
        blocks=blocks,
    )


# -- one run: the flat pass ------------------------------------------------------


def _changed_boxes(
    prep: _Prepared, models: list[ErrorModel], lo: int, hi: int, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corrupt the digits of formal ballots [lo, hi) under every model and read the boxes that changed.

    ``seeds`` holds every physical ballot's substream seed.  Returns, per
    changed box in (model, ballot) order, its run row
    ``model * n_formal + formal ballot``, its rank (its clean value) and its
    new value.  A changed digit always changes its box's value.
    """
    sheet = prep.ballot_sheet[lo:hi]
    model, ballot, position, new = corrupt_digits_batch(
        prep.digits, prep.digit_start[sheet], prep.n_digits[sheet], models, seeds[prep.ballot_index[lo:hi]]
    )
    row = model * len(prep.ballot_sheet) + lo + ballot
    hit_at = prep.digit_start[sheet[ballot]] + position
    box = np.searchsorted(prep.box_end, hit_at, side="right")
    delta = (new.astype(np.int64) - prep.digits[hit_at]) * 10 ** (prep.box_end[box] - 1 - hit_at)
    # A box's digits are adjacent, so its changed digits are too.
    first = np.ones(len(row), dtype=bool)
    first[1:] = (box[1:] != box[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(first)
    rank = prep.box_values[box[starts]]
    return row[starts], rank, rank + np.add.reduceat(delta, starts)


def _cut_prefixes(prefix: np.ndarray, ballot: np.ndarray, rank: np.ndarray, value: np.ndarray) -> None:
    """Shorten each ballot's readable prefix where its changed boxes break it.

    ``prefix`` starts as each ballot's preference count, with every number
    1..prefix held by exactly one box.  A changed box takes a holder from
    its rank and gives one to its new value; the ranking now stops before
    the first number whose holders no longer number one (the rule of
    ``interpret_marks``).  Numbers above the count, and 0, cannot extend it.
    """
    if not len(ballot):
        return
    lands = (value >= 1) & (value <= prefix[ballot])
    stride = int(prefix.max()) + 1
    keys = np.concatenate((ballot * stride + rank, ballot[lands] * stride + value[lands]))
    numbers, inverse = np.unique(keys, return_inverse=True)
    lost = np.bincount(inverse[:len(ballot)], minlength=len(numbers))
    gained = np.bincount(inverse[len(ballot):], minlength=len(numbers))
    broken = numbers[lost != gained]
    np.minimum.at(prefix, broken // stride, broken % stride - 1)


def _perturb_run(
    prep: _Prepared, models: list[ErrorModel], seeds: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[Preferences, int]]]]:
    """One run's pass over the formal ballots for every variant and model.

    ``models`` are one family's; ``seeds`` holds every physical ballot's
    substream seed.  Block by block, each block is drawn and corrupted once
    for all models, and only what changed is kept: one (run row
    ``model * n_formal + formal ballot``, rank, new value) record per
    changed box, where under truncation the box of the preference that
    fired reads 0.  Then, once per run, the changed rows' prefixes are cut
    and one comparison decides their formality for every variant.  Yields, per
    (variant, model), variant-major, the changed formal ballots (ascending
    indices into ``ballot_index``), their surviving preference counts (0 if
    informal) and the row's formal ballots as ``(Preferences, papers)``
    pairs: each sheet's clean papers that no changed ballot took, one pair
    per distinct cut prefix, then one per moved ballot.  Every other formal
    ballot keeps its clean ranking.
    """
    n_formal = len(prep.ballot_sheet)
    n_models = len(models)
    truncation = isinstance(models[0], TruncationModel)
    empty = np.zeros(0, dtype=np.int64)
    changes = [(empty, empty, empty)]
    for lo, hi in prep.blocks:
        if truncation:
            n_prefs = prep.n_boxes[prep.ballot_sheet[lo:hi]]
            prefix = truncation_lengths_batch(n_prefs, [m.rate for m in models], seeds[prep.ballot_index[lo:hi]])
            model, ballot = np.nonzero(prefix < n_prefs)
            fired = prefix[model, ballot] + 1  # the rank of the preference that fired; its box reads 0
            changes.append((model * n_formal + lo + ballot, fired, np.zeros(len(fired), dtype=np.int64)))
        else:
            changes.append(_changed_boxes(prep, models, lo, hi, seeds))

    # Blocks arrive model by model: bring each row's changes together, in order.
    row, rank, value = map(np.concatenate, zip(*changes))
    order = np.argsort(row, kind="stable")
    rank, value = rank[order], value[order]
    changed, at = np.unique(row[order], return_inverse=True)  # the changed rows; each change's row among them
    model, ballot = np.divmod(changed, n_formal)
    sheet = prep.ballot_sheet[ballot]
    prefix = prep.n_boxes[sheet]
    _cut_prefixes(prefix, at, rank, value)
    # rows where a changed box took a rank inside the prefix
    inside = np.zeros(len(changed), dtype=bool)
    inside[at[rank <= prefix[at]]] = True
    # (variant, changed row), in C order: required[:, sheet] would be F order, and slow.
    formal = prefix >= prep.required.take(sheet, axis=1)

    n_sheets = len(prep.sheets)
    # the clean papers each model leaves on each sheet
    taken = np.bincount(model * n_sheets + sheet, minlength=n_models * n_sheets)
    kept = np.asarray(prep.papers) - taken.reshape(n_models, n_sheets)
    stride = int(prep.n_boxes.max(initial=0)) + 1
    lengths = formal * prefix
    moved = formal & inside
    model_rows = np.searchsorted(model, np.arange(n_models + 1))  # each model's changed rows
    box_rows = np.searchsorted(at, np.arange(len(changed) + 1))  # each changed row's boxes
    for v in range(len(prep.rules)):
        for m, (lo, hi) in enumerate(zip(model_rows[:-1], model_rows[1:])):
            present = np.flatnonzero(kept[m])
            ballots = [(prep.sheets[s], n) for s, n in zip(present.tolist(), kept[m, present].tolist())]
            # A formal row that keeps its full length has a changed box inside it, so the rest are cut.
            cut = lo + np.flatnonzero(formal[v, lo:hi] & ~inside[lo:hi])
            keys, papers = np.unique(sheet[cut].astype(np.int64) * stride + prefix[cut], return_counts=True)
            for s, length, n in zip(*(a.tolist() for a in np.divmod(keys, stride)), papers.tolist()):
                prefs = prep.sheets[s]
                ballots.append((Preferences(prefs.style, prefs.ranking[:length]), n))
            for c in (lo + np.flatnonzero(moved[v, lo:hi])).tolist():
                prefs = prep.sheets[sheet[c]]
                marks = {name: i for i, name in enumerate(prefs.ranking, start=1)}
                # A changed box is the one its clean value ranks.
                own = slice(box_rows[c], box_rows[c + 1])
                for r, new in zip(rank[own].tolist(), value[own].tolist()):
                    marks[prefs.ranking[r - 1]] = new
                ballots.append((Preferences(prefs.style, interpret_marks(marks)), 1))
            yield ballot[lo:hi], lengths[v, lo:hi], ballots


def _run_chunk(args: tuple) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Counter]]:
    """Simulate runs [run_lo, run_hi) of one classification group's points; pure and picklable.

    ``points`` is the group's zero-error points alone, or all of its
    perturbed points, variant by variant, whose runs share one pass.
    Returns each point's raw tallies over these runs, for ``_point_result``:
    formal runs per formal ballot, formal ATL and BTL ballots per run,
    surviving preferences summed per original preference count, and a
    ``Counter`` of runs per winner set (None: no formal ballot).  Every
    tally starts from the clean election, the same in every run and
    variant of the group, and each run subtracts what its changed ballots
    lost; the clean count is taken once for all zero-error points and
    weighted by the runs.  Without count rules no run is counted and the
    ``Counter`` is empty.  A count that breaks an invariant is re-raised
    naming the grid point, run and base seed that reproduce it.
    """
    prep, meta, count_rules, points, base_seed, run_lo, run_hi = args
    n_runs = run_hi - run_lo
    # per formal ballot, in physical order
    style = prep.style_codes[prep.ballot_index]
    orig = prep.orig_prefs[prep.ballot_index].astype(np.int64)
    formal_runs = np.full((len(points), len(orig)), n_runs, dtype=np.int64)
    atl_by_run = np.full((len(points), n_runs), np.count_nonzero(style == 0), dtype=np.int64)
    btl_by_run = np.full((len(points), n_runs), np.count_nonzero(style == 1), dtype=np.int64)
    n_buckets = int(orig.max(initial=0)) + 1
    surviving = np.tile(n_runs * np.bincount(orig, minlength=n_buckets) * np.arange(n_buckets), (len(points), 1))
    outcomes = [Counter() for _ in points]

    def record(rows: slice, i: int, runs: int, ballots) -> None:
        """Count these ballots, which ``runs`` runs from the chunk's run i all left, for the points of ``rows``."""
        if count_rules is None:
            return
        try:
            winners = tuple(sorted(count_stv(ballots, meta, count_rules)[0])) if ballots else None
        except CountInvariantError as exc:
            where = f"grid point {points[rows][0].index}, run {run_lo + i}, base seed {base_seed}"
            raise CountInvariantError(f"{where}: {exc}", exc.transcript) from exc
        for outcome in outcomes[rows]:
            outcome[winners] += runs

    if points[0].model is None:
        record(slice(None), 0, n_runs, list(zip(prep.sheets, prep.papers)))
    else:
        models = [point.model for point in points if point.btl_required == points[0].btl_required]
        for i, run in enumerate(range(run_lo, run_hi)):
            seeds = seed_vector((base_seed, run), 0, prep.n_physical)
            for j, (changed, lengths, ballots) in enumerate(_perturb_run(prep, models, seeds)):
                informal = changed[lengths == 0]
                formal_runs[j, informal] -= 1
                atl = np.count_nonzero(style[informal] == 0)
                atl_by_run[j, i] -= atl
                btl_by_run[j, i] -= len(informal) - atl
                was = orig[changed]
                surviving[j] -= np.bincount(was, weights=was - lengths, minlength=n_buckets).astype(np.int64)
                record(slice(j, j + 1), i, 1, ballots)
    return list(zip(formal_runs, atl_by_run, btl_by_run, surviving, outcomes))


def _point_result(point: GridPoint, prep: _Prepared, parts: list[tuple]) -> PointResult:
    """``point``'s result from the ``_run_chunk`` tallies of its runs, given in run order."""
    formal_runs, atl_by_run, btl_by_run, surviving, outcomes = zip(*parts)
    formal_runs_per_ballot = np.zeros(prep.n_physical, dtype=np.int64)
    formal_runs_per_ballot[prep.ballot_index] = sum(formal_runs)
    surviving = sum(surviving)
    outcome = sum(outcomes, Counter())
    return PointResult(
        model=point.model_name,
        rate=point.rate,
        btl_required=point.btl_required,
        runs=sum(map(len, atl_by_run)),
        style_codes=prep.style_codes,
        orig_prefs=prep.orig_prefs,
        bucket_counts=prep.bucket_counts,
        winner_sets=dict(sorted((k, v) for k, v in outcome.items() if k is not None)),
        no_result_runs=outcome[None],
        formal_runs_per_ballot=formal_runs_per_ballot,
        atl_formal_by_run=np.concatenate(atl_by_run),
        btl_formal_by_run=np.concatenate(btl_by_run),
        surviving_sums={k: int(surviving[k]) for k in prep.bucket_counts},
    )


# -- results -------------------------------------------------------------------


@dataclass
class PointResult:
    """One grid point's results over all its runs.

    ``style_codes``, ``orig_prefs`` and ``bucket_counts`` describe the
    point's formality variant at zero error; the two arrays are the
    variant's own, not copies.
    """

    model: str
    rate: float
    btl_required: int
    runs: int
    style_codes: np.ndarray  # int8 per physical ballot: -1 informal, 0 ATL, 1 BTL
    orig_prefs: np.ndarray  # int32 per physical ballot: preference count (0 if informal)
    bucket_counts: dict[int, int]  # formal ballots by preference count
    winner_sets: dict[tuple[str, ...], int]
    no_result_runs: int
    formal_runs_per_ballot: np.ndarray
    atl_formal_by_run: np.ndarray
    btl_formal_by_run: np.ndarray
    surviving_sums: dict[int, int]

    @property
    def atl_ballots(self) -> int:
        return int(np.count_nonzero(self.style_codes == 0))

    @property
    def btl_ballots(self) -> int:
        return int(np.count_nonzero(self.style_codes == 1))

    @property
    def candidate_wins(self) -> dict[str, int]:
        wins: Counter = Counter()
        for winners, runs in self.winner_sets.items():
            for w in winners:
                wins[w] += runs
        return dict(sorted(wins.items()))

    @property
    def winner_set_frequencies(self) -> dict[tuple[str, ...], float]:
        return {k: v / self.runs for k, v in self.winner_sets.items()}

    @property
    def candidate_frequencies(self) -> dict[str, float]:
        return {k: v / self.runs for k, v in self.candidate_wins.items()}

    @property
    def no_result_frequency(self) -> float:
        return self.no_result_runs / self.runs

    def candidate_frequency(self, candidate: str) -> float:
        return self.candidate_wins.get(candidate, 0) / self.runs

    @property
    def mean_formality_atl(self) -> float | None:
        if not self.atl_ballots:
            return None
        return float(self.atl_formal_by_run.mean() / self.atl_ballots)

    @property
    def mean_formality_btl(self) -> float | None:
        if not self.btl_ballots:
            return None
        return float(self.btl_formal_by_run.mean() / self.btl_ballots)

    @property
    def mean_surviving(self) -> dict[int, float]:
        return {
            length: self.surviving_sums.get(length, 0) / (self.runs * count)
            for length, count in sorted(self.bucket_counts.items())
        }

    @property
    def ballot_formality_rates(self) -> np.ndarray:
        return self.formal_runs_per_ballot / self.runs


@dataclass
class SimReport:
    election_name: str
    base_seed: int
    runs_per_point: int
    model: str
    n_physical_ballots: int
    candidate_order: tuple[str, ...]
    points: list[PointResult]
    #: Tracked candidate -> formality variant (btl_required) -> style -> rank -> ballots.
    position_histograms: dict[str, dict[int, dict[str, dict[int, int]]]] = field(default_factory=dict)

    def point(self, rate: float, btl_required: int | None = None) -> PointResult:
        for p in self.points:
            if abs(p.rate - rate) < 1e-12 and (btl_required is None or p.btl_required == btl_required):
                return p
        raise KeyError(f"no grid point with rate={rate}, btl_required={btl_required}")

    def to_json_dict(self) -> dict:
        points = []
        for p in self.points:
            winner_rows = [
                {"winners": list(k), "runs": v, "frequency": v / p.runs}
                for k, v in sorted(p.winner_sets.items(), key=lambda kv: (-kv[1], kv[0]))
            ]
            wins = p.candidate_wins
            candidate_rows = [
                {"candidate": c, "wins": wins[c], "frequency": wins[c] / p.runs}
                for c in self.candidate_order if c in wins
            ]
            points.append(
                {
                    "model": p.model,
                    "rate": p.rate,
                    "btl_required": p.btl_required,
                    "runs": p.runs,
                    "no_result_runs": p.no_result_runs,
                    "winner_sets": winner_rows,
                    "candidates": candidate_rows,
                    "formality": {
                        "atl_ballots": p.atl_ballots,
                        "btl_ballots": p.btl_ballots,
                        "mean_atl": p.mean_formality_atl,
                        "mean_btl": p.mean_formality_btl,
                    },
                    "truncation": [
                        {"original_prefs": k, "ballots": p.bucket_counts[k], "mean_surviving": v}
                        for k, v in p.mean_surviving.items()
                    ],
                }
            )
        return {
            "election": self.election_name,
            "base_seed": self.base_seed,
            "runs_per_point": self.runs_per_point,
            "model": self.model,
            "physical_ballots": self.n_physical_ballots,
            "points": points,
            "position_histograms": self.position_histograms,
        }


def run_sweep(election: ElectionFile, config: SimConfig) -> SimReport:
    """Run the full Monte Carlo sweep described by ``config``."""
    points = _build_points(config)
    groups = _prepare(election, map(config.rules_for, config.btl_required_grid))
    prepared = {v: next(p for p in groups if config.rules_for(v) in p.rules) for v in config.btl_required_grid}
    # Tracked candidates' histograms, one per formality variant from that
    # variant's formal ballots, before any run, so that an unknown candidate
    # fails fast.
    histograms = {
        cid: {v: _position_histogram(zip(p.sheets, p.papers), election.meta, cid) for v, p in prepared.items()}
        for cid in config.track_candidates
    }
    runs = config.runs_per_point
    chunk = -(-runs // config.jobs)  # one task per worker and group: each task pickles its _Prepared
    tasks = []
    for prep in groups:
        # The zero-error points are one task of all runs, so the clean election
        # is counted once per group; the perturbed points share each run's flat pass.
        ours = [p for p in points if prepared[p.btl_required] is prep]
        clean = [p for p in ours if p.model is None]
        perturbed = [p for p in ours if p.model is not None]
        chunks = [(clean, 0, runs)] + [(perturbed, lo, min(runs, lo + chunk)) for lo in range(0, runs, chunk)]
        tasks += [
            (prep, election.meta, config.count_rules, group, config.base_seed, lo, hi)
            for group, lo, hi in chunks
            if group
        ]
    if config.jobs == 1:
        parts = [_run_chunk(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: import only for a pool
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            parts = list(pool.map(_run_chunk, tasks))
    by_point: dict[int, list[tuple]] = {p.index: [] for p in points}
    for task, task_parts in zip(tasks, parts):  # each point's tasks come in run order
        for point, part in zip(task[3], task_parts):
            by_point[point.index].append(part)

    return SimReport(
        election_name=election.meta.name,
        base_seed=config.base_seed,
        runs_per_point=runs,
        model=config.model,
        n_physical_ballots=election.total_ballots,
        candidate_order=election.meta.candidate_ids,
        points=[_point_result(p, prepared[p.btl_required], by_point[p.index]) for p in points],
        position_histograms=histograms,
    )


# -- single-point analyses ------------------------------------------------------


def formality_rate_report(
    election: ElectionFile,
    model: ErrorModel,
    runs: int,
    base_seed: int,
) -> PointResult:
    """One error model's per-ballot formality and retention, without counting.

    Formality follows the default Senate rules.  The runs are seeded as a
    sweep's runs are, so they see the same draws as a sweep's point for this
    model with the same base seed; ``winner_sets`` is empty.
    """
    _check_seed(base_seed)
    if runs < 1:
        raise SimError("runs must be >= 1")
    rules = FormalityRules()
    point = _grid_point(0, rules.btl_required_prefs, model)
    (prep,) = _prepare(election, [rules])
    return _point_result(point, prep, _run_chunk((prep, election.meta, None, [point], base_seed, 0, runs)))


@dataclass
class PartitionTable:
    candidate_a: str
    candidate_b: str
    atl: tuple[int, int, int]  # prefers a, prefers b, neither
    btl: tuple[int, int, int]

    @property
    def total(self) -> int:
        return sum(self.atl) + sum(self.btl)


def partition_by_preference(
    election: ElectionFile,
    candidate_a: str,
    candidate_b: str,
    rules: FormalityRules | None = None,
) -> PartitionTable:
    """Split formal ballots by style and by which of two candidates they prefer.

    ATL ballots compare the candidates' groups; a ballot ranking neither
    candidate (or ranking both equally, e.g. group-mates on an ATL ballot)
    lands in the "neither" cell.  Every formal ballot lands in exactly one
    of the six cells.
    """
    meta = election.meta
    if candidate_a == candidate_b:
        raise BallotError("partition candidates must be distinct")
    for cid in (candidate_a, candidate_b):
        if cid not in meta.group_of_candidate:
            raise BallotError(f"unknown candidate {cid!r}")
    cells = {VoteStyle.ATL: [0, 0, 0], VoteStyle.BTL: [0, 0, 0]}
    for prefs, papers in formal_ballots(election, rules):
        pos_a = _place(prefs, meta, candidate_a)
        pos_b = _place(prefs, meta, candidate_b)
        if pos_a < pos_b:
            cell = 0
        elif pos_b < pos_a:
            cell = 1
        else:
            cell = 2
        cells[prefs.style][cell] += papers
    return PartitionTable(candidate_a, candidate_b, tuple(cells[VoteStyle.ATL]), tuple(cells[VoteStyle.BTL]))


def preference_position_histogram(
    election: ElectionFile,
    candidate: str,
    rules: FormalityRules | None = None,
) -> dict[str, dict[int, int]]:
    """Where a candidate sits in preference lists, weighted by multiplicity.

    Returns ``{"ATL": {rank: ballots}, "BTL": {rank: ballots}}`` where the
    ATL histogram uses the rank of the candidate's group.
    """
    return _position_histogram(formal_ballots(election, rules), election.meta, candidate)


def _position_histogram(
    ballots: Iterable[tuple[Preferences, int]], meta, candidate: str
) -> dict[str, dict[int, int]]:
    if candidate not in meta.group_of_candidate:
        raise BallotError(f"unknown candidate {candidate!r}")
    hist = {"ATL": Counter(), "BTL": Counter()}
    for prefs, papers in ballots:
        index = _place(prefs, meta, candidate)
        if index < len(prefs.ranking):
            hist[prefs.style.value][index + 1] += papers
    return {style: dict(sorted(counter.items())) for style, counter in hist.items()}


def _place(prefs: Preferences, meta, candidate: str) -> int:
    """Index in the ranking of the candidate's group on an ATL ballot, or of
    the candidate on a BTL ballot; the ranking's length when it is absent."""
    target = meta.group_of_candidate[candidate] if prefs.style is VoteStyle.ATL else candidate
    try:
        return prefs.ranking.index(target)
    except ValueError:
        return len(prefs.ranking)


# -- serialisation ---------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr names its type
    return str(value)


def write_report(report: SimReport, outdir, ballot_rates: bool = False) -> list[str]:
    """Write the plot-ready CSVs and the structured JSON document.

    Returns the file names written.  All output is deterministic for a
    given report (sorted keys, shortest round-trip float formatting).  A
    ``histograms.csv`` or ``ballot_rates_NN.csv`` that it did not write is deleted.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, header: list[str], rows: Iterable, line=lambda row: ",".join(map(_fmt, row))) -> None:
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(line(row) + "\n" for row in rows)
        written.append(name)

    emit(
        "winners.csv",
        ["model", "rate", "btl_required", "candidate", "wins", "frequency"],
        (
            [p.model, p.rate, p.btl_required, c, w, w / p.runs]
            for p in report.points
            for c, w in sorted(p.candidate_wins.items())
        ),
    )
    emit(
        "winner_sets.csv",
        ["model", "rate", "btl_required", "winners", "runs", "frequency"],
        (
            [p.model, p.rate, p.btl_required, "|".join(k) if k else "-", v, v / p.runs]
            for p in report.points
            for k, v in list(sorted(p.winner_sets.items()))
            + ([((), p.no_result_runs)] if p.no_result_runs else [])
        ),
    )
    emit(
        "formality.csv",
        ["model", "rate", "btl_required", "atl_ballots", "btl_ballots", "mean_formality_atl", "mean_formality_btl"],
        (
            [p.model, p.rate, p.btl_required, p.atl_ballots, p.btl_ballots, p.mean_formality_atl, p.mean_formality_btl]
            for p in report.points
        ),
    )
    emit(
        "truncation.csv",
        ["model", "rate", "btl_required", "original_prefs", "ballots", "mean_surviving"],
        (
            [p.model, p.rate, p.btl_required, length, p.bucket_counts[length], mean]
            for p in report.points
            for length, mean in p.mean_surviving.items()
        ),
    )
    if report.position_histograms:
        emit(
            "histograms.csv",
            ["candidate", "btl_required", "style", "rank", "ballots"],
            (
                [cid, variant, style, rank, n]
                for cid, variants in sorted(report.position_histograms.items())
                for variant, styles in variants.items()
                for style, counts in sorted(styles.items())
                for rank, n in sorted(counts.items())
            ),
        )
    if ballot_rates:
        for i, p in enumerate(report.points):
            idx = np.flatnonzero(p.style_codes >= 0)
            formal = p.formal_runs_per_ballot[idx]
            columns = (idx, p.style_codes[idx], p.orig_prefs[idx], formal, formal / p.runs)
            emit(
                f"ballot_rates_{i:02d}.csv",
                ["ballot", "style", "original_prefs", "formal_runs", "rate"],
                zip(*(column.tolist() for column in columns)),
                lambda row: f"{row[0]},{'BTL' if row[1] else 'ATL'},{row[2]},{row[3]},{row[4]!r}",
            )
    for path in out.iterdir():
        if path.name not in written and re.fullmatch(r"histograms\.csv|ballot_rates_\d{2,}\.csv", path.name):
            path.unlink()

    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append("report.json")
    return written
