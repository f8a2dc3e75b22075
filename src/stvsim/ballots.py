"""Domain model for Senate-style ballots.

An election ballot paper has one box per party/group "above the line" (ATL)
and one box per candidate "below the line" (BTL).  A voter writes numbers
into boxes; this module turns those raw marks into a strictly ranked
preference list and decides whether the ballot is formal (countable).

Marks are kept as digit strings rather than integers because the error
models corrupt individual digits ("12" can become "82", "1" can become
"0").  A ``MarkSheet`` refuses any mark that is not ASCII digits, so its
marks are checked once, when it is built; a non-numeric CSV token is read
as an unmarked box before a sheet is built (see ``ingest``).
Interpretation is total: a mark of 0 is an unmarked box, and leading zeros
are ignored ("07" ranks as 7).

An election layout is checked when built: among other rules, every group
has a candidate, so an ATL ranking always expands to candidates.

``interpret_marks``, ``classify_formality`` and ``expand_to_candidates``
work one sheet at a time and are the reference.  The sweep applies the
same rules to a whole election at once, for every formality variant, with
array operations (``_classify``), and builds each distinct sheet's
candidate ranking from its box codes (``_rankings``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Mapping

import numpy as np

#: Reserved group id for candidates that do not belong to any group and
#: therefore have no above-the-line box.
UNGROUPED = "-"

class BallotError(ValueError):
    """Ballot or election data is internally inconsistent."""


class VoteStyle(Enum):
    ATL = "ATL"
    BTL = "BTL"


def _is_digits(mark: object) -> bool:
    """A mark is a non-empty string of ASCII digits (``str.isdigit`` also takes '²' and '١')."""
    return isinstance(mark, str) and mark.isascii() and mark.isdigit()


def _check_id(kind: str, value: str) -> None:
    if not value or value[0] in "#[" or any(ch.isspace() or ch in ":|" for ch in value):
        raise BallotError(
            f"invalid {kind} id {value!r}: ids must be non-empty, must not start "
            "with '#' or '[' and must not contain whitespace, ':' or '|'"
        )


@dataclass(frozen=True)
class Group:
    id: str
    name: str


@dataclass(frozen=True)
class Candidate:
    id: str
    name: str
    group: str  # group id, or UNGROUPED
    position: int  # 1-based position within the group's column


@dataclass(frozen=True)
class ElectionMeta:
    """Layout of one election: groups, candidates and the number of seats."""

    name: str
    seats: int
    groups: tuple[Group, ...]
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not (1 <= self.seats < len(self.candidates)):
            raise BallotError(
                f"seats must satisfy 1 <= seats < candidates "
                f"(got seats={self.seats}, candidates={len(self.candidates)})"
            )
        group_ids = [g.id for g in self.groups]
        for gid in group_ids:
            _check_id("group", gid)
            if gid == UNGROUPED:
                raise BallotError(f"group id {UNGROUPED!r} is reserved for ungrouped candidates")
        if len(set(group_ids)) != len(group_ids):
            raise BallotError("duplicate group ids")
        cand_ids = [c.id for c in self.candidates]
        for cid in cand_ids:
            _check_id("candidate", cid)
        if len(set(cand_ids)) != len(cand_ids):
            raise BallotError("duplicate candidate ids")
        known = set(group_ids) | {UNGROUPED}
        positions: dict[str, list[int]] = {}
        for c in self.candidates:
            if c.group not in known:
                raise BallotError(f"candidate {c.id!r} references unknown group {c.group!r}")
            positions.setdefault(c.group, []).append(c.position)
        for gid in group_ids:
            if gid not in positions:
                raise BallotError(f"group {gid!r} has no candidates")
        for gid, pos in positions.items():
            if sorted(pos) != list(range(1, len(pos) + 1)):
                raise BallotError(
                    f"candidate positions in group {gid!r} must be consecutive from 1, got {sorted(pos)}"
                )

    @cached_property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.groups)

    @cached_property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.candidates)

    @cached_property
    def group_of_candidate(self) -> dict[str, str]:
        return {c.id: c.group for c in self.candidates}

    @cached_property
    def _group_members(self) -> dict[str, tuple[str, ...]]:
        # Ungrouped candidates have no above-the-line box, so no entry here.
        members: dict[str, list[tuple[int, str]]] = {}
        for c in self.candidates:
            if c.group != UNGROUPED:
                members.setdefault(c.group, []).append((c.position, c.id))
        return {gid: tuple(cid for _, cid in sorted(entries)) for gid, entries in members.items()}

    def candidates_of_group(self, group_id: str) -> tuple[str, ...]:
        try:
            return self._group_members[group_id]
        except KeyError:
            raise BallotError(f"unknown group id {group_id!r}") from None


@dataclass(frozen=True)
class FormalityRules:
    """Minimum-preference requirements for a countable ballot.

    Defaults mirror the 2016/2019 Senate rules: a formal BTL vote needs the
    numbers 1..6 present exactly once; a formal ATL vote needs the number 1
    present exactly once and no formal BTL vote on the same paper.
    """

    btl_required_prefs: int = 6
    atl_required_prefs: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.btl_required_prefs <= 9):
            raise BallotError("btl_required_prefs must be in [1, 9]")
        if self.atl_required_prefs < 1:
            raise BallotError("atl_required_prefs must be >= 1")

    def required(self, style: VoteStyle) -> int:
        return self.btl_required_prefs if style is VoteStyle.BTL else self.atl_required_prefs


@dataclass(frozen=True)
class MarkSheet:
    """Raw numeric marks on one ballot paper (possibly many identical papers).

    A box absent from a map is unmarked.  Mark values are digit strings,
    checked once here; the maps are read-only copies, so a built sheet's
    marks cannot change.
    """

    atl_marks: Mapping[str, str]
    btl_marks: Mapping[str, str]
    multiplicity: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "atl_marks", MappingProxyType(dict(self.atl_marks)))
        object.__setattr__(self, "btl_marks", MappingProxyType(dict(self.btl_marks)))
        if self.multiplicity < 1:
            raise BallotError("multiplicity must be >= 1")
        for marks in (self.atl_marks, self.btl_marks):
            for box, mark in marks.items():
                if not _is_digits(mark):
                    raise BallotError(f"mark for box {box!r} must be a digit string, got {mark!r}")

    def __reduce__(self):
        # A mapping proxy cannot be pickled: rebuild the sheet from plain dicts.
        return MarkSheet, (dict(self.atl_marks), dict(self.btl_marks), self.multiplicity)


@dataclass(frozen=True)
class Preferences:
    """A canonical, strictly ranked preference list.

    The ranking holds group ids for an ATL vote and candidate ids for a BTL
    vote, in preference order, with no gaps or duplicates.
    """

    style: VoteStyle
    ranking: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if not self.ranking:
            raise BallotError("a preference list cannot be empty")
        if len(set(self.ranking)) != len(self.ranking):
            raise BallotError("preference ranking contains duplicates")

    def __len__(self) -> int:
        return len(self.ranking)


def interpret_marks(marks: Mapping[Hashable, int]) -> tuple:
    """Extract the longest usable preference prefix from numeric marks.

    For m = 1, 2, 3, ... the box marked m joins the ranking while exactly one
    box carries that mark; the scan stops at the first m that is absent or
    repeated.  Marks <= 0 count as unmarked.  Total: never raises, and the
    result may be empty.
    """
    holder: dict[int, Hashable | None] = {}  # None once a second box holds the number
    for box, value in marks.items():
        if value > 0:
            holder[value] = None if value in holder else box
    ranking = []
    while (box := holder.get(len(ranking) + 1)) is not None:
        ranking.append(box)
    return tuple(ranking)


def classify_formality(sheet: MarkSheet, rules: FormalityRules | None = None) -> Preferences | None:
    """Decide whether a mark sheet is formal, and under which vote style.

    Returns the canonical preferences of the winning style, or None for an
    informal ballot.  A formal BTL ranking beats any ATL marks; an ATL vote
    is only formal when no formal BTL ranking is present.
    """
    rules = rules or FormalityRules()
    for style, marks in ((VoteStyle.BTL, sheet.btl_marks), (VoteStyle.ATL, sheet.atl_marks)):
        ranking = interpret_marks({box: int(mark) for box, mark in marks.items()})
        if len(ranking) >= rules.required(style):
            return Preferences(style, ranking)
    return None


class CandidateRanking(tuple):
    """Candidate ids in preference order, each known to one election's layout.

    ``expand_to_candidates`` builds one after checking every id, and
    ``_rankings`` builds one per distinct formal sheet from the layout's own
    box codes (for a sweep, ``formal_ballots`` and ``stvsim count``).  It is
    the only ranking that the count takes, and it is counted as it is.  A
    non-empty prefix of one, or a reordering of some of its candidates that
    keeps no id twice, keeps that promise; a slice is a plain tuple until it
    is wrapped again.
    """

    __slots__ = ()


def expand_to_candidates(prefs: Preferences, meta: ElectionMeta) -> CandidateRanking:
    """Flatten preferences to the checked candidate ranking that the count takes.

    A BTL ranking keeps its ids, each checked against ``meta``.  An ATL
    ranking expands each group, in ranked order, to its candidates in
    ballot-paper position order.  An unknown id raises ``BallotError``.
    """
    if prefs.style is VoteStyle.BTL:
        for cid in prefs.ranking:
            if cid not in meta.group_of_candidate:
                raise BallotError(f"ranking references unknown candidate {cid!r}")
        return CandidateRanking(prefs.ranking)
    out: list[str] = []
    for gid in prefs.ranking:
        out.extend(meta.candidates_of_group(gid))
    return CandidateRanking(out)


class _MarkNumbers(dict):
    """Mark string -> its number, each distinct string read once; a number above ``cap`` reads ``cap``."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def __missing__(self, mark: str) -> int:
        number = self[mark] = min(int(mark), self.cap)
        return number


def _box_ids(meta: ElectionMeta) -> list[str]:
    """The box of each box code: the sorted group ids, then the sorted candidate ids.

    A sheet ranks one style's boxes, so sorting its codes sorts its box ids,
    and a group and a candidate that share an id keep two codes.
    """
    return sorted(meta.group_ids) + sorted(meta.candidate_ids)


def _classify(meta: ElectionMeta, sheets: tuple[MarkSheet, ...], variants: list[FormalityRules]) -> list[tuple]:
    """The one formality pass over an election's sheets, for every variant at once.

    Each style's marks are read once into flat arrays of (record, box code,
    number), each distinct mark string converted once.  A record's run in a
    style is how many of the numbers 1, 2, ... are each held by exactly one
    box (the rule of ``interpret_marks``), found for every record from one
    count of (record, number) pairs; a number above the style's box count
    can never join a run.  A variant's decision is two comparisons per
    record: BTL if its BTL run is long enough, else ATL if its ATL run is,
    else informal, so a formal BTL ranking beats ATL marks.  Variants whose
    decisions are equal form one group, in order of their first variant.
    Returns, per group: its variants; each physical ballot's distinct formal
    sheet (-1 if informal), the sheets numbered in file order; and per
    sheet its style code (0 ATL, 1 BTL), its preference count and, flat in
    sheet and rank order, its ranked boxes' codes (indices into ``_box_ids``).
    """
    n = len(sheets)
    box_ids, n_groups = _box_ids(meta), len(meta.group_ids)
    numbers = _MarkNumbers(len(meta.candidate_ids) + 1)  # no run is longer than the candidates
    runs, holders = [], []
    for first, end, marks in ((0, n_groups, [s.atl_marks for s in sheets]),
                              (n_groups, len(box_ids), [s.btl_marks for s in sheets])):
        record = np.repeat(np.arange(n, dtype=np.int32), np.fromiter(map(len, marks), dtype=np.int64, count=n))
        code = dict(zip(box_ids[first:end], range(first, end)))
        box = np.fromiter(map(code.__getitem__, itertools.chain.from_iterable(marks)), np.int32, len(record))
        values = itertools.chain.from_iterable(m.values() for m in marks)
        number = np.fromiter(map(numbers.__getitem__, values), np.int32, len(record))
        # A number above the boxes never joins a run: read it as one past them, which no run reaches.
        np.minimum(number, end - first + 1, out=number)
        width = end - first + 2
        key = record.astype(np.int64)
        key *= width
        key += number
        run = np.argmax(np.bincount(key, minlength=n * width).reshape(n, width)[:, 1:] != 1, axis=1)
        del key
        ranked = (number >= 1) & (number <= run.astype(np.int32)[record])  # a number's one holder in the run
        runs.append(run)
        holders.append((record[ranked], number[ranked], box[ranked]))
        del record, box, number, ranked
    atl_run, btl_run = runs
    groups: list[tuple[list[FormalityRules], np.ndarray]] = []
    for rules in variants:
        style = np.where(btl_run >= rules.btl_required_prefs, 1, np.where(atl_run >= rules.atl_required_prefs, 0, -1))
        group = next((g for g in groups if np.array_equal(g[1], style)), None)
        if group is None:
            groups.append(group := ([], style))
        group[0].append(rules)

    width = max(int(atl_run.max(initial=0)), int(btl_run.max(initial=0)), 1)
    multiplicity = np.fromiter((s.multiplicity for s in sheets), dtype=np.int64, count=n)
    out = []
    for rules, style in groups:
        # One row of box codes per record, in rank order and padded with -1;
        # the two styles' codes differ, so equal rows are equal preferences.
        table = np.full((n, width), -1, dtype=np.min_scalar_type(-len(box_ids)))
        for style_code, (record, number, box) in enumerate(holders):  # 0 ATL, 1 BTL
            keep = style[record] == style_code
            table[record[keep], number[keep] - 1] = box[keep]
        formal = np.flatnonzero(style >= 0)
        rows = table[formal]
        as_bytes = rows.view(np.dtype((np.void, width * rows.itemsize))).reshape(-1)
        _, first_of, which = np.unique(as_bytes, return_index=True, return_inverse=True)
        firsts, sheet = np.unique(first_of[which], return_inverse=True)  # sheets numbered by their first record
        record_sheet = np.full(n, -1, dtype=np.int32)
        record_sheet[formal] = sheet
        boxes = rows[firsts]
        out.append((
            rules,
            np.repeat(record_sheet, multiplicity),
            style[formal[firsts]].astype(np.int8),
            np.count_nonzero(boxes >= 0, axis=1),
            boxes[boxes >= 0],
        ))
    return out


def _rankings(
    meta: ElectionMeta, style: np.ndarray, n_boxes: np.ndarray, codes: np.ndarray
) -> tuple[list[CandidateRanking], list[tuple[int, ...] | None]]:
    """Each sheet's candidate ranking, and where its prefixes end, from its ranked box codes.

    A group's box stands for its candidates in ballot-paper position order,
    as ``expand_to_candidates`` expands it; every code names a box of the
    layout, so the ranking's ids are known.  For an ATL sheet, the ends are
    the candidate counts of its first 0, 1, 2, ... ranked groups; a BTL
    sheet has None, since its preferences are its candidates.
    """
    box_ids, n_groups = _box_ids(meta), len(meta.group_ids)
    stands_for = [meta.candidates_of_group(g) for g in box_ids[:n_groups]] + box_ids[n_groups:]
    flat = np.fromiter(stands_for, dtype=object, count=len(stands_for))[codes].tolist()
    bounds = [0, *np.cumsum(n_boxes).tolist()]
    styles = style.tolist()
    rankings = [
        CandidateRanking(flat[a:b] if btl else itertools.chain.from_iterable(flat[a:b]))
        for btl, a, b in zip(styles, bounds, bounds[1:])
    ]
    ends = [
        None if btl else tuple(itertools.accumulate(map(len, flat[a:b]), initial=0))
        for btl, a, b in zip(styles, bounds, bounds[1:])
    ]
    return rankings, ends


def marks_for_ranking(boxes: list[str] | tuple[str, ...]) -> dict[str, str]:
    """The clean marks of a ranking: "1" in its first box, "2" in its second, and so on."""
    return {box: str(rank) for rank, box in enumerate(boxes, start=1)}


def marks_from_preferences(prefs: Preferences) -> MarkSheet:
    """Render canonical preferences back to a clean mark sheet.

    Writes the ranks 1..k into the ranked boxes of the ballot's style and
    leaves every other box unmarked.  This is the substrate the digit error
    models corrupt.
    """
    marks = marks_for_ranking(prefs.ranking)
    if prefs.style is VoteStyle.ATL:
        return MarkSheet(atl_marks=marks, btl_marks={})
    return MarkSheet(atl_marks={}, btl_marks=marks)
