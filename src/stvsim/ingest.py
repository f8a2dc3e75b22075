"""Reading and writing election data.

Two formats live here:

* published preference CSVs (one row per ballot paper, one column holding
  the comma-separated marks for every box), which are parsed into mark
  sheets;
* the canonical election file used by every other module, a human-diffable
  text format described below.

Election files are read from and written to paths.  The CSV parser takes a
path, which it opens and closes, or a binary stream, which it leaves open
(``stvsim ingest`` passes an open binary file); either is decoded line by
line.

Canonical election file grammar (UTF-8, LF or CRLF)::

    #stv-election v1
    [election]
    name<TAB>Election name
    seats<TAB>2
    provenance<TAB>free text (optional)
    [groups]
    <group id><TAB><group name>           # one line per ATL box, ballot order
    [candidates]
    <candidate id><TAB><name><TAB><group id><TAB><position>
    [sheets]
    <multiplicity><TAB><atl pairs><TAB><btl pairs>

Sheet pairs are space-separated ``box:mark`` tokens with marks kept as the
ASCII digit strings that were read ("07" round-trips as "07"); an empty
field means no marks in that section.  A group id of ``-`` marks an ungrouped
candidate (no ATL box).  Blank lines and ``#`` comment lines are ignored
after the version header.  Most voters mark only a handful of boxes, so
sheets are stored sparsely.  The CSV parser merges identical rows into one
sheet by summing multiplicity; an election file's sheets are read as written,
identical ones included.
"""
from __future__ import annotations

import csv
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .ballots import (
    BallotError,
    Candidate,
    ElectionMeta,
    Group,
    MarkSheet,
    _is_digits,
)

FORMAT_HEADER = "#stv-election v1"


class IngestError(ValueError):
    """A stream could not be read at all (as opposed to a bad row)."""


class SchemaError(IngestError):
    """A canonical election file violates the format."""


@dataclass(frozen=True)
class ElectionFile:
    """An election layout plus its multiplicity-compressed ballots."""

    meta: ElectionMeta
    sheets: tuple[MarkSheet, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "sheets", tuple(self.sheets))
        group_ids = set(self.meta.group_ids)
        cand_ids = set(self.meta.candidate_ids)
        for i, sheet in enumerate(self.sheets):
            for box in sheet.atl_marks:
                if box not in group_ids:
                    raise SchemaError(f"sheet {i}: unknown group box {box!r}")
            for box in sheet.btl_marks:
                if box not in cand_ids:
                    raise SchemaError(f"sheet {i}: unknown candidate box {box!r}")

    @property
    def total_ballots(self) -> int:
        return sum(s.multiplicity for s in self.sheets)


@dataclass(frozen=True)
class ColumnMap:
    """Where to find the preference string in a CSV row.

    ``preferences`` selects the column by header name or by 0-based index.
    Within the preference string, the i-th comma-separated token is the mark
    for the i-th box, with boxes ordered ATL (group order) then BTL
    (candidate order).
    """

    preferences: str | int
    header: bool = True


@dataclass(frozen=True)
class RowIssue:
    row: int  # 1-based physical line on which the row ends, header included
    reason: str


@dataclass
class IngestResult:
    election: ElectionFile
    issues: list[RowIssue] = field(default_factory=list)


def _clean_token(token: str) -> str | None:
    """Map one CSV preference token to a mark string (None = unmarked)."""
    token = token.strip()
    if not token:
        return None
    if token in ("/", "*"):  # published tick-mark conventions for a first preference
        return "1"
    return token if _is_digits(token) else None


def parse_preference_csv(
    stream, meta: ElectionMeta, column_map: ColumnMap, provenance: str = ""
) -> IngestResult:
    """Parse a published preference CSV into an ElectionFile.

    ``stream`` is a path, opened and closed here, or a binary stream of UTF-8
    text, left open; it is split at CR, LF and CRLF and decoded line by line,
    skipping one byte-order mark at the start (spreadsheet exports write one).
    Bad rows (wrong token count, missing column) are collected as issues; an
    unreadable stream is a hard error that names the row.
    """
    boxes = list(meta.group_ids) + list(meta.candidate_ids)
    n_atl = len(meta.group_ids)
    with open(stream, "rb") if isinstance(stream, (str, Path)) else nullcontext(stream) as source:
        pieces = (piece for line in source for piece in line.splitlines(keepends=True))
        text = (piece.decode("utf-8" if i else "utf-8-sig") for i, piece in enumerate(pieces))
        rows = csv.reader(text)
        col = column_map.preferences
        try:
            if column_map.header:
                header = next(rows, None)
                if header is None:
                    raise IngestError("CSV is empty")
                if isinstance(col, str):
                    try:
                        col = header.index(col)
                    except ValueError:
                        raise IngestError(f"preference column {col!r} not in header {header}") from None
            elif isinstance(col, str):
                raise IngestError(f"a headerless CSV needs a numeric preference column index, got {col!r}")
            if col < 0:
                raise IngestError(f"preference column index {col} is negative")

            issues: list[RowIssue] = []
            papers: Counter = Counter()  # (ATL pairs, BTL pairs) in box order -> rows
            for row in rows:
                if not row:
                    continue
                if col >= len(row):
                    issues.append(RowIssue(rows.line_num, f"no column {col} in row of {len(row)} fields"))
                    continue
                tokens = row[col].split(",")
                if len(tokens) != len(boxes):
                    issues.append(
                        RowIssue(rows.line_num, f"expected {len(boxes)} preference tokens, got {len(tokens)}")
                    )
                    continue
                atl: dict[str, str] = {}
                btl: dict[str, str] = {}
                for i, raw in enumerate(tokens):
                    mark = _clean_token(raw)
                    if mark is None:
                        continue
                    (atl if i < n_atl else btl)[boxes[i]] = mark
                papers[tuple(atl.items()), tuple(btl.items())] += 1
        except csv.Error as exc:
            raise IngestError(f"malformed CSV near row {rows.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The decode fails before csv.reader is handed the line.
            raise IngestError(f"malformed CSV near row {rows.line_num + 1}: {exc}") from None

    sheets = tuple(MarkSheet(dict(atl), dict(btl), n) for (atl, btl), n in papers.items())
    return IngestResult(ElectionFile(meta, sheets, provenance), issues)


def _pairs(marks: dict[str, str]) -> str:
    return " ".join(f"{box}:{mark}" for box, mark in sorted(marks.items()))


def write_election_file(election: ElectionFile, path: str | Path) -> None:
    """Write the canonical format.  Output is canonical: byte-stable for equal inputs."""
    # Checked before the file is opened, so that a refused value leaves no file behind.
    _check_field("name", election.meta.name)
    _check_field("provenance", election.provenance)
    for g in election.meta.groups:
        _check_field("group name", g.name)
    for c in election.meta.candidates:
        _check_field("candidate name", c.name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = fh.write
        w(FORMAT_HEADER + "\n")
        w("[election]\n")
        w(f"name\t{election.meta.name}\n")
        w(f"seats\t{election.meta.seats}\n")
        if election.provenance:
            w(f"provenance\t{election.provenance}\n")
        w("[groups]\n")
        for g in election.meta.groups:
            w(f"{g.id}\t{g.name}\n")
        w("[candidates]\n")
        for c in election.meta.candidates:
            w(f"{c.id}\t{c.name}\t{c.group}\t{c.position}\n")
        w("[sheets]\n")
        for sheet in election.sheets:
            w(f"{sheet.multiplicity}\t{_pairs(sheet.atl_marks)}\t{_pairs(sheet.btl_marks)}\n")


def _check_field(kind: str, value: str) -> None:
    """Refuse a value that would not read back as written: the reader splits lines and fields, and strips each."""
    if "\t" in value or len(value.splitlines()) > 1 or value != value.strip():
        raise SchemaError(f"{kind} {value!r} must not contain tabs or newlines, or start or end with whitespace")


def _parse_pairs(text: str, lineno: int) -> dict[str, str]:
    marks: dict[str, str] = {}
    for token in text.split():
        box, sep, mark = token.partition(":")
        if not sep or not box or not _is_digits(mark):
            raise SchemaError(f"line {lineno}: bad box:mark pair {token!r}")
        if box in marks:
            raise SchemaError(f"line {lineno}: box {box!r} listed twice")
        marks[box] = mark
    return marks


def read_election_file(path: str | Path) -> ElectionFile:
    """Read the canonical format; raises SchemaError with a line number on violations."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        found = lines[0].strip() if lines else "<empty file>"
        raise SchemaError(f"line 1: expected header {FORMAT_HEADER!r}, found {found!r}")

    section = None
    fields: dict[str, str] = {}
    groups: list[Group] = []
    candidates: list[Candidate] = []
    sheets: list[MarkSheet] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
            if section not in ("election", "groups", "candidates", "sheets"):
                raise SchemaError(f"line {lineno}: unknown section {section!r}")
            continue
        if section == "election":
            key, sep, value = line.partition("\t")
            if not sep:
                raise SchemaError(f"line {lineno}: expected key<TAB>value")
            key = key.strip()
            if key not in ("name", "seats", "provenance"):
                raise SchemaError(f"line {lineno}: unknown [election] field {key!r}")
            if key in fields:
                raise SchemaError(f"line {lineno}: [election] field {key!r} given twice")
            fields[key] = value.strip()
        elif section == "groups":
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: expected id<TAB>name")
            groups.append(Group(parts[0].strip(), parts[1].strip()))
        elif section == "candidates":
            parts = line.split("\t")
            if len(parts) != 4:
                raise SchemaError(f"line {lineno}: expected id<TAB>name<TAB>group<TAB>position")
            try:
                position = int(parts[3])
            except ValueError:
                raise SchemaError(f"line {lineno}: position {parts[3]!r} is not an integer") from None
            candidates.append(Candidate(parts[0].strip(), parts[1].strip(), parts[2].strip(), position))
        elif section == "sheets":
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaError(f"line {lineno}: expected multiplicity<TAB>atl<TAB>btl")
            try:
                mult = int(parts[0])
            except ValueError:
                raise SchemaError(f"line {lineno}: multiplicity {parts[0]!r} is not an integer") from None
            try:
                sheets.append(MarkSheet(_parse_pairs(parts[1], lineno), _parse_pairs(parts[2], lineno), mult))
            except BallotError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from None
        else:
            raise SchemaError(f"line {lineno}: content before any section header")

    for key in ("name", "seats"):
        if key not in fields:
            raise SchemaError(f"missing [election] field {key!r}")
    try:
        seats = int(fields["seats"])
    except ValueError:
        raise SchemaError(f"seats {fields['seats']!r} is not an integer") from None
    try:
        meta = ElectionMeta(fields["name"], seats, tuple(groups), tuple(candidates))
        return ElectionFile(meta, tuple(sheets), fields.get("provenance", ""))
    except BallotError as exc:
        raise SchemaError(str(exc)) from None
