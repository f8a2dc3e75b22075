"""Synthetic elections for experiments and verification.

The builders here construct small elections with known structure: a
two-group contest engineered so that digitisation errors flip the winner,
and a ladder of long and short preference lists for truncation
measurements (always 12 groups of 5 candidates, with 60-preference BTL and
10-preference ATL ballots; only the two ballot counts vary).
"""
from __future__ import annotations

from .ballots import Candidate, ElectionMeta, Group, MarkSheet, marks_for_ranking
from .ingest import ElectionFile


def formality_bias_election(atl_votes: int = 4950, btl_votes: int = 5050) -> ElectionFile:
    """A one-seat contest where the winner depends on ballot style survival.

    Candidate ``a1`` is fed entirely by single-preference ATL votes (one
    digit on the sheet) while candidate ``b1`` is fed entirely by
    six-preference BTL votes (six digits, every one of which must survive
    for the ballot to stay formal under the default rules).  With
    ``btl_votes`` slightly ahead, ``b1`` wins a clean count, but a per-digit
    error rate around 1% removes roughly 5% of the BTL ballots against 1%
    of the ATL ballots and hands the seat to ``a1``.
    """
    meta = ElectionMeta(
        name="formality-bias fixture",
        seats=1,
        groups=(Group("A", "Group A"), Group("B", "Group B")),
        candidates=(
            Candidate("a1", "A first", "A", 1),
            Candidate("a2", "A second", "A", 2),
            Candidate("a3", "A third", "A", 3),
            Candidate("b1", "B first", "B", 1),
            Candidate("b2", "B second", "B", 2),
            Candidate("b3", "B third", "B", 3),
        ),
    )
    sheets = (
        MarkSheet({"A": "1"}, {}, atl_votes),
        MarkSheet({}, marks_for_ranking(["b1", "b2", "b3", "a3", "a2", "a1"]), btl_votes),
    )
    return ElectionFile(meta, sheets, provenance="synthetic")


def truncation_ladder_election(long_ballots: int = 2000, short_ballots: int = 2000) -> ElectionFile:
    """Long BTL preference runs next to short ATL runs.

    Twelve groups of five candidates each.  ``long_ballots`` papers rank all
    60 candidates below the line (marks 1..60) and ``short_ballots`` papers
    rank the first 10 groups above the line, giving two clean buckets for
    before/after preference-count comparisons.
    """
    groups = tuple(Group(f"G{i:02d}", f"Group {i}") for i in range(1, 13))
    candidates = tuple(
        Candidate(f"c{g * 5 + p:03d}", f"Candidate {g},{p}", group.id, p)
        for g, group in enumerate(groups)
        for p in range(1, 6)
    )
    meta = ElectionMeta("truncation ladder fixture", 1, groups, candidates)
    sheets = (
        MarkSheet({}, marks_for_ranking([c.id for c in candidates]), long_ballots),
        MarkSheet(marks_for_ranking([g.id for g in groups[:10]]), {}, short_ballots),
    )
    return ElectionFile(meta, sheets, provenance="synthetic")

