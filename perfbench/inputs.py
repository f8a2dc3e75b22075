"""Election files for the benchmark workloads.

Run as a script, this writes one election's canonical ``.stv`` file and a
``.json`` make-up file beside it::

    python3 perfbench/inputs.py --election senate --seed 3 --out perfbench/_work/inputs/senate-seed3

The benchmark runs it in a child process, so the process that loads the
election and runs the sweep never builds it and its peak RSS covers only
what ``stvsim simulate`` itself would hold.

The make-up file records, per vote style, how many physical ballots write
each list length and how many distinct sheets there are.  It is derived
from the generator's own lists, not from anything the package reads back,
so the benchmark's reference figures do not depend on the package's
ingest or formality code.

``senate`` is a synthetic Senate-shaped election.  Its structure is
fixed: every count below is the same for every seed.  The seed chooses
only which boxes each sheet ranks, and in what order.

* 58 candidates: 20 groups of 6, 6, 4, 4, 3, 3, 3, 3 and twelve of 2
  candidates, plus 2 ungrouped candidates.  12 seats.
* 3,000 ballots: 2,100 ATL (70 %) and 900 BTL (30 %).
* Group popularity follows Zipf weights ``1 / rank ** 1.1``; each style's
  first preferences are split between the groups in those proportions.
* ATL: each group hands out one how-to-vote card ranking itself and 5
  other groups (length 6) and has a "1 only" sheet (length 1).  90 % of a
  group's ATL voters use one of the two (5:1), and 10 % (210 ballots) write
  their own distinct order of 2 to 20 groups.  That makes 250 distinct ATL
  sheets.
* BTL: every sheet is distinct (900 sheets).  Lengths: 225 of 6, 360 of
  12, 180 spread evenly over 7-11 and 13-57, and 135 of all 58.
* So 1,150 of the 3,000 ballots (38.3 %) are distinct sheets.  The per-sheet
  loop of the sweep costs in proportion to that number.

Where these figures come from: the candidate and group counts, the seats,
the 70/30 ATL/BTL split and BTL lengths from 6 to 58 follow the Senate
shape the project's roadmap sets out.  The rest is assumed, not taken from
published election statistics: the share of ATL voters on cards (90 %),
the card to "1 only" split (5:1), the number of own-order ATL voters, the
BTL length mix, and so the distinct-sheet share.  ``SENATE_ATL_OWN_ORDER``
moves that share alone; perfbench/README.md gives the layer split at
another value of it.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ELECTIONS = ("senate", "bias", "ladder")

SENATE_GROUP_SIZES = (6, 6, 4, 4, 3, 3, 3, 3) + (2,) * 12
SENATE_UNGROUPED = 2
SENATE_SEATS = 12
SENATE_ATL = 2100
SENATE_BTL = 900
SENATE_ATL_OWN_ORDER = 210  # ATL voters who follow no card
SENATE_CARD_LENGTH = 6
SENATE_BTL_LENGTHS = ((6, 225), (12, 360), (58, 135))
SENATE_BTL_SPREAD = 180  # spread evenly over the other lengths 7..57


def _allocate(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(s) for s in shares]
    order = sorted(range(len(weights)), key=lambda i: counts[i] - shares[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _plackett_luce(rng: random.Random, items: list, weights: list[float], first) -> list:
    """``first``, then the other items in a weighted random order."""
    rest = [(i, w) for i, w in zip(items, weights) if i != first]
    # Exponential race: sorting by E / w draws a Plackett-Luce order.
    keyed = sorted(rest, key=lambda iw: rng.expovariate(1.0) / iw[1])
    return [first] + [i for i, _ in keyed]


def senate_election(seed: int):
    """The ``senate`` election and its make-up, deterministic from ``seed``."""
    from stvsim import Candidate, ElectionFile, ElectionMeta, Group, MarkSheet

    rng = random.Random(seed)
    groups = [Group(f"G{g:02d}", f"Group {g}") for g in range(1, len(SENATE_GROUP_SIZES) + 1)]
    members: list[list[str]] = []
    candidates = []
    for group, size in zip(groups, SENATE_GROUP_SIZES):
        ids = [f"c{len(candidates) + p:02d}" for p in range(1, size + 1)]
        members.append(ids)
        candidates.extend(Candidate(cid, f"Candidate {cid}", group.id, p) for p, cid in enumerate(ids, 1))
    ungrouped = [f"c{len(candidates) + p:02d}" for p in range(1, SENATE_UNGROUPED + 1)]
    candidates.extend(Candidate(cid, f"Candidate {cid}", "-", 1 + i) for i, cid in enumerate(ungrouped))
    meta = ElectionMeta("senate-shaped synthetic election", SENATE_SEATS, tuple(groups), tuple(candidates))

    group_ids = [g.id for g in groups]
    weights = [1.0 / rank ** 1.1 for rank in range(1, len(groups) + 1)]
    sheets: list[MarkSheet] = []
    seen: set[tuple] = set()
    lengths = {"ATL": Counter(), "BTL": Counter()}

    def add(style: str, ranking: list[str], multiplicity: int) -> None:
        marks = {box: str(rank) for rank, box in enumerate(ranking, 1)}
        sheets.append(MarkSheet(marks, {}, multiplicity) if style == "ATL" else MarkSheet({}, marks, multiplicity))
        seen.add((style, tuple(ranking)))
        lengths[style][len(ranking)] += multiplicity

    def fresh(style: str, draw) -> list[str]:
        while True:
            ranking = draw()
            if (style, tuple(ranking)) not in seen:
                return ranking

    # ATL: two cards per group, then voters with orders of their own.
    card_voters = _allocate(SENATE_ATL - SENATE_ATL_OWN_ORDER, weights)
    for gid, n in zip(group_ids, card_voters):
        card = _plackett_luce(rng, group_ids, weights, gid)[:SENATE_CARD_LENGTH]
        add("ATL", card, n - n // 6)
        add("ATL", [gid], n // 6)
    own_voters = _allocate(SENATE_ATL_OWN_ORDER, weights)
    k = 0
    for gid, n in zip(group_ids, own_voters):
        for _ in range(n):
            length = 2 + k % 19
            k += 1
            add("ATL", fresh("ATL", lambda: _plackett_luce(rng, group_ids, weights, gid)[:length]), 1)

    # BTL: the voter's group order, candidates mostly in ballot-paper order,
    # ungrouped candidates slotted in at random.
    spread = [n for n in range(7, 58) if n != 12]
    btl_lengths = [n for n, count in SENATE_BTL_LENGTHS for _ in range(count)]
    btl_lengths += [spread[i % len(spread)] for i in range(SENATE_BTL_SPREAD)]
    first_groups = [g for g, n in enumerate(_allocate(SENATE_BTL, weights)) for _ in range(n)]
    rng.shuffle(btl_lengths)

    def btl_order(first: int, length: int) -> list[str]:
        order: list[str] = []
        for g in _plackett_luce(rng, list(range(len(groups))), weights, first):
            ids = list(members[g])
            if rng.random() < 0.3:
                rng.shuffle(ids)
            order.extend(ids)
        for cid in ungrouped:
            order.insert(rng.randrange(1, len(order) + 1), cid)
        return order[:length]

    for first, length in zip(first_groups, btl_lengths):
        add("BTL", fresh("BTL", lambda: btl_order(first, length)), 1)

    election = ElectionFile(meta, tuple(sheets), provenance="synthetic: perfbench senate")
    return election, _makeup(election.total_ballots, lengths, sheets)


def _makeup(total: int, lengths: dict[str, Counter], sheets) -> dict:
    return {
        "ballots": total,
        "distinct_sheets": {
            "ATL": sum(1 for s in sheets if s.atl_marks),
            "BTL": sum(1 for s in sheets if s.btl_marks),
        },
        "lengths": {style: {str(n): c for n, c in sorted(counter.items())} for style, counter in lengths.items()},
    }


def synth_election(name: str):
    """The fixed ``bias`` or ``ladder`` election and its make-up."""
    from stvsim import synth

    election = synth.formality_bias_election() if name == "bias" else synth.truncation_ladder_election()
    lengths = {"ATL": Counter(), "BTL": Counter()}
    for sheet in election.sheets:
        style, marks = ("ATL", sheet.atl_marks) if sheet.atl_marks else ("BTL", sheet.btl_marks)
        lengths[style][len(marks)] += sheet.multiplicity
    return election, _makeup(election.total_ballots, lengths, election.sheets)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--election", required=True, choices=ELECTIONS)
    parser.add_argument("--seed", type=int, default=1, help="used by senate only")
    parser.add_argument("--out", required=True, help="output stem: writes <out>.stv and <out>.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from stvsim import write_election_file

    if args.election == "senate":
        election, makeup = senate_election(args.seed)
    else:
        election, makeup = synth_election(args.election)
    stem = Path(args.out)
    stem.parent.mkdir(parents=True, exist_ok=True)
    # Write under temporary names and rename, so an interrupted run leaves no
    # half-written cache entry behind.
    tmp_stv, tmp_json = stem.with_suffix(".stv.tmp"), stem.with_suffix(".json.tmp")
    write_election_file(election, tmp_stv)
    tmp_json.write_text(json.dumps(makeup, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp_stv, stem.with_suffix(".stv"))
    os.replace(tmp_json, stem.with_suffix(".json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
