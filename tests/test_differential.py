"""The sweep's flat pass against the scalar path, ballot by ballot.

``perturb_ballot`` with ``RandomStream(derive_seed(base_seed, run, i))`` is
the reference for physical ballot i at every rate.  At high error rates, on
an election with repeated sheets, two-digit boxes and both vote styles,
every (formality variant, rate) row of a run's shared pass must give each
ballot the same formality and surviving length, the same multiset of formal
rankings (as the checked candidate rankings that the count takes), and so
the same winners, in whole-election blocks and in blocks
of at most 16 digits, both where each variant classifies the election its
own way and where two variants share one pass.  A row returns only the
ballots it changed; every other formal ballot keeps its clean length.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from stvsim import (
    Candidate,
    CandidateRanking,
    ConfusionModel,
    ElectionFile,
    ElectionMeta,
    Group,
    MarkSheet,
    RandomStream,
    SimConfig,
    classify_formality,
    count_stv,
    derive_seed,
    expand_to_candidates,
    perturb_ballot,
    run_sweep,
)
from stvsim.rng import seed_vector
from stvsim import sim
from stvsim.sim import _build_points, _draw_plan, _perturb_run, _prepare
from stvsim.synth import formality_bias_election, marks_for_ranking

BASE_SEED = 2024
RUNS = 6
# A heavy confusion table: each digit keeps its value with probability 0.64.
HEAVY_CONFUSION = ConfusionModel(0.6 * np.eye(10) + 0.04 * np.ones((10, 10)))
# Each 1 reads as 2 and each 2 as 1 with probability 0.5, so boxes ranked
# 1 and 2 often trade ranks and leave every preference in place.
SWAP_CONFUSION = ConfusionModel(0.5 * np.eye(10) + 0.5 * np.eye(10)[[0, 2, 1, 3, 4, 5, 6, 7, 8, 9]])


def mixed_election() -> ElectionFile:
    groups = tuple(Group(g, f"Group {g}") for g in "ABCDE")
    candidates = tuple(
        Candidate(f"{g.lower()}{p}", "", g, p) for g in "ABCDE" for p in (1, 2, 3)
    )
    meta = ElectionMeta("mixed fixture", 3, groups, candidates)
    ids = [c.id for c in candidates]
    sheets = (
        MarkSheet({"A": "1"}, {}, 6),
        MarkSheet(marks_for_ranking(["B", "A", "C", "E", "D"]), {}, 4),
        MarkSheet({}, marks_for_ranking(ids[::-1]), 5),  # 15 preferences
        MarkSheet({}, marks_for_ranking((ids[3:] + ids[:3])[:12]), 3),
        MarkSheet({}, marks_for_ranking(["c1", "a1", "e2", "b3", "d1", "a2"]), 4),
        MarkSheet({}, {"c1": "1"}, 2),  # formal only when one BTL preference suffices
        MarkSheet({"C": "1"}, marks_for_ranking(["e1", "e2", "e3", "d1", "d2", "d3", "a1"]), 2),
        MarkSheet(marks_for_ranking(["D", "E"]), marks_for_ranking(["b1", "b2", "b3"]), 3),
        MarkSheet({"A": "1"}, {}, 2),  # the first sheet again, as a separate record
        MarkSheet({"A": "2"}, {}, 1),  # informal under every rule
    )
    return ElectionFile(meta, sheets)


def scalar_run(election, rules, model, run):
    """Per-ballot surviving lengths, the formal multiset and the moved and swapped ballots, one ballot at a time.

    A moved ballot is formal with a ranking that is not a prefix of its
    clean one; a swapped ballot is a moved one that kept every preference.
    """
    lengths, ballots, moved, swapped = [], Counter(), 0, 0
    i = 0
    for sheet in election.sheets:
        prefs = classify_formality(sheet, rules)
        for _ in range(sheet.multiplicity):
            out = prefs
            if prefs is not None and model is not None:
                stream = RandomStream(derive_seed(BASE_SEED, run, i))
                out = perturb_ballot(prefs, model, rules, stream)
            lengths.append(0 if out is None else len(out.ranking))
            if out is not None:
                ballots[out] += 1
                moved += out.ranking != prefs.ranking[:len(out.ranking)]
                swapped += out.ranking != prefs.ranking and len(out.ranking) == len(prefs.ranking)
            i += 1
    return np.array(lengths), ballots, moved, swapped


def dense_lengths(prep, changed, lengths):
    """Every physical ballot's surviving length from a row's changed formal ballots."""
    dense = prep.orig_prefs.astype(np.int64)
    dense[prep.ballot_index[changed]] = lengths
    return dense


def multiset(pairs):
    """A row's ``(CandidateRanking, papers)`` pairs summed by ranking; every pair holds at least one paper."""
    assert all(isinstance(ranking, CandidateRanking) and papers >= 1 for ranking, papers in pairs)
    ballots = Counter()
    for ranking, papers in pairs:
        ballots[ranking] += papers
    return ballots


def candidate_multiset(ballots, meta):
    """The scalar path's formal ``Preferences`` multiset as the candidate rankings that the count takes."""
    expanded = Counter()
    for prefs, papers in ballots.items():
        expanded[expand_to_candidates(prefs, meta)] += papers
    return expanded


def winner_set(ballots, meta):
    if not ballots:
        return None
    checked = [(expand_to_candidates(prefs, meta), papers) for prefs, papers in ballots.items()]
    winners, _ = count_stv(checked, meta)
    return tuple(sorted(winners))


CONFIGS = {
    "digit": dict(model="digit", rates=(0.3, 0.5)),
    "truncation": dict(model="truncation", rates=(0.3, 0.5)),
    "confusion": dict(model="confusion", confusion=HEAVY_CONFUSION),
    "swap": dict(model="confusion", confusion=SWAP_CONFUSION),
}


# The mixed fixture's variants classify it differently (a formal BTL
# ranking beats ATL marks, and a 3-preference BTL sheet is formal under 1
# only), so each is a group of its own; the bias fixture's share one group.
ELECTIONS = {"btl-first": (mixed_election, 2), "shared": (lambda: formality_bias_election(60, 60), 1)}


@pytest.mark.parametrize(
    "family, fixture", [pytest.param(f, e, id=f"{f}-{e}") for e in ELECTIONS for f in sorted(CONFIGS)]
)
def test_sweep_matches_scalar_path(family, fixture):
    make, n_groups = ELECTIONS[fixture]
    election = make()
    config = SimConfig(base_seed=BASE_SEED, runs_per_point=RUNS, btl_required_grid=(6, 1), **CONFIGS[family])
    report = run_sweep(election, config)
    points = _build_points(config)
    assert len(points) == len(report.points)
    groups = _prepare(election, map(config.rules_for, config.btl_required_grid))
    # the same ballots in blocks of at most 16 digits, or one ballot
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BLOCK_DIGITS", 16)
        small_groups = _prepare(election, map(config.rules_for, config.btl_required_grid))
    assert len(groups) == len(small_groups) == n_groups
    moved_total = swapped_total = 0
    for prep, small_blocks in zip(groups, small_groups):
        assert len(small_blocks.bounds) > len(prep.bounds)
        variants = [rules.btl_required_prefs for rules in prep.rules]
        group = [(point, result) for point, result in zip(points, report.points) if point.btl_required in variants]
        perturbed = [point for point, _ in group if point.model is not None]
        models = [point.model for point in perturbed if point.btl_required == variants[0]]
        # one shared pass per run, in whole-election blocks and in small ones;
        # its rows are the group's perturbed points, variant by variant
        passes = []
        plan, small_plan = _draw_plan(prep, models), _draw_plan(small_blocks, models)
        for run in range(RUNS):
            seeds = seed_vector((BASE_SEED, run), 0, election.total_ballots)
            passes.append((
                list(_perturb_run(prep, models, plan, seeds)),
                list(_perturb_run(small_blocks, models, small_plan, seeds)),
            ))
            assert len(passes[-1][0]) == len(passes[-1][1]) == len(perturbed)
        for point, result in group:
            rules = config.rules_for(point.btl_required)
            formal_runs = np.zeros(election.total_ballots, dtype=np.int64)
            surviving = Counter()
            outcomes = Counter()
            for run, (flat, blocks) in enumerate(passes):
                lengths, ballots, moved, swapped = scalar_run(election, rules, point.model, run)
                moved_total += moved
                swapped_total += swapped
                if point.model is not None:
                    j = perturbed.index(point)
                    flat_changed, flat_lengths, flat_ballots = flat[j]
                    assert dense_lengths(prep, flat_changed, flat_lengths).tolist() == lengths.tolist(), (point.index, run)
                    expected = candidate_multiset(ballots, election.meta)
                    assert multiset(flat_ballots) == expected, (point.index, run)
                    block_changed, block_lengths, block_ballots = blocks[j]
                    block_dense = dense_lengths(small_blocks, block_changed, block_lengths)
                    assert block_dense.tolist() == lengths.tolist()
                    assert multiset(block_ballots) == expected
                formal_runs += lengths > 0
                for k, n in zip(prep.orig_prefs.tolist(), lengths.tolist()):
                    surviving[k] += n
                outcomes[winner_set(ballots, election.meta)] += 1
            assert result.formal_runs_per_ballot.tolist() == formal_runs.tolist()
            assert result.surviving_sums == {k: surviving[k] for k in result.bucket_counts}
            assert result.winner_sets == {k: v for k, v in outcomes.items() if k is not None}
            assert result.no_result_runs == outcomes[None]
    if family != "truncation":
        assert moved_total > 0  # swapped boxes did occur and were read correctly
    if family in ("confusion", "swap"):
        # Some moved ballots kept every preference.  The uniform model seldom
        # writes the one value that each box of a swap needs.
        assert swapped_total > 0

    parallel = run_sweep(election, replace(config, jobs=2))
    assert json.dumps(parallel.to_json_dict(), sort_keys=True) == json.dumps(
        report.to_json_dict(), sort_keys=True
    )
    for a, b in zip(report.points, parallel.points):
        assert np.array_equal(a.formal_runs_per_ballot, b.formal_runs_per_ballot)
        assert np.array_equal(a.atl_formal_by_run, b.atl_formal_by_run)
        assert np.array_equal(a.btl_formal_by_run, b.btl_formal_by_run)
