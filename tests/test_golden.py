"""Golden outputs: sweeps whose written reports must not change.

Each directory under ``tests/golden/`` holds the ``report.json`` and CSV
files that ``write_report`` wrote for one sweep below.  The test reruns
every sweep and compares the files byte for byte, so a refactor of the
sweep pipeline cannot move a result unnoticed.  A change to a golden file
must be deliberate and logged in CHANGES.md.

To rewrite the files (only on purpose), from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from stvsim import (
    BUNDLED_CONFUSION_TABLE,
    SimConfig,
    load_confusion_table,
    run_sweep,
    write_report,
)
from stvsim.synth import formality_bias_election, truncation_ladder_election

GOLDEN_DIR = Path(__file__).parent / "golden"


def sweep(name: str):
    """(election, config, ballot_rates) for the golden sweep ``name``."""
    if name == "bias_digit":
        config = SimConfig(
            base_seed=404, runs_per_point=10, model="digit", rates=(0.005, 0.01, 0.02),
            btl_required_grid=(6, 1), track_candidates=("a1", "b1"),
        )
        return formality_bias_election(), config, False
    ladder = truncation_ladder_election(long_ballots=300, short_ballots=300)
    if name == "ladder_truncation":
        config = SimConfig(base_seed=505, runs_per_point=10, model="truncation", rates=(0.01, 0.05))
        return ladder, config, False
    if name == "ladder_confusion":
        table = load_confusion_table(BUNDLED_CONFUSION_TABLE)
        config = SimConfig(base_seed=606, runs_per_point=10, model="confusion", confusion=table)
        return ladder, config, True
    raise KeyError(name)


SWEEPS = ("bias_digit", "ladder_truncation", "ladder_confusion")


def write_sweep(name: str, outdir: Path, jobs: int = 1) -> list[str]:
    election, config, ballot_rates = sweep(name)
    report = run_sweep(election, replace(config, jobs=jobs))
    return write_report(report, outdir, ballot_rates=ballot_rates)


# At jobs=2 each perturbed point's 10 runs are split into 5 chunks and merged;
# the zero-error point is one task of all 10.
@pytest.mark.parametrize("name, jobs", [
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs2")
    for jobs in (1, 2) for name in SWEEPS
])
def test_outputs_match_golden_files(name, jobs, tmp_path):
    written = write_sweep(name, tmp_path, jobs)
    golden = GOLDEN_DIR / name
    assert sorted(written) == sorted(p.name for p in golden.iterdir())
    for file_name in written:
        assert (tmp_path / file_name).read_bytes() == (golden / file_name).read_bytes(), file_name


if __name__ == "__main__":
    for sweep_name in SWEEPS:
        target = GOLDEN_DIR / sweep_name
        if target.exists():
            for old in target.iterdir():
                old.unlink()
        names = write_sweep(sweep_name, target)
        print(f"{target}: {', '.join(names)}", file=sys.stderr)
