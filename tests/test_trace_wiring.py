"""The benchmark's per-layer trace still sees every layer of a sweep.

``perfbench/tracing.py`` measures a layer by replacing the function that
``stvsim.sim`` calls under its module-level name.  A refactor that calls a
layer some other way (a direct import, a local alias) would leave that
layer reading 0 calls and 0 s without failing anything.  This test
installs the tracer, runs a digit sweep and a truncation sweep, and checks
that every wrapped layer recorded spans, and that the digit sweep's two
formality variants, which classify the bias fixture alike, share one
corruption call per run.  The one exception is
``ballots.classify``: the sweep classifies every record for every variant
in one array pass (``ballots._classify``) and calls no
``classify_formality``, so
``stvsim.sim`` has no such name and the layer reads 0 by design; its time
is in ``sim.self_s``.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from stvsim import SimConfig, run_sweep, sim
from stvsim.sim import _prepare
from stvsim.synth import formality_bias_election, truncation_ladder_election

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_records_spans(tracing):
    tracer = tracing.Tracer()
    bias = formality_bias_election(60, 60)
    bias_config = SimConfig(base_seed=7, runs_per_point=3, model="digit", rates=(0.3,), btl_required_grid=(6, 1))
    sweeps = [
        (bias, bias_config),
        (truncation_ladder_election(20, 20),
         SimConfig(base_seed=8, runs_per_point=3, model="truncation", rates=(0.1,))),
    ]
    # Variants 6 and 1 classify the bias fixture alike, so they share one pass.
    groups = _prepare(bias, map(bias_config.rules_for, bias_config.btl_required_grid))
    assert len(groups) == 1
    tracer.install()
    try:
        for election, config in sweeps:
            tracer.start_round()
            tracer.sweep(run_sweep, election, config)
            assert tracer.counts["ballots.classify_calls"] == 0
            if config is bias_config:
                assert tracer.counts["error_models.corrupt_calls"] == config.runs_per_point  # one call per run
    finally:
        tracer.remove()
    assert not hasattr(sim, "classify_formality")
    missing = {name for _, _, name in tracing.WRAPPED} - {span[0] for span in tracer.spans}
    assert missing == {"ballots.classify"}
