"""Sweep benchmark for stvsim: the calls ``stvsim simulate`` makes, timed and checked.

    python3 perfbench/run.py --workload senate_digit --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One run:

1. builds the workload's election files in a child process, or takes them
   from ``perfbench/_work/inputs`` (never timed);
2. reads them with ``read_election_file`` and runs one untimed round,
   whose outputs are checked against independent references
   (``checks.py``);
3. for ``--seconds`` seconds, repeats the round (``run_sweep`` then
   ``write_report`` for each sweep of the workload, ``jobs=1``) and, spread
   over the same time, probes set-up time in fresh interpreters;
4. prints one JSON line: ``attempted`` and ``failed`` count (grid point,
   run) simulations, where a sweep that raises fails all of its own;
   ``correct`` tells whether the outputs of the sweeps that did not raise
   passed their checks; ``metrics`` holds the end-to-end metrics, or with
   ``--trace 1`` the per-layer metrics.

Every round repeats the same sweeps with the same seed, and each must
write a ``report.json`` byte-identical to the first round's.

Timings on a shared machine come in fast and slow phases (see README), so
``sweep_s`` is the mean round of the whole run, which spans many phases;
``setup_s`` is the median of the probes.  The traced run alternates
untraced and traced rounds and reports each layer's mean self time over
its traced rounds.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NoReturn

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_PROBES = 5
MIN_ROUNDS = 3

# The sweeps of one round, per workload: the election (see inputs.py),
# SimConfig fields, and whether the per-ballot rate CSVs are written.  Why
# each workload exists is in README.md.
WORKLOADS = {
    "senate_digit": [
        dict(election="senate", model="digit", rates=(0.01,), runs_per_point=2, ballot_rates=True),
    ],
    "bias_ladder": [
        dict(election="bias", model="digit", rates=(0.0025, 0.005, 0.0075, 0.01), btl_required_grid=(6, 1),
             runs_per_point=20, ballot_rates=False),
        dict(election="ladder", model="truncation", rates=(0.005, 0.01, 0.02), runs_per_point=20,
             ballot_rates=False),
        dict(election="ladder", model="confusion", runs_per_point=10, ballot_rates=False),
    ],
}

# Per-layer times: metric name -> span names whose self time it sums.  The
# truncation model's batch call is timed with the digit models' one, so that
# no time metric reads 0 on workloads that never truncate; its calls are
# counted apart.
LAYER_TIMES = {
    "ballots.classify_s": ("ballots.classify",),
    "rng.seed_s": ("rng.seed",),
    "rng.draw_s": ("rng.draw",),
    "error_models.corrupt_s": ("error_models.corrupt", "error_models.truncate"),
    "ballots.interpret_s": ("ballots.interpret",),
    "count.count_s": ("count.count",),
    "sim.self_s": ("sim.run_sweep",),
    "sim.write_s": ("sim.write",),
}
LAYER_COUNTS = (
    "ballots.classify_calls", "rng.seed_calls", "rng.draws", "error_models.corrupt_calls",
    "error_models.truncate_calls", "ballots.interpret_calls", "count.calls", "count.repeat_calls",
    "count.rounds", "count.rankings",
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    """Digest of ``inputs.py`` and every file of the package under ``src/stvsim``."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "stvsim"
    files = [BENCH / "inputs.py"] + sorted(p for p in package.rglob("*")
                                            if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def ensure_input(election: str, seed: int) -> Path:
    """The election's cached file stem, generated in a child process if missing.

    The cache key holds a digest of the generator and of the package it
    builds the elections with (the fixtures and the file writer), so a
    changed generator or package never reuses an old file.
    """
    version = source_digest()
    name = f"{election}-seed{seed}" if election == "senate" else election
    stem = WORK / "inputs" / f"{name}-{version}"
    if not (stem.with_suffix(".stv").exists() and stem.with_suffix(".json").exists()):
        cmd = [sys.executable, str(BENCH / "inputs.py"), "--election", election, "--seed", str(seed),
               "--out", str(stem)]
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=170)
    return stem


def probe_setup(files: list[Path]) -> dict:
    """``import stvsim`` plus ``read_election_file`` timed in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *map(str, files)], cwd=ROOT,
                          check=True, timeout=120, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


class Workload:
    """One workload's elections and sweeps, loaded in this process."""

    def __init__(self, name: str, stems: dict[str, Path], seed: int) -> None:
        import stvsim
        from stvsim import SimConfig

        self.makeups = {e: json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
                        for e, stem in stems.items()}
        self.elections = {e: stvsim.read_election_file(stem.with_suffix(".stv")) for e, stem in stems.items()}
        self.sweeps: list[tuple[str, SimConfig, bool, Path]] = []
        for i, spec in enumerate(WORKLOADS[name]):
            spec = dict(spec)
            election, ballot_rates = spec.pop("election"), spec.pop("ballot_rates")
            if spec["model"] == "confusion":
                spec["confusion"] = stvsim.load_confusion_table(stvsim.BUNDLED_CONFUSION_TABLE)
            outdir = WORK / "out" / name / str(i)
            self.sweeps.append((election, SimConfig(base_seed=seed, **spec), ballot_rates, outdir))
        # (grid point, run) simulations per sweep, from the configuration: a
        # zero-error point plus one point per distinct nonzero rate (the
        # confusion model has one), for each formality variant.
        self.sims = [len(config.btl_required_grid) * config.runs_per_point
                     * (2 if config.model == "confusion" else 1 + len(set(config.rates) - {0.0}))
                     for _, config, _, _ in self.sweeps]
        self.failed = 0
        self.errors: Counter = Counter()
        self.broken: set[int] = set()  # sweeps that raised in the last round

    def run_round(self, tracer: Tracer | None = None) -> float:
        """Run and write every sweep once; return the seconds it took.

        A sweep that raises fails all of its simulations; the round goes on
        with the next sweep.
        """
        from stvsim import run_sweep, write_report

        self.broken.clear()
        gc.collect()
        start = perf_counter()
        for i, (election, config, ballot_rates, outdir) in enumerate(self.sweeps):
            try:
                if tracer is None:
                    write_report(run_sweep(self.elections[election], config), outdir, ballot_rates=ballot_rates)
                else:
                    report = tracer.sweep(run_sweep, self.elections[election], config)
                    tracer.span("sim.write", write_report, report, outdir, ballot_rates=ballot_rates)
            except Exception as exc:
                self.failed += self.sims[i]
                self.errors[f"sweep {i} ({election}, {config.model}): {exc!r}"] += 1
                self.broken.add(i)
        return perf_counter() - start

    def reports(self) -> dict[int, bytes]:
        """The last round's ``report.json`` of every sweep that did not raise."""
        return {i: (outdir / "report.json").read_bytes() for i, (*_, outdir) in enumerate(self.sweeps)
                if i not in self.broken}

    def check(self, chk: Checker) -> int:
        """Check the outputs of the last round's sweeps that did not raise;
        return the ballot-runs those sweeps make in a round."""
        from checks import check_sweep, load_confusion_columns

        table = ROOT / "src" / "stvsim" / "data" / "digit_confusion.txt"
        columns = load_confusion_columns(table)
        ballot_runs = 0
        for i, (election, config, ballot_rates, outdir) in enumerate(self.sweeps):
            if i in self.broken:
                continue
            ballot_runs += self.sims[i] * self.elections[election].total_ballots
            check_sweep(chk, election, outdir, self.makeups[election], config.atl_required_prefs, columns,
                        bias=election == "bias", ballot_rates=ballot_rates)
            points = json.loads((outdir / "report.json").read_bytes())["points"]
            chk.that(sum(point["runs"] for point in points) == self.sims[i],
                     f"sweep {i}: report holds {sum(point['runs'] for point in points)} simulations, "
                     f"not {self.sims[i]}")
        chk.finish()
        return ballot_runs


def layer_metrics(traced: list[tuple[float, Counter, Counter]], plain: list[float]) -> dict:
    """Per-layer mean self times and the counts of a traced round, and the tracing overhead."""
    own = Counter()
    for _, times, _ in traced:
        own.update(times)
    metrics = {name: (sum(own[s] for s in spans) / len(traced), "s") for name, spans in LAYER_TIMES.items()}
    metrics.update({name: (traced[-1][2][name], "count") for name in LAYER_COUNTS})
    metrics["trace.overhead_s"] = (statistics.fmean(t[0] for t in traced) - statistics.fmean(plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="stvsim sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stvsim" / "__init__.py").is_file():
        fail(f"no stvsim package under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "tests" / "oracles.py").is_file():
        fail(f"no reference oracles at {ROOT / 'tests' / 'oracles.py'}")
    stems = {spec["election"]: ensure_input(spec["election"], args.seed) for spec in WORKLOADS[args.workload]}
    files = [stem.with_suffix(".stv") for stem in stems.values()]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import stvsim

    if Path(stvsim.__file__).resolve().parent != (ROOT / "src" / "stvsim").resolve():
        fail(f"imported stvsim from {stvsim.__file__}, not from this checkout")
    from checks import Checker

    work = Workload(args.workload, stems, args.seed)
    # The first round is untimed: it warms up, and its outputs are checked.
    warm_up = work.run_round()
    chk = Checker()
    ballot_runs = work.check(chk)
    first_reports = work.reports()

    tracer = Tracer() if args.trace else None
    plain: list[float] = []
    traced: list[tuple[float, Counter, Counter]] = []
    probes: list[dict] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(probes) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds)):
            probes.append(probe_setup(files))
        plain.append(work.run_round())
        if tracer is not None:
            first = tracer.start_round()
            tracer.install()
            try:
                seconds = work.run_round(tracer)
            finally:
                tracer.remove()
            traced.append((seconds, tracer.self_times(first), Counter(tracer.counts)))
            chk.that(traced[-1][2] == traced[0][2], "per-layer counts differ between two traced rounds")
        reports = work.reports()
        chk.that(all(reports[i] == first_reports[i] for i in reports.keys() & first_reports.keys()),
                 "report.json differs between two rounds with the same seed")
        if (perf_counter() - start >= args.seconds and len(plain) >= MIN_ROUNDS
                and len(probes) >= SETUP_PROBES):
            break

    for probe in probes:
        expected = [work.makeups[e]["ballots"] for e in stems]
        chk.that(probe["ballots"] == expected, f"set-up probe read {probe['ballots']} ballots, not {expected}")
        chk.that(Path(probe["module"]).resolve().parent == Path(stvsim.__file__).resolve().parent,
                 f"set-up probe imported {probe['module']}")
    for failure in chk.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for error, rounds in work.errors.items():
        print(f"RAISED in {rounds} rounds: {error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: warm-up round {warm_up:.2f} s, {chk.checked} checks, "
          f"{len(chk.failures)} failed; {len(plain)} timed rounds, {len(traced)} traced, "
          f"{len(probes)} set-up probes", file=sys.stderr)
    print("perfbench: round seconds " + " ".join(f"{t:.4f}" for t in plain), file=sys.stderr)
    print("perfbench: set-up seconds " + " ".join(f"{p['import_s'] + p['read_s']:.4f}" for p in probes),
          file=sys.stderr)

    if tracer is None:
        sweep_s = statistics.fmean(plain)
        metrics = {
            "setup_s": (statistics.median(p["import_s"] + p["read_s"] for p in probes), "s"),
            "sweep_s": (sweep_s, "s"),
            "ballot_runs_per_s": (ballot_runs / sweep_s, "ballot-runs/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {
            "import.stvsim_s": (statistics.median(p["import_s"] for p in probes), "s"),
            "ingest.read_s": (statistics.median(p["read_s"] for p in probes), "s"),
            **layer_metrics(traced, plain),
        }
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")

    result = {
        "correct": not chk.failures,
        "attempted": (1 + len(plain) + len(traced)) * sum(work.sims),
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
