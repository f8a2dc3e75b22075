"""Command-line entry points.

Subcommands: ``ingest`` (preference CSV -> canonical election file),
``count`` (tabulate one election), ``simulate`` (Monte Carlo error sweep,
emitting plot-ready CSVs), ``analyze partition|forensics|histogram`` and
``estimate-rate``.  Every command that writes an output directory also
writes a ``manifest.json`` capturing the resolved configuration, seeds and
input digests; feeding a manifest's ``config`` block back via ``--config``
reproduces the run byte for byte.

Exit codes: 0 success, 2 usage error, 3 unreadable or inconsistent data,
4 internal invariant failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ballots import BallotError, FormalityRules, VoteStyle
from .count import (
    CountError,
    CountInvariantError,
    CountRules,
    SurplusMethod,
    TallyRounding,
    count_stv,
)
from .error_models import (
    BUNDLED_CONFUSION_TABLE,
    ErrorModelError,
    load_confusion_table,
)
from .ingest import (
    ColumnMap,
    IngestError,
    parse_preference_csv,
    read_election_file,
    write_election_file,
)
from .sim import (
    MODEL_FAMILIES,
    SimConfig,
    SimError,
    formal_ballots,
    partition_by_preference,
    preference_position_histogram,
    run_sweep,
    write_report,
)
from .stats import StatsError, anomaly_table_csv, binomial_estimate, repeated_and_skipped_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_DATA_ERRORS = (
    IngestError,
    BallotError,
    ErrorModelError,
    StatsError,
    CountError,
    SimError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


class CliUsageError(Exception):
    pass


def _rate_list(text: str) -> list[float]:
    rates = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad rate {part!r}") from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"rate {value} outside [0, 1]")
        rates.append(value)
    if not rates:
        raise argparse.ArgumentTypeError("empty rate list")
    return rates


def _int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _column(text: str) -> str | int:
    return int(text) if text.isdecimal() else text


def _count_rules(args) -> CountRules:
    return CountRules(
        surplus_method=(
            SurplusMethod.WEIGHTED_INCLUSIVE_GREGORY
            if args.surplus == "weighted"
            else SurplusMethod.UNWEIGHTED_INCLUSIVE_GREGORY
        ),
        tally_rounding=(
            TallyRounding.TRUNCATE_TO_INTEGER if args.rounding == "truncate" else TallyRounding.EXACT
        ),
    )


def _formality_rules(args) -> FormalityRules:
    return FormalityRules(
        btl_required_prefs=args.btl_required,
        atl_required_prefs=args.atl_required,
    )


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(outdir: Path, command: str, args, inputs: list[str]) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "command", "subcommand") and not k.startswith("_")
    }
    manifest = {
        "command": command,
        "config": config,
        "base_seed": config.get("seed"),
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_ingest(args) -> int:
    meta = read_election_file(args.meta).meta
    colmap = ColumnMap(preferences=_column(args.column), header=not args.no_header)
    with open(args.csv, "rb") as fh:
        result = parse_preference_csv(fh, meta, colmap, provenance=args.provenance or f"ingested from {os.path.basename(args.csv)}")
    write_election_file(result.election, args.out)
    report_path = Path(str(args.out) + ".parse-errors.txt")
    if result.issues:
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            for issue in result.issues:
                fh.write(f"row {issue.row}: {issue.reason}\n")
    elif report_path.exists():
        report_path.unlink()
    print(
        f"wrote {args.out}: {len(result.election.sheets)} distinct sheets, "
        f"{result.election.total_ballots} ballots, {len(result.issues)} rejected rows"
    )
    if result.issues:
        print(f"rejected rows listed in {report_path}")
    return EXIT_OK


def cmd_count(args) -> int:
    election = read_election_file(args.election)
    meta = election.meta
    if args.seats is not None:
        try:
            meta = dataclasses.replace(meta, seats=args.seats)
        except BallotError as exc:
            raise CliUsageError(str(exc)) from None
    winners, transcript = count_stv(formal_ballots(election, _formality_rules(args)), meta, _count_rules(args))
    for i, cid in enumerate(winners, start=1):
        print(f"{i}\t{cid}")
    print(f"quota {transcript.quota}  rounding-loss {transcript.rounding_loss}  exhausted {transcript.exhausted}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "winners.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(winners) + "\n")
        with open(out / "transcript.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(transcript.to_text())
        write_manifest(out, "count", args, [args.election])
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.matrix and args.model != "confusion":
        raise CliUsageError(f"--matrix goes only with --model confusion, not --model {args.model}")
    election = read_election_file(args.election)
    confusion = None
    if args.model == "confusion":
        confusion = load_confusion_table(args.matrix or BUNDLED_CONFUSION_TABLE)
    config = SimConfig(
        base_seed=args.seed,
        runs_per_point=args.runs,
        model=args.model,
        rates=tuple(args.rates or ()),
        confusion=confusion,
        btl_required_grid=tuple(args.btl_required),
        atl_required_prefs=args.atl_required,
        count_rules=_count_rules(args),
        track_candidates=tuple(args.track or ()),
        jobs=args.jobs,
    )
    report = run_sweep(election, config)
    out = Path(args.out)
    written = write_report(report, out, ballot_rates=args.ballot_rates)
    inputs = [args.election] + ([args.matrix] if args.matrix else [])
    write_manifest(out, "simulate", args, inputs)
    print(f"wrote {', '.join(written)} and manifest.json to {out}")
    for p in report.points:
        top = max(p.winner_sets.items(), key=lambda kv: kv[1])[0] if p.winner_sets else ()
        print(
            f"  model={p.model} rate={p.rate:g} btl_required={p.btl_required} "
            f"runs={p.runs} top_winner_set={'|'.join(top) if top else '-'}"
        )
    return EXIT_OK


def cmd_analyze(args) -> int:
    election = read_election_file(args.election)
    if args.subcommand == "partition":
        table = partition_by_preference(election, args.a, args.b, _formality_rules(args))
        lines = [
            "style,prefers_a,prefers_b,neither",
            f"ATL,{table.atl[0]},{table.atl[1]},{table.atl[2]}",
            f"BTL,{table.btl[0]},{table.btl[1]},{table.btl[2]}",
        ]
        text = "\n".join(lines) + "\n"
        filename = "partition.csv"
    elif args.subcommand == "forensics":
        rows = repeated_and_skipped_table(
            election.sheets, VoteStyle[args.style], args.max_pref
        )
        text = anomaly_table_csv(rows)
        filename = "forensics.csv"
    else:  # histogram
        hist = preference_position_histogram(election, args.candidate, _formality_rules(args))
        lines = ["style,rank,ballots"]
        for style in ("ATL", "BTL"):
            for rank, n in hist[style].items():
                lines.append(f"{style},{rank},{n}")
        text = "\n".join(lines) + "\n"
        filename = "histogram.csv"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / filename, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        write_manifest(out, f"analyze {args.subcommand}", args, [args.election])
        print(f"wrote {out / filename}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_estimate_rate(args) -> int:
    estimate = binomial_estimate(args.errors, args.trials)
    print(estimate.as_percent_string())
    return EXIT_OK


def _add_formality_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--btl-required", type=int, default=6, help="preferences required for a formal BTL vote (default 6)")
    p.add_argument("--atl-required", type=int, default=1, help="preferences required for a formal ATL vote (default 1)")


def _add_count_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surplus", choices=("weighted", "unweighted"), default="weighted",
                   help="inclusive Gregory surplus variant (default weighted)")
    p.add_argument("--rounding", choices=("truncate", "exact"), default="truncate",
                   help="tally arithmetic (default truncate to integers)")


class _ReplaceConfigList(argparse._AppendAction):
    """Repeatable flag whose first use replaces a config file's list instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is self.default:
            setattr(namespace, self.dest, None)
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="stvsim",
        description="STV counting and digitisation-error simulation",
    )
    parser.add_argument("--version", action="version", version=f"stvsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("ingest", help="parse a published preference CSV into an election file")
    p.add_argument("--csv", required=True, help="preference CSV (RFC 4180, UTF-8)")
    p.add_argument("--meta", required=True, help="election file holding the layout (sheets ignored)")
    p.add_argument("--column", default="Preferences",
                   help="preference-string column, by header name or 0-based index")
    p.add_argument("--no-header", action="store_true", help="CSV has no header row")
    p.add_argument("--provenance", default=None, help="free-text source note for the output file")
    p.add_argument("--out", required=True, help="canonical election file to write")
    p.set_defaults(func=cmd_ingest)
    registry["ingest"] = p

    p = sub.add_parser("count", help="count one election and write a transcript")
    p.add_argument("--election", required=True)
    p.add_argument("--seats", type=int, default=None, help="override the seat count")
    _add_formality_flags(p)
    _add_count_rule_flags(p)
    p.add_argument("--out", default=None, help="directory for winners.txt, transcript.txt, manifest.json")
    p.set_defaults(func=cmd_count)
    registry["count"] = p

    p = sub.add_parser("simulate", help="Monte Carlo error sweep; emits plot-ready CSVs")
    p.add_argument("--election", required=True)
    p.add_argument("--model", choices=MODEL_FAMILIES, default="digit")
    p.add_argument("--rates", type=_rate_list, default=None,
                   help="comma-separated digit or truncation error rates in [0,1]; a 0 baseline is always added")
    p.add_argument("--matrix", default=None,
                   help="confusion table file for --model confusion (default: the bundled table)")
    p.add_argument("--runs", type=int, default=1000, help="simulated elections per grid point")
    p.add_argument("--seed", type=int, default=1, help="base seed for the run")
    p.add_argument("--btl-required", type=_int_list, default=[6],
                   help="comma-separated formality variants (BTL preferences required)")
    p.add_argument("--atl-required", type=int, default=1)
    _add_count_rule_flags(p)
    p.add_argument("--track", action=_ReplaceConfigList, default=None,
                   help="candidate id to emit preference-position histograms for (repeatable)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available cores)")
    p.add_argument("--ballot-rates", action="store_true",
                   help="also write per-ballot formality rates per grid point")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)
    registry["simulate"] = p

    p = sub.add_parser("analyze", help="partition, forensics and histogram reports")
    asub = p.add_subparsers(dest="subcommand", required=True)
    pa = asub.add_parser("partition", help="split formal ballots by style and preferred candidate")
    pa.add_argument("--election", required=True)
    pa.add_argument("--a", required=True, help="first candidate id")
    pa.add_argument("--b", required=True, help="second candidate id")
    _add_formality_flags(pa)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)
    registry["analyze partition"] = pa
    pf = asub.add_parser("forensics", help="repeated / skipped preference counts from raw marks")
    pf.add_argument("--election", required=True)
    pf.add_argument("--style", choices=("BTL", "ATL"), default="BTL")
    pf.add_argument("--max-pref", type=int, default=13)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_analyze)
    registry["analyze forensics"] = pf
    ph = asub.add_parser("histogram", help="preference positions for one candidate")
    ph.add_argument("--election", required=True)
    ph.add_argument("--candidate", required=True)
    _add_formality_flags(ph)
    ph.add_argument("--out", default=None)
    ph.set_defaults(func=cmd_analyze)
    registry["analyze histogram"] = ph

    p = sub.add_parser("estimate-rate", help="binomial rate estimate with exact 95% interval")
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=cmd_estimate_rate)
    registry["estimate-rate"] = p

    for sp in registry.values():
        sp.add_argument("--config", default=None,
                        help="JSON file of flag defaults (explicit flags override)")
    return parser, registry


def _config_value(action: argparse.Action, value):
    """What ``action``'s flag gives for a config-file value, checked as the flag is checked."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise ValueError("must be true or false")
        return value
    if value is None and action.default is None and not action.required:
        return None
    if isinstance(action, argparse._AppendAction):  # --track
        if not isinstance(value, list):
            raise ValueError("must be a list")
        return [_config_text(v) for v in value]
    if isinstance(value, list) and action.type in (_rate_list, _int_list):
        text = ",".join(_config_text(v) for v in value)
    else:
        text = _config_text(value)
    converted = action.type(text) if action.type else text
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"must be one of {list(action.choices)}")
    return converted


def _config_text(value) -> str:
    # the text a flag would be given on the command line
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"must be a string or a number, not {json.dumps(value)}")
    return str(value)


def _apply_config_file(registry, argv: list[str]) -> None:
    # a plain scan: the config file must be read before a full parse because
    # required flags may live in the file; like argparse, it takes any
    # abbreviation of --config (argparse refuses an ambiguous one later)
    path = None
    for i, token in enumerate(argv):
        flag, eq, value = token.partition("=")
        if len(flag) > 2 and "--config".startswith(flag):
            path = value if eq else (argv[i + 1] if i + 1 < len(argv) else None)
    if not path:
        return
    command = argv[0] if argv and not argv[0].startswith("-") else None
    key = command
    if command == "analyze" and len(argv) > 1 and not argv[1].startswith("-"):
        key = f"analyze {argv[1]}"
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise CliUsageError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(values, dict):
        raise CliUsageError(f"config file {path} must hold a JSON object")
    sp = registry.get(key)
    if sp is None:
        return
    actions = {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
    unknown = set(values) - set(actions)
    if unknown:
        raise CliUsageError(f"config file {path} has unknown keys: {sorted(unknown)}")
    checked = {}
    for name, value in values.items():
        try:
            checked[name] = _config_value(actions[name], value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CliUsageError(f"config file {path}: {name}: {exc}") from None
        actions[name].required = False
    sp.set_defaults(**checked)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config_file(registry, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CountInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        if exc.transcript is not None:
            print(exc.transcript.to_text(), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
