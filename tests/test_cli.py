import json
from pathlib import Path

import pytest

from stvsim import (
    BUNDLED_CONFUSION_TABLE,
    CountInvariantError,
    ElectionFile,
    count,
    read_election_file,
    write_election_file,
)
from stvsim.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from stvsim.synth import formality_bias_election


@pytest.fixture
def election_path(tmp_path):
    path = tmp_path / "bias.stv"
    write_election_file(formality_bias_election(atl_votes=60, btl_votes=40), path)
    return str(path)


@pytest.fixture
def meta_path(tmp_path):
    election = formality_bias_election()
    path = tmp_path / "meta.stv"
    write_election_file(ElectionFile(election.meta, ()), path)
    return str(path)


def write_csv(tmp_path, rows, header="Preferences"):
    path = tmp_path / "prefs.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


class TestIngest:
    def test_five_rows_make_five_ballots(self, tmp_path, meta_path, capsys):
        # boxes: A,B then a1,a2,a3,b1,b2,b3
        rows = ['"1,,,,,,,"', '"1,2,,,,,,"', '",,1,2,3,4,5,6"', '"1,,,,,,,"', '"/,,,,,,,"']
        csv_path = write_csv(tmp_path, rows)
        out = tmp_path / "out.stv"
        code = main(["ingest", "--csv", csv_path, "--meta", meta_path, "--out", str(out)])
        assert code == EXIT_OK
        election = read_election_file(out)
        assert election.total_ballots == 5
        assert len(election.sheets) == 3  # rows 1, 4, 5 merge

    def test_malformed_row_reported_not_fatal(self, tmp_path, meta_path):
        rows = ['"1,,,,,,,"', '"1,2"', '"1,2,,,,,,"', '",1,,,,,,"', '"2,1,,,,,,"']
        csv_path = write_csv(tmp_path, rows)
        out = tmp_path / "out.stv"
        assert main(["ingest", "--csv", csv_path, "--meta", meta_path, "--out", str(out)]) == EXIT_OK
        election = read_election_file(out)
        assert election.total_ballots == 4
        report = tmp_path / "out.stv.parse-errors.txt"
        assert "row 3" in report.read_text()
        # A re-ingest that rejects no row deletes the stale report.
        csv_path = write_csv(tmp_path, rows[:1])
        assert main(["ingest", "--csv", csv_path, "--meta", meta_path, "--out", str(out)]) == EXIT_OK
        assert not report.exists()

    @pytest.mark.parametrize("flags, fragment", [
        (["--no-header"], "a headerless CSV needs a numeric preference column index, got '-1'"),
        ([], "preference column '-1' not in header"),
    ], ids=["headerless", "header"])
    def test_negative_column_is_not_an_index(self, tmp_path, meta_path, capsys, flags, fragment):
        csv_path = write_csv(tmp_path, ['7,"1,,,,,,,"'], header="id,Preferences")
        out = tmp_path / "out.stv"
        code = main(["ingest", "--csv", csv_path, "--meta", meta_path, "--column", "-1", *flags, "--out", str(out)])
        assert code == EXIT_DATA
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_missing_meta_fails_without_output(self, tmp_path):
        csv_path = write_csv(tmp_path, ['"1,,,,,,,"'])
        out = tmp_path / "out.stv"
        code = main(["ingest", "--csv", csv_path, "--meta", str(tmp_path / "nope.stv"), "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()


class TestCount:
    def test_majority_winner_and_transcript(self, tmp_path, election_path, capsys):
        out = tmp_path / "count"
        code = main(["count", "--election", election_path, "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "a1" in stdout.splitlines()[0]
        assert (out / "winners.txt").read_text().strip() == "a1"
        transcript = (out / "transcript.txt").read_text()
        assert transcript.startswith("election\t")
        assert (out / "manifest.json").exists()

    def test_seat_override_to_invalid_is_usage_error(self, election_path):
        assert main(["count", "--election", election_path, "--seats", "6"]) == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["count", "--election", str(tmp_path / "none.stv")]) == EXIT_DATA

    def test_malformed_file_is_data_error_naming_the_line(self, tmp_path, election_path, capsys):
        bad = tmp_path / "bad.stv"
        bad.write_text(Path(election_path).read_text(encoding="utf-8").replace("[groups]", "[parties]"))
        assert main(["count", "--election", str(bad)]) == EXIT_DATA
        assert "error: line 6: unknown section 'parties'" in capsys.readouterr().err

    def test_empty_group_is_data_error_naming_it(self, tmp_path, election_path, capsys):
        bad = tmp_path / "bad.stv"
        text = Path(election_path).read_text(encoding="utf-8")
        bad.write_text(text.replace("B\tGroup B\n", "B\tGroup B\nE\tEmpty\n") + "5\tE:1\t\n")
        assert main(["count", "--election", str(bad)]) == EXIT_DATA
        assert "error: group 'E' has no candidates" in capsys.readouterr().err

    def test_non_ascii_digit_mark_is_data_error_naming_the_line(self, tmp_path, election_path, capsys):
        bad = tmp_path / "bad.stv"
        bad.write_text(Path(election_path).read_text(encoding="utf-8").replace("A:1\t", "A:²\t"), encoding="utf-8")
        assert main(["count", "--election", str(bad)]) == EXIT_DATA
        assert "error: line 17: bad box:mark pair 'A:²'" in capsys.readouterr().err


class TestSimulate:
    def test_baseline_only(self, tmp_path, election_path):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--election", election_path, "--runs", "1", "--seed", "5",
            "--rates", "0", "--jobs", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["points"]) == 1
        assert report["points"][0]["rate"] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["base_seed"] == 5
        assert manifest["command"] == "simulate"
        assert "inputs" in manifest and manifest["tool_version"]

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_is_data_error(self, tmp_path, election_path, capsys, seed):
        out = tmp_path / "sim"
        code = main(["simulate", "--election", election_path, "--runs", "1", f"--seed={seed}", "--out", str(out)])
        assert code == EXIT_DATA
        assert f"base seed must lie in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_btl_required_variants_from_the_command_line(self, tmp_path, election_path, capsys):
        argv = ["simulate", "--election", election_path, "--runs", "1", "--rates", "0", "--jobs", "1"]
        out = tmp_path / "v"
        assert main(argv + ["--btl-required", "6,1", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [p["btl_required"] for p in report["points"]] == [6, 1]
        capsys.readouterr()
        for variants, fragment in (("x", "bad integer list 'x'"), (",", "empty integer list"), ("", "empty integer list")):
            assert main(argv + ["--btl-required", variants, "--out", str(tmp_path / "x")]) == EXIT_USAGE
            assert fragment in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_rate_is_usage_error(self, tmp_path, election_path, capsys):
        for rates, fragment in (("1.5", "rate 1.5 outside [0, 1]"), (" , ", "empty rate list")):
            code = main([
                "simulate", "--election", election_path, "--rates", rates,
                "--out", str(tmp_path / "x"),
            ])
            assert code == EXIT_USAGE
            assert fragment in capsys.readouterr().err

    def test_a_reused_out_directory_keeps_no_stale_optional_output(self, tmp_path, election_path):
        out = tmp_path / "o"
        argv = ["simulate", "--election", election_path, "--runs", "1", "--jobs", "1", "--ballot-rates", "--out", str(out)]
        assert main(argv + ["--rates", "0.01,0.02", "--track", "a1"]) == EXIT_OK
        assert (out / "histograms.csv").exists() and (out / "ballot_rates_02.csv").exists()
        for name in ("notes.txt", "ballot_rates.csv", "ballot_rates_x.csv"):
            (out / name).write_text("kept\n")
        assert main(argv + ["--rates", "0.01"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "ballot_rates.csv", "ballot_rates_00.csv", "ballot_rates_01.csv", "ballot_rates_x.csv", "formality.csv",
            "manifest.json", "notes.txt", "report.json", "truncation.csv", "winner_sets.csv", "winners.csv",
        ]

    def test_empty_rate_items_are_skipped(self, tmp_path, election_path):
        out = tmp_path / "r"
        argv = ["simulate", "--election", election_path, "--runs", "1", "--rates", "0.01,,0.02", "--jobs", "1"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [p["rate"] for p in report["points"]] == [0.0, 0.01, 0.02]

    def test_confusion_model_uses_bundled_table(self, tmp_path, election_path):
        out = tmp_path / "sim_conf"
        code = main([
            "simulate", "--election", election_path, "--model", "confusion",
            "--runs", "2", "--jobs", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        rates = [p["rate"] for p in report["points"]]
        assert rates[0] == 0.0
        assert 0.0084 <= rates[1] <= 0.0094  # the table's mean per-digit change rate

    def test_manifest_config_reproduces_run(self, tmp_path, election_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        argv = ["simulate", "--election", election_path, "--runs", "4", "--seed", "9",
                "--rates", "0.02", "--jobs", "1", "--out", str(out1)]
        assert main(argv) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        config = dict(manifest["config"])
        config["out"] = str(out2)
        config_path = tmp_path / "replay.json"
        config_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_path)]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_flags_override_config_file(self, tmp_path, election_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({
            "election": election_path, "runs": 2, "seed": 1, "rates": "0",
            "jobs": 1, "out": str(tmp_path / "a")}))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "b" / "report.json").exists()

    @pytest.mark.parametrize("flags, tracked", [
        ([], ["a1"]),
        (["--track", "b1"], ["b1"]),
        (["--track", "b1", "--track", "a2"], ["b1", "a2"]),
    ], ids=["file", "flag", "flags"])
    def test_track_flags_replace_the_config_files_list(self, tmp_path, election_path, flags, tracked):
        out = tmp_path / "s"
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({
            "election": election_path, "runs": 1, "rates": "0", "jobs": 1, "track": ["a1"], "out": str(out)}))
        assert main(["simulate", "--config", str(config_path)] + flags) == EXIT_OK
        assert set(json.loads((out / "report.json").read_text())["position_histograms"]) == set(tracked)
        assert json.loads((out / "manifest.json").read_text())["config"]["track"] == tracked

    def test_count_failure_exits_4_naming_point_run_and_seed(self, tmp_path, election_path, monkeypatch, capsys):
        def fail(self, rec):
            raise CountInvariantError("injected fault", self.transcript)

        monkeypatch.setattr(count._Count, "_check_conservation", fail)
        code = main(["simulate", "--election", election_path, "--runs", "2", "--seed", "5",
                     "--rates", "0.01", "--out", str(tmp_path / "x")])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal invariant failure: grid point 0, run 0, base seed 5: injected fault\n" in err
        assert "round 1\tfirst-preferences" in err  # the transcript so far

    def test_unknown_config_key_is_usage_error(self, tmp_path, election_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"elections": election_path}))
        assert main(["simulate", "--config", str(config_path),
                     "--election", election_path, "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_matrix_without_confusion_model_is_usage_error(self, tmp_path, election_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--election", election_path, "--model", "digit",
                     "--matrix", BUNDLED_CONFUSION_TABLE, "--rates", "0.01", "--runs", "1",
                     "--jobs", "1", "--out", str(out)]) == EXIT_USAGE
        assert "--matrix goes only with --model confusion" in capsys.readouterr().err
        assert not out.exists()

    def test_confusion_model_with_rates_is_data_error(self, tmp_path, election_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--election", election_path, "--model", "confusion",
                     "--rates", "0.01", "--runs", "1", "--jobs", "1", "--out", str(out)]) == EXIT_DATA
        assert "the confusion model takes no rates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_confusion_entry_is_data_error(self, tmp_path, election_path, capsys, entry):
        lines = Path(BUNDLED_CONFUSION_TABLE).read_text(encoding="utf-8").splitlines()
        table = [line.split() for line in lines if line.strip() and not line.lstrip().startswith("#")]
        table[0][0] = entry  # the chance of reading an actual 0 as 0
        matrix = tmp_path / "table.txt"
        matrix.write_text("".join(" ".join(row) + "\n" for row in table), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["simulate", "--election", election_path, "--model", "confusion", "--matrix", str(matrix),
                     "--runs", "1", "--jobs", "1", "--out", str(out)]) == EXIT_DATA
        assert "confusion matrix entries must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestAnalyze:
    def test_partition_stdout(self, election_path, capsys):
        assert main(["analyze", "partition", "--election", election_path,
                     "--a", "a1", "--b", "b1"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "style,prefers_a,prefers_b,neither"
        assert out[1] == "ATL,60,0,0"
        assert out[2] == "BTL,0,40,0"

    def test_partition_same_candidate_is_error(self, election_path):
        assert main(["analyze", "partition", "--election", election_path,
                     "--a", "a1", "--b", "a1"]) == EXIT_DATA

    def test_forensics_counts_duplicate_first_preference(self, tmp_path, meta_path, capsys):
        rows = ['",,1,1,,,,"']  # a1 and a2 both marked 1
        csv_path = write_csv(tmp_path, rows)
        out = tmp_path / "f.stv"
        main(["ingest", "--csv", csv_path, "--meta", meta_path, "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", "forensics", "--election", str(out), "--max-pref", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "preference,repeated,skipped"
        assert lines[1] == "1,1,0"

    def test_forensics_takes_no_formality_flags(self, election_path):
        assert main(["analyze", "forensics", "--election", election_path,
                     "--btl-required", "1"]) == EXIT_USAGE

    def test_forensics_out_writes_table_and_manifest(self, tmp_path, election_path):
        out = tmp_path / "f"
        assert main(["analyze", "forensics", "--election", election_path,
                     "--max-pref", "2", "--out", str(out)]) == EXIT_OK
        assert (out / "forensics.csv").read_text() == "preference,repeated,skipped\n1,0,0\n2,0,0\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze forensics"
        assert "btl_required" not in manifest["config"]
        assert "atl_required" not in manifest["config"]

    def test_old_forensics_manifest_names_the_dropped_keys(self, tmp_path, election_path, capsys):
        config_path = tmp_path / "old.json"
        config_path.write_text(json.dumps({"election": election_path, "btl_required": 6, "atl_required": 1}))
        assert main(["analyze", "forensics", "--config", str(config_path)]) == EXIT_USAGE
        assert "['atl_required', 'btl_required']" in capsys.readouterr().err

    def test_histogram(self, election_path, capsys):
        assert main(["analyze", "histogram", "--election", election_path,
                     "--candidate", "b1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "BTL,1,40" in out


class TestEstimateRate:
    def test_audit_numbers(self, capsys):
        assert main(["estimate-rate", "--errors", "4", "--trials", "9060"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.04% (0.01%, 0.11%)"

    def test_colleague_numbers(self, capsys):
        assert main(["estimate-rate", "--errors", "3", "--trials", "2325"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.13% (0.03%, 0.38%)"

    def test_bad_counts_are_data_errors(self):
        assert main(["estimate-rate", "--errors", "5", "--trials", "4"]) == EXIT_DATA


class TestConfigFile:
    # A --config value passes its flag's type, choices and on/off checks.
    @pytest.mark.parametrize("command, values, fragment", [
        (["count"], {"surplus": "bogus"}, "surplus: must be one of ['weighted', 'unweighted']"),
        (["count"], {"rounding": "bogus"}, "rounding: must be one of ['truncate', 'exact']"),
        (["analyze", "forensics"], {"style": "XYZ"}, "style: must be one of ['BTL', 'ATL']"),
        (["simulate"], {"seed": 1.5}, "seed: invalid literal for int()"),
        (["simulate"], {"runs": [1]}, "runs: must be a string or a number, not [1]"),
        (["simulate"], {"rates": ["abc"]}, "rates: bad rate 'abc'"),
        (["simulate"], {"btl_required": [True]}, "btl_required: must be a string or a number, not true"),
        (["simulate"], {"btl_required": []}, "btl_required: empty integer list"),
        (["simulate"], {"ballot_rates": "no"}, "ballot_rates: must be true or false"),
        (["simulate"], {"track": "a1"}, "track: must be a list"),
        (["simulate"], {"jobs": None}, "jobs: must be a string or a number, not null"),
    ], ids=["surplus", "rounding", "style", "seed", "runs", "rates", "btl_required", "btl_required-empty",
        "ballot_rates", "track", "jobs"])
    def test_bad_value_is_usage_error_naming_the_key(self, tmp_path, election_path, capsys, command, values, fragment):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps(values))
        out = tmp_path / "x"
        argv = command + ["--election", election_path, "--out", str(out), "--config", str(config_path)]
        assert main(argv) == EXIT_USAGE
        assert f"usage error: config file {config_path}: {fragment}" in capsys.readouterr().err
        assert not out.exists()

    def test_scalar_list_and_on_off_values_take_effect(self, tmp_path, election_path):
        out = tmp_path / "s"
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({
            "election": election_path, "btl_required": 1, "rates": [0.01], "runs": 1, "jobs": 1,
            "ballot_rates": True, "track": ["b1"], "out": str(out)}))
        assert main(["simulate", "--config", str(config_path)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [(p["rate"], p["btl_required"]) for p in report["points"]] == [(0.0, 1), (0.01, 1)]
        assert list(report["position_histograms"]) == ["b1"]
        assert (out / "ballot_rates_00.csv").exists()

    def test_abbreviated_config_flag_is_read(self, tmp_path, election_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"election": election_path}))
        assert main(["count", "--conf", str(config_path)]) == EXIT_OK
        assert main(["count", f"--con={config_path}"]) == EXIT_OK
        config_path.write_text(json.dumps({"election": election_path, "surplus": "bogus"}))
        assert main(["count", "--conf", str(config_path)]) == EXIT_USAGE

    def test_config_that_is_not_json_is_usage_error(self, tmp_path, election_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text("{election: x}")
        assert main(["count", "--election", election_path, "--config", str(config_path)]) == EXIT_USAGE
        config_path.write_bytes(b'{"seats": "\xff"}')
        assert main(["count", "--election", election_path, "--config", str(config_path)]) == EXIT_USAGE

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, election_path, capsys):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps(["--election", election_path]))
        assert main(["count", "--config", str(config_path)]) == EXIT_USAGE
        assert f"usage error: config file {config_path} must hold a JSON object" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, election_path):
        assert main(["count", "--election", election_path, "--frobnicate"]) == EXIT_USAGE
