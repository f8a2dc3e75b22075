import io

import pytest

from stvsim import (
    Candidate,
    ColumnMap,
    ElectionFile,
    ElectionMeta,
    Group,
    IngestError,
    MarkSheet,
    SchemaError,
    parse_preference_csv,
    read_election_file,
    write_election_file,
)
from stvsim.ingest import RowIssue
from stvsim.synth import formality_bias_election


@pytest.fixture
def meta():
    return ElectionMeta(
        name="csv fixture",
        seats=1,
        groups=(Group("gA", "Alpha"), Group("gB", "Beta"), Group("gC", "Gamma")),
        candidates=(
            Candidate("a1", "Ann", "gA", 1),
            Candidate("b1", "Bob", "gB", 1),
            Candidate("c1", "Cam", "gC", 1),
        ),
    )


def parse(text, meta, column="Preferences", header=True):
    stream = io.BytesIO(text.encode("utf-8"))
    return parse_preference_csv(stream, meta, ColumnMap(column, header))


class TestCsvParsing:
    def test_positional_mapping(self, meta):
        result = parse('Preferences\n"1,,2,,,"\n', meta)
        assert not result.issues
        (sheet,) = result.election.sheets
        assert sheet.atl_marks == {"gA": "1", "gC": "2"}
        assert sheet.btl_marks == {}

    def test_tick_tokens_mean_first_preference(self, meta):
        # hand-built rows mirroring the published tick-mark convention
        result = parse('Preferences\n"/,,,,,"\n"*,,,,,"\n"1,,,,,"\n', meta)
        assert not result.issues
        (sheet,) = result.election.sheets
        assert sheet.atl_marks == {"gA": "1"}
        assert sheet.multiplicity == 3

    def test_identical_rows_merge(self, meta):
        result = parse('Preferences\n"1,2,,,,"\n"1,2,,,,"\n', meta)
        assert len(result.election.sheets) == 1
        assert result.election.sheets[0].multiplicity == 2
        assert result.election.total_ballots == 2

    def test_btl_columns_follow_atl(self, meta):
        result = parse('Preferences\n",,,1,2,3"\n', meta)
        (sheet,) = result.election.sheets
        assert sheet.atl_marks == {}
        assert sheet.btl_marks == {"a1": "1", "b1": "2", "c1": "3"}

    def test_wrong_token_count_rejects_row(self, meta):
        result = parse('Preferences\n"1,,2,,,"\n"1,2"\n"2,1,,,,"\n', meta)
        assert len(result.election.sheets) == 2
        assert len(result.issues) == 1
        assert result.issues[0].row == 3
        assert "tokens" in result.issues[0].reason

    def test_column_by_index_and_extra_columns(self, meta):
        result = parse('id,prefs\n7,"1,,,,,"\n', meta, column=1)
        assert result.election.total_ballots == 1

    def test_a_byte_order_mark_does_not_hide_the_header(self, meta):
        # Spreadsheet "CSV UTF-8" exports open with U+FEFF.
        result = parse('\ufeffPreferences\n"1,,,,,"\n', meta)
        assert not result.issues
        assert result.election.total_ballots == 1

    def test_a_byte_order_mark_is_skipped_at_the_start_only(self):
        meta = formality_bias_election().meta  # 8 boxes
        data = '\ufeff"1,,,,,,,"\n"1,,,,,,,"\n'.encode("utf-8")
        result = parse_preference_csv(io.BytesIO(data), meta, ColumnMap(0, header=False))
        assert not result.issues
        assert result.election.total_ballots == 2
        # Further on, U+FEFF is data: line 2's field no longer opens with a
        # quote, its last quote opens a field, and lines 2-3 are one bad row.
        later = parse_preference_csv(io.BytesIO(b'"1,,,,,,,"\n' + data), meta, ColumnMap(0, header=False))
        assert later.issues == [RowIssue(3, "expected 8 preference tokens, got 1")]
        assert later.election.total_ballots == 1

    def test_missing_column_is_hard_error(self, meta):
        with pytest.raises(IngestError):
            parse('Nope\n"1,,,,,"\n', meta)

    def test_non_numeric_tokens_are_unmarked(self, meta):
        # '²' and '١' (Arabic-Indic one) pass str.isdigit but are no marks.
        result = parse('Preferences\n"1,x,?,²,\u0661,"\n', meta)
        (sheet,) = result.election.sheets
        assert sheet.atl_marks == {"gA": "1"}
        assert sheet.btl_marks == {}

    def test_parse_from_path(self, meta, tmp_path):
        path = tmp_path / "prefs.csv"
        path.write_text('Preferences\n"1,,,,,"\n', encoding="utf-8")
        result = parse_preference_csv(str(path), meta, ColumnMap("Preferences"))
        assert result.election.total_ballots == 1

    def test_order_preserved_and_total_conserved(self, meta):
        rows = ['"1,,,,,"', '",1,,,,"', '"1,,,,,"', '",,1,,,"']
        result = parse("Preferences\n" + "\n".join(rows) + "\n", meta)
        assert [s.atl_marks for s in result.election.sheets] == [
            {"gA": "1"}, {"gB": "1"}, {"gC": "1"}]
        assert result.election.total_ballots == 4

    def test_a_passed_stream_is_left_open(self, meta):
        stream = io.BytesIO(b'Preferences\n"1,,,,,"\n')
        parse_preference_csv(stream, meta, ColumnMap("Preferences"))
        assert not stream.closed

    def test_line_endings_parse_alike(self, meta):
        def csv_text(end):
            rows = ["id,Preferences", '1,"1,,2,,,"', '2,"1,2"', f'"three{end}line{end}id","1,,2,,,"', '4,",,,1,2,3"']
            return end.join(rows) + end

        lf, cr, crlf = (parse(csv_text(end), meta) for end in ("\n", "\r", "\r\n"))
        assert lf == cr == crlf
        assert [s.multiplicity for s in lf.election.sheets] == [2, 1]
        assert lf.issues == [RowIssue(3, "expected 6 preference tokens, got 2")]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_a_row_is_named_by_the_line_it_ends_on(self, end):
        # The quoted field spans lines 2-3, so the short row is on line 4.
        text = end.join(["id,Preferences", f'"two{end}line",",1,2"', '9,"1,2"']) + end
        result = parse(text, CSV_META)
        assert result.election.total_ballots == 1
        assert result.issues == [RowIssue(4, "expected 3 preference tokens, got 2")]


class TestElectionFileRoundTrip:
    def test_meta_only_round_trips(self, meta, tmp_path):
        election = ElectionFile(meta, (), provenance="just the layout")
        path = tmp_path / "empty.stv"
        write_election_file(election, path)
        assert read_election_file(path) == election

    def test_sheets_round_trip_bit_exactly(self, meta, tmp_path):
        sheets = (
            MarkSheet({"gA": "1"}, {}, 3),
            MarkSheet({}, {"a1": "1", "b1": "2", "c1": "3"}, 1),
            MarkSheet({"gB": "1", "gC": "2"}, {"a1": "07"}, 5),  # leading zero preserved
            MarkSheet({"gC": "1"}, {}, 1),
            MarkSheet({}, {"c1": "1"}, 2),
        )
        election = ElectionFile(meta, sheets, provenance="five sheets")
        path = tmp_path / "five.stv"
        write_election_file(election, path)
        back = read_election_file(path)
        assert back == election
        # a second write is byte-identical: the writer is canonical
        path2 = tmp_path / "again.stv"
        write_election_file(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_unknown_candidate_in_sheet_is_schema_error(self, meta, tmp_path):
        path = tmp_path / "bad.stv"
        good = ElectionFile(meta, (MarkSheet({"gA": "1"}, {}),))
        write_election_file(good, path)
        text = path.read_text().replace("gA:1", "zz:1")
        path.write_text(text)
        with pytest.raises(SchemaError):
            read_election_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.stv"
        path.write_text("#stv-election v9\n")
        with pytest.raises(SchemaError) as err:
            read_election_file(path)
        assert "line 1" in str(err.value)

    def test_building_with_unknown_box_fails(self, meta):
        with pytest.raises(SchemaError):
            ElectionFile(meta, (MarkSheet({"nope": "1"}, {}),))

    def test_malformed_sheet_line_reports_line_number(self, meta, tmp_path):
        path = tmp_path / "bad2.stv"
        good = ElectionFile(meta, (MarkSheet({"gA": "1"}, {}),))
        write_election_file(good, path)
        path.write_text(path.read_text().replace("1\tgA:1\t", "one\tgA:1\t"))
        with pytest.raises(SchemaError) as err:
            read_election_file(path)
        assert "line" in str(err.value)


GOOD_STV = (
    "#stv-election v1\n"      # line 1
    "[election]\n"            # 2
    "name\tfixture\n"         # 3
    "seats\t1\n"              # 4
    "[groups]\n"              # 5
    "gA\tAlpha\n"             # 6
    "gB\tBeta\n"              # 7
    "[candidates]\n"          # 8
    "a1\tAnn\tgA\t1\n"        # 9
    "b1\tBob\tgB\t1\n"        # 10
    "[sheets]\n"              # 11
    "2\tgA:1\t\n"             # 12
    "1\t\ta1:1 b1:2\n"        # 13
)
CSV_META = ElectionMeta(
    "csv fixture", 1, (Group("gA", "Alpha"),), (Candidate("a1", "Ann", "gA", 1), Candidate("b1", "Bob", "gA", 2))
)

# (id, input, exception type, message fragment).  A (str, str) input is
# GOOD_STV with its first `old` replaced by `new` (an empty `old`: an empty
# file); a (bytes, ColumnMap) input is a preference CSV.  Fragments name the
# line, or the CSV row, except for a field missing or wrong as a whole, a
# layout or a sheet checked after reading (a sheet is named by index).
BAD_INPUTS = [
    ("empty-stv", ("", None), SchemaError, "line 1: expected header '#stv-election v1', found '<empty file>'"),
    ("unknown-section", ("[groups]", "[parties]"), SchemaError, "line 5: unknown section 'parties'"),
    ("before-section", ("[election]\n", "stray\n[election]\n"), SchemaError,
     "line 2: content before any section header"),
    ("election-fields", ("seats\t1", "seats 1"), SchemaError, "line 4: expected key<TAB>value"),
    ("election-field-twice", ("seats\t1\n", "seats\t1\nseats\t3\n"), SchemaError,
     "line 5: [election] field 'seats' given twice"),
    ("group-fields", ("gB\tBeta", "gB\tBeta\tmore"), SchemaError, "line 7: expected id<TAB>name"),
    ("candidate-fields", ("b1\tBob\tgB\t1", "b1\tBob\tgB"), SchemaError,
     "line 10: expected id<TAB>name<TAB>group<TAB>position"),
    ("position", ("b1\tBob\tgB\t1", "b1\tBob\tgB\tfirst"), SchemaError,
     "line 10: position 'first' is not an integer"),
    ("sheet-fields", ("2\tgA:1\t\n", "2\tgA:1\n"), SchemaError, "line 12: expected multiplicity<TAB>atl<TAB>btl"),
    ("multiplicity", ("2\tgA:1\t\n", "two\tgA:1\t\n"), SchemaError, "line 12: multiplicity 'two' is not an integer"),
    ("multiplicity-range", ("2\tgA:1\t\n", "0\tgA:1\t\n"), SchemaError, "line 12: multiplicity must be >= 1"),
    ("pair", ("a1:1 b1:2", "a1:1 b1=2"), SchemaError, "line 13: bad box:mark pair 'b1=2'"),
    ("box-twice", ("a1:1 b1:2", "a1:1 a1:2"), SchemaError, "line 13: box 'a1' listed twice"),
    ("unicode-mark", ("a1:1 b1:2", "a1:1 b1:²"), SchemaError, "line 13: bad box:mark pair 'b1:²'"),
    ("unknown-election-field", ("seats\t1\n", "seats\t1\nprovenence\ttypo\n"), SchemaError,
     "line 5: unknown [election] field 'provenence'"),
    ("no-name", ("name\tfixture\n", ""), SchemaError, "missing [election] field 'name'"),
    ("no-seats", ("seats\t1\n", ""), SchemaError, "missing [election] field 'seats'"),
    ("seats", ("seats\t1", "seats\tone"), SchemaError, "seats 'one' is not an integer"),
    ("seats-range", ("seats\t1", "seats\t2"), SchemaError, "seats must satisfy 1 <= seats < candidates"),
    ("candidate-box", ("a1:1 b1:2", "a1:1 zz:2"), SchemaError, "sheet 1: unknown candidate box 'zz'"),
    ("empty-group", ("gB\tBeta\n", "gB\tBeta\ngE\tEmpty\n"), SchemaError, "group 'gE' has no candidates"),
    ("empty-csv", (b"", ColumnMap("Preferences")), IngestError, "CSV is empty"),
    ("headerless-by-name", (b'"1,2"\n', ColumnMap("Preferences", header=False)), IngestError,
     "a headerless CSV needs a numeric preference column index"),
    ("negative-column", (b'"1,2"\n', ColumnMap(-1, header=False)), IngestError,
     "preference column index -1 is negative"),
    ("undecodable", (b'Preferences\n"1,2"\n\xff\n', ColumnMap("Preferences")), IngestError,
     "malformed CSV near row 3: "),
    ("undecodable-after-bom", (b'\xef\xbb\xbfPreferences\n"1,2"\n\xff\n', ColumnMap("Preferences")),
     IngestError, "malformed CSV near row 3: "),
    ("undecodable-far", (b'Preferences\n' + b'"1,2"\n' * 3001 + b'\xff\n', ColumnMap("Preferences")),
     IngestError, "malformed CSV near row 3003: "),
    ("oversized-field", (b'Preferences\n"1,2"\n"' + b"1" * 200_000 + b'"\n', ColumnMap("Preferences")),
     IngestError, "malformed CSV near row 3: field larger than field limit"),
]


@pytest.mark.parametrize("source, exc_type, fragment", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_is_rejected_with_its_line(source, exc_type, fragment, tmp_path):
    if isinstance(source[0], bytes):
        data, column_map = source
        with pytest.raises(exc_type) as err:
            parse_preference_csv(io.BytesIO(data), CSV_META, column_map)
    else:
        old, new = source
        path = tmp_path / "bad.stv"
        text = GOOD_STV.replace(old, new, 1) if old else ""
        assert text != GOOD_STV
        path.write_text(text, encoding="utf-8")
        with pytest.raises(exc_type) as err:
            read_election_file(path)
    assert fragment in str(err.value)


def test_good_fixture_reads(tmp_path):
    path = tmp_path / "good.stv"
    path.write_text(GOOD_STV, encoding="utf-8")
    assert read_election_file(path).total_ballots == 3
    # Blank and comment lines after the header are ignored.
    commented = tmp_path / "commented.stv"
    text = GOOD_STV.replace("[election]\n", "\n# layout\n[election]\n").replace("[sheets]\n", "[sheets]\n  \n\t# papers\n")
    commented.write_text(text, encoding="utf-8")
    assert read_election_file(commented) == read_election_file(path)


def test_tab_in_a_name_is_rejected_on_write(meta, tmp_path):
    bad = ElectionMeta("two\twords", 1, meta.groups, meta.candidates)
    with pytest.raises(SchemaError, match="name 'two\\\\twords' must not contain tabs or newlines"):
        write_election_file(ElectionFile(bad, ()), tmp_path / "bad.stv")


def with_field(meta, field, value):
    """``meta`` as an election file with one name or its provenance set to ``value``."""
    if field == "name":
        meta = ElectionMeta(value, meta.seats, meta.groups, meta.candidates)
    elif field == "group name":
        meta = ElectionMeta(meta.name, meta.seats, (Group("gA", value),) + meta.groups[1:], meta.candidates)
    elif field == "candidate name":
        candidates = (Candidate("a1", value, "gA", 1),) + meta.candidates[1:]
        meta = ElectionMeta(meta.name, meta.seats, meta.groups, candidates)
    return ElectionFile(meta, (), value if field == "provenance" else "")


FIELDS = ["name", "provenance", "group name", "candidate name"]


@pytest.mark.parametrize("value", ["a\x0cb", "a\x85b", "a\u2028b", "  spaced  ", "trailing\n"], ids=repr)
@pytest.mark.parametrize("field", FIELDS)
def test_a_field_that_would_not_read_back_is_refused_on_write(meta, tmp_path, field, value):
    with pytest.raises(SchemaError, match=f"^{field} "):
        write_election_file(with_field(meta, field, value), tmp_path / "bad.stv")
    assert not (tmp_path / "bad.stv").exists()


@pytest.mark.parametrize("value", ["two words", "a\xa0b", "Zoë"], ids=repr)
@pytest.mark.parametrize("field", FIELDS)
def test_a_written_field_reads_back_as_written(meta, tmp_path, field, value):
    election = with_field(meta, field, value)
    write_election_file(election, tmp_path / "good.stv")
    assert read_election_file(tmp_path / "good.stv") == election


def test_headerless_csv_by_index_reports_short_rows(tmp_path):
    result = parse_preference_csv(io.BytesIO(b'7,",1,2"\n\n8\n'), CSV_META, ColumnMap(1, header=False))
    assert result.election.total_ballots == 1
    assert result.issues == [RowIssue(3, "no column 1 in row of 1 fields")]
