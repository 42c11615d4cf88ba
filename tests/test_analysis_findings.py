"""Direct units for simlint's findings / suppression parsing
(docs/ANALYSIS.md), plus the experiments' ASCII table rendering and the
Table IV feature matrix.
"""

import textwrap

from repro.analysis.findings import (
    Finding,
    FindingSet,
    Suppression,
    parse_suppressions,
)
from repro.experiments.featurematrix import (
    FEATURES,
    SIMULATOR_FEATURES,
    amber_feature_count,
    feature_headers,
    feature_table,
)
from repro.experiments.formatting import format_series, format_table


# -- parse_suppressions -------------------------------------------------------

class TestParseSuppressions:
    def test_single_rule_with_reason(self):
        got = parse_suppressions(
            "x = 1  # simlint: disable=SIM101 -- timing the linter\n")
        assert got == {1: Suppression(1, ("SIM101",),
                                      "timing the linter")}

    def test_multi_rule_disable_covers_each_listed_rule(self):
        got = parse_suppressions(
            "x = 1  # simlint: disable=SIM101, sim110 -- one reason\n")
        sup = got[1]
        assert sup.rules == ("SIM101", "SIM110")  # normalized upper
        assert sup.covers("SIM101") and sup.covers("SIM110")
        assert not sup.covers("SIM102")

    def test_all_sentinel_covers_everything(self):
        got = parse_suppressions(
            "x = 1  # simlint: disable=ALL -- generated file\n")
        assert got[1].covers("SIM999")

    def test_missing_reason_yields_empty_reason(self):
        # the registry turns this into SIM100; the parser just records it
        got = parse_suppressions("x = 1  # simlint: disable=SIM101\n")
        assert got[1].reason == ""

    def test_docstring_directive_is_not_a_suppression(self):
        source = textwrap.dedent('''
            def f():
                """Write # simlint: disable=SIM101 -- like this."""
                return 1
        ''')
        assert parse_suppressions(source) == {}

    def test_directive_adjacent_to_docstring_line_still_counts(self):
        source = ('"""Module doc."""  '
                  "# simlint: disable=SIM103 -- module-level directive\n")
        got = parse_suppressions(source)
        assert got[1].rules == ("SIM103",)

    def test_unrelated_comments_are_ignored(self):
        assert parse_suppressions("x = 1  # simlint is great\n") == {}
        assert parse_suppressions("x = 1  # plain comment\n") == {}

    def test_non_tokenizing_source_falls_back_to_line_scan(self):
        source = ("def broken(:\n"
                  "    x = 1  # simlint: disable=SIM105 -- half-edited\n")
        got = parse_suppressions(source)
        assert got[2].rules == ("SIM105",)

    def test_lines_are_one_indexed_and_per_line(self):
        source = ("a = 1  # simlint: disable=SIM101 -- first\n"
                  "b = 2\n"
                  "c = 3  # simlint: disable=SIM102 -- third\n")
        got = parse_suppressions(source)
        assert sorted(got) == [1, 3]
        assert got[3].reason == "third"


# -- Finding / FindingSet -----------------------------------------------------

class TestFindingSet:
    def test_format_includes_location_rule_and_witness(self):
        finding = Finding(rule="SIM210", path="a.py", line=4, col=2,
                          message="wall-clock reaches state",
                          witness=("read at a.py:1", "stored at a.py:4"))
        text = finding.format()
        assert text.startswith("a.py:4:2: SIM210 ")
        assert "\n    witness: read at a.py:1" in text
        assert "\n    witness: stored at a.py:4" in text

    def test_suppressed_format_shows_reason(self):
        finding = Finding(rule="SIM101", path="a.py", line=1, col=0,
                          message="m", suppressed=True, reason="bench")
        assert "[suppressed: bench]" in finding.format()

    def test_summary_counts_and_exit_code(self):
        fs = FindingSet()
        fs.add(Finding("SIM101", "a.py", 1, 0, "m"))
        fs.extend([Finding("SIM101", "a.py", 2, 0, "m"),
                   Finding("SIM106", "b.py", 3, 0, "m",
                           suppressed=True, reason="r")])
        assert fs.by_rule() == {"SIM101": 2}
        assert len(fs.suppressed) == 1
        assert fs.exit_code() == 1
        assert FindingSet().exit_code() == 0


# -- tables -------------------------------------------------------------------

class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "ns"],
                            [["read", 1234.0], ["gc", 7.5]],
                            title="latency")
        lines = text.splitlines()
        assert lines[0] == "latency"
        assert lines[1].split(" | ")[0].strip() == "name"
        assert set(lines[2]) <= {"-", "+"}
        # every row renders to the same width
        assert len({len(line) for line in lines[1:]}) == 1
        assert "1234" in text and "7.5" in text

    def test_float_formatting_scales_precision(self):
        text = format_table(["v"], [[0.0], [0.1234], [1.26], [512.7]])
        assert "0.123" in text     # small: 3 decimals
        assert "1.3" in text       # mid: 1 decimal
        assert "513" in text       # large: integral
        assert "\n0 " in text or text.splitlines()[2].strip() == "0"

    def test_format_series_merges_x_axis(self):
        text = format_series(
            {"amber": {1: 10.0, 4: 40.0}, "mqsim": {1: 11.0, 2: 22.0}},
            x_label="qd")
        lines = text.splitlines()
        assert lines[0].split(" | ")[0].strip() == "qd"
        xs = [line.split(" | ")[0].strip() for line in lines[2:]]
        assert xs == ["1", "2", "4"]
        # missing points render empty, not crash
        assert [c.strip() for c in lines[3].split(" | ")] == \
            ["2", "", "22.0"]


# -- feature matrix -----------------------------------------------------------

class TestFeatureMatrix:
    def test_amber_implements_every_feature(self):
        assert amber_feature_count() == len(FEATURES)

    def test_known_sims_claim_only_known_features(self):
        keys = {key for key, _label, _mod in FEATURES}
        for sim, claimed in SIMULATOR_FEATURES.items():
            assert claimed <= keys, sim

    def test_table_shape_matches_headers(self):
        headers = feature_headers()
        rows = feature_table()
        assert len(rows) == len(FEATURES)
        for row in rows:
            assert len(row) == len(headers)
        # Amber's column (after the Feature label) is all "yes"
        amber_col = headers.index("Amber")
        assert all(row[amber_col] == "yes" for row in rows)
        # every Amber cell names the implementing repro module
        assert all(row[-1].startswith("repro.") for row in rows)
