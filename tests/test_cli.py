import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pbindex import (
    ParseError,
    PseudoBooleanFunction,
    ProbabilityProfile,
    ValidationError,
    basis_function,
    best_s_approximation,
    index_report,
    residual_norm,
)
from pbindex import checks, cli, indices, measure
from pbindex.cli import (
    format_subset,
    main,
    parse_game,
    parse_profile,
    parse_subsets,
    serialize_game,
    write_rows,
)
from pbindex.core import mobius, product_table

OR_DOC = {"version": 1, "n": 2, "values": [0, 1, 1, 1]}
# worths of +-1.7e308, and a profile near the interior bound
HUGE_DOC = {"version": 1, "n": 3, "values": [x * 1.7e308 for x in (1, -1, -1, 1, -1, 1, -1, 1)]}
EDGE_P = ["--p", "1e-9,0.5,0.999999999"]


def write_game(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["subset", "index", "value"]
    return {(subset, index): float(value) for subset, index, value in rows[1:]}


class TestParseGame:
    def test_explicit_table(self, tmp_path):
        game = parse_game(write_game(tmp_path, OR_DOC))
        assert game.values.tolist() == [0, 1, 1, 1]

    def test_weighted_voting(self, tmp_path):
        doc = {"version": 1, "weighted_voting": {"quota": 3, "weights": [2, 2, 1]}}
        game = parse_game(write_game(tmp_path, doc))
        # {1,2}, {1,3}, {2,3}, {1,2,3} reach the quota of 3
        assert game.values.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]

    def test_unanimity_over_three_players(self, tmp_path):
        doc = {"version": 1, "n": 3, "unanimity": {"players": [1, 2]}}
        game = parse_game(write_game(tmp_path, doc))
        assert [m for m in range(8) if game.values[m] == 1] == [0b011, 0b111]

    def test_random_generator_is_deterministic(self, tmp_path):
        doc = {"version": 1, "n": 4, "random": {"seed": 7, "distribution": "uniform"}}
        one = parse_game(write_game(tmp_path, doc, "a.json"))
        two = parse_game(write_game(tmp_path, doc, "b.json"))
        assert np.array_equal(one.values, two.values)

    def test_stream_input(self):
        game = parse_game(io.StringIO(json.dumps(OR_DOC)))
        assert game.n == 2

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line"):
            parse_game(io.StringIO("{not json"))

    def test_missing_fields_and_bad_versions(self):
        with pytest.raises(ParseError, match="version"):
            parse_game(io.StringIO(json.dumps({"version": 9, "n": 1, "values": [0, 1]})))
        with pytest.raises(ParseError, match="'n'"):
            parse_game(io.StringIO(json.dumps({"values": [0, 1]})))
        with pytest.raises(ParseError):
            parse_game(io.StringIO(json.dumps({"n": 2})))

    def test_structural_validation(self):
        with pytest.raises(ValidationError):
            parse_game(io.StringIO(json.dumps({"n": 2, "values": [0, 1, 1]})))
        with pytest.raises(ValidationError):
            parse_game(io.StringIO(json.dumps({"n": 25, "values": [0.0]})))

    @pytest.mark.parametrize("n", [-1, 0, 25, 100])
    def test_generator_player_count_is_checked_before_drawing(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a random table before checking n")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for spec in ({"random": {"seed": 1}}, {"unanimity": {"players": [1]}}):
            with pytest.raises(ValidationError, match="player count"):
                parse_game(io.StringIO(json.dumps({"version": 1, "n": n, **spec})))

    @pytest.mark.parametrize("worth", ["a", {}, [1, 2]])
    def test_non_numeric_worths_fail_validation(self, tmp_path, capsys, worth):
        path = write_game(tmp_path, {"version": 1, "n": 1, "values": [0, worth]})
        assert main(["analyze", path]) == 1
        assert capsys.readouterr().err.startswith("error: game table needs numeric entries")

    @pytest.mark.parametrize(
        "values, first",
        [(["0", "1e0"], "entry 0 is '0'"), ([True, False], "entry 0 is True"), ([0, True], "entry 1 is True")],
    )
    def test_worths_that_are_not_json_numbers_fail_parsing(self, tmp_path, capsys, values, first):
        path = write_game(tmp_path, {"version": 1, "n": 1, "values": values})
        with pytest.raises(ParseError):
            parse_game(path)
        assert main(["analyze", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: game table needs numeric entries: {first}"]

    def test_worths_beyond_the_float_range_fail_validation(self, tmp_path, capsys):
        path = write_game(tmp_path, {"version": 1, "n": 1, "values": [0, 10**400]})
        assert main(["analyze", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: game table needs numeric entries")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"version": 1, "n": 1, "values": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
             "not valid JSON: nested too deeply"),
            (b"\xff\xfe", "not valid UTF-8 (byte offset 0): invalid start byte"),
            (b'{"version": 1, "n": 1, "values": [0, 1]}\xff', "not valid UTF-8 (byte offset 40): invalid start byte"),
            (b'{"version": 1, "n": 1, "values": [' + b"1" * 5000 + b", 0]}",
             "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
            (b"[]", "game file must be a JSON object"),
            # universal newlines: a byte decode without them reads line 1, column 38 here
            (b'{"version": 1,\r"n": 1,\r"values": [0, ]}', "not valid JSON (line 3, column 15): Expecting value"),
            (b'{"version": 1,\r\n"n": 1,\r\n"values": [0, ]}', "not valid JSON (line 3, column 15): Expecting value"),
            (b'\xef\xbb\xbf{"version": 1, "n": 1, "values": [0, 1]}',
             "not valid JSON (line 1, column 1): Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ],
        ids=["nested", "utf16-bom", "trailing-byte", "int-digits", "array", "cr", "crlf", "utf8-bom"],
    )
    def test_files_json_cannot_read_are_parse_errors(self, tmp_path, capsys, content, message):
        path = tmp_path / "game.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            parse_game(path)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_serialize_roundtrip(self, tmp_path):
        game = parse_game(io.StringIO(json.dumps(OR_DOC)))
        path = tmp_path / "copy.json"
        serialize_game(game, path)
        again = parse_game(path)
        assert np.array_equal(game.values, again.values)


@pytest.mark.usefixtures("parse_cache")
class TestParseCache:
    # parse_game keeps the game last parsed from a path, keyed by the file's bytes

    def test_a_process_keys_paths_from_its_second_parse(self, tmp_path, parse_cache):
        parse_cache._keying = False  # as in a fresh process: its first parse has nothing to reuse
        path = write_game(tmp_path, OR_DOC)
        one = parse_game(path)
        assert parse_cache._last_parsed is None
        two = parse_game(path)
        assert two is not one and parse_game(path) is two

    def test_a_kept_game_cannot_be_changed(self, tmp_path):
        path = write_game(tmp_path, OR_DOC)
        game = parse_game(path)
        coeffs = mobius(game)
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            game.values.setflags(write=True)
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            coeffs.coeffs.setflags(write=True)
        for obj, name, value in [(game, "n", 3), (game, "values", np.zeros(4)), (game, "_mobius_cache", None),
                                 (coeffs, "n", 3), (coeffs, "coeffs", np.zeros(4))]:
            with pytest.raises(AttributeError, match=f"{type(obj).__name__}.{name} is read-only"):
                setattr(obj, name, value)
            with pytest.raises(AttributeError, match="is read-only"):
                delattr(obj, name)
        again = parse_game(path)
        assert again is game and again.n == 2 and again.values.tolist() == OR_DOC["values"]
        assert mobius(again) is coeffs and coeffs.coeffs.tolist() == [0.0, 1.0, 1.0, -1.0]

    def test_the_same_bytes_at_two_paths_share_one_game_and_its_mobius_table(self, tmp_path):
        one = parse_game(write_game(tmp_path, OR_DOC, "a.json"))
        coeffs = mobius(one)
        two = parse_game(write_game(tmp_path, OR_DOC, "b.json"))
        assert two is one and mobius(two) is coeffs

    def test_a_file_rewritten_with_other_bytes_of_the_same_size_and_mtime_is_parsed_again(self, tmp_path):
        path = write_game(tmp_path, {"version": 1, "n": 1, "values": [1, 2]})
        assert parse_game(path).values.tolist() == [1, 2]
        before = os.stat(path)
        write_game(tmp_path, {"version": 1, "n": 1, "values": [3, 4]})
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert parse_game(path).values.tolist() == [3, 4]

    @pytest.mark.parametrize(
        "doc, error, message",
        [
            ({"version": 1, "n": 1, "values": [0, "x"]}, ParseError, "game table needs numeric entries: entry 1 is 'x'"),
            ({"version": 1, "n": 1, "values": [0, 1, 2]}, ValidationError,
             "game table needs exactly 2**1 = 2 entries, got shape (3,)"),
        ],
    )
    def test_a_failing_file_fails_alike_on_every_call_and_drops_the_kept_game(self, tmp_path, doc, error, message):
        good = write_game(tmp_path, OR_DOC, "good.json")
        kept = parse_game(good)
        bad = write_game(tmp_path, doc, "bad.json")
        for _ in range(2):
            with pytest.raises(error) as caught:
                parse_game(bad)
            assert str(caught.value) == message
        assert parse_game(good) is not kept

    def test_a_stream_is_parsed_every_time_and_leaves_the_kept_game(self, tmp_path):
        path = write_game(tmp_path, OR_DOC)
        kept = parse_game(path)
        one, two = (parse_game(io.StringIO(json.dumps(OR_DOC))) for _ in range(2))
        assert one is not two and kept not in (one, two)
        assert parse_game(path) is kept


class TestSelectors:
    def test_profile_parsing(self):
        assert parse_profile(None, 3).p.tolist() == [0.5, 0.5, 0.5]
        assert parse_profile("0.25", 3).p.tolist() == [0.25, 0.25, 0.25]
        assert parse_profile("0.1,0.2,0.3", 3).p.tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValidationError):
            parse_profile("0.1,0.2", 3)
        with pytest.raises(ValidationError):
            parse_profile("zero", 3)

    def test_subset_selectors(self):
        every = parse_subsets("all", 2)
        assert every.dtype == np.int64 and every.tolist() == [0, 1, 2, 3]
        assert parse_subsets("singletons", 3) == [1, 2, 4]
        assert parse_subsets("pairs", 3) == [0b011, 0b101, 0b110]
        assert parse_subsets("1,2;3;0", 3) == [0b011, 0b100, 0]
        with pytest.raises(ValidationError):
            parse_subsets("all", 17)
        with pytest.raises(ValidationError):
            parse_subsets("4", 3)

    def test_subset_formatting(self):
        assert format_subset(0) == "{}"
        assert format_subset(0b101) == "{1,3}"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["analyze", "GAME", "--p", "0.2,x"],
                "cannot parse probabilities from '0.2,x': could not convert string to float: 'x'",
            ),
            (
                ["analyze", "GAME", "--subsets", "1;2,x"],
                "cannot parse subset '2,x': invalid literal for int() with base 10: 'x'",
            ),
            (
                ["generate", "weighted-voting", "--quota", "3", "--weights", "2,x"],
                f"{cli.WEIGHTED_VOTING_NEEDS}: could not convert string to float: 'x'",
            ),
            (
                ["generate", "unanimity", "--n", "3", "--players", "1,x"],
                f"{cli.UNANIMITY_NEEDS}: invalid literal for int() with base 10: 'x'",
            ),
        ],
        ids=["p", "subsets", "weights", "players"],
    )
    def test_a_bad_comma_list_token_prints_one_error_line(self, argv, line, tmp_path, capsys):
        # every comma list is read by one reader: its flag's prefix, then the conversion error
        game = write_game(tmp_path, {"version": 1, "n": 3, "values": list(range(8))})
        assert main([game if arg == "GAME" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]


class TestAnalyze:
    def test_or_game_csv_rows(self, tmp_path, capsys):
        rc = main(["analyze", write_game(tmp_path, OR_DOC)])
        assert rc == 0
        table = read_csv(capsys.readouterr().out)
        assert table[("{1}", "Phi_B")] == 0.5
        assert table[("{2}", "Phi_B")] == 0.5
        assert table[("{1,2}", "Phi_B")] == 1.0
        assert table[("{}", "Phi_B")] == 0.0
        assert table[("{1}", "I_B")] == 0.5
        assert table[("{1,2}", "I_B")] == -1.0
        assert table[("{1}", "Phi_Sh")] == 0.5
        assert ("{}", "r") not in table

    def test_correlations_of_huge_worths_are_those_of_the_game(self, tmp_path, capsys):
        # the OR game times 1e200: sigma_f squares the worths past the float range
        path = write_game(tmp_path, {"version": 1, "n": 2, "values": [0, 1e200, 1e200, 1e200]})
        r_rows = ['{1},r,0.57735026919', '{2},r,0.57735026919', '"{1,2}",r,0.816496580928']
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # three subsets take the tables route, one the per-subset route
            for selector, want in (("1;2;1,2", r_rows), ("1,2", r_rows[2:])):
                assert main(["analyze", path, "--subsets", selector]) == 0
                lines = capsys.readouterr().out.splitlines()
                assert [line for line in lines if ",r," in line] == want

    @pytest.mark.parametrize(
        "args, error",
        [
            # f - E[f] and the variance's weighted squares overflow; the default
            # 'all' takes the tables route, one subset the per-subset route
            (EDGE_P, "the variance is beyond the float range (the worths overflow)"),
            (EDGE_P + ["--subsets", "1"], "the variance is beyond the float range (the worths overflow)"),
            # the variance stays finite, and the tables overflow
            (
                ["--p", "0.3"],
                "indexes of subset 0b1 are not finite: I = nan, Phi = 6.799999999999993e+306, "
                "Shapley = nan (the worths overflow)",
            ),
        ],
    )
    def test_worths_past_the_float_range_print_one_error_line(self, tmp_path, capsys, args, error):
        argv = ["analyze", write_game(tmp_path, HUGE_DOC), *args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_scalar_profile_replication(self, tmp_path, capsys):
        rc = main(["analyze", write_game(tmp_path, OR_DOC), "--p", "0.25", "--subsets", "1"])
        assert rc == 0
        table = read_csv(capsys.readouterr().out)
        assert table[("{1}", "Phi_B")] == pytest.approx(0.75)  # 1 - p2

    def test_singleton_selector_row_count(self, tmp_path, capsys):
        rc = main(["analyze", write_game(tmp_path, OR_DOC), "--subsets", "singletons"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 2 * 4  # header + 4 indexes per player

    def test_text_format_and_out_file(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(
            ["analyze", write_game(tmp_path, OR_DOC), "--format", "text", "--out", str(out)]
        )
        assert rc == 0
        assert "Phi_B" in out.read_text()

    def test_text_report_of_every_subset_is_pinned(self, tmp_path, capsys):
        doc = {"version": 1, "weighted_voting": {"quota": 3, "weights": [2, 2, 1]}}
        rc = main(["analyze", write_game(tmp_path, doc), "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "{}       I_B     0.5\n"
            "{}       Phi_B   0\n"
            "{}       Phi_Sh  0\n"
            "{1}      I_B     0.5\n"
            "{1}      Phi_B   0.5\n"
            "{1}      Phi_Sh  0.333333333333\n"
            "{1}      r       0.5\n"
            "{2}      I_B     0.5\n"
            "{2}      Phi_B   0.5\n"
            "{2}      Phi_Sh  0.333333333333\n"
            "{2}      r       0.5\n"
            "{1,2}    I_B     0\n"
            "{1,2}    Phi_B   1\n"
            "{1,2}    Phi_Sh  1\n"
            "{1,2}    r       0.707106781187\n"
            "{3}      I_B     0.5\n"
            "{3}      Phi_B   0.5\n"
            "{3}      Phi_Sh  0.333333333333\n"
            "{3}      r       0.5\n"
            "{1,3}    I_B     0\n"
            "{1,3}    Phi_B   1\n"
            "{1,3}    Phi_Sh  1\n"
            "{1,3}    r       0.707106781187\n"
            "{2,3}    I_B     0\n"
            "{2,3}    Phi_B   1\n"
            "{2,3}    Phi_Sh  1\n"
            "{2,3}    r       0.707106781187\n"
            "{1,2,3}  I_B     -2\n"
            "{1,2,3}  Phi_B   1\n"
            "{1,2,3}  Phi_Sh  1\n"
            "{1,2,3}  r       0.5\n"
        )

    def test_csv_report_of_every_subset_is_pinned(self, tmp_path, capsys):
        # labels with a comma are quoted, as csv.writer quotes them
        doc = {"version": 1, "weighted_voting": {"quota": 3, "weights": [2, 2, 1]}}
        rc = main(["analyze", write_game(tmp_path, doc)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "subset,index,value\n"
            "{},I_B,0.5\n"
            "{},Phi_B,0\n"
            "{},Phi_Sh,0\n"
            "{1},I_B,0.5\n"
            "{1},Phi_B,0.5\n"
            "{1},Phi_Sh,0.333333333333\n"
            "{1},r,0.5\n"
            "{2},I_B,0.5\n"
            "{2},Phi_B,0.5\n"
            "{2},Phi_Sh,0.333333333333\n"
            "{2},r,0.5\n"
            '"{1,2}",I_B,0\n'
            '"{1,2}",Phi_B,1\n'
            '"{1,2}",Phi_Sh,1\n'
            '"{1,2}",r,0.707106781187\n'
            "{3},I_B,0.5\n"
            "{3},Phi_B,0.5\n"
            "{3},Phi_Sh,0.333333333333\n"
            "{3},r,0.5\n"
            '"{1,3}",I_B,0\n'
            '"{1,3}",Phi_B,1\n'
            '"{1,3}",Phi_Sh,1\n'
            '"{1,3}",r,0.707106781187\n'
            '"{2,3}",I_B,0\n'
            '"{2,3}",Phi_B,1\n'
            '"{2,3}",Phi_Sh,1\n'
            '"{2,3}",r,0.707106781187\n'
            '"{1,2,3}",I_B,-2\n'
            '"{1,2,3}",Phi_B,1\n'
            '"{1,2,3}",Phi_Sh,1\n'
            '"{1,2,3}",r,0.5\n'
        )

    def test_every_subset_report_builds_no_per_subset_objects(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze made a per-subset call")

        for name in (
            "banzhaf_interaction", "banzhaf_influence", "shapley_generalized_value", "g_std"
        ):
            monkeypatch.setattr(indices, name, refuse)
        monkeypatch.setattr(cli, "format_subset", refuse)
        path = write_game(tmp_path, {"version": 1, "n": 5, "random": {"seed": 3}})
        for fmt in ("csv", "text"):
            assert main(["analyze", path, "--format", fmt]) == 0
        assert capsys.readouterr().out.count("\n") == (1 + 4 * 32 - 1) + (4 * 32 - 1)

    def test_reports_are_written_through_write_rows(self, tmp_path, capsys, monkeypatch):
        calls = []

        def record(subsets, columns, n, fmt, out):
            calls.append((subsets.tolist(), list(columns), n, fmt))

        monkeypatch.setattr(cli, "write_rows", record)
        path = write_game(tmp_path, OR_DOC)
        assert main(["analyze", path, "--subsets", "1;0;1"]) == 0
        assert main(["approximate", path, "--subset", "1,2", "--format", "csv"]) == 0
        assert calls == [
            ([1, 0, 1], ["I_B", "Phi_B", "Phi_Sh", "r"], 2, "csv"),
            ([0, 1, 2, 3], ["coeff", "I_B", "residual"], 2, "csv"),
        ]

    @staticmethod
    def _row_writer(subsets, columns, n, fmt, out):
        # reference: one (subset, index, value) row per non-NaN value, written by csv.writer
        rows = [
            (format_subset(S), name, value)
            for S, *values in zip(subsets.tolist(), *(c.tolist() for c in columns.values()))
            for name, value in zip(columns, values)
            if not np.isnan(value)
        ]
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["subset", "index", "value"])
            writer.writerows((label, name, format(value, ".12g")) for label, name, value in rows)
        else:
            width = max((len(label) for label, _, _ in rows), default=2)
            iwidth = max((len(name) for _, name, _ in rows), default=5)
            for label, name, value in rows:
                out.write(f"{label:<{width}}  {name:<{iwidth}}  {value:.12g}\n")

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize(
        "subsets",
        [
            [0, 2047, 1 << 9, 1 << 10, 0b11000000001] + list(range(3, 2048, 61)),  # tables
            [1 << 10, 0, 0b11000000001, 1 << 10],  # per subset, with a repeat
            [],
        ],
    )
    def test_report_writer_matches_the_row_writer(self, subsets, fmt, monkeypatch):
        # players 10 and 11 take two digits; chunks of 7 subsets split the report
        monkeypatch.setattr(cli, "REPORT_CHUNK", 7)
        rng = np.random.default_rng(8)
        f = PseudoBooleanFunction(11, rng.random(1 << 11))
        for p in (ProbabilityProfile(rng.uniform(0.05, 0.95, 11)), ProbabilityProfile.uniform(11)):
            for game in (f, PseudoBooleanFunction(11, np.full(1 << 11, 2.5))):
                report = index_report(game, p, subsets)
                # the analyze columns, and approximate's shape: NaN except on the last subset
                last = np.full(len(subsets), np.nan)
                last[-1:] = report.influence[-1:]
                # and NaN on both sides of every chunk boundary
                edge = np.arange(len(subsets)) % 7
                straddle = np.where((edge == 0) | (edge == 6), np.nan, report.shapley)
                for columns in (
                    {
                        "I_B": report.interaction,
                        "Phi_B": report.influence,
                        "Phi_Sh": report.shapley,
                        "r": report.correlation,
                    },
                    {"coeff": report.shapley, "I_B": last, "residual": last},
                    {"Phi_Sh": straddle, "r": report.correlation},
                ):
                    want, got = io.StringIO(), io.StringIO()
                    self._row_writer(report.subsets, columns, 11, fmt, want)
                    write_rows(report.subsets, columns, 11, fmt, got)
                    assert got.getvalue() == want.getvalue()

    def test_missing_file_is_a_validation_failure(self, capsys):
        assert main(["analyze", "no/such/game.json"]) == 1

    def test_bad_flag_exits_one(self, tmp_path, capsys):
        assert main(["analyze", write_game(tmp_path, OR_DOC), "--format", "xml"]) == 1


class TestApproximate:
    def test_or_game_first_player(self, tmp_path, capsys):
        rc = main(
            ["approximate", write_game(tmp_path, OR_DOC), "--subset", "1", "--format", "csv"]
        )
        assert rc == 0
        table = read_csv(capsys.readouterr().out)
        assert table[("{}", "coeff")] == 0.5
        assert table[("{1}", "coeff")] == 0.5
        assert table[("{1}", "I_B")] == 0.5
        assert table[("{1}", "residual")] == 0.125

    def test_full_subset_has_zero_residual(self, tmp_path, capsys):
        rc = main(
            ["approximate", write_game(tmp_path, OR_DOC), "--subset", "1,2", "--format", "csv"]
        )
        assert rc == 0
        table = read_csv(capsys.readouterr().out)
        assert table[("{1,2}", "residual")] == pytest.approx(0.0, abs=1e-12)

    def test_unanimity_recovered_exactly(self, tmp_path, capsys):
        doc = {"version": 1, "n": 3, "unanimity": {"players": [1, 2]}}
        rc = main(
            ["approximate", write_game(tmp_path, doc), "--subset", "1,2,3", "--format", "csv"]
        )
        assert rc == 0
        table = read_csv(capsys.readouterr().out)
        assert table[("{1,2}", "coeff")] == pytest.approx(1.0, abs=1e-12)
        assert table[("{1}", "coeff")] == pytest.approx(0.0, abs=1e-12)

    def test_text_labels_the_leading_coefficient(self, tmp_path, capsys):
        rc = main(["approximate", write_game(tmp_path, OR_DOC), "--subset", "1"])
        assert rc == 0
        assert "interaction index" in capsys.readouterr().out

    def test_text_labels_come_from_the_row_labeler(self, tmp_path, capsys, monkeypatch):
        # players 10 and 11 give two-digit labels; the reference is built with format_subset
        path = write_game(tmp_path, {"version": 1, "n": 11, "random": {"seed": 4}})
        S = 0b110_0000_0101
        game, profile = parse_game(path), ProbabilityProfile.constant(11, 0.3)
        approximation = best_s_approximation(game, S, profile)
        residual = residual_norm(game, approximation, profile)
        expected = f"best approximation on variables {format_subset(S)}\n"
        for T, coeff in zip(approximation.keys.tolist(), approximation.unanimity.tolist()):
            marker = "  (leading coefficient = interaction index I_B)" if T == S else ""
            expected += f"  coeff u_{format_subset(T)} = {coeff:.12g}{marker}\n"
        expected += f"  residual = {residual:.12g}\n"

        def refuse(*args, **kwargs):
            raise AssertionError("approximate labelled a coefficient with format_subset")

        monkeypatch.setattr(cli, "format_subset", refuse)
        assert main(["approximate", path, "--subset", "1,3,10,11", "--p", "0.3"]) == 0
        assert capsys.readouterr().out == expected
        assert "{1,3,10,11}" in expected

    def test_csv_rows_are_pinned(self, tmp_path, capsys):
        path = write_game(tmp_path, OR_DOC)
        assert main(["approximate", path, "--subset", "1,2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "subset,index,value\n"
            "{},coeff,0\n"
            "{1},coeff,1\n"
            "{2},coeff,1\n"
            '"{1,2}",coeff,-1\n'
            '"{1,2}",I_B,-1\n'
            '"{1,2}",residual,0\n'
        )

    def test_residual_beyond_the_float_range_fails_validation(self, tmp_path, capsys):
        values = np.random.default_rng(15).random(1 << 15) * 1e250
        path = write_game(tmp_path, {"version": 1, "n": 15, "values": values.tolist()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["approximate", path, "--subset", "2,3,5", "--format", "csv"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the residual is beyond the float range")

    def test_a_difference_past_the_float_range_prints_one_error_line(self, tmp_path, capsys):
        # f - f_{S,p} overflows before the residual's check
        argv = ["approximate", write_game(tmp_path, HUGE_DOC), "--subset", "3", "--p", "0.3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the residual is beyond the float range (the worths overflow)\n"

    def test_an_expansion_past_the_float_range_prints_one_error_line(self, tmp_path, capsys):
        argv = ["approximate", write_game(tmp_path, HUGE_DOC), "--subset", "1,3", *EDGE_P]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Mobius table contains non-finite entries\n"

    @pytest.mark.parametrize("selector", ["1;2", "all", "pairs"])
    def test_more_than_one_subset_is_a_validation_failure(self, tmp_path, capsys, selector):
        doc = {"version": 1, "n": 3, "random": {"seed": 5}}
        assert main(["approximate", write_game(tmp_path, doc), "--subset", selector]) == 1
        assert "error: --subset must name one subset" in capsys.readouterr().err


class TestVerify:
    def test_or_game_passes(self, tmp_path, capsys):
        rc = main(["verify", write_game(tmp_path, OR_DOC)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all checks passed" in out
        assert out.count("PASS") == 5

    def test_injected_fault_is_caught(self, tmp_path, capsys):
        rc = main(["verify", write_game(tmp_path, OR_DOC), "--inject-fault"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in out
        assert "four-way-influence" in out

    def test_parseval_runs_past_twelve_players(self, tmp_path, capsys):
        doc = {"version": 1, "n": 13, "random": {"seed": 3, "distribution": "uniform"}}
        rc = main(["verify", write_game(tmp_path, doc), "--trials", "1", "--samples", "200"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 5
        assert lines[2].split()[1] == "parseval"
        assert "max deviation" in lines[2]
        assert lines[-1] == "all checks passed"

    def test_parseval_does_not_depend_on_a_power_of_two_scale(self, tmp_path, capsys):
        values = np.random.default_rng(16).random(1 << 12)
        lines = {}
        for k in (0, 600):
            doc = {"version": 1, "n": 12, "values": np.ldexp(values, k).tolist()}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                main(["verify", write_game(tmp_path, doc), "--trials", "1", "--samples", "200"])
            lines[k] = capsys.readouterr().out.splitlines()[2]
        assert lines[0].startswith("PASS  parseval") and lines[600] == lines[0]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("fault", [[], ["--inject-fault"]])
    def test_trials_below_one_fail_validation(self, tmp_path, capsys, trials, fault):
        assert main(["verify", write_game(tmp_path, OR_DOC), "--trials", trials, *fault]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize("seed", ["-1", "-20260809"])
    def test_negative_seed_fails_validation(self, tmp_path, capsys, seed):
        assert main(["verify", write_game(tmp_path, OR_DOC), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must be non-negative, got {seed}\n"

    def test_chunked_orthonormality_matches_the_dense_gram(self, monkeypatch):
        monkeypatch.setattr(checks, "ORTHO_CHUNK_BITS", 4)  # groups of 4 + 4 and 4 + 4 + 1 players
        for n in (8, 9):
            rng = np.random.default_rng(23)
            profile = ProbabilityProfile(rng.uniform(0.05, 0.95, n))
            game = PseudoBooleanFunction(n, rng.random(1 << n))
            picks = np.random.default_rng(5).choice(1 << n, size=64, replace=False)
            tables = np.stack([basis_function(profile, int(T)).values for T in picks])
            gram = (tables * profile.weights()) @ tables.T
            dense = float(np.max(np.abs(gram - np.eye(64))))
            check = checks._check_orthonormality(game, profile, np.random.default_rng(5))
            assert check.passed
            assert abs(check.deviation - dense) <= 1e-15

    @staticmethod
    def _gram_of_stacked_tables(profile, picks):
        # the Gram built from a list of one product_table per row and its np.stack copy
        pairs = [measure._basis_pairs(profile, int(T)) for T in picks]
        gram = np.ones((len(picks), len(picks)))
        for lo in range(0, profile.n, checks.ORTHO_CHUNK_BITS):
            hi = lo + checks.ORTHO_CHUNK_BITS
            rows = np.stack([product_table(pair[lo:hi]) for pair in pairs])
            w = ProbabilityProfile(profile.p[lo:hi]).weights()
            for r in range(0, len(picks), checks.ORTHO_ROW_BLOCK):
                gram[r : r + checks.ORTHO_ROW_BLOCK] *= (rows[r : r + checks.ORTHO_ROW_BLOCK] * w) @ rows.T
        return gram

    @pytest.mark.parametrize("bound", [False, True])
    @pytest.mark.parametrize(
        "n, chunk_bits",
        [(1, 16), (6, 16), (12, 16), (16, 16), (17, 16), (9, 4)],  # n = 6: every mask
    )
    def test_orthonormality_gram_is_the_stacked_tables_gram(self, monkeypatch, n, chunk_bits, bound):
        monkeypatch.setattr(checks, "ORTHO_CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(n)
        p = rng.uniform(0.05, 0.95, n)
        if bound:  # the interior bound on either side
            p[::3], p[1::3] = 1e-9, 1.0 - 1e-9
        profile = ProbabilityProfile(p)
        game = PseudoBooleanFunction(n, np.zeros(1 << n))
        if n <= 6:
            picks = np.arange(1 << n)
        else:
            picks = np.random.default_rng(5).choice(1 << n, size=64, replace=False)
        want = self._gram_of_stacked_tables(profile, picks)
        assert checks._orthonormality_gram(profile, picks).tobytes() == want.tobytes()
        check = checks._check_orthonormality(game, profile, np.random.default_rng(5))
        deviation = float(np.max(np.abs(want - np.eye(len(picks)))))
        assert np.float64(check.deviation).tobytes() == np.float64(deviation).tobytes()

    def test_verify_runs_past_sixteen_players(self, tmp_path, capsys):
        # two player groups (16 + 1) and CDF draws of 2**20 >> 9 = 2048 rows
        doc = {"version": 1, "n": 17, "random": {"seed": 4, "distribution": "uniform"}}
        argv = ["verify", write_game(tmp_path, doc), "--p", "0.3", "--trials", "1", "--samples", "200"]
        rc = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 5
        assert lines[-1] == "all checks passed"

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"], ["--seed", "7"]])
    def test_exact_sum_past_the_float_range_fails_validation(self, tmp_path, capsys, seed):
        # worths near the float range: partial sums of the checks pass it
        values = [
            7.769797738230004e307, 2.6298303452323337e307, -2.8727090724685714e307,
            5.656488011398597e306, -5.469992086352729e307, 5.550882477634107e307,
            -6.59842996770267e307, 1.5439589797318142e307,
        ]
        path = write_game(tmp_path, {"version": 1, "n": 3, "values": values})
        assert main(["verify", path, *seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: an exact sum of")

    def test_a_sample_count_numpy_cannot_allocate_is_one_error_line(self, tmp_path, capsys):
        # 8e15 bytes lie past the 128 TiB user address space, so numpy refuses
        # the array at once, even on a host that overcommits memory
        path = write_game(tmp_path, {"version": 1, "n": 3, "random": {"seed": 1}})
        assert main(["verify", path, "--samples", str(10**15)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")

    def test_nonuniform_profile(self, tmp_path, capsys):
        rc = main(["verify", write_game(tmp_path, OR_DOC), "--p", "0.3,0.8", "--trials", "4"])
        assert rc == 0


class TestGenerate:
    def test_weighted_voting_to_file(self, tmp_path):
        out = tmp_path / "wv.json"
        rc = main(
            ["generate", "weighted-voting", "--quota", "3", "--weights", "2,2,1", "--out", str(out)]
        )
        assert rc == 0
        game = parse_game(out)
        assert game.values.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]

    def test_unanimity_to_stdout(self, capsys):
        rc = main(["generate", "unanimity", "--n", "2", "--players", "1,2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [0, 0, 0, 1]

    def test_random_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["generate", "random", "--n", "5", "--seed", "11", "--out", str(path)])
            assert rc == 0
        assert a.read_text() == b.read_text()

    def test_missing_options_fail_validation(self):
        assert main(["generate", "weighted-voting"]) == 1
        assert main(["generate", "unanimity", "--n", "2"]) == 1
        assert main(["generate", "random"]) == 1

    @pytest.mark.parametrize("kind", [["random"], ["unanimity", "--players", "1"]])
    def test_bad_player_count_fails_validation(self, kind, capsys):
        assert main(["generate", *kind, "--n", "-3"]) == 1
        assert "error: player count must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["weighted-voting", "--quota", "3", "--weights", "2,x"], "numeric 'quota' and 'weights'"),
            (["random", "--n", "3", "--seed", "-5"], "non-negative integer 'seed'"),
            (["unanimity", "--n", "3", "--players", "1,x"], "list of integer 'players'"),
        ],
    )
    def test_bad_generator_values_print_one_error_line(self, argv, message, capsys):
        assert main(["generate", *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


class TestGeneratorSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            {"weighted_voting": {"quota": 3, "weights": "22"}},
            {"weighted_voting": {"quota": 3, "weights": 2}},
            {"n": 3, "random": {"seed": 1.7}},
            {"n": 3, "random": {"seed": -1}},
            {"n": 3, "random": {"seed": "7"}},
            {"n": 3, "random": {"seed": True}},
            {"n": 3, "random": {}},
            {"n": 3, "random": 5},
            {"unanimity": {"players": [1]}},
            {"random": {"seed": 1}},
            {"n": 3, "random": {"seed": 1, "distribution": "cauchy"}},
            {"n": "3", "values": [0, 1, 1, 1, 1, 1, 1, 1]},
            {"n": 1, "values": {"0": 0, "1": 1}},
        ],
    )
    def test_fields_of_the_wrong_type_are_parse_errors(self, spec, tmp_path, capsys):
        path = write_game(tmp_path, {"version": 1, **spec})
        with pytest.raises(ParseError):
            parse_game(path)
        assert main(["analyze", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "unanimity": {"players": "12"}},
            {"n": 3, "unanimity": {"players": [1.7]}},
            {"n": 3, "unanimity": {"players": [True]}},
            {"n": 3, "unanimity": {"players": 1}},
            {"n": 3, "unanimity": [1]},
            {"weighted_voting": {"quota": True, "weights": [1, 1]}},
            {"weighted_voting": {"quota": "2", "weights": [1, 1]}},
            {"weighted_voting": {"quota": 2, "weights": ["1", 1]}},
            {"weighted_voting": {"quota": 2, "weights": [1, False]}},
            {"weighted_voting": {"quota": 2, "weights": [1, 10**400]}},
            {"weighted_voting": {"weights": [1, 1]}},
            {"weighted_voting": {"quota": "q" * 10**4, "weights": [1, 1]}},
            {"weighted_voting": {"quota": [1] * 10**4, "weights": [1, 1]}},
            {"version": True, "n": 1, "values": [0, 1]},
            {"version": 1.0, "n": 1, "values": [0, 1]},
            {"version": "1", "n": 1, "values": [0, 1]},
            {"version": "v" * 10**4, "n": 1, "values": [0, 1]},
        ],
    )
    def test_fields_take_json_types_without_coercion(self, doc, tmp_path, capsys):
        path = write_game(tmp_path, {"version": 1, **doc})
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert len(err[0]) < 200  # a huge field is abbreviated

    def test_a_list_of_weights_and_an_integer_seed_still_parse(self, tmp_path):
        game = parse_game(write_game(tmp_path, {"weighted_voting": {"quota": 3, "weights": [2, 2]}}))
        assert game.values.tolist() == [0, 0, 0, 1]
        doc = {"n": 3, "random": {"seed": 0}}
        assert parse_game(write_game(tmp_path, doc)).n == 3


class TestEntryPoint:
    SESSION = [
        ["analyze", "{game}", "--subsets", "singletons", "--format", "text", "--p", "0.3"],
        ["approximate", "{game}", "--subset", "1,2"],
        ["verify", "{game}", "--trials", "2", "--samples", "200"],
        ["generate", "random", "--n", "3", "--seed", "5"],
        ["analyze", "{game}", "--no-such-flag"],
        ["--help"],
        ["approximate", "{game}", "--subset", "9"],
        ["analyze", "{game}"],
    ]

    def test_one_parser_serves_every_call_with_the_outputs_of_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        game = write_game(tmp_path, {"version": 1, "n": 4, "random": {"seed": 3}})
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def run_session():
            outputs, counts = [], []
            for argv in self.SESSION:
                rc = main([arg.format(game=game) for arg in argv])
                captured = capsys.readouterr()
                outputs.append((rc, captured.out, captured.err))
                counts.append(len(built))
            return outputs, counts

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        reused, counts = run_session()
        assert counts == counts[:1] * len(self.SESSION)
        assert [rc for rc, _, _ in reused] == [0, 0, 0, 0, 1, 0, 1, 0]

        # the same session with a parser built afresh for every call
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh, fresh_counts = run_session()
        assert fresh == reused
        assert fresh_counts[-1] - counts[-1] == 5 * len(self.SESSION)

    def test_importing_the_cli_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import pbindex.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


def test_games_and_checks_load_without_the_modules_above_them():
    # the game format and the verify battery each change without the CLI
    script = (
        "import sys\n"
        "import pbindex.games\n"
        "print(sorted({'pbindex.checks', 'pbindex.cli'} & set(sys.modules)))\n"
        "import pbindex.checks\n"
        "print(sorted({'pbindex.cli'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
