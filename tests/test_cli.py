import contextlib
import hashlib
import io
import json
import multiprocessing.process
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zeroset
from zeroset import cli, measure, meshing, parse_polynomial
from zeroset.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_hyperbola_bound(self, capsys):
        code, out, _ = run_cli(["bound", "--poly", "x1*x2 - 1/4", "--dim", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["theorem_bound"] == "2"
        assert payload["config"]["box"] == "0,1;0,1"
        assert payload["config"]["scheme"] == {"kind": "grid", "points_per_axis": 256}

    def test_rational_bound_survives_roundtrip(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--poly", "x1^3 - x2", "--dim", "2", "--box", "0,1/3"], capsys
        )
        assert code == 0
        assert json.loads(out)["results"]["theorem_bound"] == "4/3"

    @pytest.mark.parametrize(
        "box_args, expected",
        [(["--box", "0,1;1,2"], "2"), (["--box=-1/3,5/7;1/2,9/4"], "235/84")],
        ids=["translated-cube", "rational-box"],
    )
    def test_any_box(self, capsys, box_args, expected):
        # sum_k deg_k * prod_{j != k} (b_j - a_j): 22/21 + 7/4 on the rational box.
        code, out, _ = run_cli(["bound", "--poly", "x1*x2 - 1/4", "--dim", "2"] + box_args, capsys)
        assert code == 0
        assert json.loads(out)["results"]["theorem_bound"] == expected


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _, err = run_cli(["bound", "--poly", "x1 +* 2", "--dim", "2"], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"]["kind"] == "parse_error"

    def test_variable_out_of_range_is_2(self, capsys):
        code, _, _ = run_cli(["bound", "--poly", "x5", "--dim", "2"], capsys)
        assert code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digit limit"
    )
    def test_number_past_the_int_limit_is_2(self, capsys):
        code, out, err = run_cli(["bound", "--poly", "1" * 5000 + "*x1", "--dim", "1"], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        record = json.loads(line)["error"]
        assert record["kind"] == "parse_error"
        assert record["message"].endswith("integer limit (at position 0)")

    def test_bad_box_is_2(self, capsys):
        code, _, _ = run_cli(["bound", "--poly", "x1", "--dim", "1", "--box", "1,0"], capsys)
        assert code == 2

    def test_zero_denominator_box_is_2(self, capsys):
        code, _, err = run_cli(["bound", "--poly", "x1", "--dim", "1", "--box", "0,1/0"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse_error"

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_nonpositive_resolution_is_2(self, capsys, resolution):
        code, _, err = run_cli(
            ["measure", "--poly", "x1*x2 - 1/4", "--dim", "2", "--resolution", resolution],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse_error"

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--poly", "x1*x2 - 1/4", "--dim", "2"],
            ["measure", "--poly", "x1*x2*x3 - 1/8", "--dim", "3"],
            ["report", "--poly", "x1*x2 - 1/4", "--dim", "2"],
            ["report", "--poly", "x1*x2*x3 - 1/8", "--dim", "3"],
            ["sharpness", "--dim", "2", "--n-list", "4"],
            ["sharpness", "--dim", "3", "--n-list", "8"],
            ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--dump-mesh", "unused.csv"],
            # No mesh exists outside d = 2, 3, whatever the resolution.
            ["crofton", "--poly", "x1*x2*x3*x4 - 1/2", "--dim", "4", "--dump-mesh", "unused.csv"],
            ["report", "--poly", "x1^2 - 1/4", "--dim", "1", "--dump-mesh", "unused.csv"],
        ],
        ids=["measure-d2", "measure-d3", "report-d2", "report-d3", "sharpness-d2",
             "sharpness-d3", "crofton-dump-mesh", "crofton-d4-dump-mesh", "report-d1-dump-mesh"],
    )
    def test_mesh_resolution_1_is_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("crofton_upper_estimate", "sharpness_experiment", "measure"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(
            argv + ["--scheme", "grid:8", "--workers", "2", "--resolution", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--poly", "x1^2 - 1/4", "--dim", "1"],
            ["report", "--poly", "x1^2 - 1/4", "--dim", "1"],
            ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--scheme", "grid:8"],
        ],
    )
    def test_resolution_1_without_a_mesh_is_valid(self, capsys, argv):
        code, out, _ = run_cli(argv + ["--resolution", "1"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["resolution"] == 1

    def test_trivial_polynomial_is_3(self, capsys):
        code, _, err = run_cli(["bound", "--poly", "0", "--dim", "2"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_unwritable_output_is_4(self, capsys):
        code, _, err = run_cli(
            ["bound", "--poly", "x1", "--dim", "1", "--out", "/no-such-dir/x.json"],
            capsys,
        )
        assert code == 4
        assert json.loads(err)["error"]["kind"] == "io_error"

    def test_measure_d4_rejected(self, capsys):
        code, _, _ = run_cli(
            ["measure", "--poly", "x1*x2*x3*x4 - 1/2", "--dim", "4"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["crofton", "--poly", "x1", "--dim", "x"],
            ["crofton", "--dim", "2"],
            ["frobnicate", "--dim", "2"],
        ],
        ids=["bad-int", "missing-poly", "unknown-subcommand"],
    )
    def test_usage_error_is_2_with_a_record(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sharpness", "--dim", "2", "--n-list", "16,4"],
            ["sharpness", "--dim", "2", "--n-list", "0,4"],
            ["sharpness", "--dim", "1", "--n-list", "4"],
            ["measure", "--poly", "x1*x2*x3*x4 - 1/2", "--dim", "4"],
        ],
        ids=["n-decreasing", "n-zero", "sharpness-d1", "measure-d4"],
    )
    def test_bad_configuration_is_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("crofton_upper_estimate", "sharpness_experiment", "measure", "theorem_bound"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--poly", "x1*x2 - 1/4", "--dim", "2", "--resolution", "8"],
            ["sharpness", "--dim", "3", "--n-list", "8", "--scheme", "grid:4",
             "--resolution", "8"],
        ],
        ids=["measure", "sharpness"],
    )
    def test_internal_value_error_is_not_a_parse_error(self, capsys, monkeypatch, argv):
        # A ValueError raised inside an estimate is a bug in the program, not
        # malformed input: it propagates instead of exiting 2.
        def broken(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(meshing, "_march", broken)
        with pytest.raises(ValueError, match="planted"):
            main(argv)
        assert capsys.readouterr().err == ""

    def test_sharpness_rejects_dump_mesh(self, capsys, tmp_path):
        path = tmp_path / "mesh.csv"
        code, out, err = run_cli(
            ["sharpness", "--dim", "2", "--n-list", "4", "--scheme", "grid:4",
             "--resolution", "8", "--dump-mesh", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--dim", "2"],
            ["measure", "--dim", "2"],
            ["crofton", "--dim", "2", "--dump-mesh", "unused.csv"],
            ["measure", "--dim", "3"],
        ],
        ids=["report-d2", "measure-d2", "crofton-dump-mesh", "measure-d3"],
    )
    def test_coefficient_beyond_float64_is_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("crofton_upper_estimate", "measure", "theorem_bound"):
            monkeypatch.setattr(cli, name, no_work)
        huge = "x1*x2 - 1" + "0" * 400
        code, out, err = run_cli(
            argv + ["--poly", huge, "--scheme", "grid:4", "--resolution", "8"], capsys
        )
        assert code == 2
        assert out == ""
        assert "float64" in json.loads(err)["error"]["message"]

    def test_values_beyond_float64_are_2_before_any_work(self, capsys, monkeypatch):
        # Each coefficient is a finite float64, but the vertex values at
        # x1 = 2 are not: without the check the report held "value": NaN.
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("crofton_upper_estimate", "measure", "theorem_bound"):
            monkeypatch.setattr(cli, name, no_work)
        big = str(10**308)
        code, out, err = run_cli(
            ["report", "--poly", f"{big}*x1^2*x2 - {big}", "--dim", "2", "--box", "0,2",
             "--scheme", "grid:4", "--resolution", "8"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"

    def test_box_too_narrow_for_mesh_nodes_is_2(self, capsys):
        # Every float64 node of axis 1 rounds to 1.0; the line counter needs
        # no nodes and still finds the unit segment.
        argv = ["--poly", "x1 - 1 - 1/2000000000000000000000", "--dim", "2",
                "--box", "1,1000000000000000000001/1000000000000000000000;0,1"]
        code, out, err = run_cli(["measure"] + argv + ["--resolution", "8"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "parse_error"
        code, out, _ = run_cli(["crofton"] + argv, capsys)
        assert code == 0
        assert json.loads(out)["results"]["crofton"]["total"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["crofton", "--poly", "x1*x2 - 1" + "0" * 400, "--dim", "2", "--scheme", "grid:4"],
            ["measure", "--poly", "x1 - 1" + "0" * 400, "--dim", "1"],
        ],
        ids=["crofton-d2", "measure-d1"],
    )
    def test_coefficient_beyond_float64_without_a_mesh_is_valid(self, capsys, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["results"]

    @pytest.mark.parametrize("dump", [False, True], ids=["", "dump-mesh"])
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    @pytest.mark.parametrize("command", ["bound", "crofton", "measure", "report"])
    @pytest.mark.parametrize("poly", ["0", "x1 - x1"])
    def test_zero_polynomial_is_3_before_any_work(
        self, capsys, monkeypatch, tmp_path, poly, command, dimension, dump
    ):
        # The zero polynomial is decided first, before any estimate's own rules
        # (a dump or a measure outside d = 2, 3) and before any estimate runs.
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("theorem_bound", "crofton_upper_estimate", "measure"):
            monkeypatch.setattr(cli, name, no_work)
        path = tmp_path / "mesh.csv"
        argv = [command, "--poly", poly, "--dim", str(dimension), "--scheme", "grid:4",
                "--resolution", "8"] + (["--dump-mesh", str(path)] if dump else [])
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        (record,) = err.splitlines()
        assert json.loads(record)["error"]["kind"] == "trivial_polynomial"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["crofton", "--poly", "x1*x2-1", "--dim", "2", "--box", "0,1e400", "--scheme", "grid:4"],
            ["crofton", "--poly", "1", "--dim", "3", "--box", "0,1e200", "--scheme", "mc:10"],
            ["report", "--poly", "x1", "--dim", "4", "--box", "0,1e150", "--scheme", "mc:10"],
            # The meshes' lengths and areas, not their vertex values, pass float64.
            ["measure", "--poly", f"x1 - {10**299}", "--dim", "2", "--box", f"0,{10**300}"],
            ["measure", "--poly", f"x1 - {10**299}", "--dim", "3", "--box", f"0,{10**300}"],
            ["measure", "--poly", f"x1 - {10**150}", "--dim", "3", "--box", f"0,{10**160}"],
        ],
        ids=["crofton-width", "crofton-volume", "report-volume", "mesh-length", "mesh-area",
             "mesh-total"],
    )
    def test_floats_beyond_float64_are_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the input was checked")

        for name in ("theorem_bound", "crofton_upper_estimate", "measure"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run_cli(argv + ["--resolution", "4"], capsys)
        assert code == 2
        assert out == ""
        assert "float64" in json.loads(err)["error"]["message"]

    def test_mesh_area_near_float64_is_valid(self, capsys):
        code, out, _ = run_cli(
            ["measure", "--poly", f"x1 - {10**70}", "--dim", "3", "--box", f"0,{10**75}",
             "--resolution", "4"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["measure"]["value"] == pytest.approx(1e150)

    @settings(max_examples=150)
    @given(
        dimension=st.integers(1, 4),
        command=st.sampled_from(["crofton", "report"]),
        poly=st.sampled_from(["1", "x1", "x1*x2 - 1", "x1^3 - x2*x1 + 1/7"]),
        ends=st.lists(
            st.tuples(st.sampled_from([-1, 1]), st.integers(-400, 400), st.integers(-400, 400)),
            min_size=1, max_size=4,
        ),
        scheme=st.sampled_from(["grid:1", "grid:2", "mc:1", "mc:4"]),
    )
    def test_any_box_is_0_with_finite_json_or_2(self, dimension, command, poly, ends, scheme):
        # Box ends up to 10**+-400: the range rules turn every report that
        # would hold an overflowed float into exit 2; nothing raises.
        poly = poly.replace("x2", f"x{min(2, dimension)}")
        intervals = [(s * Fraction(10) ** a, s * Fraction(10) ** a + Fraction(10) ** w)
                     for s, a, w in (ends * dimension)[:dimension]]
        box = ";".join(f"{a},{b}" for a, b in intervals)
        argv = [command, "--poly", poly, "--dim", str(dimension), f"--box={box}",
                "--scheme", scheme, "--resolution", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 2:
            assert out.getvalue() == ""
            assert "float64" in json.loads(err.getvalue())["error"]["message"]
        else:
            assert code == 0
            json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} in the report"))


class TestParser:
    RUNS = [
        ["bound", "--poly", "x1*x2 - 1/4", "--dim", "2"],
        ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--scheme", "mc:50", "--seed", "3"],
        ["measure", "--poly", "x1^2 + x2^2 - 1/4", "--dim", "2", "--box=-1,1",
         "--resolution", "16"],
        ["sharpness", "--dim", "2", "--n-list", "4,16", "--scheme", "grid:8",
         "--resolution", "16", "--format", "csv"],
        ["report", "--poly", "x1*x2*x3 - 1/8", "--dim", "3", "--scheme", "grid:4",
         "--resolution", "8"],
        ["crofton", "--poly", "x1", "--dim", "x"],
    ]

    def test_built_once_with_the_output_of_a_fresh_process(self, capsys):
        cli._build_parser.cache_clear()
        outcomes = [run_cli(argv, capsys) for argv in self.RUNS]
        assert cli._build_parser.cache_info().misses == 1
        src = str(Path(zeroset.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        for argv, outcome in zip(self.RUNS, outcomes):
            done = subprocess.run(
                [sys.executable, "-m", "zeroset.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (done.returncode, done.stdout, done.stderr) == outcome, argv


class TestReports:
    def test_report_combines_sections(self, capsys):
        code, out, _ = run_cli(
            [
                "report", "--poly", "x1^2 + x2^2 - 1/4", "--dim", "2",
                "--box=-1,1", "--scheme", "grid:64", "--resolution", "64",
            ],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["theorem_bound"] == "8"
        assert results["crofton"]["total"] == 4.0
        assert len(results["crofton"]["per_axis"]) == 2
        assert set(results["crofton"]["per_axis"][0]) == {
            "axis", "estimate", "error_halfwidth", "degenerate_lines_hit",
        }
        assert results["measure"]["method"] == "marching_squares"

    def test_non_cube_report_omits_bound(self, capsys):
        code, out, _ = run_cli(
            [
                "report", "--poly", "x1*x2 - 1/4", "--dim", "2",
                "--box", "0,1;0,2", "--scheme", "grid:16", "--resolution", "16",
            ],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["theorem_bound"] == "3"
        assert "crofton" in results and "measure" in results

    def test_non_cube_report_bound_in_json_and_csv(self, capsys):
        args = [
            "report", "--poly", "x1*x2 - 1/4", "--dim", "2",
            "--box", "0,1;0,2", "--scheme", "grid:8", "--resolution", "8",
        ]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["results"]["theorem_bound"] == "3"
        code, out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        header, row = [line.split(",") for line in out.strip().split("\n")]
        assert (header[0], row[0]) == ("theorem_bound", "3")

    def test_csv_and_json_values_match(self, capsys, tmp_path):
        args = [
            "crofton", "--poly", "x1*x2 - 1/4", "--dim", "2",
            "--scheme", "grid:32",
        ]
        code, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        code, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        payload = json.loads(json_out)["results"]["crofton"]
        header, row = [line.split(",") for line in csv_out.strip().split("\n")]
        record = dict(zip(header, row))
        assert float(record["crofton_total"]) == payload["total"]
        assert record["crofton_total"] == repr(payload["total"])
        for e in payload["per_axis"]:
            k = e["axis"]
            assert float(record[f"axis{k}_estimate"]) == e["estimate"]
            assert int(record[f"axis{k}_degenerate_lines_hit"]) == e["degenerate_lines_hit"]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["bound", "--poly", "x1", "--dim", "1", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["results"]["theorem_bound"] == "1"


# (3t + 5)(t + 1/4)(t - 1/2)^2 (t - 1): on [-1/4, 1] a double root inside and
# a root on each end, three in all.
_D1_POLY = "3*x1^5 - 1/4*x1^4 - 13/2*x1^3 + 63/16*x1^2 + 1/8*x1 - 5/16"


class TestDimensionOne:
    @pytest.mark.parametrize(
        "command, extra, digest",
        [
            ("report", [], "3e57703f43cc4075d1b5b4e9e07861ac47c35630b4620a3f5105774801aa2ffe"),
            ("crofton", ["--scheme", "mc:50"],
             "bf96a9ae527f07c8d2b417c8e73a8aca1dc1ee5dac644146e550943432b564e0"),
            ("measure", [], "e8e6b85467df734c574d7f6ec69dd0953c0265cdee132b5d7a54f27e20b0c041"),
        ],
        ids=["report", "crofton-mc", "measure"],
    )
    def test_reports_pinned(self, capsys, command, extra, digest):
        # SHA-256 of the exact stdout bytes, recorded when d = 1 had its own
        # Fraction-based line count; the batch counter must reproduce them.
        argv = [command, "--poly", _D1_POLY, "--dim", "1", "--box=-1/4,1", *extra]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out
        results = json.loads(out)["results"]
        if command != "measure":
            axis = results["crofton"]["per_axis"][0]
            assert (axis["estimate"], axis["error_halfwidth"]) == (3.0, 0.0)
        if command != "crofton":
            assert results["measure"]["value"] == 3.0


class TestDeterminism:
    def test_monte_carlo_reports_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        base = [
            "crofton", "--poly", "x1*x2 - 1/4", "--dim", "2",
            "--scheme", "mc:2000", "--seed", "42",
        ]
        assert main(base + ["--out", str(paths[0])]) == 0
        assert main(base + ["--out", str(paths[1])]) == 0
        assert main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
        blobs = [path.read_bytes() for path in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize(
        "dim, scheme, resolution", [("2", "grid:16", "32"), ("3", "grid:4", "8")]
    )
    def test_sharpness_reports_byte_identical_across_workers(
        self, capsys, dim, scheme, resolution
    ):
        base = [
            "sharpness", "--dim", dim, "--n-list", "4,16", "--scheme", scheme,
            "--resolution", resolution,
        ]
        reports = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(base + ["--workers", workers], capsys)
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]


class TestNoProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sharpness", "--dim", "2", "--n-list", "4,16", "--scheme", "grid:16",
             "--resolution", "16"],
            ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--scheme", "mc:400"],
            ["report", "--poly", "x1*x2*x3 - 1/8", "--dim", "3", "--scheme", "grid:8",
             "--resolution", "8"],
        ],
        ids=["sharpness", "crofton", "report"],
    )
    def test_workers_start_no_process_and_change_nothing(self, capsys, monkeypatch, argv):
        def refuse(process):
            raise AssertionError(f"a process was started: {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        reports = []
        for workers in ("1", "2", "64"):
            code, out, err = run_cli(argv + ["--workers", workers], capsys)
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1] == reports[2]


class TestSharpnessCommand:
    def test_csv_gap_nonincreasing(self, capsys):
        code, out, _ = run_cli(
            [
                "sharpness", "--dim", "2", "--n-list", "4,16,64",
                "--resolution", "256", "--scheme", "grid:64", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,dimension,crofton_total,direct_measure,theorem_bound,gap"
        rows = [line.split(",") for line in lines[1:]]
        gaps = [float(row[5]) for row in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(row[4] == "2.0" for row in rows)

    def test_json_config_echoes_n_values(self, capsys):
        code, out, _ = run_cli(
            [
                "sharpness", "--dim", "2", "--n-list", "4,16",
                "--resolution", "64", "--scheme", "grid:16",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n_values"] == [4, 16]
        assert [r["n"] for r in payload["results"]["sharpness"]] == [4, 16]


class TestMeshDump:
    def test_dump_segments(self, capsys, tmp_path):
        path = tmp_path / "mesh.csv"
        code, _, _ = run_cli(
            [
                "measure", "--poly", "x1 - 1/2", "--dim", "2",
                "--resolution", "8", "--dump-mesh", str(path),
            ],
            capsys,
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) == 9  # 8 cells crossed, one segment each

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--poly", "x1^2 + x2^2 - 1/4", "--dim", "2", "--box=-1,1",
             "--resolution", "64"],
            ["report", "--poly", "x1^2 + x2^2 + x3^2 - 1/4", "--dim", "3", "--box=-1,1",
             "--scheme", "grid:4", "--resolution", "12"],
            ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--scheme", "grid:4",
             "--resolution", "16"],
        ],
        ids=["measure-d2", "report-d3", "crofton-d2"],
    )
    def test_meshes_once(self, capsys, monkeypatch, tmp_path, argv):
        calls = []
        original = meshing._march

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(meshing, "_march", counted)
        path = tmp_path / "mesh.csv"
        code, out, _ = run_cli(argv + ["--dump-mesh", str(path)], capsys)
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        # The report and the dump are those of separate, undumped runs.
        assert run_cli(argv, capsys)[1] == out
        config = cli._build_config(cli._build_parser().parse_args(argv))
        p = parse_polynomial(config.polynomial, config.dimension)
        expected = io.StringIO()
        mesh = measure(p, config.box, config.resolution, keep_mesh=True).mesh
        meshing.write_mesh_csv(expected, mesh, config.dimension)
        assert path.read_text() == expected.getvalue()
