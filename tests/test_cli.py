import io
import json
import multiprocessing.process
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeroset
from zeroset import (
    cli,
    marching_cubes_area,
    marching_squares_length,
    meshing,
    parse_polynomial,
    write_mesh_csv,
)
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


class TestExitCodes:
    def test_syntax_error_is_2(self, capsys):
        code, _, err = run_cli(["bound", "--poly", "x1 +* 2", "--dim", "2"], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"]["kind"] == "parse_error"

    def test_variable_out_of_range_is_2(self, capsys):
        code, _, _ = run_cli(["bound", "--poly", "x5", "--dim", "2"], capsys)
        assert code == 2

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
        ],
        ids=["measure-d2", "measure-d3", "report-d2", "report-d3", "sharpness-d2",
             "sharpness-d3", "crofton-dump-mesh"],
    )
    def test_mesh_resolution_1_is_2_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimate ran before the resolution was checked")

        for name in ("crofton_upper_estimate", "sharpness_experiment", "marching_squares_length",
                     "marching_cubes_area"):
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
        assert "theorem_bound" not in results
        assert "crofton" in results and "measure" in results

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
        "argv, march, measure",
        [
            (
                ["measure", "--poly", "x1^2 + x2^2 - 1/4", "--dim", "2", "--box=-1,1",
                 "--resolution", "64"],
                "_march_squares", marching_squares_length,
            ),
            (
                ["report", "--poly", "x1^2 + x2^2 + x3^2 - 1/4", "--dim", "3", "--box=-1,1",
                 "--scheme", "grid:4", "--resolution", "12"],
                "_march_cubes", marching_cubes_area,
            ),
            (
                ["crofton", "--poly", "x1*x2 - 1/4", "--dim", "2", "--scheme", "grid:4",
                 "--resolution", "16"],
                "_march_squares", marching_squares_length,
            ),
        ],
        ids=["measure-d2", "report-d3", "crofton-d2"],
    )
    def test_meshes_once(self, capsys, monkeypatch, tmp_path, argv, march, measure):
        calls = []
        original = getattr(meshing, march)

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(meshing, march, counted)
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
        write_mesh_csv(expected, mesh, config.dimension)
        assert path.read_text() == expected.getvalue()
