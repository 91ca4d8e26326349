import json

import pytest

from zeroset import cli
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


class TestWorkerCap:
    def config(self, workers):
        args = cli._build_parser().parse_args(
            ["crofton", "--poly", "x1", "--dim", "1", "--workers", str(workers)]
        )
        return cli._build_config(args)

    def test_clamped_to_affinity(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert self.config(1000).workers == 3
        assert self.config(2).workers == 2
        assert self.config(0).workers == 1

    def test_single_cpu(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert self.config(8).workers == 1


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
