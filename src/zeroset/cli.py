"""Command-line front end.

Subcommands: ``bound``, ``crofton``, ``measure``, ``sharpness`` and
``report`` (bound + crofton + measure in one run).  Reports are JSON or CSV
and always echo the fully resolved configuration, including defaulted seed
and scheme, so any run can be reproduced exactly.

Serialization: exact rationals appear as "num/den" strings ("2", "-1/4"),
reals as shortest round-trip decimals.  Exit codes: 0 ok, 2 parse error,
3 trivial polynomial, 4 I/O error; failures print a JSON error record to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .crofton import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SEED,
    Box,
    CroftonResult,
    GridScheme,
    MonteCarloScheme,
    Scheme,
    crofton_upper_estimate,
    theorem_bound,
)
from .experiment import sharpness_experiment
from .meshing import (
    MeasureEstimate,
    check_resolution,
    marching_cubes_area,
    marching_squares_length,
    measure_d1,
    write_mesh_csv,
)
from .polynomial import ParseError, Polynomial, TrivialPolynomialError, parse_polynomial

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRIVIAL = 3
EXIT_IO = 4

_DEFAULT_N_VALUES = {2: (4, 16, 64, 256, 1024), 3: (8, 64, 512)}


@dataclass
class RunConfig:
    command: str
    polynomial: str | None
    dimension: int
    box: Box
    scheme: Scheme
    resolution: int
    out: str | None
    format: str
    dump_mesh: str | None
    n_values: tuple[int, ...] | None = None


def _parse_scheme(text: str, seed: int) -> Scheme:
    kind, _, value = text.partition(":")
    if kind == "grid" and value.isdigit():
        return GridScheme(int(value))
    if kind == "mc" and value.isdigit():
        return MonteCarloScheme(int(value), seed=seed, confidence=DEFAULT_CONFIDENCE)
    raise ValueError(f"bad scheme {text!r}; expected grid:N or mc:SAMPLES")


def _default_scheme(dimension: int, seed: int) -> Scheme:
    if dimension <= 1:
        return GridScheme(1)
    if dimension == 2:
        return GridScheme(256)
    if dimension == 3:
        return GridScheme(64)
    return MonteCarloScheme(100_000, seed=seed, confidence=DEFAULT_CONFIDENCE)


def _default_resolution(dimension: int) -> int:
    return 256 if dimension <= 2 else 64


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, so `main` reports it like any bad input."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zeroset",
        description="Degree bound and measure estimates for a polynomial zero set in a box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("bound", "closed-form degree bound (cubes only)"),
        ("crofton", "axis-line root-count integral estimate"),
        ("measure", "direct level-set measure estimate (d <= 3)"),
        ("sharpness", "run the sharpness family x1*...*xd - 1/n on the unit cube"),
        ("report", "bound + crofton + measure in one report"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        if name != "sharpness":
            cmd.add_argument("--poly", required=True, help="polynomial text, e.g. 'x1*x2 - 1/4'")
        cmd.add_argument("--dim", type=int, required=True, help="number of variables d")
        if name != "sharpness":
            cmd.add_argument("--box", default="0,1", help="'a,b' (cube) or 'a1,b1;a2,b2;...'")
        cmd.add_argument(
            "--scheme",
            default=None,
            help="grid:N or mc:SAMPLES (default: grid:256 for d=2, grid:64 for d=3, mc:100000 for d>=4)",
        )
        cmd.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help=f"Monte Carlo seed (default {DEFAULT_SEED})",
        )
        cmd.add_argument(
            "--resolution", type=int, default=None,
            help="meshing cells per axis (default: 256 for d=2, 64 for d=3)",
        )
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument(
            "--workers", type=int, default=1,
            help="accepted and ignored: every line is counted in this process",
        )
        if name == "sharpness":
            cmd.add_argument(
                "--n-list", default=None,
                help="comma-separated increasing n values (default 4,16,64,256,1024 for d=2; 8,64,512 for d=3)",
            )
        else:
            cmd.add_argument("--dump-mesh", default=None, help="write extracted mesh primitives as CSV")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    dimension = args.dim
    if dimension < 1:
        raise ValueError("--dim must be positive")
    scheme = (
        _parse_scheme(args.scheme, args.seed)
        if args.scheme
        else _default_scheme(dimension, args.seed)
    )
    resolution = _default_resolution(dimension) if args.resolution is None else args.resolution
    if resolution < 1:
        raise ValueError("--resolution must be positive")
    dump_mesh = getattr(args, "dump_mesh", None)
    if dimension in (2, 3) and (args.command in ("measure", "report", "sharpness") or dump_mesh):
        check_resolution(resolution)  # before any estimate runs
    n_values = None
    if args.command == "sharpness":
        text = args.n_list
        if text:
            n_values = tuple(int(v) for v in text.split(","))
        else:
            n_values = _DEFAULT_N_VALUES.get(dimension, (4, 16, 64))
        box = Box.cube(0, 1, dimension)
        poly_text = None
    else:
        box = Box.parse(args.box, dimension)
        poly_text = args.poly
    return RunConfig(
        command=args.command,
        polynomial=poly_text,
        dimension=dimension,
        box=box,
        scheme=scheme,
        resolution=resolution,
        out=args.out,
        format=args.format,
        dump_mesh=dump_mesh,
        n_values=n_values,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _rational(value: Fraction) -> str:
    return str(value)


def _scheme_dict(scheme: Scheme) -> dict:
    if isinstance(scheme, GridScheme):
        return {"kind": "grid", "points_per_axis": scheme.points_per_axis}
    return {
        "kind": "monte_carlo",
        "samples": scheme.samples,
        "seed": scheme.seed,
        "confidence": scheme.confidence,
    }


def _config_dict(config: RunConfig) -> dict:
    # Everything that determines the numbers, so a run can be reproduced
    # exactly.  Output routing is deliberately absent, and so is --workers,
    # which is accepted and ignored: reports must be byte-identical whatever
    # either says.
    out = {
        "command": config.command,
        "polynomial": config.polynomial,
        "dimension": config.dimension,
        "box": str(config.box),
        "scheme": _scheme_dict(config.scheme),
        "resolution": config.resolution,
    }
    if config.n_values is not None:
        out["n_values"] = list(config.n_values)
    return out


def _crofton_dict(result: CroftonResult) -> dict:
    return {
        "per_axis": [
            {
                "axis": e.axis,
                "estimate": e.estimate,
                "error_halfwidth": e.error_halfwidth,
                "degenerate_lines_hit": e.degenerate_lines_hit,
            }
            for e in result.per_axis
        ],
        "total": result.total,
        "total_error_halfwidth": result.total_error_halfwidth,
    }


def _measure_dict(estimate: MeasureEstimate) -> dict:
    return {
        "value": estimate.value,
        "method": estimate.method,
        "resolution": estimate.resolution,
    }


def _csv_text(header: list[str], rows: list[list]) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _flatten_for_csv(results: dict) -> tuple[list[str], list[list]]:
    if "sharpness" in results:
        header = ["n", "dimension", "crofton_total", "direct_measure", "theorem_bound", "gap"]
        rows = [
            [r["n"], r["dimension"], r["crofton_total"], r["direct_measure"],
             r["theorem_bound"], r["gap"]]
            for r in results["sharpness"]
        ]
        return header, rows
    header: list[str] = []
    row: list = []
    if "theorem_bound" in results:
        header.append("theorem_bound")
        row.append(results["theorem_bound"])
    if "crofton" in results:
        crofton = results["crofton"]
        header += ["crofton_total", "crofton_total_error_halfwidth"]
        row += [crofton["total"], crofton["total_error_halfwidth"]]
        for e in crofton["per_axis"]:
            k = e["axis"]
            header += [
                f"axis{k}_estimate", f"axis{k}_error_halfwidth", f"axis{k}_degenerate_lines_hit",
            ]
            row += [e["estimate"], e["error_halfwidth"], e["degenerate_lines_hit"]]
    if "measure" in results:
        measure = results["measure"]
        header += ["measure_value", "measure_method", "measure_resolution"]
        row += [measure["value"], measure["method"], measure["resolution"]]
    return header, [row]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _measure_estimate(
    p: Polynomial, config: RunConfig, keep_mesh: bool = False
) -> MeasureEstimate:
    if config.dimension == 1:
        return measure_d1(p, config.box)
    if config.dimension == 2:
        return marching_squares_length(p, config.box, config.resolution, keep_mesh=keep_mesh)
    if config.dimension == 3:
        return marching_cubes_area(p, config.box, config.resolution, keep_mesh=keep_mesh)
    raise ValueError("direct measure estimation is available only for d <= 3")


def _dump_mesh(p: Polynomial, config: RunConfig, estimate: MeasureEstimate | None) -> None:
    """Write the mesh kept by `estimate`, or mesh now when the run measured nothing."""
    if config.dimension not in (2, 3):
        raise ValueError("mesh dumps exist only for dimensions 2 and 3")
    if estimate is None:
        estimate = _measure_estimate(p, config, keep_mesh=True)
    with open(config.dump_mesh, "w") as stream:
        write_mesh_csv(stream, estimate.mesh, config.dimension)


def _execute(config: RunConfig) -> dict:
    results: dict = {}
    if config.command == "sharpness":
        rows = sharpness_experiment(
            config.dimension, config.n_values, config.resolution, config.scheme
        )
        results["sharpness"] = [
            {
                "n": r.n,
                "dimension": r.dimension,
                "crofton_total": r.crofton_total,
                "direct_measure": r.direct_measure,
                "theorem_bound": r.theorem_bound,
                "gap": r.gap,
            }
            for r in rows
        ]
        return results

    p = parse_polynomial(config.polynomial, config.dimension)
    if config.command == "bound" or (
        config.command in ("crofton", "report") and config.box.is_cube
    ):
        results["theorem_bound"] = _rational(theorem_bound(p, config.box))
    if config.command in ("crofton", "report"):
        crofton = crofton_upper_estimate(p, config.box, config.scheme)
        results["crofton"] = _crofton_dict(crofton)
    estimate = None
    if config.command in ("measure", "report"):
        if config.command == "measure" or config.dimension <= 3:
            estimate = _measure_estimate(p, config, keep_mesh=bool(config.dump_mesh))
            results["measure"] = _measure_dict(estimate)
    if config.dump_mesh:
        _dump_mesh(p, config, estimate)
    return results


def _emit_error(code: int, kind: str, message: str) -> None:
    record = {"error": {"code": code, "kind": kind, "message": message}}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    try:
        config = _build_config(_build_parser().parse_args(argv))
        results = _execute(config)
        payload = {"config": _config_dict(config), "results": results}
        if config.format == "json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            header, rows = _flatten_for_csv(results)
            text = _csv_text(header, rows)
        if config.out:
            with open(config.out, "w") as stream:
                stream.write(text)
        else:
            sys.stdout.write(text)
    except TrivialPolynomialError as exc:
        _emit_error(EXIT_TRIVIAL, "trivial_polynomial", str(exc))
        return EXIT_TRIVIAL
    except ParseError as exc:
        _emit_error(EXIT_PARSE, "parse_error", str(exc))
        return EXIT_PARSE
    except OSError as exc:
        _emit_error(EXIT_IO, "io_error", str(exc))
        return EXIT_IO
    except ValueError as exc:
        _emit_error(EXIT_PARSE, "parse_error", str(exc))
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
