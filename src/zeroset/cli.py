"""Command-line front end.

Subcommands: ``bound``, ``crofton``, ``measure``, ``sharpness`` and
``report`` (bound + crofton + measure in one run).  Reports are JSON or CSV
and always echo the fully resolved configuration, including defaulted seed
and scheme, so any run can be reproduced exactly.

Serialization: exact rationals appear as "num/den" strings ("2", "-1/4"),
reals as shortest round-trip decimals.  Exit codes: 0 ok, 4 I/O error, and,
in order before any estimate runs, 2 for bad syntax or polynomial text, 3
for the zero polynomial, 2 for a rule of the estimates (`check_crofton`,
`check_measure`, `check_sharpness`) and 2 for a theorem bound whose digits
pass Python's int-to-string limit; each failure prints a JSON error record
to stderr.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields

from .crofton import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SEED,
    Box,
    CroftonResult,
    GridScheme,
    MonteCarloScheme,
    Scheme,
    check_bound,
    check_crofton,
    crofton_upper_estimate,
    theorem_bound,
)
from .experiment import ExperimentRow, check_sharpness, sharpness_experiment
from .meshing import MeasureEstimate, check_measure, measure, write_mesh_csv
from .polynomial import Polynomial, TrivialPolynomialError, parse_polynomial

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

    @property
    def measured(self) -> bool:  # `report` has no measure at d >= 4
        return self.command == "measure" or self.command == "report" and self.dimension <= 3


def _parse_scheme(text: str, seed: int) -> Scheme:
    kind, _, value = text.partition(":")
    if kind == "grid" and value.isdigit():
        return GridScheme(int(value))
    if kind == "mc" and value.isdigit():
        return MonteCarloScheme(int(value), seed=seed)
    raise ValueError(f"bad scheme {text!r}; expected grid:N or mc:SAMPLES")


def _default_scheme(dimension: int, seed: int) -> Scheme:
    if dimension <= 1:
        return GridScheme(1)
    if dimension == 2:
        return GridScheme(256)
    if dimension == 3:
        return GridScheme(64)
    return MonteCarloScheme(100_000, seed=seed)


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
        ("bound", "closed-form degree bound on any box"),
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
    n_values = None
    if args.command == "sharpness":
        text = args.n_list
        if text:
            n_values = tuple(int(v) for v in text.split(","))
        else:
            n_values = _DEFAULT_N_VALUES.get(dimension, (4, 16, 64))
        check_sharpness(dimension, n_values, resolution)
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
        dump_mesh=getattr(args, "dump_mesh", None),
        n_values=n_values,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _scheme_dict(scheme: Scheme) -> dict:
    if isinstance(scheme, GridScheme):
        return {"kind": "grid", "points_per_axis": scheme.points_per_axis}
    return {
        "kind": "monte_carlo",
        "samples": scheme.samples,
        "seed": scheme.seed,
        "confidence": DEFAULT_CONFIDENCE,
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
        header = [f.name for f in fields(ExperimentRow)]
        return header, [[r[name] for name in header] for r in results["sharpness"]]
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
        estimate = results["measure"]
        header += ["measure_value", "measure_method", "measure_resolution"]
        row += [estimate["value"], estimate["method"], estimate["resolution"]]
    return header, [row]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _bound_text(p: Polynomial, box: Box) -> str:
    """The theorem bound as "num/den" text, or a ValueError past Python's int digit limit."""
    bound = theorem_bound(p, box)
    try:
        return str(bound)
    except ValueError:  # raised only by the digit limit of Python >= 3.10.7
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the bound is longer than the {limit}-digit integer limit") from None


def _execute(config: RunConfig, p: Polynomial | None, bound: str | None) -> dict:
    """Run the estimates of a checked configuration; `p` is None for sharpness,
    and `bound` the theorem bound's text when the report holds it."""
    results: dict = {}
    if config.command == "sharpness":
        rows = sharpness_experiment(
            config.dimension, config.n_values, config.resolution, config.scheme
        )
        results["sharpness"] = [asdict(r) for r in rows]
        return results

    if bound is not None:
        results["theorem_bound"] = bound
    if config.command in ("crofton", "report"):
        crofton = crofton_upper_estimate(p, config.box, config.scheme)
        results["crofton"] = _crofton_dict(crofton)
    if config.measured or config.dump_mesh:
        estimate = measure(p, config.box, config.resolution, keep_mesh=bool(config.dump_mesh))
        if config.measured:
            results["measure"] = _measure_dict(estimate)
        if config.dump_mesh:
            with open(config.dump_mesh, "w") as stream:
                write_mesh_csv(stream, estimate.mesh, config.dimension)
    return results


def _emit_error(code: int, kind: str, message: str) -> None:
    record = {"error": {"code": code, "kind": kind, "message": message}}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    # Inputs are checked before any estimate runs; an estimate's ValueError is a bug.
    try:
        config = _build_config(_build_parser().parse_args(argv))
        p = bound = None
        if config.command != "sharpness":
            p = parse_polynomial(config.polynomial, config.dimension)
            check_bound(p, config.box)  # exit 3 for the zero polynomial, on every subcommand
            if config.command in ("crofton", "report"):
                check_crofton(p, config.box)
            if config.measured or config.dump_mesh:
                check_measure(p, config.box, config.resolution, bool(config.dump_mesh))
            if config.command in ("bound", "crofton", "report"):
                bound = _bound_text(p, config.box)
    except TrivialPolynomialError as exc:
        _emit_error(EXIT_TRIVIAL, "trivial_polynomial", str(exc))
        return EXIT_TRIVIAL
    except ValueError as exc:
        _emit_error(EXIT_PARSE, "parse_error", str(exc))
        return EXIT_PARSE
    try:
        results = _execute(config, p, bound)
        payload = {"config": _config_dict(config), "results": results}
        if config.format == "json":
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        else:
            header, rows = _flatten_for_csv(results)
            text = _csv_text(header, rows)
        if config.out:
            with open(config.out, "w") as stream:
                stream.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        _emit_error(EXIT_IO, "io_error", str(exc))
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
