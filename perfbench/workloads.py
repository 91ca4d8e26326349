"""The benchmark's workloads: job lists generated from a seed, and output checks.

Each job is one `zeroset` command line.  The program only ever sees the
generated argv; the seed, the corpus and the checks stay on this side.
Each check returns a list of broken invariants (empty when the report is
right).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Float totals are sums of rounded exact rationals, so an exact equality
# with the bound may read a few units in the last place above it.
_ULPS = 1 + 8 * 2.0**-52

WHY = {
    "mc-line": "degree-1 lines, no meshing, no pool: per-line overhead (rng, restriction, trivial Sturm chains)",
    "fuzz-report": "random sparse polynomials of degree <=4: Sturm chains of every degree, parse, bound, small meshes",
    "sharpness-w2": "the paper's sharpness experiment in d=2 and d=3 at --workers 2: a process pool per axis per n, 2048^2 and 128^3 meshes",
}

# Passes over the job list per 30 s of --seconds.  The timed phase runs
# round(--seconds / 30 * this) passes, so the work in a run is fixed by
# --seconds and not by how fast the program happens to be.  On a 2-CPU x86
# machine a 30 s run then measures about 30 s.  Every job runs once per pass,
# so each job's time is the median of as many samples as there are passes.
PASSES_PER_30S = {"mc-line": 12, "fuzz-report": 2, "sharpness-w2": 22}

# How strongly each workload's times follow the reference (reference.py):
# times are divided by (reference time / REFERENCE_SECONDS) ** exponent.
# mc-line and fuzz-report are pure-Python exact arithmetic, as the reference
# is, and follow it in proportion.  sharpness-w2 is mostly large NumPy
# meshes and process start-up: over twelve 30 s windows its job times moved
# by 0.3-0.6 of the reference's relative change (log-log slope), and over
# five runs dividing by the full factor widened its spread (wall_s 13% raw,
# 19% fully scaled) where the square root narrowed it (8%).
REFERENCE_EXPONENT = {"mc-line": 1.0, "fuzz-report": 1.0, "sharpness-w2": 0.5}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


def _parse(text: str) -> dict:
    return json.loads(text)["results"]


# -- mc-line ---------------------------------------------------------------


def _check_mc_line(results: dict) -> list[str]:
    problems = []
    if results["theorem_bound"] != "2":
        problems.append(f"theorem_bound {results['theorem_bound']!r} != '2'")
    axes = results["crofton"]["per_axis"]
    if len(axes) != 2:
        problems.append(f"{len(axes)} axes, expected 2")
    for axis in axes:
        if abs(axis["estimate"] - 0.75) > 3 * axis["error_halfwidth"]:
            problems.append(
                f"axis {axis['axis']}: estimate {axis['estimate']} is more than "
                f"3 half-widths ({axis['error_halfwidth']}) from 3/4"
            )
    return problems


def mc_line(seed: int, tiny: bool, workers: int) -> list[Job]:
    samples, jobs = (100, 3) if tiny else (500, 40)
    rng = random.Random(seed)
    return [
        Job(
            ("crofton", "--poly", "x1*x2 - 1/4", "--dim", "2",
             "--scheme", f"mc:{samples}", "--seed", str(rng.getrandbits(32)), "--workers", "1"),
            _check_mc_line,
        )
        for _ in range(jobs)
    ]


# -- fuzz-report -----------------------------------------------------------


# Degree profiles (degree in each variable).  Every seed gets the same
# profiles and term counts, so the corpus cost barely depends on the seed;
# the seed draws the lower-order exponents, the coefficients and the order.
_PROFILES_2 = [(a, b) for a in range(5) for b in range(5) if a or b]
_PROFILES_3 = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)
               if (a + b + c) % 4 == 1]


def random_polynomial_text(rng: random.Random, profile: tuple[int, ...], terms: int) -> str:
    """Sparse polynomial with degree `profile[k]` in x_{k+1} and up to `terms` monomials.

    The first monomial carries every variable at its full degree; the others
    have random exponents below the profile.  Coefficients are small nonzero
    rationals.
    """
    monomials = {tuple(profile): None}
    for _ in range(terms - 1):
        monomials[tuple(rng.randint(0, e) for e in profile)] = None
    parts = []
    for exponents in monomials:
        coefficient = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        factors = [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(exponents) if e]
        parts.append((rng.choice("+-"), "*".join([str(coefficient)] + factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _check_fuzz(results: dict) -> list[str]:
    problems = []
    bound = Fraction(results["theorem_bound"])
    total = results["crofton"]["total"]
    if not total <= float(bound) * _ULPS:
        problems.append(f"crofton total {total} > theorem_bound {bound}")
    value = results["measure"]["value"]
    if not value <= float(bound) + 1e-6:
        problems.append(f"mesh value {value} > theorem_bound {bound} + 1e-6")
    return problems


def fuzz_report(seed: int, tiny: bool, workers: int) -> list[Job]:
    if tiny:
        shapes = ((2, _PROFILES_2[:3], 8, 8), (3, _PROFILES_3[:2], 4, 4))
    else:
        shapes = ((2, _PROFILES_2, 64, 64), (3, _PROFILES_3, 32, 32))
    rng = random.Random(seed)
    jobs = []
    for dimension, profiles, grid, resolution in shapes:
        # Each profile three times, so the median job is not at the mercy of
        # a handful of random draws.
        for i, profile in enumerate(profiles * (1 if tiny else 3)):
            poly = random_polynomial_text(rng, profile, 1 + i % 6)
            jobs.append(Job(
                # `--poly=` form: a text starting with "-" is not an option.
                ("report", f"--poly={poly}", "--dim", str(dimension), "--box", "0,1",
                 "--scheme", f"grid:{grid}", "--resolution", str(resolution), "--workers", "1"),
                _check_fuzz,
            ))
    rng.shuffle(jobs)
    return jobs


# -- sharpness-w2 ----------------------------------------------------------


def _check_sharpness(dimension: int, n_values: tuple[int, ...]):
    def check(results: dict) -> list[str]:
        rows = results["sharpness"]
        problems = []
        if [r["n"] for r in rows] != list(n_values):
            problems.append(f"rows for n={[r['n'] for r in rows]}, expected {list(n_values)}")
        for r in rows:
            if r["theorem_bound"] != dimension:
                problems.append(f"n={r['n']}: theorem_bound {r['theorem_bound']} != {dimension}")
            if not r["crofton_total"] <= dimension:
                problems.append(f"n={r['n']}: crofton total {r['crofton_total']} > {dimension}")
            if not r["direct_measure"] < dimension:
                problems.append(f"n={r['n']}: direct_measure {r['direct_measure']} >= {dimension}")
        measures = [r["direct_measure"] for r in rows]
        if not all(a < b for a, b in zip(measures, measures[1:])):
            problems.append(f"direct_measure not strictly increasing in n: {measures}")
        return problems

    return check


def sharpness_w2(seed: int, tiny: bool, workers: int) -> list[Job]:
    # The seed does not enter: the sharpness family is fixed by the paper.
    # The mesh resolutions are the experiment's; the Crofton grids are small
    # (every restricted line has degree 1), so each pool does little work
    # and the job stays bound to one core.  With the experiment's grid:1024
    # the d=2 pools split real work over two workers, and the wall time then
    # followed whether this shared machine's second core was free: its
    # ten-run spread reached 26-34%.
    if tiny:
        settings = ((2, (4, 16), 16, 32), (3, (8, 64), 4, 8))
    else:
        settings = ((2, (4, 16, 64, 256, 1024), 64, 2048), (3, (8, 64, 512), 8, 128))
    return [
        Job(
            ("sharpness", "--dim", str(d), "--n-list", ",".join(map(str, n_values)),
             "--scheme", f"grid:{grid}", "--resolution", str(resolution),
             "--workers", str(workers)),
            _check_sharpness(d, n_values),
        )
        for d, n_values, grid, resolution in settings
    ]


WORKLOADS = {"mc-line": mc_line, "fuzz-report": fuzz_report, "sharpness-w2": sharpness_w2}


def check_report(job: Job, text: str) -> list[str]:
    """Parse the report and apply the job's invariants."""
    try:
        return job.check(_parse(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
