"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

from zeroset import (
    Box,
    GridScheme,
    crofton_upper_estimate,
    measure,
    parse_polynomial,
    theorem_bound,
)
from zeroset.cli import main as cli_main
from zeroset.experiment import sharpness_polynomial

from oracles import (
    arc_length_oracle,
    count_real_roots,
    line_count,
    planted_univariate,
    random_polynomial,
)

# Reference areas for x1*x2*x3 = 1/n on the unit cube, recorded from an
# N=256 marching-cubes run and cross-checked against 2-D quadrature of the
# graph-area integrand (agreement to ~2e-5).
D3_AREA_GOLDENS = {
    8: 1.1979377118647951,
    64: 2.1836840312278967,
    512: 2.6646954014289057,
}


def _report(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status} ({elapsed:.2f}s) {detail}")


def test_criterion_1_equality_case():
    start = time.perf_counter()
    p = parse_polynomial("x1 - 1/2", 2)
    cube = Box.cube(0, 1, 2)
    bound = theorem_bound(p, cube)
    crofton = crofton_upper_estimate(p, cube, GridScheme(256))
    mesh = measure(p, cube, 64)
    elapsed = time.perf_counter() - start
    checks = [
        bound == Fraction(1),
        crofton.total == 1.0,
        crofton.total_exact == 1,
        abs(mesh.value - 1.0) <= 1e-9,
        elapsed < 1.0,
    ]
    _report(1, all(checks), elapsed,
            f"bound={bound} crofton={crofton.total} mesh={mesh.value}")
    assert all(checks), checks


def test_criterion_2_circle_cross_check():
    start = time.perf_counter()
    p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
    cube = Box.cube(-1, 1, 2)
    bound = theorem_bound(p, cube)
    crofton = crofton_upper_estimate(p, cube, GridScheme(1024))
    mesh = measure(p, cube, 1024)
    elapsed = time.perf_counter() - start
    checks = [
        bound == Fraction(8),
        abs(crofton.total - 4.0) <= 0.005 * 4.0,
        abs(mesh.value - math.pi) <= 0.005 * math.pi,
        mesh.value <= crofton.total <= float(bound),  # pi <= 4 <= 8
        elapsed < 5.0,
    ]
    _report(2, all(checks), elapsed,
            f"bound={bound} crofton={crofton.total} mesh={mesh.value:.6f}")
    assert all(checks), checks


def test_criterion_3_sharpness_d2():
    start = time.perf_counter()
    cube = Box.cube(0, 1, 2)
    lengths = {}
    oracles = {}
    for n in (4, 16, 64, 256, 1024):
        p = sharpness_polynomial(2, n)
        lengths[n] = measure(p, cube, 2048).value
        oracles[n] = arc_length_oracle(1.0 / n)
    elapsed = time.perf_counter() - start

    values = [lengths[n] for n in sorted(lengths)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    within_1pct = all(
        abs(lengths[n] - oracles[n]) <= 0.01 * oracles[n] for n in lengths
    )
    # the final value is within 0.1 of the bound 2 iff the oracle value is
    iff_agrees = (abs(2.0 - lengths[1024]) <= 0.1) == (abs(2.0 - oracles[1024]) <= 0.1)
    checks = [increasing, within_1pct, iff_agrees, elapsed < 30.0]
    detail = " ".join(
        f"n={n}:mesh={lengths[n]:.5f}/oracle={oracles[n]:.5f}" for n in sorted(lengths)
    )
    _report(3, all(checks), elapsed, detail)
    assert all(checks), checks


def test_criterion_4_sharpness_d3():
    start = time.perf_counter()
    cube = Box.cube(0, 1, 3)
    areas = {}
    crofton_totals = {}
    for n in (8, 64, 512):
        p = sharpness_polynomial(3, n)
        areas[n] = measure(p, cube, 128).value
        crofton_totals[n] = crofton_upper_estimate(p, cube, GridScheme(64)).total
    elapsed = time.perf_counter() - start

    ordered = [areas[n] for n in sorted(areas)]
    increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    toward_bound = all(a < 3.0 for a in ordered)
    goldens_hit = all(abs(areas[n] - D3_AREA_GOLDENS[n]) <= 0.002 for n in areas)
    sandwich = all(
        areas[n] <= crofton_totals[n] <= 3.0 + 1e-9 for n in areas
    )
    checks = [increasing, toward_bound, goldens_hit, sandwich, elapsed < 120.0]
    detail = " ".join(
        f"n={n}:area={areas[n]:.5f}/crofton={crofton_totals[n]:.5f}" for n in sorted(areas)
    )
    _report(4, all(checks), elapsed, detail)
    assert all(checks), checks


def test_criterion_5_sturm_oracle_suite():
    start = time.perf_counter()
    rng = random.Random(20240601)
    lo, hi = Fraction(-10), Fraction(10)
    mismatches = 0
    for _ in range(10_000):
        u, roots = planted_univariate(rng, max_degree=12, max_multiplicity=3)
        expected = sum(1 for r in roots if lo <= r <= hi)
        if count_real_roots(u, lo, hi).count != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    checks = [mismatches == 0, elapsed < 60.0]
    _report(5, all(checks), elapsed, f"10^4 polynomials, mismatches={mismatches}")
    assert all(checks), checks


def test_criterion_6_bound_never_violated_fuzz():
    start = time.perf_counter()
    rng = random.Random(987654321)
    violations = []

    def fuzz_one(d, max_deg, grid_n, mesh_n, line_samples):
        p = random_polynomial(rng, d, max_deg)
        cube = Box.cube(0, 1, d)
        bound = theorem_bound(p, cube)
        crofton = crofton_upper_estimate(p, cube, GridScheme(grid_n))
        if not crofton.total_exact <= bound:
            violations.append(("crofton>bound", str(p)))
        mesh = measure(p, cube, mesh_n)
        if not mesh.value <= float(bound) + 1e-6:
            violations.append(("mesh>bound", str(p)))
        if not mesh.value <= crofton.total + 0.05 * float(bound):
            violations.append(("mesh>crofton+tol", str(p)))
        for k in range(1, d + 1):
            ceiling = p.degree_in(k)
            for _ in range(line_samples):
                base = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(d - 1))
                outcome = line_count(p, cube, k, base)
                if not outcome.identically_zero and outcome.count > ceiling:
                    violations.append(("line>degree", str(p)))

    for _ in range(100):
        fuzz_one(2, 4, grid_n=64, mesh_n=64, line_samples=32)
    for _ in range(100):
        fuzz_one(3, 3, grid_n=32, mesh_n=32, line_samples=16)
    elapsed = time.perf_counter() - start
    checks = [not violations, elapsed < 180.0]
    _report(6, all(checks), elapsed, f"200 polynomials, violations={violations[:3]}")
    assert all(checks), checks


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name, workers in (("w1.json", "1"), ("w1b.json", "1"), ("w4.json", "4")):
        path = tmp_path / name
        code = cli_main(
            [
                "crofton", "--poly", "x1*x2 - 1/4", "--dim", "2",
                "--scheme", "mc:100000", "--seed", "42",
                "--workers", workers, "--out", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1] == outputs[2]
    checks = [identical]
    _report(7, all(checks), elapsed, f"3 runs, byte-identical={identical}")
    assert all(checks), checks
