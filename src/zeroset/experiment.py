"""Sharpness experiment for the degree bound.

The family x1*x2*...*xd - 1/n on the unit cube has degree sum d for every n,
and the measure of its zero set inside the cube approaches d as n grows, so
the bound's constant cannot be improved.  Each experiment row records the
bound, the line-count integral estimate, and (for d <= 3) the direct
meshing estimate for one value of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crofton import Box, Scheme, crofton_upper_estimate, theorem_bound
from .meshing import check_resolution, marching_cubes_area, marching_squares_length
from .polynomial import Polynomial


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    dimension: int
    crofton_total: float
    direct_measure: float | None
    theorem_bound: float
    gap: float


def sharpness_polynomial(dimension: int, n: int) -> Polynomial:
    """x1*x2*...*xd - 1/n, exactly."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    return Polynomial(
        dimension,
        {(1,) * dimension: Fraction(1), (0,) * dimension: Fraction(-1, n)},
    )


def sharpness_experiment(
    dimension: int,
    n_values: Sequence[int],
    resolution: int,
    scheme: Scheme,
) -> list[ExperimentRow]:
    """One row per n, in increasing order, on the unit cube."""
    if dimension < 2:
        raise ValueError("the sharpness experiment requires dimension >= 2")
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(n < 1 for n in n_values):
        raise ValueError("all n must be positive")
    if list(n_values) != sorted(set(n_values)):
        raise ValueError("n_values must be strictly increasing")
    if dimension <= 3:
        check_resolution(resolution)

    cube = Box.cube(0, 1, dimension)
    rows = []
    for n in n_values:
        p = sharpness_polynomial(dimension, n)
        bound = theorem_bound(p, cube)  # equals dimension exactly
        crofton = crofton_upper_estimate(p, cube, scheme)
        if dimension == 2:
            direct = marching_squares_length(p, cube, resolution).value
        elif dimension == 3:
            direct = marching_cubes_area(p, cube, resolution).value
        else:
            direct = None
        estimates = [crofton.total] + ([direct] if direct is not None else [])
        rows.append(
            ExperimentRow(
                n=n,
                dimension=dimension,
                crofton_total=crofton.total,
                direct_measure=direct,
                theorem_bound=float(bound),
                gap=float(bound) - max(estimates),
            )
        )
    return rows
