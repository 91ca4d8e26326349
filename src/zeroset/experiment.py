"""Sharpness experiment for the degree bound.

The family x1*x2*...*xd - 1/n on the unit cube has degree sum d for every n,
and the measure of its zero set inside the cube approaches d as n grows, so
the bound's constant cannot be improved.  Each experiment row records the
bound, the line-count integral estimate, and (for d <= 3) the direct
measure from `meshing.measure` for one value of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crofton import Box, Scheme, crofton_upper_estimate, theorem_bound
from .meshing import check_measure, measure
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


def check_sharpness(dimension: int, n_values: Sequence[int], resolution: int) -> None:
    """d >= 2, strictly increasing positive n and, for d <= 3, meshes `check_measure` takes."""
    if dimension < 2:
        raise ValueError("the sharpness experiment requires dimension >= 2")
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if any(n < 1 for n in n_values):
        raise ValueError("all n must be positive")
    if list(n_values) != sorted(set(n_values)):
        raise ValueError("n_values must be strictly increasing")
    for n in n_values if dimension <= 3 else ():
        check_measure(sharpness_polynomial(dimension, n), Box.cube(0, 1, dimension), resolution)


def sharpness_experiment(
    dimension: int,
    n_values: Sequence[int],
    resolution: int,
    scheme: Scheme,
) -> list[ExperimentRow]:
    """One row per n, in increasing order, on the unit cube."""
    check_sharpness(dimension, n_values, resolution)

    cube = Box.cube(0, 1, dimension)
    rows = []
    for n in n_values:
        p = sharpness_polynomial(dimension, n)
        bound = theorem_bound(p, cube)  # equals dimension exactly
        crofton = crofton_upper_estimate(p, cube, scheme)
        direct = measure(p, cube, resolution).value if dimension <= 3 else None
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
