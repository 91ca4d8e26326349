"""Degree bounds and measure estimates for polynomial zero sets in a box."""

from .crofton import (
    DEFAULT_SEED,
    AxisEstimate,
    Box,
    CroftonResult,
    GridScheme,
    MonteCarloScheme,
    crofton_axis_integral,
    crofton_upper_estimate,
    line_count,
    theorem_bound,
)
from .experiment import ExperimentRow, sharpness_experiment, sharpness_polynomial
from .meshing import (
    MeasureEstimate,
    marching_cubes_area,
    marching_squares_length,
    measure_d1,
    write_mesh_csv,
)
from .polynomial import (
    ParseError,
    Polynomial,
    TrivialPolynomialError,
    UnivariatePolynomial,
    parse_polynomial,
)
from .sturm import IDENTICALLY_ZERO, RootCount, count_real_roots

__version__ = "0.1.0"
