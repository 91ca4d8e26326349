"""Degree bounds and measure estimates for polynomial zero sets in a box.

The package exports what the README's Library example uses, `measure`, and
the errors they raise; everything else is imported from its module.
"""

from .crofton import Box, GridScheme, crofton_upper_estimate, theorem_bound
from .meshing import measure
from .polynomial import ParseError, TrivialPolynomialError, parse_polynomial

__version__ = "0.1.0"
