"""Direct measure estimates for a polynomial zero set: exact root counts in
d=1, and one table-driven marching kernel for d=2 and d=3, which sums
segment lengths (marching squares) or triangle areas (marching cubes).

Vertex values are computed in double precision from the exact polynomial.
An exact zero at a grid vertex counts as positive, so the sign predicate is
simply ``value < 0``.  Crossings are placed by linear interpolation along
sign-change edges; the resolution is the accuracy knob.

Vertex values are evaluated one slab of cell rows at a time into reused
buffers of about 1 MiB, term by term in the same order everywhere, so no
whole vertex grid is built.  Each slab keeps only its crossed cells (corners
of both signs) with their corner values, in row-major order; past that scan,
both meshes cost in proportion to the crossed cells.

Determinism: segment lengths and triangle areas are derived from local cell
coordinates and reduced with math.fsum (exactly rounded, order-independent),
so repeated runs and symmetric inputs reproduce bit-identical totals.

Ambiguity: a square is the bottom face of a cube, and both follow one rule.
A cell with ambiguous faces (diagonally alternating corner signs) samples
the polynomial at those face centers, where a square's one face is the
square itself.  When most centers are negative, the cell takes the table
entry of the complementary case, 15 - c for squares and 255 - c for cubes,
which crosses the same edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from ._mc_tables import SEGMENTS, TRIANGLES
from .crofton import Box, line_count
from .polynomial import Polynomial, TrivialPolynomialError

EXACT_COUNT = "exact_count"
MARCHING_SQUARES = "marching_squares"
MARCHING_CUBES = "marching_cubes"


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    method: str
    resolution: int
    cells_with_sign_change: int
    # The extracted segments (d=2) or triangles (d=3), when the call kept them.
    mesh: np.ndarray | None = field(default=None, compare=False, repr=False)


def _check_input(p: Polynomial, box: Box, dimension: int, resolution: int) -> None:
    if p.is_trivial:
        raise TrivialPolynomialError("measure estimation requires a nontrivial polynomial")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")
    if box.dimension != dimension:
        raise ValueError(f"expected a {dimension}-dimensional box, got {box.dimension}")
    check_resolution(resolution)


def check_resolution(resolution: int) -> None:
    """Meshes need at least 2 cells per axis."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 cells per axis")


def _node_array(a: Fraction, b: Fraction, n: int) -> np.ndarray:
    return float(a) + np.arange(n + 1) * float((b - a) / n)


def _term_factors(p: Polynomial, coords: Sequence[np.ndarray]) -> list[tuple]:
    """p's terms in sorted order, each as (factor, last) with term = factor * last.

    `factor` is ``((c * x1**e1) * x2**e2) * ...`` over every axis but the
    last and `last` is the last axis's power, or None for exponent 0 (the
    product by 1.0 it skips is exact).  `coords` are per-axis arrays that
    broadcast against each other: flat point lists, or node arrays shaped so
    that `factor` spans the grid of the first d-1 axes.
    """
    terms = []
    for exponents in sorted(p.terms):
        factor = float(p.terms[exponents])
        for x, e in zip(coords, exponents[:-1]):
            factor = factor * x**e
        e = exponents[-1]
        terms.append((factor, coords[-1] ** e if e else None))
    return terms


def _evaluate(terms: list[tuple], rows: slice, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``0 + t0 + t1 + ...`` in term order, over `rows` of each factor's first axis.

    The +0.0 start turns a sum of negative zeros into +0.0.
    """
    for i, (factor, last) in enumerate(terms):
        term = factor[rows] if last is None else np.multiply(factor[rows], last, out=tmp)
        if i:
            out += term
        else:
            np.add(term, 0.0, out=out)
    return out


def _values_at(p: Polynomial, coords: Sequence[np.ndarray]) -> np.ndarray:
    """Double-precision values of p at a flat list of points (one array per axis)."""
    out = np.empty(len(coords[0]))
    return _evaluate(_term_factors(p, coords), slice(None), out, np.empty_like(out))


# Vertex values are evaluated one slab of cell rows (along axis 1) at a time,
# so the two float buffers of a slab stay in cache and no whole (n+1)^d grid
# is ever built.  Cells come out slab by slab in row-major order.
_SLAB_BYTES = 1 << 20


def _slab_rows(n: int, d: int) -> int:
    """Cell rows per slab: as many as keep both vertex buffers within _SLAB_BYTES."""
    return max(1, _SLAB_BYTES // (16 * (n + 1) ** (d - 1)) - 1)


def _sign_change(neg: np.ndarray) -> np.ndarray:
    """Mask of the cells of a vertex-sign grid whose corners are not all alike."""
    some = every = neg
    for axis in range(neg.ndim):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        some = some[head] | some[tail]
        every = every[head] & every[tail]
    return some != every


def _crossed_cells(p: Polynomial, nodes: list[np.ndarray], corners: np.ndarray, batch: int):
    """The cells of the grid on `nodes` whose corners disagree in sign, in row-major order.

    Yields (flat indices in the n**d cell grid, corner values with one row
    per entry of `corners`, the corner offsets) in batches of `batch` cells
    cut from consecutive slabs; the last batch may be smaller.  Yields
    nothing when no cell crosses.
    """
    d, n = len(nodes), len(nodes[0]) - 1
    terms = _term_factors(
        p, [x.reshape((n + 1,) + (1,) * (d - 1 - j)) for j, x in enumerate(nodes)]
    )
    h = min(_slab_rows(n, d), n)
    buf = np.empty((h + 1,) + (n + 1,) * (d - 1))
    tmp = np.empty_like(buf)
    strides = np.array([(n + 1) ** (d - 1 - j) for j in range(d)])
    shifts = (corners @ strides)[:, None]
    cells: list[np.ndarray] = []
    values: list[np.ndarray] = []
    count = 0
    for r0 in range(0, n, h):
        m = min(h, n - r0)
        done = 0
        if r0:  # vertex row r0 is the previous slab's last row
            buf[0] = buf[h]
            done = 1
        _evaluate(terms, slice(r0 + done, r0 + m + 1), buf[done : m + 1], tmp[done : m + 1])
        slab = buf[: m + 1]
        mixed = _sign_change(slab < 0.0)
        local = np.flatnonzero(mixed)
        first = sum(i * s for i, s in zip(np.unravel_index(local, mixed.shape), strides))
        cells.append(local + r0 * n ** (d - 1))
        values.append(slab.reshape(-1)[first + shifts])
        count += len(local)
        last = r0 + m == n
        if count >= batch or (last and count):
            joined_cells, joined_values = np.concatenate(cells), np.concatenate(values, axis=1)
            stop = count if last else count - count % batch
            for i in range(0, stop, batch):
                yield joined_cells[i : i + batch], joined_values[:, i : i + batch]
            cells, values, count = [joined_cells[stop:]], [joined_values[:, stop:]], count - stop


# ---------------------------------------------------------------------------
# d = 1: exact root count
# ---------------------------------------------------------------------------


def measure_d1(p: Polynomial, box: Box) -> MeasureEstimate:
    """Distinct-root count in the interval, reported as a real (exact)."""
    if p.is_trivial:
        raise TrivialPolynomialError("measure estimation requires a nontrivial polynomial")
    if p.dimension != 1 or box.dimension != 1:
        raise ValueError("measure_d1 requires dimension 1")
    outcome = line_count(p, box, 1, ())
    count = 0 if outcome.identically_zero else outcome.count
    return MeasureEstimate(
        value=float(count), method=EXACT_COUNT, resolution=1, cells_with_sign_change=0
    )


# ---------------------------------------------------------------------------
# d = 2 and 3: marching squares and marching cubes
#
# Cell corners and edges in local coordinates.  A square is the cube's
# bottom face: its corners and edges are the cube's first four.
#
#   c3 (0,1) --e2-- c2 (1,1)
#    |                |
#   e3               e1
#    |                |
#   c0 (0,0) --e0-- c1 (1,0)
#
# Case bit i is set when corner i is negative.  Crossing offsets are always
# computed from the lexicographically smaller corner of the edge, so mirrored
# cells produce bit-identical offsets.
# ---------------------------------------------------------------------------

_CORNER_OFFSETS = np.array(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
)
# Edge endpoints, lexicographically smaller corner offset first.
_EDGE_A, _EDGE_B = np.array([
    (0, 1), (1, 2), (3, 2), (0, 3), (4, 5), (5, 6), (7, 6), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7),
]).T
# Per axis, each edge's first corner and its step to the second, as floats:
# a crossing at fraction t of the edge lies at start + t * step.
_EDGE_START = _CORNER_OFFSETS[_EDGE_A].T.astype(float)
_EDGE_STEP = _CORNER_OFFSETS[_EDGE_B].T - _EDGE_START


def _primitive_table(table: tuple, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A case table as arrays: primitive count per case, and edge tuples (zero-padded)."""
    counts = np.array([len(t) for t in table])
    edges = np.array(
        [list(t) + [(0,) * d] * (counts.max() - len(t)) for t in table], dtype=np.uint8
    )
    return counts, edges


_PRIMITIVES = {2: _primitive_table(SEGMENTS, 2), 3: _primitive_table(TRIANGLES, 3)}
# The faces whose centers vote on ambiguous cells: corner indices in cyclic
# order plus the face-center local offset.
_FACES = {
    2: [((0, 1, 2, 3), (0.5, 0.5))],
    3: [
        ((0, 1, 2, 3), (0.5, 0.5, 0.0)),
        ((4, 5, 6, 7), (0.5, 0.5, 1.0)),
        ((0, 1, 5, 4), (0.5, 0.0, 0.5)),
        ((3, 2, 6, 7), (0.5, 1.0, 0.5)),
        ((0, 3, 7, 4), (0.0, 0.5, 0.5)),
        ((1, 2, 6, 5), (1.0, 0.5, 0.5)),
    ],
}
# Crossed cells are meshed in batches of about this many cells, so the
# per-primitive arrays stay small.
_BATCH_CELLS = 2048


def _march(p: Polynomial, box: Box, n: int, keep: bool):
    """Marching squares (d=2) or cubes (d=3) on the n**d cell grid of `box`.

    Returns the fsum of the segment lengths or triangle areas, the number of
    crossed cells, and with `keep` the primitives, one row of d vertices
    (d coordinates each) per segment or triangle.
    """
    d = box.dimension
    counts_by_case, edges_by_case = _PRIMITIVES[d]
    nodes = [_node_array(a, b, n) for a, b in box.intervals]
    h = [float((b - a) / n) for a, b in box.intervals]
    crossed = 0
    measures: list[np.ndarray] = []
    primitives: list[np.ndarray] = []
    order_keys: list[np.ndarray] = []
    batches = _crossed_cells(p, nodes, _CORNER_OFFSETS[: 2**d, :d], _BATCH_CELLS)
    for cells, corner_values in batches:
        m = len(cells)
        crossed += m
        cell_origin = [x[i] for x, i in zip(nodes, np.unravel_index(cells, (n,) * d))]
        corner_neg = corner_values < 0.0
        cases = sum(neg.astype(np.uint8) << bit for bit, neg in enumerate(corner_neg))

        # Face-center rule: a cell with ambiguous faces (diagonally alternating
        # corner signs) takes the table entry of the complementary case, which
        # has the same crossed edges, when most of those face centers sample
        # negative.  A square's one face is the square itself.
        votes = np.zeros(m, dtype=np.intp)  # negative minus positive centers
        for (f0, f1, f2, f3), center in _FACES[d]:
            ambiguous = (
                (corner_neg[f0] == corner_neg[f2])
                & (corner_neg[f1] == corner_neg[f3])
                & (corner_neg[f0] != corner_neg[f1])
            )
            if not ambiguous.any():
                continue
            sel = np.nonzero(ambiguous)[0]
            coords = tuple(cell_origin[j][sel] + center[j] * h[j] for j in range(d))
            votes[sel] += np.where(_values_at(p, coords) < 0.0, 1, -1)
        effective = np.where(votes > 0, 2 ** 2**d - 1 - cases, cases)

        # One row per primitive: cell by cell, each cell's primitives in table order.
        counts = counts_by_case[effective]
        cell = np.repeat(np.arange(m), counts)
        index = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
        case = effective[cell]
        edges = edges_by_case[case, index]

        # One array per axis, with the float operations, in order, of
        # start + t * step, (q - p1) * h and the length or cross-product norm.
        flat = np.ascontiguousarray(corner_values).reshape(-1)  # corner-major, m per corner
        points = []
        for k in range(d):
            edge = edges[:, k]
            va = flat[_EDGE_A[edge] * m + cell]
            vb = flat[_EDGE_B[edge] * m + cell]
            t = va / (va - vb)
            points.append([_EDGE_START[j][edge] + t * _EDGE_STEP[j][edge] for j in range(d)])
        sides = [[(q[j] - points[0][j]) * h[j] for j in range(d)] for q in points[1:]]
        if d == 2:
            ((dx, dy),) = sides
            measures.append(np.sqrt(dx * dx + dy * dy))
        else:
            (a0, a1, a2), (b0, b1, b2) = sides
            c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            measures.append(0.5 * np.sqrt((c0 * c0 + c1 * c1) + c2 * c2))
        if keep:
            origin = [x[cell] for x in cell_origin]
            primitives.append(np.column_stack(
                [origin[j] + q[j] * h[j] for q in points for j in range(d)]
            ))
            # Dump order, cells row-major within each key: squares by
            # (case, flipped cells first, segment), cubes by (effective
            # case, triangle).
            width = edges_by_case.shape[1]
            if d == 2:
                own = cases[cell].astype(np.intp)
                order_keys.append((2 * own + (case == own)) * width + index)
            else:
                order_keys.append(case.astype(np.intp) * width + index)

    total = math.fsum(itertools.chain.from_iterable(a.tolist() for a in measures))
    mesh = None
    if keep:
        mesh = np.empty((0, d * d))
        if primitives:
            order = np.argsort(np.concatenate(order_keys), kind="stable")
            mesh = np.concatenate(primitives)[order]
    return total, crossed, mesh


def _mesh_estimate(
    p: Polynomial, box: Box, d: int, method: str, resolution: int, keep_mesh: bool
) -> MeasureEstimate:
    _check_input(p, box, d, resolution)
    total, crossed, mesh = _march(p, box, resolution, keep_mesh)
    return MeasureEstimate(
        value=total,
        method=method,
        resolution=resolution,
        cells_with_sign_change=crossed,
        mesh=mesh,
    )


def marching_squares_length(
    p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False
) -> MeasureEstimate:
    """Total polyline length of the zero level set on an N-by-N cell grid.

    With `keep_mesh`, the segments of the same pass come back as `mesh`, one
    row (x1, y1, x2, y2) per segment in global coordinates.
    """
    return _mesh_estimate(p, box, 2, MARCHING_SQUARES, resolution, keep_mesh)


def marching_cubes_area(
    p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False
) -> MeasureEstimate:
    """Summed triangle area of the isosurface on an N**3 cell grid.

    With `keep_mesh`, the triangles of the same pass come back as `mesh`, one
    row (x1, y1, z1, x2, y2, z2, x3, y3, z3) per triangle.
    """
    return _mesh_estimate(p, box, 3, MARCHING_CUBES, resolution, keep_mesh)


def write_mesh_csv(stream: TextIO, primitives: np.ndarray, dimension: int) -> None:
    """Dump extracted primitives (one per row) for external plotting."""
    if dimension not in (2, 3):
        raise ValueError("mesh dumps exist only for dimensions 2 and 3")
    # Each row holds d vertices of d coordinates: x1,y1,x2,y2 or x1,y1,z1,...,z3.
    axes = "xyz"[:dimension]
    stream.write(",".join(f"{a}{i}" for i in range(1, dimension + 1) for a in axes) + "\n")
    for row in primitives:
        stream.write(",".join(repr(float(v)) for v in row) + "\n")
