"""Direct measure estimates for a polynomial zero set: exact root counts in
d=1, polyline length via marching squares in d=2, and triangulated surface
area via marching cubes in d=3.

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
Ambiguous marching-squares cells are resolved by the sign of the polynomial
at the cell center; marching-cubes cells with ambiguous faces switch to the
complementary triangulation when the majority of their ambiguous face
centers sample negative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from ._mc_tables import TRIANGLES
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
# d = 2: marching squares
#
# Cell corners (local coordinates):  c3 (0,1) --e2-- c2 (1,1)
#                                     |                 |
#                                    e3                e1
#                                     |                 |
#                                    c0 (0,0) --e0-- c1 (1,0)
#
# Case bit i is set when corner i is negative.  Crossing offsets are always
# computed from the lexicographically smaller corner of the edge, so mirrored
# cells produce bit-identical offsets.
# ---------------------------------------------------------------------------

_SEGMENTS_2D = {
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(1, 3)],
    13: [(0, 1)],
    14: [(3, 0)],
}
# Ambiguous diagonal cases, keyed by the sign at the cell center.
_SEGMENTS_2D_AMBIGUOUS = {
    (5, True): [(0, 1), (2, 3)],  # center negative: positive corners are cut off
    (5, False): [(3, 0), (1, 2)],
    (10, True): [(3, 0), (1, 2)],
    (10, False): [(0, 1), (2, 3)],
}


def _edge_point_2d(edge: int, v0, v1, v2, v3) -> tuple[np.ndarray, np.ndarray]:
    """Local (u, v) of the crossing on the given edge of each cell."""
    if edge == 0:
        t = v0 / (v0 - v1)
        return t, np.zeros_like(t)
    if edge == 1:
        t = v1 / (v1 - v2)
        return np.ones_like(t), t
    if edge == 2:
        t = v3 / (v3 - v2)
        return t, np.ones_like(t)
    t = v0 / (v0 - v3)
    return np.zeros_like(t), t


# Corner offsets in the order c0..c3 above.
_SQUARE_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])


def _march_squares(p: Polynomial, box: Box, n: int, want_segments: bool):
    nodes = [_node_array(a, b, n) for a, b in box.intervals]
    # At most n * n cells cross: one batch holds them all.
    batches = _crossed_cells(p, nodes, _SQUARE_CORNERS, n * n)
    cells, corner_values = next(batches, (np.empty(0, dtype=np.intp), np.empty((4, 0))))
    (ax, bx), (ay, by) = box.intervals
    hx, hy = float((bx - ax) / n), float((by - ay) / n)
    # Each case's cells keep the row-major order of the crossed cells.
    ci, cj = np.divmod(cells, n)
    crossed = len(ci)
    corners = tuple(corner_values)
    cases = sum((v < 0.0).astype(np.uint8) << bit for bit, v in enumerate(corners))

    lengths: list[np.ndarray] = []
    segments: list[np.ndarray] = []

    def emit(sel, pairs):
        v0, v1, v2, v3 = (v[sel] for v in corners)
        for ea, eb in pairs:
            ua, va = _edge_point_2d(ea, v0, v1, v2, v3)
            ub, vb = _edge_point_2d(eb, v0, v1, v2, v3)
            dx = (ub - ua) * hx
            dy = (vb - va) * hy
            lengths.append(np.sqrt(dx * dx + dy * dy))
            if want_segments:
                x0, y0 = nodes[0][ci[sel]], nodes[1][cj[sel]]
                segments.append(
                    np.column_stack([x0 + ua * hx, y0 + va * hy, x0 + ub * hx, y0 + vb * hy])
                )

    for c in np.unique(cases).tolist():
        sel = np.nonzero(cases == c)[0]
        if c in (5, 10):
            centers = _values_at(
                p, (nodes[0][ci[sel]] + 0.5 * hx, nodes[1][cj[sel]] + 0.5 * hy)
            )
            for center_negative in (True, False):
                sub = centers < 0.0 if center_negative else ~(centers < 0.0)
                if sub.any():
                    emit(sel[sub], _SEGMENTS_2D_AMBIGUOUS[(c, center_negative)])
        else:
            emit(sel, _SEGMENTS_2D[c])

    total = math.fsum(np.concatenate(lengths).tolist()) if lengths else 0.0
    seg_array = (
        np.concatenate(segments) if segments else np.empty((0, 4))
    ) if want_segments else None
    return total, crossed, seg_array


def marching_squares_length(
    p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False
) -> MeasureEstimate:
    """Total polyline length of the zero level set on an N-by-N cell grid.

    With `keep_mesh`, the segments of the same pass come back as `mesh`.
    """
    _check_input(p, box, 2, resolution)
    total, crossed, segments = _march_squares(p, box, resolution, want_segments=keep_mesh)
    return MeasureEstimate(
        value=total,
        method=MARCHING_SQUARES,
        resolution=resolution,
        cells_with_sign_change=crossed,
        mesh=segments,
    )


def marching_squares_segments(p: Polynomial, box: Box, resolution: int) -> np.ndarray:
    """Extracted segments as rows (x1, y1, x2, y2) in global coordinates."""
    return marching_squares_length(p, box, resolution, keep_mesh=True).mesh


# ---------------------------------------------------------------------------
# d = 3: marching cubes
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
# TRIANGLES as arrays: triangle count per case, and edge triples (zero-padded).
_TRIANGLE_COUNTS = np.array([len(t) for t in TRIANGLES])
_TRIANGLE_EDGES = np.array(
    [list(t) + [(0, 0, 0)] * (_TRIANGLE_COUNTS.max() - len(t)) for t in TRIANGLES],
    dtype=np.uint8,
)
# Crossed cells are triangulated in batches of about this many cells, so the
# per-triangle arrays stay small.
_BATCH_CELLS = 2048
# Faces: corner indices in cyclic order plus the face-center local offset.
_FACES = [
    ((0, 1, 2, 3), (0.5, 0.5, 0.0)),
    ((4, 5, 6, 7), (0.5, 0.5, 1.0)),
    ((0, 1, 5, 4), (0.5, 0.0, 0.5)),
    ((3, 2, 6, 7), (0.5, 1.0, 0.5)),
    ((0, 3, 7, 4), (0.0, 0.5, 0.5)),
    ((1, 2, 6, 5), (1.0, 0.5, 0.5)),
]


def _march_cubes(p: Polynomial, box: Box, n: int, want_triangles: bool):
    nodes = [_node_array(a, b, n) for a, b in box.intervals]
    h = [float((b - a) / n) for a, b in box.intervals]
    crossed = 0
    areas: list[np.ndarray] = []
    triangles: list[np.ndarray] = []
    order_keys: list[np.ndarray] = []
    batches = _crossed_cells(p, nodes, _CORNER_OFFSETS, _BATCH_CELLS)
    for cells, corner_values in batches:
        m = len(cells)
        crossed += m
        ci, rest = np.divmod(cells, n * n)
        cj, ck = np.divmod(rest, n)
        cell_origin = [nodes[0][ci], nodes[1][cj], nodes[2][ck]]
        corner_neg = corner_values < 0.0
        cases = sum(neg.astype(np.uint8) << bit for bit, neg in enumerate(corner_neg))

        # Face-center rule: a cell with ambiguous faces (diagonally alternating
        # corner signs) flips to the complementary triangulation, which has the
        # same crossed edges, when most of those face centers sample negative.
        votes_neg = np.zeros(m, dtype=np.int8)
        votes_pos = np.zeros(m, dtype=np.int8)
        for (a, b, c2, d2), center in _FACES:
            ambiguous = (
                (corner_neg[a] == corner_neg[c2])
                & (corner_neg[b] == corner_neg[d2])
                & (corner_neg[a] != corner_neg[b])
            )
            if not ambiguous.any():
                continue
            sel = np.nonzero(ambiguous)[0]
            coords = tuple(cell_origin[j][sel] + center[j] * h[j] for j in range(3))
            center_negative = _values_at(p, coords) < 0.0
            votes_neg[sel] += center_negative
            votes_pos[sel] += ~center_negative
        effective = np.where(votes_neg > votes_pos, 255 - cases, cases)

        # One row per triangle: cell by cell, each cell's triangles in table order.
        counts = _TRIANGLE_COUNTS[effective]
        cell = np.repeat(np.arange(m), counts)
        tri = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
        case = effective[cell]
        edges = _TRIANGLE_EDGES[case, tri]

        # One array per axis, with the float operations, in order, of
        # start + t * step, (p2 - p1) * h, np.cross and a row sum on (T, 3) rows.
        flat = np.ascontiguousarray(corner_values).reshape(-1)  # corner-major, m per corner
        points = []
        for k in range(3):
            edge = edges[:, k]
            va = flat[_EDGE_A[edge] * m + cell]
            vb = flat[_EDGE_B[edge] * m + cell]
            t = va / (va - vb)
            points.append([_EDGE_START[j][edge] + t * _EDGE_STEP[j][edge] for j in range(3)])
        p1, p2, p3 = points
        a0, a1, a2 = ((p2[j] - p1[j]) * h[j] for j in range(3))
        b0, b1, b2 = ((p3[j] - p1[j]) * h[j] for j in range(3))
        c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        areas.append(0.5 * np.sqrt((c0 * c0 + c1 * c1) + c2 * c2))
        if want_triangles:
            origin = [cell_origin[j][cell] for j in range(3)]
            triangles.append(np.column_stack(
                [origin[j] + q[j] * h[j] for q in (p1, p2, p3) for j in range(3)]
            ))
            order_keys.append(case.astype(np.intp) * _TRIANGLE_EDGES.shape[1] + tri)

    total = math.fsum(itertools.chain.from_iterable(a.tolist() for a in areas))
    tri_array = None
    if want_triangles:
        # Triangles come case by case (ascending), then triangle by triangle
        # of the case's table, then cell by cell in row-major order.
        tri_array = np.empty((0, 9))
        if triangles:
            order = np.argsort(np.concatenate(order_keys), kind="stable")
            tri_array = np.concatenate(triangles)[order]
    return total, crossed, tri_array


def marching_cubes_area(
    p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False
) -> MeasureEstimate:
    """Summed triangle area of the isosurface on an N**3 cell grid.

    With `keep_mesh`, the triangles of the same pass come back as `mesh`.
    """
    _check_input(p, box, 3, resolution)
    total, crossed, triangles = _march_cubes(p, box, resolution, want_triangles=keep_mesh)
    return MeasureEstimate(
        value=total,
        method=MARCHING_CUBES,
        resolution=resolution,
        cells_with_sign_change=crossed,
        mesh=triangles,
    )


def marching_cubes_triangles(p: Polynomial, box: Box, resolution: int) -> np.ndarray:
    """Extracted triangles as rows (x1, y1, z1, x2, y2, z2, x3, y3, z3)."""
    return marching_cubes_area(p, box, resolution, keep_mesh=True).mesh


def write_mesh_csv(stream: TextIO, primitives: np.ndarray, dimension: int) -> None:
    """Dump extracted primitives (one per row) for external plotting."""
    if dimension == 2:
        header = "x1,y1,x2,y2"
    elif dimension == 3:
        header = "x1,y1,z1,x2,y2,z2,x3,y3,z3"
    else:
        raise ValueError("mesh dumps exist only for dimensions 2 and 3")
    stream.write(header + "\n")
    for row in primitives:
        stream.write(",".join(repr(float(v)) for v in row) + "\n")
