"""Direct measure estimates for a polynomial zero set: exact root counts in
d=1, polyline length via marching squares in d=2, and triangulated surface
area via marching cubes in d=3.

Vertex values are computed in double precision from the exact polynomial.
An exact zero at a grid vertex counts as positive, so the sign predicate is
simply ``value < 0``.  Crossings are placed by linear interpolation along
sign-change edges; the resolution is the accuracy knob.

Marching squares computes case codes only for the cells whose corners change
sign; marching cubes builds its case grid once and then works only on those
cells.  Past the vertex grid, both cost in proportion to the crossed cells.

Determinism: segment lengths and triangle areas are derived from local cell
coordinates and reduced with math.fsum (exactly rounded, order-independent),
so repeated runs and symmetric inputs reproduce bit-identical totals.
Ambiguous marching-squares cells are resolved by the sign of the polynomial
at the cell center; marching-cubes cells with ambiguous faces switch to the
complementary triangulation when the majority of their ambiguous face
centers sample negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from ._mc_tables import EDGE_MASKS, TRIANGLES
from .crofton import Box
from .polynomial import Polynomial, TrivialPolynomialError
from .sturm import count_real_roots

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


def _vertex_grid(p: Polynomial, box: Box, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Polynomial values at all grid vertices, plus the per-axis node arrays."""
    d = box.dimension
    nodes = [_node_array(a, b, n) for a, b in box.intervals]
    powers: list[dict[int, np.ndarray]] = [{} for _ in range(d)]
    for j in range(d):
        for e in sorted({exponents[j] for exponents in p.terms}):
            powers[j][e] = nodes[j] ** e
    values = np.zeros((n + 1,) * d)
    for exponents in sorted(p.terms):
        term = float(p.terms[exponents])
        factor = np.full(1, term)
        for j, e in enumerate(exponents):
            shape = [1] * d
            shape[j] = n + 1
            factor = factor * powers[j][e].reshape(shape)
        values += factor
    return values, nodes


def _eval_points(p: Polynomial, coords: Sequence[np.ndarray]) -> np.ndarray:
    """Double-precision values of p at a flat list of points (one array per axis)."""
    out = np.zeros_like(coords[0])
    for exponents in sorted(p.terms):
        term = np.full_like(coords[0], float(p.terms[exponents]))
        for j, e in enumerate(exponents):
            if e:
                term = term * coords[j] ** e
        out += term
    return out


# ---------------------------------------------------------------------------
# d = 1: exact root count
# ---------------------------------------------------------------------------


def measure_d1(p: Polynomial, box: Box) -> MeasureEstimate:
    """Distinct-root count in the interval, reported as a real (exact)."""
    if p.is_trivial:
        raise TrivialPolynomialError("measure estimation requires a nontrivial polynomial")
    if p.dimension != 1 or box.dimension != 1:
        raise ValueError("measure_d1 requires dimension 1")
    lo, hi = box.interval(1)
    outcome = count_real_roots(p.restrict_to_line(1, ()), lo, hi)
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


def _march_squares(p: Polynomial, box: Box, n: int, want_segments: bool):
    values, nodes = _vertex_grid(p, box, n)
    (ax, bx), (ay, by) = box.intervals
    hx, hy = float((bx - ax) / n), float((by - ay) / n)
    neg = values < 0.0
    # Only cells whose corners disagree in sign get a case code.  Their flat
    # indices come in row-major order, so each case's cells keep the order
    # of a scan over the whole grid.
    c0 = neg[:-1, :-1]
    mixed = (c0 != neg[1:, :-1]) | (c0 != neg[1:, 1:]) | (c0 != neg[:-1, 1:])
    ci, cj = np.divmod(np.flatnonzero(mixed), n)
    crossed = len(ci)
    corners = (values[ci, cj], values[ci + 1, cj], values[ci + 1, cj + 1], values[ci, cj + 1])
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
            centers = _eval_points(
                p, (nodes[0][ci[sel]] + 0.5 * hx, nodes[1][cj[sel]] + 0.5 * hy)
            )
            for center_negative in (True, False):
                sub = centers < 0.0 if center_negative else ~(centers < 0.0)
                if sub.any():
                    emit(sel[sub], _SEGMENTS_2D_AMBIGUOUS[(c, center_negative)])
        else:
            emit(sel, _SEGMENTS_2D[c])

    total = math.fsum(np.concatenate(lengths)) if lengths else 0.0
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
_EDGE_CORNERS = [
    (0, 1), (1, 2), (3, 2), (0, 3), (4, 5), (5, 6), (7, 6), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7),
]
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
    values, nodes = _vertex_grid(p, box, n)
    h = np.array([float((b - a) / n) for a, b in box.intervals])
    neg = values < 0.0

    case = np.zeros((n, n, n), dtype=np.uint8)
    for i, (ox, oy, oz) in enumerate(_CORNER_OFFSETS):
        case |= neg[ox : ox + n, oy : oy + n, oz : oz + n].astype(np.uint8) << i

    mixed = (case != 0) & (case != 255)
    ci, cj, ck = np.nonzero(mixed)
    crossed = len(ci)
    if crossed == 0:
        empty = np.empty((0, 9)) if want_triangles else None
        return 0.0, 0, empty

    cases = case[ci, cj, ck]
    corner_values = [
        values[ci + ox, cj + oy, ck + oz] for ox, oy, oz in _CORNER_OFFSETS
    ]
    corner_neg = [v < 0.0 for v in corner_values]

    # Face-center rule: a cell with ambiguous faces (diagonally alternating
    # corner signs) flips to the complementary triangulation, which has the
    # same crossed edges, when most of those face centers sample negative.
    votes_neg = np.zeros(crossed, dtype=np.int8)
    votes_pos = np.zeros(crossed, dtype=np.int8)
    cell_origin = [nodes[0][ci], nodes[1][cj], nodes[2][ck]]
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
        center_negative = _eval_points(p, coords) < 0.0
        votes_neg[sel] += center_negative
        votes_pos[sel] += ~center_negative
    effective = np.where(votes_neg > votes_pos, 255 - cases, cases)

    areas: list[np.ndarray] = []
    triangles: list[np.ndarray] = []
    for c in np.unique(effective):
        sel = np.nonzero(effective == c)[0]
        mask = EDGE_MASKS[c]
        points = {}
        for e in range(12):
            if not mask & (1 << e):
                continue
            a, b = _EDGE_CORNERS[e]
            va = corner_values[a][sel]
            vb = corner_values[b][sel]
            t = va / (va - vb)
            offa, offb = _CORNER_OFFSETS[a], _CORNER_OFFSETS[b]
            points[e] = np.stack(
                [offa[j] + t * (offb[j] - offa[j]) for j in range(3)], axis=1
            )
        for e1, e2, e3 in TRIANGLES[c]:
            p1, p2, p3 = points[e1], points[e2], points[e3]
            d1 = (p2 - p1) * h
            d2 = (p3 - p1) * h
            cross = np.cross(d1, d2)
            areas.append(0.5 * np.sqrt(np.sum(cross * cross, axis=1)))
            if want_triangles:
                origin = np.stack([cell_origin[j][sel] for j in range(3)], axis=1)
                triangles.append(
                    np.concatenate(
                        [origin + p1 * h, origin + p2 * h, origin + p3 * h], axis=1
                    )
                )

    total = math.fsum(np.concatenate(areas)) if areas else 0.0
    tri_array = (
        np.concatenate(triangles) if triangles else np.empty((0, 9))
    ) if want_triangles else None
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
