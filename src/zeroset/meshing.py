"""Direct measure estimates for a polynomial zero set, through one entry,
`measure`, for d = 1..3, plus mesh dumps: an exact root count in d=1, and
one table-driven marching kernel for d=2 and d=3, which sums segment lengths
(marching squares) or triangle areas (marching cubes).  `check_measure`
holds every rule `measure` enforces, so a caller can check its input before
any work; `crofton.check_crofton` does the same for the axis-line estimates.

Vertex values are computed in double precision from the exact polynomial.
An exact zero at a grid vertex counts as positive, so the sign predicate is
simply ``value < 0``.  Crossings are placed by linear interpolation along
sign-change edges; the resolution is the accuracy knob.

Cells are scanned in blocks (16**2 or 8**3 cells).  A block certificate
bounds p over each block by interval arithmetic on its terms, plus a
float-error margin that covers the rounding of that enclosure and of every
vertex value in the block; it trusts np.power to 4 ulp, since libm and SIMD
pow are not exactly rounded.  Blocks whose enclosure stays on one side of
zero by more than the margin hold no sign change and are never evaluated.
The vertex values of the other blocks are evaluated in batches into reused
buffers of about 512 KiB, term by term in the same order everywhere, from
the same factors as a whole-grid evaluation, so they are bit-identical to
it.  Only crossed cells (corners of both signs) are kept, with their corner
values, one run per batch of blocks in no set order, and the runs are
marched in chunks of up to `_MARCH_CELLS` cells.  The scan thus costs in
proportion to the blocks near the zero set, and both meshes past it in
proportion to the crossed cells.  A grid of up to 255**2 or 39**3 cells
(1 MiB of vertex buffers) is evaluated whole, in one run, without blocks or
certificate (`_scan_whole`); no larger vertex grid is ever built.

Determinism: segment lengths and triangle areas are derived from local cell
coordinates, and their sum is exact and rounded once (`ExactSum`, equal to
math.fsum), so it depends on neither the order nor the batches of the
cells, and repeated runs and symmetric inputs reproduce bit-identical
totals.  A kept mesh is sorted once, by key and then by flat cell index:
squares by (case, flipped cells first, segment), cubes by (effective case,
triangle).

Cases: a cell's case code is one weighted sum of its corner signs.  A
square is the bottom face of a cube, and both follow one rule: a cell with
ambiguous faces (diagonally alternating corner signs) samples the
polynomial at those face centers, where a square's one face is the square
itself.  When most centers are negative, the cell takes the table entry of
the complementary case, 15 - c for squares and 255 - c for cubes, which
crosses the same edges.  Two kernels then compute the same floats.  The
flat kernel (`_march_batch`) looks up each primitive vertex's edge in
tables indexed by case, for slices of up to `_BATCH_CELLS` cells of any
cases.  The folded kernel (`_fold`) meshes all the cells of one case in a
chunk at once: the case fixes each vertex's edge, so t is computed once per
crossed edge and the constant coordinates fold away.  Its cost, some 15
NumPy calls per primitive of the case, pays off only on many cells, so only
cases of at least `_FOLD_CELLS` cells in the chunk are folded.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._exact_sum import ExactSum
from ._mc_tables import SEGMENTS, TRIANGLES
from .crofton import Box, GridScheme, _AxisLines, check_bound, error_factor
from .polynomial import Polynomial

# The method each dimension's estimate reports.
_METHODS = {1: "exact_count", 2: "marching_squares", 3: "marching_cubes"}


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    method: str
    resolution: int
    cells_with_sign_change: int
    # The extracted segments (d=2) or triangles (d=3), when the call kept them.
    mesh: np.ndarray | None = field(default=None, compare=False, repr=False)


def check_measure(p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False) -> None:
    """Every rule of `measure`, in order: `crofton.check_bound` (p is nontrivial
    and of `box`'s dimension), a kept mesh needs d = 2 or 3, d is 1..3, and a
    mesh (d = 2, 3) needs 2 cells per axis and float64 values.  Its coefficients
    and ends must be finite, and on each axis [a, b] the float64 nodes
    float(a) + i*h, h = float((b - a) / n), must strictly increase: h > 4u for
    u = ulp(max(|a|, |b|)) ensures it.  With |a|, |b| < 2**k, every i*h and
    node lies below 2**(k+1), where floats are at most 2u apart, so i*h is
    rounded by at most u, consecutive ones differ by more than h - 2u > 2u,
    and their sums with float(a) round to distinct floats.  Then
    reach + log2(terms) + 1 < 1023 (`_reach`) keeps every vertex value, and
    every difference of two, finite.  Bounds by the widest cell side h must
    stay below 2**1023: sides h, squared lengths 2h**2 and squared
    cross-product norms 12h**4.  The node rule keeps n below 2**52, so the
    total 5 n**d 2h**(d-1) stays below 2**670 and needs no check of its own.
    """
    check_bound(p, box)
    d = box.dimension
    if keep_mesh and d not in (2, 3):
        raise ValueError("mesh dumps exist only for dimensions 2 and 3")
    if d not in _METHODS:
        raise ValueError("direct measure estimation is available only for d <= 3")
    if d == 1:
        return
    if resolution < 2:
        raise ValueError("resolution must be at least 2 cells per axis")
    try:
        ends = [[x.numerator / x.denominator for x in interval] for interval in box.intervals]
        reach = _reach([(e, float(c)) for e, c in p.terms.items()], ends)
    except OverflowError:
        raise ValueError("a coefficient or box end is beyond the float64 range") from None
    for (w, e), (lo, hi) in zip(box.widths, ends):  # w / (e n) rounds as float((b - a) / n)
        if not w / (e * resolution) > 4 * math.ulp(max(-lo, hi)):
            raise ValueError("the box is too narrow for distinct float64 mesh nodes")
    if reach + math.log2(len(p.terms)) + 1 >= 1023:
        raise ValueError("the polynomial's values on the box pass the float64 range meshes need")
    n = math.log2(resolution)
    h = max(math.log2(w) - math.log2(e) for w, e in box.widths) - n  # log2 of the widest side
    square = 2 * h + 1 if d == 2 else 4 * h + math.log2(12)  # a squared length or norm
    if square >= 1023:
        raise ValueError("the mesh's lengths or areas on the box pass the float64 range")


def _reach(terms: list[tuple], ends: Iterable[tuple]) -> float:
    """log2 of a bound on |c| times any product of x**e factors of the
    (exponents, float c) `terms` in a box with these float `ends`."""
    magnitudes = [math.log2(max(1.0, -a, b)) for a, b in ends]
    if not any(magnitudes):  # every |x| <= 1
        return math.log2(max(1.0, *(abs(c) for _, c in terms)))
    return max(
        math.log2(max(1.0, abs(c))) + sum(map(operator.mul, e, magnitudes)) for e, c in terms
    )


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


def _evaluate(terms: list[tuple], out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``0 + t0 + t1 + ...`` in term order, each term ``factor * last`` broadcast to `out`.

    The +0.0 start turns a sum of negative zeros into +0.0.
    """
    for i, (factor, last) in enumerate(terms):
        term = factor if last is None else np.multiply(factor, last, out=tmp)
        if i:
            out += term
        else:
            np.add(term, 0.0, out=out)
    return out


def _values_at(p: Polynomial, coords: Sequence[np.ndarray]) -> np.ndarray:
    """Double-precision values of p at a flat list of points (one array per axis)."""
    out = np.empty(len(coords[0]))
    return _evaluate(_term_factors(p, coords), out, np.empty_like(out))


# Cells are scanned in blocks of _BLOCK[d] cells per axis, the fastest sizes
# measured at 2048**2 and 128**3.
_BLOCK = {2: 16, 3: 8}
# Kept blocks are evaluated in batches that fill two float vertex buffers
# of about this many bytes.
_BUFFER_BYTES = 1 << 19
# np.power is not exactly rounded in libm or SIMD loops: its results are
# trusted to 4 ulp, which is 8 roundings of relative size 2**-53.
_POW_ROUNDINGS = 8


class _Certificate:
    """Which blocks of the cell grid certainly hold no sign change.

    For a term c * x1**e1 * ... * xd**ed and a block, interval arithmetic on
    the block's node intervals encloses the term's values: x**e ranges
    between its endpoint values, or over [0, max] for an even power of an
    interval around 0.  `low` and `high` sum the terms' enclosures and S
    their largest |values|.  A block is skipped when low > margin or high <
    -margin, where margin = gamma * S + eta bounds the rounding of the
    enclosure plus that of each vertex value `_evaluate` computes in the
    block, so all those vertex values then share the enclosure's sign.  NaN
    or inf anywhere fails both tests and keeps the block.
    """

    def __init__(self, p: Polynomial, nodes: list[np.ndarray], size: int):
        d, n = len(nodes), len(nodes[0]) - 1
        monomials = sorted(p.terms)
        exponents = np.array(monomials).T[:, :, None]  # axis, term, 1
        coefficients = np.array([float(p.terms[e]) for e in monomials])[:, None]
        # A term's value and each endpoint product of its enclosure carry d
        # powers and d products, and a sum of the terms adds len(monomials) - 1
        # roundings; the margin covers two such errors.
        self.gamma = error_factor(2 * ((_POW_ROUNDINGS + 1) * d + len(monomials)))
        # Per axis, the nodes at block edges, and the least and greatest x**e
        # of each term over each block: axis, least/greatest, term, block.
        edges = np.array(nodes)[:, np.minimum(np.arange(0, n + size, size), n)]
        blocks = edges.shape[1] - 1
        ranges = np.empty((d, 2, len(monomials), blocks))
        with np.errstate(over="ignore", invalid="ignore"):
            powers = edges[:, None] ** exponents
            np.minimum(powers[..., :-1], powers[..., 1:], out=ranges[:, 0])
            np.maximum(powers[..., :-1], powers[..., 1:], out=ranges[:, 1])
            around_zero = (edges[:, None, :-1] < 0) & (edges[:, None, 1:] > 0)
            if around_zero.any():
                even = (exponents % 2 == 0) & (exponents > 0)
                ranges[:, 0][even & around_zero] = 0.0
            # Each term's c * x1**e1 over each block-row, and the ranges of
            # the other axes shaped to broadcast over (term, row, block, ...).
            self.first = np.sort(coefficients * ranges[0], axis=0)
            self.ranges = [
                r.reshape((2, len(monomials)) + (1,) * j + (blocks,) + (1,) * (d - 1 - j))
                for j, r in enumerate(ranges[1:], 1)
            ]
        # |c| times any product of a term's x**e factors stays below 2**reach
        # on the grid (log2 cannot overflow); below 2**1000 nothing overflows.
        # A power or product that underflows, even to zero, errs by less than
        # 2**-1022, and the factors after it scale that by less than
        # 2**reach; eta covers 2d such errors per term, in the vertex values
        # and in the enclosure, twice over.  So a block whose S is subnormal
        # is never skipped.
        terms = list(zip(monomials, coefficients[:, 0].tolist()))
        reach = _reach(terms, [(x[0], x[-1]) for x in nodes])
        self.eta = len(monomials) * d * 2.0 ** (reach - 1019) if reach < 1000 else np.inf

    def keep(self, rows: slice) -> np.ndarray:
        """Mask of the blocks in block-rows `rows` that may hold a sign change."""
        bounds = self.first[:, :, rows]
        bounds = bounds.reshape(bounds.shape + (1,) * len(self.ranges))  # low/high, term, block
        with np.errstate(over="ignore", invalid="ignore"):
            for ranges in self.ranges:
                products = bounds[:, None] * ranges
                products = products.reshape((4,) + products.shape[2:])
                bounds = np.empty((2,) + products.shape[1:])
                products.min(axis=0, out=bounds[0])
                products.max(axis=0, out=bounds[1])
            margin = self.gamma * np.abs(bounds).max(axis=0).sum(axis=0) + self.eta
            low, high = bounds.sum(axis=1)
            return ~((low > margin) | (high < -margin))


def _batch_blocks(d: int) -> int:
    """Blocks per batch: as many as keep both vertex buffers within _BUFFER_BYTES."""
    return max(1, _BUFFER_BYTES // (16 * (_BLOCK[d] + 1) ** d))


def _scan_whole(n: int, d: int) -> bool:
    """Whether the n**d grid is evaluated whole, without blocks or certificate.

    So it is when its vertex buffers take at most twice a batch's (up to
    255**2 or 39**3 cells): below about that size the fixed cost of the
    certificate and of gathering blocks, some 80 NumPy calls, exceeds the
    evaluation they can save.
    """
    return (n + 1) ** d * 16 <= 2 * _BUFFER_BYTES


def _sign_change(neg: np.ndarray) -> np.ndarray:
    """Mask of the cells of a vertex-sign grid whose corners are not all alike.

    The last axis of `neg` counts blocks, each with its own grid.
    """
    negatives = neg.view(np.uint8)
    for axis in range(neg.ndim - 1):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        negatives = negatives[head] + negatives[tail]
    # Between 1 and 2**d - 1 negative corners; 0 - 1 wraps to 255.
    return negatives - np.uint8(1) < np.uint8(2 ** (neg.ndim - 1) - 1)


class _BlockScan:
    """Vertex values and crossed cells of batches of blocks of `size`**d cells.

    Vertex values come from rows and columns gathered out of the term
    factors on the whole node arrays, so they are the same float operations,
    bit for bit, as a whole-grid evaluation.
    """

    def __init__(self, p: Polynomial, nodes: list[np.ndarray], corners: np.ndarray, size: int):
        d, n = len(nodes), len(nodes[0]) - 1
        self.n, self.size = n, size
        # Per term, the flat factor on the first d-1 axes and the last axis's
        # power, 1.0 for exponent 0 (the product by it is exact).
        terms = _term_factors(
            p, [x.reshape((n + 1,) + (1,) * (d - 1 - j)) for j, x in enumerate(nodes)]
        )
        self.factors = np.array([factor.reshape(-1) for factor, _ in terms])
        self.lasts = np.array(
            [np.ones(n + 1) if last is None else last.reshape(-1) for _, last in terms]
        )
        # Per vertex (cell) of a block along an axis, and per block along it:
        # the node index, clamped to the grid (whether the cell is inside it).
        starts = np.arange(0, n, size)
        self.vertices = np.minimum(np.arange(size + 1)[:, None] + starts, n)
        self.inside = np.arange(size)[:, None] + starts < n
        # Per cell of a block, in row-major order, its offset from the block's
        # first cell in the cell grid and from its first vertex in the block's
        # vertex grid; and each corner's offset from a cell's first vertex.
        self.strides = n ** np.arange(d - 1, -1, -1)
        local = np.array(np.unravel_index(np.arange(size**d), (size,) * d))
        self.cell_offsets = self.strides @ local
        self.vertex_offsets = np.ravel_multi_index(local, (size + 1,) * d)
        self.shifts = np.ravel_multi_index(corners.T, (size + 1,) * d)[:, None]
        self.buf = self.tmp = np.empty(0)

    def crossings(self, index: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Crossed cells of the blocks at `index`, which holds per axis the block coordinates.

        Returns the cells' flat indices in the n**d cell grid, in no
        particular order, and their corner values, one row per corner.  Cells
        past the grid, in blocks that overhang it, are left out.
        """
        n, size, d, m = self.n, self.size, len(index), len(index[0])
        # The block axis goes last, so that each NumPy inner loop runs over blocks.
        shape = (size + 1,) * d + (m,)
        used = math.prod(shape)
        if used > self.buf.size:
            self.buf, self.tmp = np.empty(used), np.empty(used)
        vertex = [self.vertices.take(b, axis=1) for b in index]
        head = sum(
            (v * (n + 1) ** (d - 2 - j)).reshape((1,) * j + (size + 1,) + (1,) * (d - 2 - j) + (m,))
            for j, v in enumerate(vertex[:-1])
        )
        tail = vertex[-1].reshape((1,) * (d - 1) + (size + 1, m))
        terms = zip(self.factors.take(head, axis=1)[..., None, :], self.lasts.take(tail, axis=1))
        values = _evaluate(terms, self.buf[:used].reshape(shape), self.tmp[:used].reshape(shape))
        mixed = _sign_change(values < 0.0)
        if n % size:  # the last block of an axis overhangs the grid
            for j, b in enumerate(index):
                inside = self.inside.take(b, axis=1)
                mixed &= inside.reshape((1,) * j + (size,) + (1,) * (d - 1 - j) + (m,))
        local, k = np.divmod(np.flatnonzero(mixed), m)  # cell in its block, block
        cells = (self.strides @ index * size).take(k) + self.cell_offsets.take(local)
        first = self.vertex_offsets.take(local) * m + k
        return cells, values.reshape(-1).take(first + self.shifts * m)


def _grid_crossings(p: Polynomial, nodes: list[np.ndarray], corners: np.ndarray):
    """The crossed cells of a small grid, evaluated whole, and their corner values."""
    d, n = len(nodes), len(nodes[0]) - 1
    terms = _term_factors(
        p, [x.reshape((n + 1,) + (1,) * (d - 1 - j)) for j, x in enumerate(nodes)]
    )
    out = np.empty((n + 1,) * d)
    values = _evaluate(terms, out, np.empty_like(out))
    cells = np.flatnonzero(_sign_change(values[..., None] < 0.0))
    first = np.ravel_multi_index(np.unravel_index(cells, (n,) * d), (n + 1,) * d)
    shifts = np.ravel_multi_index(corners.T, (n + 1,) * d)[:, None]
    return cells, values.reshape(-1)[first + shifts]


def _block_crossings(p: Polynomial, nodes: list[np.ndarray], corners: np.ndarray):
    """The crossed cells of the blocks `_Certificate` keeps, with their corner values.

    Yields them per batch of at most `_batch_blocks` kept blocks of one
    group of block-rows, in the order of `crossings`.
    """
    d, n = len(nodes), len(nodes[0]) - 1
    size = _BLOCK[d]
    scan = _BlockScan(p, nodes, corners, size)
    certificate = _Certificate(p, nodes, size)
    blocks = -(-n // size)
    per_row = blocks ** (d - 1)
    # The certificate handles block-rows in groups whose terms-by-blocks
    # arrays hold at most _BUFFER_BYTES / 8 each.
    group = max(1, _BUFFER_BYTES // (64 * len(scan.factors) * per_row))
    most = _batch_blocks(d)
    for row in range(0, blocks, group):
        kept = np.flatnonzero(certificate.keep(slice(row, row + group))) + row * per_row
        for first in range(0, len(kept), most):
            yield scan.crossings(np.unravel_index(kept[first : first + most], (blocks,) * d))


def _crossed_cells(p: Polynomial, nodes: list[np.ndarray], corners: np.ndarray):
    """The cells of the grid on `nodes` whose corners disagree in sign, in no
    particular order: chunks of up to _MARCH_CELLS (flat indices in the n**d
    cell grid, corner values with one row per entry of `corners`).

    A small grid (see `_scan_whole`) is evaluated whole, and a larger one
    block by block, its runs copied into buffers reused for the whole mesh:
    a chunk is gone once the next one is asked for.
    """
    d, n = len(nodes), len(nodes[0]) - 1
    if _scan_whole(n, d):
        cells, values = _grid_crossings(p, nodes, corners)
        for i in range(0, len(cells), _MARCH_CELLS):
            yield cells[i : i + _MARCH_CELLS], values[:, i : i + _MARCH_CELLS]
        return
    chunk = np.empty(_MARCH_CELLS, dtype=np.intp), np.empty((len(corners), _MARCH_CELLS))
    count = 0
    for cells, values in _block_crossings(p, nodes, corners):
        while len(cells):
            size = min(len(cells), _MARCH_CELLS - count)
            chunk[0][count : count + size] = cells[:size]
            chunk[1][:, count : count + size] = values[:, :size]
            cells, values, count = cells[size:], values[:, size:], count + size
            if count == _MARCH_CELLS:
                yield chunk
                count = 0
    if count:
        yield chunk[0][:count], chunk[1][:, :count]


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
# The axis each edge runs along: the one coordinate its crossings vary in.
_EDGE_AXIS = _EDGE_STEP.argmax(axis=0)


# The faces whose centers vote on ambiguous cells, corners in cyclic order.
_FACES = {
    2: [(0, 1, 2, 3)],
    3: [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (3, 2, 6, 7), (0, 3, 7, 4), (1, 2, 6, 5)],
}


# `_fold`'s registers: per edge e, t * h at e and (t - 1) * h at 12 + e; per
# pair p of parallel edges f < g, (t_f - t_g) * h at 24 + p; h_j at _H + j;
# then the steps' results.
_A, _B, _AXES, _STARTS = (x.tolist() for x in (_EDGE_A, _EDGE_B, _EDGE_AXIS, _EDGE_START))
_PAIRS = [(f, g) for g in range(12) for f in range(g) if _AXES[f] == _AXES[g]]
_H = 24 + len(_PAIRS)


@functools.cache
def _sides(e0: int, e: int) -> tuple:
    """Per axis j, the side (x_j(e) - x_j(e0)) * h_j between primitive vertices
    on edges e0 and e, as `_march_batch` computes it, as (sign, register).

    A vertex lies at 0.0 + t * 1.0 == t, t in [0, 1], on its edge's axis and
    at 0.0 or 1.0 on the others, so the side is the register times the
    sign's sign, up to the sign of a zero; sign 0 marks a 0 and +-2 a constant.
    """
    sides = []
    for j in range(3):
        x0, x = (None if _AXES[f] == j else _STARTS[j][f] for f in (e0, e))
        if x is None and x0 is None:  # (t_e - t_e0) * h == -((t_e0 - t_e) * h)
            sides.append((1 if e < e0 else -1, 24 + _PAIRS.index(tuple(sorted((e, e0))))))
        elif x is None or x0 is None:  # (t - x0) * h, or (x - t0) * h == -((t0 - x) * h)
            sides.append((1, 12 * (x0 == 1) + e) if x is None else (-1, 12 * (x == 1) + e0))
        else:
            sides.append((2 * int(x - x0), _H + j))
    return tuple(sides)


@functools.cache
def _primitive(primitive: tuple) -> tuple:
    """The steps (ufunc, x, y) whose last result is a segment's squared length
    or a triangle's squared cross-product norm, bit-identical to
    `_march_batch`'s; and the registers its sides read.

    x and y are registers, or negative offsets to earlier steps' results at
    the end of the registers.  Products by a constant 0 are left out and a
    component s*P - r*Q of the cross product is computed as P - Q or P + Q,
    which changes only signs of values squared afterwards.
    """
    e0, e1, *e2 = primitive
    a, b = _sides(e0, e1), _sides(e0, e2[0]) if e2 else ()
    steps, total = [], None  # total: the running sum's step
    for k, l in ((1, 2), (2, 0), (0, 1)) if b else ((0, 0), (1, 1)):
        pairs = ((a[k], b[l]), (a[l], b[k])) if b else ((a[k], a[k]),)
        products = [(p, q) for p, q in pairs if p[0] and q[0]]
        if not products:
            continue
        steps += [(np.multiply, p[1], q[1]) for p, q in products]
        if len(products) == 2:
            (p, q), (u, v) = products
            steps.append((np.subtract if p[0] * q[0] * u[0] * v[0] > 0 else np.add, -2, -1))
        if b:  # a component of the cross product, squared
            steps.append((np.multiply, -1, -1))
        if total is not None:
            steps.append((np.add, total - len(steps), -1))
        total = len(steps) - 1
    return tuple(steps), frozenset(r for s, r in a + b if s)


@functools.cache
def _plan(d: int, case: int) -> tuple:
    """How `_fold` meshes the cells of one case, which fixes its crossed edges
    and so each primitive vertex's edge: the edges, their corner rows and
    axes, the steps of each primitive (`_primitive`), whether they read a
    (t - 1) * h, and per (t_f - t_g) * h they read, the slots of f and g
    among the edges and its register."""
    edges = [e for e in range(d * 2 ** (d - 1)) if (case >> _A[e] ^ case >> _B[e]) & 1]
    rows = np.array([[_A[e], _B[e], _AXES[e]] for e in edges], dtype=np.intp).reshape(-1, 3).T
    primitives, read = [], set()
    for primitive in (SEGMENTS if d == 2 else TRIANGLES)[case]:
        steps, registers = _primitive(primitive)
        primitives.append(steps)
        read |= registers
    slot = edges.index
    pairs = [(slot(_PAIRS[r - 24][0]), slot(_PAIRS[r - 24][1]), r) for r in read if 24 <= r < _H]
    w = any(12 <= r < 24 for r in read)
    return tuple(edges), rows[:2], rows[2], tuple(primitives), w, tuple(pairs)


class _Cases:
    """The d-dimensional case tables, indexed by case code (bit i: corner i negative).

    `bits` holds each corner's bit, `faces` per case a bit per face of
    `_FACES[d]` whose corners alternate diagonally in sign, and `centers`
    per axis each face's center.  `counts` holds the primitives per case and
    `width` the most of any case; `edges` holds per vertex and per row
    case * width + slot of a primitive the vertex's edge.
    """

    def __init__(self, table: tuple, d: int):
        self.bits = 1 << np.arange(2**d)
        neg = np.arange(2 ** 2**d)[:, None] & self.bits != 0  # case, corner
        self.faces = np.zeros(2 ** 2**d, dtype=np.intp)
        for bit, (f0, f1, f2, f3) in enumerate(_FACES[d]):
            ambiguous = (neg[:, f0] == neg[:, f2]) & (neg[:, f1] == neg[:, f3])
            self.faces |= (ambiguous & (neg[:, f0] != neg[:, f1])) << bit
        self.centers = _CORNER_OFFSETS[np.array(_FACES[d]), :d].mean(axis=1).T
        self.counts = np.array([len(t) for t in table])
        self.width = int(self.counts.max())
        edges = np.array([list(t) + [(0,) * d] * (self.width - len(t)) for t in table])
        self.edges = np.ascontiguousarray(edges.reshape(-1, d).T)


_CASES = {2: _Cases(SEGMENTS, 2), 3: _Cases(TRIANGLES, 3)}
# Crossed cells are marched in chunks of up to _MARCH_CELLS.  In a chunk, the
# cases of at least _FOLD_CELLS cells go through `_fold`, in slices of at most
# _FOLD_SLICE cells, and the other cells through `_march_batch`, in slices of
# at most _BATCH_CELLS, so that the kernels' temporaries stay small.  A fold
# call has a fixed cost that only a case of many cells repays: 384 cells was
# the crossover measured on the sharpness, sphere and random fuzz meshes.
_MARCH_CELLS = 1 << 14
_FOLD_CELLS = 384
_FOLD_SLICE = 1 << 12
_BATCH_CELLS = 1024


def _march(p: Polynomial, box: Box, n: int, keep: bool):
    """Marching squares (d=2) or cubes (d=3) on the n**d cell grid of `box`.

    Returns the exactly rounded sum of the segment lengths or triangle
    areas, the number of crossed cells, and with `keep` the primitives, one
    row of d vertices (d coordinates each) per segment or triangle.
    """
    d = box.dimension
    nodes = [_node_array(a, b, n) for a, b in box.intervals]
    h = np.array([float((b - a) / n) for a, b in box.intervals])
    weights = _CASES[d].bits.astype(np.uint8)[:, None]
    crossed = 0
    total = ExactSum()
    kept = []
    for cells, corners in _crossed_cells(p, nodes, _CORNER_OFFSETS[: 2**d, :d]):
        crossed += len(cells)
        cases = (weights * (corners < 0.0)).sum(axis=0, dtype=np.uint8)
        effective = _vote(p, nodes, h, cells, cases)
        if not keep:
            total.add(_measures(h, corners, effective))
            continue
        for i in range(0, len(cells), _BATCH_CELLS):
            batch = slice(i, i + _BATCH_CELLS)
            dump = nodes, cells[batch], cases[batch]
            measures, primitives = _march_batch(h, corners[:, batch], effective[batch], dump)
            total.add(measures)
            kept.append(primitives)
    mesh = None
    if keep:
        mesh = np.empty((0, d * d))
        if kept:
            rows, keys, owners = (np.concatenate(x) for x in zip(*kept))
            mesh = rows[np.lexsort((owners, keys))]
    return total.value(), crossed, mesh


def _vote(p: Polynomial, nodes: list[np.ndarray], h: np.ndarray, cells: np.ndarray, cases):
    """The cells' effective case codes: a cell whose ambiguous faces mostly
    sample negative at their centers takes the complementary case's entry."""
    d = len(nodes)
    table = _CASES[d]
    voting = np.flatnonzero(table.faces[cases])
    if not len(voting):
        return cases
    faces = table.faces[cases[voting], None] >> np.arange(len(_FACES[d])) & 1
    which, face = np.nonzero(faces)  # voting cell, ambiguous face
    origin = _origins(nodes, cells[voting[which]])
    centers = [x + table.centers[j][face] * h[j] for j, x in enumerate(origin)]
    negative = np.where(_values_at(p, centers) < 0.0, 1.0, -1.0)
    flip = voting[np.bincount(which, negative, len(voting)) > 0]
    effective = cases.copy()
    effective[flip] = 2 ** 2**d - 1 - cases[flip]
    return effective


def _measures(h: np.ndarray, corners: np.ndarray, effective: np.ndarray) -> np.ndarray:
    """The segment lengths or triangle areas of a chunk of cells, in no set
    order; the columns of `corners` are reordered in place."""
    d, table = len(h), _CASES[len(h)]
    counts = np.bincount(effective, minlength=len(table.counts))
    common = counts >= _FOLD_CELLS
    rare = len(effective) - int(counts[common].sum())
    out, done = np.empty(int(counts @ table.counts)), 0
    if rare < len(effective):
        # The cells of rare cases first, under the code 0 no crossed cell has,
        # and then those of each common case in turn.
        key = np.where(common, np.arange(len(counts)), 0).astype(np.uint8)
        order = np.argsort(key[effective], kind="stable")
        for row in corners:  # in place, so that no second chunk is held
            row[:] = row[order]
        effective = effective[order]
        ends = (rare + np.cumsum(counts * common)).tolist()
        for case in np.flatnonzero(common).tolist():
            for start in range(ends[case] - counts[case], ends[case], _FOLD_SLICE):
                cells = corners[:, start : min(start + _FOLD_SLICE, ends[case])]
                size = table.counts[case] * cells.shape[1]
                _fold(_plan(d, case), cells, h, out[done : done + size].reshape(-1, cells.shape[1]))
                done += size
        np.sqrt(out[:done], out=out[:done])
        if d == 3:
            out[:done] *= 0.5
        corners, effective = corners[:, :rare], effective[:rare]
    for i in range(0, rare, _BATCH_CELLS):
        batch = slice(i, i + _BATCH_CELLS)
        measures, _ = _march_batch(h, corners[:, batch], effective[batch])
        out[done : done + len(measures)] = measures
        done += len(measures)
    return out


def _fold(plan: tuple, corners: np.ndarray, h: np.ndarray, out: np.ndarray) -> None:
    """Per primitive of one case (a row of `out`), the squared length (d=2) or
    squared cross-product norm (d=3) in each cell, given its corner values (a
    column of `corners`)."""
    edges, rows, axes, primitives, w, pairs = plan
    va, vb = corners[rows]
    t = np.divide(va, np.subtract(va, vb, out=vb), out=va)
    hs = h[axes, None]
    registers = [None] * _H + h.tolist()
    for f, g, r in pairs:
        registers[r] = (t[f] - t[g]) * hs[f]
    for e, side in zip(edges, np.multiply(t, hs, out=vb)):
        registers[e] = side
    if w:
        for e, side in zip(edges, np.multiply(np.subtract(t, 1.0, out=t), hs, out=t)):
            registers[12 + e] = side
    leaves = len(registers)
    for row, steps in enumerate(primitives):
        for ufunc, x, y in steps[:-1]:
            registers.append(ufunc(registers[x], registers[y]))
        ufunc, x, y = steps[-1]
        ufunc(registers[x], registers[y], out=out[row])
        del registers[leaves:]


def _march_batch(h: np.ndarray, corners: np.ndarray, effective: np.ndarray, dump=None):
    """The segment lengths or triangle areas of a batch of crossed cells, given
    their corner values and effective case codes.

    With `dump`, the (nodes, cells, case codes) of the batch, it also
    returns the primitives' rows, dump-order keys and cells.
    """
    d, m = len(h), corners.shape[1]
    table = _CASES[d]
    effective = effective.astype(np.intp)

    # One row per primitive: cell by cell, each cell's primitives in table order.
    counts = table.counts[effective]
    cell = np.repeat(np.arange(m), counts)
    slot = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
    row = effective[cell] * table.width + slot

    # Per axis, arrays by vertex (side) and primitive, with the float operations,
    # in order, of start + t * step, (q - p1) * h and the length or cross-product norm.
    edge = table.edges.take(row, axis=1)
    va = corners.take(_EDGE_A.take(edge) * m + cell)  # corner-major, m values per corner
    vb = corners.take(_EDGE_B.take(edge) * m + cell)
    t = va / (va - vb)
    points = [_EDGE_START[j].take(edge) + t * _EDGE_STEP[j].take(edge) for j in range(d)]
    sides = [(x[1:] - x[:1]) * h[j] for j, x in enumerate(points)]
    if d == 2:
        (dx,), (dy,) = sides
        measures = np.sqrt(dx * dx + dy * dy)
    else:
        (a0, b0), (a1, b1), (a2, b2) = sides
        c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        measures = 0.5 * np.sqrt((c0 * c0 + c1 * c1) + c2 * c2)
    if dump is None:
        return measures, None
    nodes, cells, cases = dump
    owner = cells[cell]
    origin = _origins(nodes, owner)
    rows = np.column_stack([origin[j] + points[j][v] * h[j] for v in range(d) for j in range(d)])
    key = row  # cubes by (effective case, triangle), squares (case, flipped first, segment)
    if d == 2:
        cases = cases.astype(np.intp)
        key = (2 * cases[cell] + (effective == cases)[cell]) * table.width + slot
    return measures, (rows, key, owner)


def _origins(nodes: list[np.ndarray], cells: np.ndarray) -> list[np.ndarray]:
    """Per axis, the first-vertex coordinate of each cell (a flat index in the n**d grid)."""
    n = len(nodes[0]) - 1
    return [x[i] for x, i in zip(nodes, np.unravel_index(cells, (n,) * len(nodes)))]


def measure(p: Polynomial, box: Box, resolution: int, keep_mesh: bool = False) -> MeasureEstimate:
    """The direct measure of p's zero set in `box`, for d = box.dimension in 1..3.

    d=1 counts the distinct roots in the interval exactly, ignores
    `resolution` and reports 1.  d=2 sums segment lengths and d=3 triangle
    areas on a `resolution`**d cell grid; with `keep_mesh`, the segments or
    triangles of the same pass come back as `mesh`, one row of d vertices
    (x1, y1, x2, y2 or x1, y1, z1, ..., z3) per primitive in global coordinates.
    """
    check_measure(p, box, resolution, keep_mesh)
    if box.dimension == 1:
        count, _ = _AxisLines(p, box, 1, GridScheme(1)).count()
        return MeasureEstimate(float(count), _METHODS[1], 1, 0)
    total, crossed, mesh = _march(p, box, resolution, keep_mesh)
    return MeasureEstimate(total, _METHODS[box.dimension], resolution, crossed, mesh)


def write_mesh_csv(stream: TextIO, primitives: np.ndarray, dimension: int) -> None:
    """Dump extracted primitives (one per row) for external plotting."""
    # Each row holds d vertices of d coordinates: x1,y1,x2,y2 or x1,y1,z1,...,z3.
    axes = "xyz"[:dimension]
    stream.write(",".join(f"{a}{i}" for i in range(1, dimension + 1) for a in axes) + "\n")
    for row in primitives:
        stream.write(",".join(repr(float(v)) for v in row) + "\n")
