"""Finite-window measurements on point sets and sequences.

Dispersion and discrepancy are computed exactly in low dimension; the
sup-type quantities (super-uniform dispersion, visibility, vacant strips,
heavy boxes) are certified lower bounds obtained from seeded deterministic
searches whose sampling parameters are recorded in the returned reports.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import check_limit
from .generators import (MERGE_DECIMALS, LatticeSheet, PointSetSpec,
                         SequenceSpec, _matmul, enumerate_points)
from .geometry import (AlignedBox, CellIndex, RotatedBox, Segment, Window,
                       _probes, cartesian, halton, point_array, run_pairs,
                       sample_probes)

# Work budget for exact discrepancy, in slab-scan units: one unit is one
# x-bucket of one (y_a, y_b) slab, so a 2-D call costs at most
# (m(m+1)/2)(n+2) units for m y-levels and n points, the cost of scanning
# every slab.  The traced unitcube run of perfbench (200 points, 4.14M
# units in 0.174 s on a 2-vCPU Xeon) measured 2.38e7 units/s when every
# slab was scanned, so a call at the cap runs at most about 3 minutes.
MAX_DISCREPANCY_WORK = 4 * 10 ** 9
# Grid nodes of the d >= 2 dispersion bound.  A cover pass peaks at 5
# bytes a node under tracemalloc (the int32 difference table and the mask),
# 1.3-1.4 MB at 2^18 nodes and 200 points, and 1.6-2.0 MB at 10^4 points.
# At 2^18 nodes and d = 2-4 on a 2-vCPU Xeon, one cover pass took 1.8-5 ms
# for 200 points and 5-17 ms for 10^4, and `dispersion` took 4-12 ms and
# 14-57 ms.
DISPERSION_GRID_BUDGET = 2 ** 18
# Grid nodes whose exact nearest distance each round of `_grid_bound`
# computes, and the (node, point) or (point, corner) pairs one block of its
# brute-force distances or of its cover table may hold.
GRID_BOUND_SAMPLE = 64
GRID_BOUND_CELLS = 2 ** 16
# Cells (twist rows x core indices x d) per block of the SUD core bounds,
# and the most (twist rows x span indices x d) that one batch of the
# best-first scan may hold beyond its first row.  A block holds
# max(1, SUD_BLOCK_CELLS // (core * d)) rows whatever N is, and each of its
# three buffers (values, floors, gaps) takes 512 KB, so all three of a
# thread's buffers stay in its core's 2 MB L2 cache.  At N = 2^14, m_max 64
# and 256 twists (a core of 16,320 indices, 4 rows a block) on 2 Xeon vCPUs
# with 2 MB of L2 each, a d = 1 `sud_estimate` on one thread took a median
# of 38 ms at 2^15 and 2^16 cells, 40 ms at 2^17 and 46 ms at 2^18, against
# 65 ms for the former 127-row blocks of 2^21 cells, whose 16 MB arrays ran
# from DRAM (24 interleaved calls each).  A `sud` command's call took 223
# minor page faults, against 1,924.  Two such calls, on two threads, took
# 58 ms at 2^15 cells, 56 ms at 2^16, 61-69 ms at 2^17 and 63-71 ms at 2^18
# (75-84 ms on one thread at 2^16; 15 interleaved runs each).
SUD_BLOCK_CELLS = 2 ** 16
# Work and array budgets of `sud_estimate`, checked before anything is
# drawn.  A window of N values counts N units for d = 1, and SUD_GRID_UNITS
# per element of its grid bound (3^d N tiled points and 4096 nodes, fewer
# than 3^d N where the grid has more) for d >= 2.  On 2 Xeon vCPUs a d = 1 scan of every twist at every shift
# took 9.3 ns a unit (N = 2^14, 65 shifts, 256 twists), and a d = 2 or 3
# window 0.26-0.94 us an element (N = 1 to 4096), so the cap runs about
# 20 s.  The sweep's SUD counts 2.7e8 units at d = 1 and 9.2e7 at d = 2.
# The twists and the span of a run hold d * (xi_count + 2N) values.  With
# one twist row a block (N >= 2^18), a d = 1 call peaked at 24-29 bytes a
# value on one thread and 32 on two (tracemalloc), 0.54 GB at the cap,
# since each thread has its own core buffers; a d = 2 call peaked at 118
# bytes a value, most of it the grid bound's 3^d tiled copies, and
# MAX_SUD_WORK holds d = 2 to about 10^7 values, 1.2 GB.
MAX_SUD_WORK = 2 ** 31
SUD_GRID_UNITS = 100
MAX_SUD_VALUES = 2 ** 24
# Cells (slabs x x-buckets) per block of the exact 2-D discrepancy scan.
# A scan holds at most 12 arrays of one block, 8 bytes a cell (1.5 MB),
# besides O(n) for the points; 2^14 cells ran faster than 2^12 or 2^16.
DISCREPANCY_BLOCK_CELLS = 2 ** 14
# Level spacing of the coarse grid of the exact 2-D discrepancy: the slabs
# with both ends on every 4th y-level (and the top one) are scanned first,
# and they bound every other slab.  At 200 uniform points that is 1,378 of
# 20,503 slabs.
DISCREPANCY_COARSE_STEP = 4
# Heavy-box anchors counted together, and the cells (anchors x sorted
# slab union) one block of them may hold.
HEAVY_BLOCK_ANCHORS = 32
HEAVY_BLOCK_CELLS = 2 ** 20
# One-float widenings of a heavy box whose bounds round short of eps.  One
# sufficed wherever three growth steps fell short: 111 of 1,304 seeded
# inputs (1-40 points on sevenths, near the unit square's edges or
# uniform; eps 0.01 to 0.2, with and without rotations), and 50 uniform
# points at every eps from 1e-16 to 1e-31.
INFLATE_NUDGES = 4
# Rows of the u-grid that udt_check builds at a time.
UDT_CHUNK_ROWS = 2 ** 16
# Share of the sub-window points whose projections give every strip
# direction its first, coarse bound (a fixed seeded draw, not a stride: the
# enumerated points are sorted, so a strided subset is itself lattice-like
# and bounds nothing).  On the three-grid a quarter ran fastest at r = 100
# and r = 200; 1/8 and 1/16 pruned almost no direction.
STRIP_COARSE_SHARE = 0.25
# Sorted rows whose neighbour searches and distances `_min_gap` takes as
# one block, on `parallel.worker_count()` threads.  On the three-grid at
# r = 200 (543,016 points; 2 Xeon vCPUs, two threads, medians of 21
# interleaved runs) it took 86 ms at 2^12 rows, 67 at 2^13, 63 at 2^14, 59
# at 2^15 and 57 at 2^16, against 78 ms for the former lookup over the
# whole key array, and peaked at 17.4 MB under tracemalloc up to 2^15 and
# 19.4 MB at 2^16 (33.8 MB before).  2^14 stays, because perfbench's sweep,
# whose peak its output check sets, read 92.6 MB there and 93.2 MB at 2^16.
MIN_GAP_BLOCK_ROWS = 2 ** 14
# Offset lines (directions x offsets) that `find_empty_tube` may scan.  On
# a 2-vCPU Xeon a line took 0.11-0.56 ms at r = 50 and about 1.1 ms at
# r = 200 (Peres, three-grid and D2; eps 0.01 and 0.1; 2,000 offsets in
# each of 2 directions), so the cap runs about 10 s to 2 minutes.  A line
# holds no array of its own, so memory does not grow with the lines.
MAX_TUBE_LINES = 10 ** 5
# Work of the rotations that `heavy_box` samples: each rotation counts its
# points plus HEAVY_ROTATION_BASE.  On a 2-vCPU Xeon a rotation took 0.1-1.1
# ms for 2 points, 0.8-4.1 ms for 20-60, 6-12 ms for 200 and 48-118 ms for
# 2,000 (eps 0.001 to 0.5), and 1.3 s for 20,000 at eps 0.01.  The worst,
# 58-66 us per unit, is at 2,000 and 20,000 points, which sample anchors
# and sweep both axes, so the cap runs about 1 minute.
MAX_HEAVY_ROTATION_WORK = 10 ** 6
HEAVY_ROTATION_BASE = 32


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DispersionReport:
    """Largest empty-cube radius of a point set in the unit cube."""

    N: int
    value: float
    exact: bool
    grid_resolution: float | None = None

    def to_json(self) -> dict:
        return {"N": self.N, "value": self.value, "exact": self.exact,
                "grid_resolution": self.grid_resolution}


@dataclass(frozen=True, eq=False)
class VisibilityReport:
    """Outcome of probing a point set with segments of one length."""

    epsilon: float
    L: float
    segments_tested: int
    hit_fraction: float
    worst_segment: Segment | None = None

    def to_json(self) -> dict:
        worst = None
        if self.worst_segment is not None:
            worst = {"base": list(self.worst_segment.base),
                     "direction": list(self.worst_segment.direction),
                     "length": self.worst_segment.length}
        return {"epsilon": self.epsilon, "L": self.L,
                "segments_tested": self.segments_tested,
                "hit_fraction": self.hit_fraction, "worst_segment": worst}


@dataclass(frozen=True, eq=False)
class StripReport:
    """Widest point-free strip found along the candidate directions."""

    direction: np.ndarray
    width: float
    window_radius: float

    def to_json(self) -> dict:
        return {"direction": list(np.asarray(self.direction, dtype=float)),
                "width": self.width, "window_radius": self.window_radius}


@dataclass(frozen=True, eq=False)
class SUDEstimate:
    """Lower bound for the shift-and-twist uniform dispersion at one N."""

    N: int
    m_samples: list
    xi_samples: int
    value: float

    def to_json(self) -> dict:
        return {"N": self.N, "m_samples": list(self.m_samples),
                "xi_samples": self.xi_samples, "value": self.value}


def _cube_points(points) -> np.ndarray:
    """The points as a nonempty (N, d) array in the unit cube."""
    arr = point_array(points, unit_cube=True)
    if arr.shape[0] == 0:
        raise ValueError("at least one point is required")
    return arr


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

def dispersion(points) -> DispersionReport:
    """Sup-norm dispersion of points in [0,1]^d.

    d=1 is exact (boundary distances and half the largest interior gap);
    d>=2 is a grid lower bound whose error is at most grid_resolution/2.
    """
    arr = _cube_points(points)
    n, d = arr.shape
    if d == 1:
        u = np.sort(arr[:, 0])
        gap = float(np.max(np.diff(u))) if n > 1 else 0.0
        value = max(float(u[0]), float(1.0 - u[-1]), gap / 2.0)
        return DispersionReport(N=n, value=value, exact=True)
    m = max(2, int(round(DISPERSION_GRID_BUDGET ** (1.0 / d))))
    return DispersionReport(N=n, value=_grid_bound(arr, [np.linspace(0.0, 1.0, m)] * d),
                            exact=False, grid_resolution=1.0 / (m - 1))


def _grid_bound(pts: np.ndarray, axes) -> float:
    """The largest sup-norm distance from a node of the grid ``axes`` (one
    ascending array per coordinate; the nodes are their Cartesian product)
    to its nearest point.

    A node's distance to a point is max_k |a_k - p_k|, each term one rounded
    subtraction, so its nearest distance is exact in any order of work.  The
    bound is first the largest nearest distance over a strided subgrid of
    about GRID_BOUND_SAMPLE nodes (8 an axis at d = 2).  Every node that
    `_covered` marks within the bound of a point has nearest distance at
    most the bound, so only the nodes left need their own distance: a
    strided sample of at most GRID_BOUND_SAMPLE of them raises the bound,
    which then covers each sampled node, until no node is left.  The result
    is the float a KD-tree query of every node (``p=inf``) returns.
    """
    shape = tuple(a.size for a in axes)
    per_axis = max(2, round(GRID_BOUND_SAMPLE ** (1.0 / len(shape))))
    flat = np.ravel_multi_index(
        np.ix_(*[np.arange(0, m, -(-m // per_axis)) for m in shape]), shape).ravel()
    best = 0.0
    while flat.size:
        nodes = np.stack([a[i] for a, i in zip(axes, np.unravel_index(flat, shape))],
                         axis=1)
        best = max(best, float(np.max(_nearest_sup(nodes, pts))))
        free = np.flatnonzero(~_covered(axes, pts, best))
        flat = free[::-(-free.size // GRID_BOUND_SAMPLE)] if free.size else free
    return best


def _nearest_sup(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sup-norm distance from each node to its nearest point, by brute force
    over blocks of at most GRID_BOUND_CELLS (node, point) pairs."""
    out = np.empty(nodes.shape[0])
    cols = [np.ascontiguousarray(c) for c in pts.T]
    step = max(1, GRID_BOUND_CELLS // pts.shape[0])
    buf = np.empty((2, min(step, nodes.shape[0]), pts.shape[0]))
    for lo in range(0, nodes.shape[0], step):
        block = nodes[lo:lo + step]
        dist, term = buf[:, :block.shape[0]]
        np.abs(np.subtract(block[:, :1], cols[0], out=dist), out=dist)
        for k in range(1, len(cols)):
            np.abs(np.subtract(block[:, k:k + 1], cols[k], out=term), out=term)
            np.maximum(dist, term, out=dist)
        np.min(dist, axis=1, out=out[lo:lo + step])
    return out


def _first_index(a: np.ndarray, guess: np.ndarray, after) -> np.ndarray:
    """Per point, the first index i of the axis a at which after(a[i]) holds.

    after maps one axis value per point to whether that point's index is
    reached; along a it is false and then true.  guess is within a few
    steps of the answer."""
    i = guess
    last = a.size - 1
    while True:
        down = (i > 0) & after(a[np.maximum(i - 1, 0)])
        up = (i <= last) & ~after(a[np.minimum(i, last)])
        if not (down.any() or up.any()):
            return i
        i = i + up - down


def _covered(axes, pts: np.ndarray, r: float) -> np.ndarray:
    """The flat mask of grid nodes within sup-norm distance r >= 0 of a point.

    On each axis a, the nodes with |a_i - p| <= r (one rounded subtraction,
    monotone in a_i) form one index range [lo, hi).  ``searchsorted`` at
    p - r and p + r finds it up to rounding, and each end is then moved
    until the float distances decide it, so the mask is exact.  Each point
    adds its box of ranges to an int32 difference table at the box's 2^d
    corners, with ``np.add.at`` and ``np.subtract.at`` (a corner past the
    grid's end changes no node), and one ``cumsum`` per axis turns the table
    into per-node counts of covering points.  Each partial sum counts the
    points of a slab of boxes, so no entry passes the number of points.
    """
    shape = tuple(a.size for a in axes)
    d = len(shape)
    ends = []
    for a, p in zip(axes, pts.T):
        lo = _first_index(a, np.searchsorted(a, p - r),
                          lambda v: (v >= p) | (p - v <= r))
        hi = _first_index(a, np.searchsorted(a, p + r, side="right"),
                          lambda v: (v > p) & (v - p > r))
        ends.append((lo, hi))
    table = np.zeros(math.prod(shape), dtype=np.int32)
    step = max(1, GRID_BOUND_CELLS // 2 ** d)
    for start in range(0, pts.shape[0], step):
        for corner in itertools.product((0, 1), repeat=d):
            idx = [ends[k][c][start:start + step] for k, c in enumerate(corner)]
            inside = np.all([i < m for i, m in zip(idx, shape)], axis=0)
            add = np.subtract.at if sum(corner) % 2 else np.add.at
            # An int32 one keeps ufunc.at on its fast path, which does not
            # cast; a Python 1 made these calls about 20 times slower (97
            # against 4.6 us for 800 corners into 2^18 nodes).
            add(table, np.ravel_multi_index([i[inside] for i in idx], shape),
                np.int32(1))
    grid = table.reshape(shape)
    for k in range(d):
        np.cumsum(grid, axis=k, out=grid)
    return table > 0


def _toroidal_dispersion_rows(s: np.ndarray, gaps=None) -> np.ndarray:
    """Toroidal 1-D dispersion of each row of ascending fractional parts in
    [0,1).  The gaps s[:, 1:] - s[:, :-1], np.diff's floats, go into
    ``gaps`` when it is given."""
    wrap = 1.0 - s[:, -1] + s[:, 0]
    if s.shape[1] > 1:
        gaps = np.subtract(s[:, 1:], s[:, :-1], out=gaps)
        return np.maximum(np.max(gaps, axis=1), wrap) / 2.0
    return wrap / 2.0


def _toroidal_dispersion(pts: np.ndarray) -> float:
    """Toroidal sup-norm dispersion grid bound of one point set in [0,1)^d, d >= 2.

    The grid bound is taken over the 3^d copies of the points shifted by
    -1, 0 or 1 per axis.  Every node lies within 1/2 of a copy, per axis
    the nearest shift of its point, whose coordinates then lie in
    [-1/2, 3/2]; a copy with a coordinate more than 1/2 + 1e-9 outside
    [0, 1] is farther than 1/2 from every node in [0, 1), so dropping it
    leaves every nearest distance as it is.
    """
    n, d = pts.shape
    offsets = cartesian(*[np.array([-1.0, 0.0, 1.0])] * d)
    tiled = (pts[None, :, :] + offsets[:, None, :]).reshape(-1, d)
    tiled = tiled[np.all(np.abs(tiled - 0.5) <= 1.0 + 1e-9, axis=1)]
    m = max(2, int(round(4096 ** (1.0 / d))))
    return _grid_bound(tiled, [np.linspace(0.0, 1.0, m, endpoint=False)] * d)


def _window_dispersions(w: np.ndarray) -> np.ndarray:
    """Toroidal dispersion of each row of w, a (rows, n, d) array of points
    in [0,1)^d: exact for d = 1, the grid bound of `_toroidal_dispersion`
    for d >= 2."""
    if w.shape[2] == 1:
        return _toroidal_dispersion_rows(np.sort(w[:, :, 0], axis=1))
    return np.array([_toroidal_dispersion(pts) for pts in w])


# ---------------------------------------------------------------------------
# Discrepancy
# ---------------------------------------------------------------------------

def _buckets(xs: np.ndarray):
    """Sorted unique values of xs plus 0 and 1, and the bucket of each x."""
    vals, inv = np.unique(np.concatenate([xs, [0.0, 1.0]]), return_inverse=True)
    return vals, inv[:xs.size]


def _slab_extremes(vals: np.ndarray, scale: np.ndarray, n: int,
                   closed: np.ndarray, open_: np.ndarray):
    """Best overfull and underfull x-interval deviations of each y-slab.

    Row r of `closed` (`open_`) counts the points of the closed (open) slab
    at or left of each x-bucket `vals`; the slab's boxes have area
    scale[r] * x-length.  Overfull boxes are closed and underfull ones
    open, with faces on bucket values.  A bucket its slab has no point in
    is a critical value only when it is 0 or 1.  Inside [0, 1] such a
    bucket never wins: products with scale >= 0 are monotone, so its
    neighbours dominate it, and alone it gives (c - v) + (v - c) = 0.
    Outside [0, 1] it would stretch a box past the cube, so it is dropped.
    """
    sv = scale[:, None] * vals
    outside = (vals < 0.0) | (vals > 1.0)

    def ends(cum):
        # up = (points at or left) / n - area, down = area - (points left) / n.
        frac = cum / n
        up = frac - sv
        down = np.empty_like(up)
        down[:, 0] = sv[:, 0]
        np.subtract(sv[:, 1:], frac[:, :-1], out=down[:, 1:])
        if outside.any():
            empty = np.empty(cum.shape, dtype=bool)
            empty[:, 0] = cum[:, 0] == 0
            np.equal(cum[:, 1:], cum[:, :-1], out=empty[:, 1:])
            empty &= outside
            up[empty] = -np.inf
            down[empty] = -np.inf
        return up, down

    up, down = ends(closed)
    over = np.max(up + np.maximum.accumulate(down, axis=1), axis=1)
    up, down = ends(open_)
    under = np.max(down[:, 1:] + np.maximum.accumulate(up, axis=1)[:, :-1], axis=1)
    return over, under


def _discrepancy_1d(xs: np.ndarray, n: int) -> float:
    # The scan is linear in the critical values, of which there are at most n + 2.
    check_limit("critical intervals", n + 2, MAX_DISCREPANCY_WORK)
    vals, bucket = _buckets(xs)
    cum = np.cumsum(np.bincount(bucket, minlength=vals.size))[None, :]
    over, under = _slab_extremes(vals, np.ones(1), n, cum, cum)
    return max(float(over[0]), float(under[0]), 0.0)


class _Slabs:
    """The slabs [yv[a], yv[b]] (y-levels a <= b) of 2-D points, scanned by
    `_slab_extremes` as gathers from one prefix table, and the coarse slabs
    that bound them.

    S[l, x] counts the points with level < l and bucket <= x.  The closed
    slab (a, b) has the running counts S[b+1] - S[a] over the x-buckets,
    the open slab S[max(b, a+1)] - S[a+1] (none when b <= a + 1), and its
    boxes have area (yv[b] - yv[a]) * x-length.  These are the integers and
    the float that running sums over the levels give, and `_slab_extremes`
    works row by row, so a slab's over and under are the same floats
    whichever slabs share its call.

    The coarse grid G holds every DISCREPANCY_COARSE_STEP-th level from 0
    and the top level m - 1.  ``over_c[i, j]`` and ``under_c[i, j]`` hold
    the scanned over and under of the coarse slab (G[i], G[j]) for i <= j,
    and 0 for i > j, which is the empty slab.
    """

    def __init__(self, pts: np.ndarray, n: int):
        yv, level = _buckets(pts[:, 1])
        m = yv.size
        check_limit("critical-box work units", m * (m + 1) / 2 * (n + 2),
                    MAX_DISCREPANCY_WORK)
        xv, bucket = _buckets(pts[:, 0])
        k = xv.size
        # Under the work guard n < 1.4e9, so every count fits in int32.
        counts = np.bincount(level * k + bucket, minlength=m * k).reshape(m, k)
        self.table = np.zeros((m + 1, k), dtype=np.int32)
        np.cumsum(counts.cumsum(axis=1), axis=0, out=self.table[1:])
        del counts  # freed before the coarse scan's blocks are built
        self.xv, self.yv, self.n = xv, yv, n
        self.step = max(1, DISCREPANCY_BLOCK_CELLS // k)
        self.grid = np.append(np.arange(0, m - 1, DISCREPANCY_COARSE_STEP), m - 1)
        self.floor = np.searchsorted(self.grid, np.arange(m), side="right") - 1
        self.ceil = np.searchsorted(self.grid, np.arange(m))
        g = self.grid.size
        self.over_c, self.under_c = np.zeros((g, g)), np.zeros((g, g))
        rows, cols = np.triu_indices(g)
        for r in range(0, rows.size, self.step):
            i, j = rows[r:r + self.step], cols[r:r + self.step]
            self.over_c[i, j], self.under_c[i, j] = self.extremes(self.grid[i],
                                                                  self.grid[j])

    def extremes(self, a: np.ndarray, b: np.ndarray):
        """Over and under of the slabs (a[r], b[r])."""
        S = self.table
        return _slab_extremes(self.xv, self.yv[b] - self.yv[a], self.n,
                              S[b + 1] - S[a], S[np.maximum(b, a + 1)] - S[a + 1])

    def bounds(self, a: np.ndarray, b: np.ndarray):
        """Upper bounds on over and under of the slabs (a[r], b[r]).

        Take a slab with height h = yv[b] - yv[a] (the float the scan
        uses), closed and open point counts C and O, and its inner coarse
        slab I, ceil_G(a) to floor_G(b), and outer one U, floor_G(a) to
        ceil_G(b).  I is the empty slab (over = under = 0, no height, no
        points) when ceil_G(a) > floor_G(b).  I lies inside the slab and U
        contains it, and h_I <= h <= h_U because float subtraction is
        monotone.  Let W = xv[-1] - xv[0] >= 1 be the width of the buckets
        and E = W - 1 how far they reach past [0, 1] (at most 2e-12 by the
        input check).  In exact arithmetic

            over  <= min(over(I) + (C - C_I)/n,  over(U) + (h_U - h) W),
            under <= min(under(I) + h W - h_I,   under(U) + (O_U - O)/n).

        Moving a box's y-faces to those of I or U keeps its x-faces, so
        its count changes by at most the points between the old and new
        y-faces, C - C_I or O_U - O, and its area by at most the change of
        height times its width w <= W.  An overfull box loses points moving
        in and area moving out; an underfull open box loses area moving in
        and gains points moving out.  That gives the four terms, with
        h W - h_I = (h - h_I) W + h_I E, where h_I E pays for the faces
        below.

        The moved box must also be one the coarse scan counts.
        `_slab_extremes` drops a bucket outside [0, 1] that its slab holds
        no point in.  U holds every point of the slab, so it keeps every
        face the slab keeps, but I may drop one.  A closed box of I with
        such a face holds the points of the box shrunk past that bucket,
        on less area, so the shrunk box dominates it.  Shrinking stops at
        a kept face (the buckets 0 and 1 always are) or at an empty box,
        worth 0, and over(I) >= 0 (the zero-width box at 0).  An open box
        of I that moves a dropped face to the nearest kept bucket towards
        [0, 1] keeps or loses points and loses at most h_I E of area over
        both faces, and under(I) >= 0 (two adjacent buckets in [0, 1]).

        In floats every term is O(1): counts / n <= 1, heights and widths
        at most 1 + 2e-12.  So a scanned over or under is within 2^-49 of
        its exact value, and a bound within 2^-48, and a slab's scanned
        value is at most its float bound + 2^-47.  The margin of 2^-30 in
        `_discrepancy_2d` covers that with room to spare.
        """
        yv, grid, n, width = self.yv, self.grid, self.n, self.xv[-1] - self.xv[0]
        total = self.table[:, -1]
        h = yv[b] - yv[a]
        i, j = self.ceil[a], self.floor[b]
        lo, hi = grid[i], grid[j]
        h_in = np.maximum(yv[hi] - yv[lo], 0.0)
        closed = total[b + 1] - total[a] - np.maximum(total[hi + 1] - total[lo], 0)
        over = self.over_c[i, j] + closed / n
        under = self.under_c[i, j] + (h * width - h_in)
        i, j = self.floor[a], self.ceil[b]
        lo, hi = grid[i], grid[j]
        opened = (total[np.maximum(hi, lo + 1)] - total[lo + 1]
                  - (total[np.maximum(b, a + 1)] - total[a + 1]))
        over = np.minimum(over, self.over_c[i, j] + (yv[hi] - yv[lo] - h) * width)
        under = np.minimum(under, self.under_c[i, j] + opened / n)
        return over, under


def _discrepancy_2d(pts: np.ndarray, n: int) -> float:
    """Scan the slabs [y_a, y_b] of the y-levels coarse to fine.

    `_Slabs` scans every slab with both ends on its coarse grid, and their
    max sets ``best``.  Then, one block of lower levels at a time, every
    other slab gets its bound (`_Slabs.bounds`), and the slabs whose
    bound + 2^-30 exceeds the running ``best`` are scanned, largest bound
    first, in blocks of at most DISCREPANCY_BLOCK_CELLS cells (one slab
    when a slab is longer).  A block of lower levels spans at most
    DISCREPANCY_BLOCK_CELLS / 8 (level, level) pairs (one lower level when
    it has more), whose bounds take about 20 arrays of 8 bytes a pair, a
    fifth of one scan block.

    The result is the max of 0 and every slab's over and under, bit for
    bit.  A scanned slab gives the floats that a scan of every slab gives.
    A slab that is not scanned has a float value at most its bound +
    2^-47, below the bound + 2^-30 that was at most ``best`` when it was
    passed over, and ``best`` is a max of scanned values.  So no slab left
    out could have raised the max.
    """
    slabs = _Slabs(pts, n)
    m = slabs.yv.size
    best = max(0.0, float(slabs.over_c.max()), float(slabs.under_c.max()))
    on_grid = slabs.floor == slabs.ceil
    levels = max(1, DISCREPANCY_BLOCK_CELLS // (8 * m))
    for a0 in range(0, m, levels):
        a, b = np.nonzero(np.triu(np.ones((min(levels, m - a0), m), dtype=bool), a0))
        a += a0
        fine = ~(on_grid[a] & on_grid[b])
        a, b = a[fine], b[fine]
        bound = np.maximum(*slabs.bounds(a, b)) + 2.0 ** -30
        live = np.flatnonzero(bound > best)
        live = live[np.argsort(-bound[live], kind="stable")]
        for r in range(0, live.size, slabs.step):
            rows = live[r:r + slabs.step]
            rows = rows[bound[rows] > best]
            if rows.size == 0:
                break
            over, under = slabs.extremes(a[rows], b[rows])
            best = max(best, float(over.max()), float(under.max()))
    return best


def discrepancy(points) -> float:
    """Exact extreme discrepancy over aligned boxes in [0,1]^d (d <= 2).

    Overfull deviations are attained on closed boxes with faces through
    point coordinates; underfull ones on open boxes, both enumerated exactly.
    """
    arr = _cube_points(points)
    n, d = arr.shape
    if d == 1:
        return _discrepancy_1d(arr[:, 0], n)
    if d == 2:
        return _discrepancy_2d(arr, n)
    raise ValueError("exact discrepancy is implemented for dimensions 1 and 2")


# ---------------------------------------------------------------------------
# Super-uniform dispersion
# ---------------------------------------------------------------------------

def _xi_samples(count: int, d: int, seed: int) -> np.ndarray:
    """Half low-discrepancy grid, half seeded uniform; prefix-stable in count."""
    n_grid = count // 2
    parts = []
    if n_grid:
        parts.append(halton(n_grid, d))
    n_rand = count - n_grid
    if n_rand:
        parts.append(np.random.default_rng(seed).random((n_rand, d)))
    return np.concatenate(parts)


def _m_samples(m_max: int) -> list:
    """Every shift up to m_max when there are at most 65, else the 64
    shifts round(j * m_max / 63) in integers.  The quotient is never a
    tie (2j * m_max is even and 63 (2i + 1) is odd), and m_max / 63 > 1,
    so the shifts run strictly up from 0 to m_max."""
    if m_max <= 64:
        return list(range(m_max + 1))
    return [(2 * j * m_max + 63) // 126 for j in range(64)]


def _shift_groups(ms: list, N: int) -> list:
    """Runs of consecutive shifts whose first and last differ by at most N // 2.

    The windows m <= j < m+N of a run lie in one span of at most 1.5N
    indices, so one sort of the span serves every shift of the run, and
    every window keeps the run's core, its last N - N // 2 >= 1 indices.
    """
    groups = [[ms[0]]]
    for m in ms[1:]:
        if m - groups[-1][0] <= N // 2:
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _shift_windows_max(w: np.ndarray, offsets, N: int) -> float:
    """Max over rows of w (twist rows x span indices x d) and offsets lo of
    the toroidal dispersion of the window of indices lo <= j < lo+N.

    For d = 1 each row is sorted once.  A window keeps the sorted entries
    whose index lies in it, exactly N per row, which are the floats a sort
    of that window alone gives, so the gaps and the value are the same to
    the last bit.  For d >= 2 each window gets its own grid bound.
    """
    if w.shape[2] > 1:
        return max(float(np.max(_window_dispersions(w[:, lo:lo + N])))
                   for lo in offsets)
    w = w[:, :, 0]
    order = np.argsort(w, axis=1)
    s = np.take_along_axis(w, order, axis=1)
    best = 0.0
    for lo in offsets:
        keep = (order >= lo) & (order < lo + N)
        rows = s[keep].reshape(w.shape[0], N)
        best = max(best, float(np.max(_toroidal_dispersion_rows(rows))))
    return best


def _twist(vs: np.ndarray, idx: np.ndarray, xis: np.ndarray, out=None,
           tmp=None) -> np.ndarray:
    """w_j = (v_j - xi*j) mod 1, j in idx, with v_j the rows of vs, for every
    twist row xi, as a (twists, indices, d) array; into ``out`` with
    ``tmp`` for the floors when they are given.  The mod is t - floor(t),
    t = v_j - xi*j: the same float as np.mod(t, 1.0), which rounds the same
    exact value once, and +0.0 for -0.0 and integers.  Every step is
    elementwise, so a value's bits depend on its own v_j, j and xi alone."""
    w = np.multiply(xis[:, None, :], idx[None, :, None], out=out)
    np.subtract(vs, w, out=w)
    w -= np.floor(w, out=tmp)
    return w


def _core_bounds(vs: np.ndarray, idx: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """`_window_dispersions` of `_twist`(vs, idx, xis), to the last bit.

    The twists go in blocks of max(1, SUD_BLOCK_CELLS // vs.size) rows
    through buffers allocated once: the values and, for d = 1, their floors
    and gaps.  For d = 1 each block is sorted in place, so a small block's
    passes stay in the cache, and it allocates only arrays of one float a
    row; the blocks go round-robin to `parallel.worker_count()` threads,
    and thread t's blocks use slot t of the buffers.  For d >= 2 a block's
    floors are freed before its grid bounds, whose many small numpy calls
    hold the interpreter lock, so its blocks run on this thread: a d = 2
    `sud_estimate` at N = 256 with 128 twists took 274 ms on one thread and
    276 ms on two."""
    n, d = vs.shape
    count = xis.shape[0]
    rows = min(count, max(1, SUD_BLOCK_CELLS // vs.size))
    bound = np.empty(count)
    if d > 1:
        w = np.empty((rows, n, d))
        for b in range(0, count, rows):
            k = min(rows, count - b)
            bound[b:b + k] = _window_dispersions(_twist(vs, idx, xis[b:b + k], w[:k]))
        return bound
    blocks = -(-count // rows)
    workers = min(parallel.worker_count(), blocks)
    slots = [(np.empty((rows, n, 1)), np.empty((rows, n, 1)), np.empty((rows, n - 1)))
             for _ in range(workers)]

    def block(i):
        w, tmp, gaps = slots[i % workers]
        b = i * rows
        k = min(rows, count - b)
        s = _twist(vs, idx, xis[b:b + k], w[:k], tmp[:k])[:, :, 0]
        s.sort(axis=1)
        bound[b:b + k] = _toroidal_dispersion_rows(s, gaps[:k])

    parallel.run_in_order(lambda _: None, block, blocks, workers)
    return bound


def _run_dispersion_max(vs: np.ndarray, idx: np.ndarray, shifts: list,
                        N: int, xis: np.ndarray, best: float) -> float:
    """Max of best and, over twists xi and the shifts m of one run, the
    toroidal dispersion of the window {w_j : m <= j < m+N} of `_twist`'s
    w_j, j in idx.

    Each twist first gets only an upper bound, the dispersion of its core:
    the indices [span, N) (span = shifts[-1] - shifts[0]) that every window
    of the run keeps (see `sud_estimate` for why it bounds them).  The
    twists are then visited best bound first, ties by row, in batches of
    1, 2, 4, ... up to max(1, SUD_BLOCK_CELLS // vs.size) rows; each batch
    drops the rows whose bound is at most the best value so far, and
    `_shift_windows_max` scans the others over every shift of the run,
    their values recomputed over the whole span.  The search stops at the
    first bound that cannot win (best-first branch and bound, Land and
    Doig, 1960).  The core of a run of one shift is its window, so its
    bound is its value.
    """
    span = shifts[-1] - shifts[0]
    offsets = [m - shifts[0] for m in shifts]
    bound = _core_bounds(vs[span:N], idx[span:N], xis)
    if span == 0:
        return max(best, float(np.max(bound)))
    cap = max(1, SUD_BLOCK_CELLS // vs.size)
    order = np.argsort(-bound, kind="stable")
    start, size = 0, 1
    while start < order.size and bound[order[start]] > best:
        batch = order[start:start + size]
        batch = batch[bound[batch] > best]
        best = max(best, _shift_windows_max(_twist(vs, idx, xis[batch]), offsets, N))
        start, size = start + size, min(2 * size, cap)
    return best


def sud_estimate(seq: SequenceSpec, N: int, m_max: int, xi_count: int,
                 seed: int) -> SUDEstimate:
    """Lower bound for the uniform dispersion of {v_{k+m} - xi*(k+m)}, k < N.

    Maximizes the toroidal dispersion of the N fractional-part vectors over
    sampled shifts m and twists xi (xi matters only mod 1).  The shift-m set
    is the window m <= j < m+N of the single sequence v_j - xi*j, so the
    sequence is evaluated once over each span of `_shift_groups`, one span
    at a time.  For d = 1 each twist's core is sorted once, and its span
    only if the twist is scanned.

    Most twists need only their core's value.  The core of a group,
    the indices [span, N) with span = shifts[-1] - shifts[0], is kept by
    every window of the group, and its toroidal dispersion bounds every
    window's from above.  For d = 1, adding points can only split gaps: a
    window's gap between two core values lies inside a core gap, and float
    subtraction is monotone, so it is no longer; a gap below the least or
    above the greatest core value is no longer than the core's wrap gap
    1 - max + min, because w - floor(w) puts every value in [0, 1]; and the
    window's own wrap gap is no longer than the core's, since its max is
    no smaller and its min no larger.  For d >= 2 the grid bound takes, at
    each grid node, the sup-norm distance to the nearest point, which a
    superset can only lower, and a point's distance to a node is the same
    float in every set.  So a twist whose core bound is at most the best
    value so far cannot change the result, and its windows are scanned
    only where the bound is larger.  The best value only ever holds a
    window's value, so the result is exactly that of a scan of every
    (m, xi).  A run spans at most N // 2, so no core is empty.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if xi_count < 1:
        raise ValueError("xi_count must be at least 1")
    # Indices below m_max + N are cast to int64, and Tsokanos adds 2 to them.
    check_limit("sequence indices (m_max + N)", m_max + N, 2 ** 62)
    ms = _m_samples(m_max)
    d = seq.dim
    per_window = N if d == 1 else SUD_GRID_UNITS * (3 ** d * N + 4096)
    work = len(ms) * xi_count * per_window
    check_limit(f"work units of {len(ms)} shifts x {xi_count} twists", work, MAX_SUD_WORK)
    check_limit("values of twists and spans", d * (xi_count + 2 * N), MAX_SUD_VALUES)
    xis = _xi_samples(xi_count, d, seed)
    best = 0.0
    for shifts in _shift_groups(ms, N):
        idx = np.arange(shifts[0], shifts[-1] + N, dtype=np.int64)
        with np.errstate(over="ignore"):
            vs = seq.extended_values(idx)
        if not np.all(np.isfinite(vs)):
            raise ValueError(f"sequence values from index {shifts[0]} are not all finite")
        best = _run_dispersion_max(vs, idx, shifts, N, xis, best)
    return SUDEstimate(N=int(N), m_samples=ms, xi_samples=int(xi_count),
                       value=best)


# ---------------------------------------------------------------------------
# Visibility probing
# ---------------------------------------------------------------------------

def _line_box(lo: np.ndarray, hi: np.ndarray, dirs: np.ndarray, closed: bool = False):
    """(enter, leave) per line: the line t*dir lies in its open box for
    enter < t < leave (closed box and ends with ``closed``), empty when
    enter >= leave.  Rows of ``lo`` and ``hi`` are box bounds minus each
    line's base, which every caller subtracts itself; ``dirs`` has one row
    per line or one for all.  A 0 (or -0) entry of dir holds the whole line
    when 0 lies strictly between its bounds (weakly with ``closed``), and
    none of it otherwise: the slab test of Kay and Kajiya (1986).  The axes
    are folded in order, as a max (min) over the last axis takes them for
    d <= 8 (signed zeros too), without numpy's per-row cost of a reduction."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = lo / dirs
        b = hi / dirs
    enter = np.minimum(a, b)
    leave = np.maximum(a, b)
    flat = dirs == 0.0
    if np.any(flat):
        inside = (lo <= 0.0) & (hi >= 0.0) if closed else (lo < 0.0) & (hi > 0.0)
        enter = np.where(flat, np.where(inside, -np.inf, np.inf), enter)
        leave = np.where(flat, np.where(inside, np.inf, -np.inf), leave)
    t_in, t_out = enter[..., 0], leave[..., 0]
    for k in range(1, enter.shape[-1]):
        t_in = np.maximum(t_in, enter[..., k])
        t_out = np.minimum(t_out, leave[..., k])
    return t_in, t_out


def _candidate_scores(cand: np.ndarray, bases: np.ndarray, dirs: np.ndarray,
                      eps: float) -> np.ndarray:
    """Earliest parameter at which each candidate point starts blocking.

    For candidate p against the line base + t*dir, the blocked set
    {t : sup-norm(base + t*dir - p) < eps} is the open interval (t_lo, t_hi)
    of the line in the box (p - base) -+ eps; the score is t_lo when the
    interval is nonempty and reaches past t=0, else +inf.  A probe of
    length L is hit by p exactly when score < L.  A zero score is +0.0
    (``t_lo + 0.0``), so a tie with -0.0 cannot depend on the scoring order.
    """
    b = cand - bases
    t_lo, t_hi = _line_box(b - eps, b + eps, dirs)
    valid = (t_lo < t_hi) & (t_hi > 0.0)
    return np.where(valid, t_lo + 0.0, np.inf)


# Candidate rows (columns x box stencil) per chunk of the lattice column walk
# and of the unit-step march, as many as one march call scored before the
# walk (4096 probes x a 5x5 stencil).  The walk holds a chunk as one 0.8 MB
# (stencil x columns x probes) plane per axis, and a full chunk peaked at
# 16-22 MB (see MAX_WALK_ROWS).
PROBE_KERNEL_ROWS = 4096 * 25
# Columns per probe in the walk's first round; each round doubles it up to
# the cap.  Most probes are hit within a few columns, a miss walks all of
# its about L*|B^-1 d|_max columns.
WALK_FIRST_COLUMNS = 2
WALK_MAX_COLUMNS = 64
# Rows that one probe's walk over one sheet is sure to score: its column
# box times the columns of its first round and those that the widening of
# its band adds (see `_ColumnWalk`).  On 2 Xeon vCPUs the walk scored
# 6.8e6-1.4e7 rows/s, and a first round took 160-210 bytes a row (Z^2 at eps
# 1e3 to 4e4, the Peres forest at L_max 1e11), so a probe at the cap costs
# up to about 0.15 s and 220 MB a sheet.  The benchmark's walks count 6 rows
# a probe, eps 1e4 on Z^2 counts 1.2e5 and the Peres forest at L_max 1e11
# 1.5e5; at L_max 1e12 it counts 5.5e6 to 1.5e7, and the walk ran past 30 s.
MAX_WALK_ROWS = 2 ** 20
# The longest period of residue classes that the walk's skip tries: the
# denominators of the rational slopes that `sample_probes` draws.
SKIP_MAX_PERIOD = 8


def _walk_stencils(k: int, d: int) -> np.ndarray:
    """Offsets {0..k-1}^(d-1) placed on every axis but a, indexed
    [coordinate, offset, a]."""
    grid = cartesian(*[np.arange(k, dtype=float)] * (d - 1))
    return np.stack([np.insert(grid, a, 0.0, axis=1).T for a in range(d)], axis=2)


class _ColumnWalk:
    """The column walk of every probe over one lattice sheet.

    In the sheet's coordinates y = B^-1 (x - shift) a probe is the line
    y(t) = y0 + t*u with u = B^-1 dir, and a point within sup-norm eps of
    x(t) lies within r_i = eps * sum_j |B^-1_ij| of y(t) on every axis i.
    Along the dominant axis a = argmax |u_i| the band |y_a(t) - c| < r_a
    meets the integer columns c one after another; column j (counted from
    the first column the probe meets) is entered at ``entry(j)``, and while
    in it y(t) +- r sweeps an integer box of the other axes.  A point of
    column j blocks only inside that band, so its score is at least
    entry(j).

    r is widened by 1e-9 * (1 + r + |y0| + horizon * |u|) on each axis: far
    above the rounding of y (a few ulps of |y| times the condition number
    of B) and of the scoring kernel's bounds, so every blocker stays inside
    its column's box.  Up to horizons near 10^8 the widening is below one
    lattice spacing; beyond, it adds columns that hold no blocker, whose
    cost MAX_WALK_ROWS bounds.

    A miss along a rational slope would walk every column up to its
    horizon, so before each round at WALK_MAX_COLUMNS ``skip`` jumps over
    columns whose box provably holds no integer on some off axis i.  In
    exact arithmetic column j's box is y0 + (start + j - r_a - pos) u / speed
    plus the offsets, so q columns on it moves by q*sigma_i, sigma_i =
    u_i / speed: an integer plus delta_i = q*sigma_i - round(q*sigma_i).
    Take the float box [lo, hi] of column done + r, r < q, exactly as
    ``score`` computes it, with no integer in [lo - g, hi + g] for a margin
    g.  Then column done + r + k*q stays empty on axis i while k*|delta_i|
    is below the gap, less g, on the side the box drifts to (every k when
    delta_i = 0).  A class is empty while any off axis is; the dominant
    axis always holds its column.  The jump is q times the fewest blocks
    over the q classes, for the best q <= SKIP_MAX_PERIOD (Sos 1958 and
    Swierczkowski 1958: a probe that leaves a box-wide gap over many
    columns has a slope near p/q with small q), and it never passes the
    first column entered after min(first, horizon).

    g is 1e-9 * (1 + r_a + |y0| + horizon * |u|) (largest entries).  It
    covers the float error of ``score``'s box at both columns, a few ulps
    of that scale for |t| below the horizon, and the error of k * delta,
    under 2^-50 * k*q for k*q columns below the horizon, with room to
    spare.  So every skipped column's float box holds no integer: the
    walk would have scored no point there, and ``first`` below the
    horizon is the same bit for bit.

    y0, u, lo_off and hi_off are (d, n) arrays, one contiguous row per
    lattice axis, and every step works one axis at a time on planes whose
    last axis runs over the probes: numpy runs a reduction or broadcast
    once per row of its last axis, and with that axis d = 2 long the
    per-row cost was most of the walk's time.  Each step is exact, so every
    first hit is the same float.

    The walk holds only its live probes, in order; ``ids`` maps each back
    to its probe index.  ``keep`` drops the others from every per-probe
    array at once, so ``entry``, ``bounds``, ``skip`` and ``score`` work on
    contiguous slices and gather nothing per call.
    """

    PER_PROBE = ("ids", "y0", "u", "lo_off", "hi_off", "speed", "axis", "sgn",
                 "pos", "r_a", "start", "done", "margin")

    def __init__(self, sheet: LatticeSheet, eps: float, bases: np.ndarray,
                 dirs: np.ndarray, horizons: np.ndarray):
        n, d = bases.shape
        inv = sheet.inverse
        self.sheet = sheet
        self.ids = np.arange(n)
        # The products keep their row form, which a transposed product may
        # not round alike; only their results are transposed.
        self.y0 = np.ascontiguousarray(((bases - sheet.shift) @ inv.T).T)
        self.u = np.ascontiguousarray((dirs @ inv.T).T)
        # An eps near the float range overflows r or the sweep, and inf * 0
        # reads NaN: such a walk needs more rows than a float counts.
        with np.errstate(over="ignore"):
            r = eps * np.abs(inv).sum(axis=1)[:, None]
        abs_y0, abs_u = np.abs(self.y0), np.abs(self.u)
        rp = r + 1e-9 * (1.0 + r + abs_y0 + horizons * abs_u)
        # The dominant axis a = argmax |u_i|, the first of equal ones.
        self.speed = abs_u.max(axis=0)
        self.axis = np.zeros(n, dtype=np.intp)
        for i in range(d - 1, -1, -1):
            self.axis[abs_u[i] == self.speed] = i
        dominant = self.axis * n + np.arange(n)   # flat indices of (a, probe)
        self.sgn = np.sign(np.take(self.u, dominant))
        self.pos = self.sgn * np.take(self.y0, dominant)
        self.r_a = np.take(rp, dominant)
        # Offsets of the box from y at the column entry: the band spans
        # t in [entry, entry + 2 r_a / speed], plus r on either side.
        with np.errstate(over="ignore", invalid="ignore"):
            sweep = (2.0 * self.r_a / self.speed) * self.u
        self.lo_off = np.minimum(sweep, 0.0) - rp
        self.hi_off = np.maximum(sweep, 0.0) + rp
        # A bound on the stencil k^(d-1) of ``score``, to size the chunks.
        width = self.hi_off - self.lo_off
        np.put(width, dominant, 0.0)
        # Every probe scores its first round, and one that round does not
        # stop walks the 2w columns that the widening w = r_a - r of its
        # band adds before its entry reaches t = 0.
        with np.errstate(over="ignore", invalid="ignore"):
            box = (np.floor(width.max()) + 2.0) ** (d - 1)
            work = box * (WALK_FIRST_COLUMNS
                          + np.ceil(2.0 * np.max(self.r_a - np.take(r, self.axis))))
        check_limit("rows a probe of a column walk", np.inf if np.isnan(work) else work,
                    MAX_WALK_ROWS)
        self.rows_per_column = int(box)
        # Column j of a probe is c = sgn * (start + j).
        self.start = np.ceil(self.pos - self.r_a)
        self.done = np.zeros(n)
        # The gap that ``skip`` leaves between a box and the integers.
        self.margin = 1e-9 * (1.0 + self.r_a + abs_y0.max(axis=0)
                              + horizons * self.speed)

    def keep(self, live: np.ndarray):
        """Drop the probes where ``live`` is False, keeping the others' order."""
        if not live.all():
            kept = np.flatnonzero(live)
            for name in self.PER_PROBE:
                a = getattr(self, name)
                setattr(self, name, np.take(a, kept, axis=a.ndim - 1))

    def entry(self, j, s=slice(None)) -> np.ndarray:
        return (self.start[s] + j - self.r_a[s] - self.pos[s]) / self.speed[s]

    def bounds(self, j: np.ndarray, s=slice(None)):
        """The float box y(entry(j)) + [lo_off, hi_off] of the columns ``j``
        before it is rounded to integers.  Column j[c, p] belongs to live
        probe p of the slice ``s``; lo and hi are (d, columns, probes)
        arrays."""
        y_in = self.y0[:, None, s] + self.entry(j, s) * self.u[:, None, s]
        return y_in + self.lo_off[:, None, s], y_in + self.hi_off[:, None, s]

    def skip(self, limit: np.ndarray):
        """Advance ``done`` of the live probes over columns proved empty.

        ``limit`` caps each probe's jump at the first column entered after
        it.  For each q <= SKIP_MAX_PERIOD the columns split into q residue
        classes; every block of q columns moves a class's box by an integer
        plus delta = q*sigma - round(q*sigma) on each axis (see the class
        docstring), so a box that holds no integer stays empty for as many
        blocks as its gap on the side it drifts to allows.
        """
        lo, hi = self.bounds(self.done + np.arange(SKIP_MAX_PERIOD)[:, None])
        m = np.floor(hi)
        left = lo - m - self.margin
        right = m + 1.0 - hi - self.margin
        empty = (left > 0.0) & (right > 0.0)
        empty &= (np.arange(empty.shape[0])[:, None] != self.axis)[:, None]
        sigma = self.u / self.speed
        jump = np.zeros(self.done.size)
        for q in range(1, SKIP_MAX_PERIOD + 1):
            delta = (q * sigma - np.rint(q * sigma))[:, None]
            room = np.where(delta > 0.0, right[:, :q], left[:, :q])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                blocks = np.floor(room / np.abs(delta)) + 1.0
            blocks = np.where(empty[:, :q], blocks, 0.0).max(axis=0)
            jump = np.maximum(jump, q * blocks.min(axis=0))
        end = np.floor(limit * self.speed + self.r_a + self.pos - self.start) + 1.0
        self.done += np.minimum(jump, np.maximum(end - self.done, 0.0))

    def score(self, s: slice, columns: int, eps: float,
              bases: np.ndarray, dirs: np.ndarray, first: np.ndarray):
        """Lower ``first`` over the next ``columns`` columns of the live
        probes in the slice ``s``."""
        d = bases.shape[1]
        j = self.done[s] + np.arange(columns)[:, None]
        lo, hi = self.bounds(j, s)
        lo = np.ceil(lo)
        hi = np.floor(hi)
        axis = self.axis[s]
        on_axis = (np.arange(d)[:, None] == axis)[:, None]
        col = self.sgn[s] * (self.start[s] + j)
        lo = np.where(on_axis, col, lo)
        hi = np.where(on_axis, col, hi)
        k = int((hi - lo).max()) + 1
        # (d, stencil, columns, probes): one plane of offsets per coordinate.
        zs = lo[:, None] + np.take(_walk_stencils(k, d), axis, axis=2)[:, :, None]
        inside = np.flatnonzero((zs <= hi[:, None]).all(axis=0))
        owner = np.take(self.ids[s], inside % axis.size)
        # A lattice point must have the same coordinates, hence the same
        # score, on every path: LatticeSheet.points never multiplies one row.
        pts = self.sheet.points(np.stack([np.take(z, inside) for z in zs], axis=1))
        np.minimum.at(first, owner, _candidate_scores(
            pts, np.take(bases, owner, axis=0), np.take(dirs, owner, axis=0), eps))


def _walk_lattice_sheets(sheets, eps: float, bases: np.ndarray,
                         dirs: np.ndarray, horizons: np.ndarray,
                         first: np.ndarray):
    """Lower ``first`` to the least score of every lattice blocker below the horizon.

    Every probe walks the columns of every sheet (see ``_ColumnWalk``) in
    order of entry and stops on a sheet when its next column is entered
    after min(first, horizon).  The sheets advance in joint rounds, so a hit
    on one sheet ends the walk on the others.  ``first`` only falls and a
    walk's columns only advance, so a probe that stops on a sheet never
    resumes there: each walk drops it for good.
    """
    walks = [_ColumnWalk(s, eps, bases, dirs, horizons) for s in sheets]
    guard = 1e-9 * (1.0 + horizons)
    columns = WALK_FIRST_COLUMNS

    def entered(walk):
        ids = walk.ids
        limit = np.minimum(first[ids], horizons[ids]) + guard[ids]
        live = walk.entry(walk.done) <= limit
        walk.keep(live)
        return limit[live]

    while True:
        moved = False
        for walk in walks:
            limit = entered(walk)
            if columns == WALK_MAX_COLUMNS and limit.size:
                walk.skip(limit)
                entered(walk)
            n = walk.ids.size
            if not n:
                continue
            moved = True
            chunk = max(1, PROBE_KERNEL_ROWS // (columns * walk.rows_per_column))
            for lo in range(0, n, chunk):
                walk.score(slice(lo, lo + chunk), columns, eps, bases, dirs, first)
            walk.done += columns
        if not moved:
            return
        columns = min(2 * columns, WALK_MAX_COLUMNS)


def _march_sheets(sheets, eps: float, bases: np.ndarray, dirs: np.ndarray,
                  lengths: np.ndarray, first: np.ndarray):
    """Lower ``first`` by marching waypoints spaced 1 apart along each probe.

    Every point within sup-norm eps of the probe lies within eps + 1/2 of
    some waypoint, so the candidates each sheet lists around each waypoint
    cover every blocker up to the horizon.
    """
    n_probe, d = bases.shape
    reach = eps + 0.5 + 1e-6
    guard = (eps + reach) * math.sqrt(d) + 1e-9
    horizons = np.ceil(lengths)
    alive = np.arange(n_probe)
    t = 0.0
    while alive.size:
        waypoints = bases[alive] + t * dirs[alive]
        for sheet in sheets:
            per = sheet.near_rows(waypoints, reach)
            check_limit("candidate rows a waypoint", per, MAX_WALK_ROWS)
            chunk = max(1, int(PROBE_KERNEL_ROWS // per))
            for start in range(0, alive.size, chunk):
                sel = alive[start:start + chunk]
                cand, rows = sheet.candidates_near(waypoints[start:start + chunk], reach)
                np.minimum.at(first, sel[rows], _candidate_scores(
                    cand, bases[sel][rows], dirs[sel][rows], eps))
        t += 1.0
        alive = alive[(horizons[alive] >= t) & (first[alive] > t - guard)]


def _probe_first_hits(spec: PointSetSpec, eps: float, bases: np.ndarray,
                      dirs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per probe, the least blocking score below its horizon ceil(length).

    The minimum runs over every point of the set whose score (see
    ``_candidate_scores``) is below ceil(length); it is +inf when there is
    none.  A probe is hit exactly when the value is below its length.
    Lattice sheets are walked column by column in lattice coordinates;
    the other sheets are marched in unit steps.
    """
    horizons = np.ceil(lengths)
    first = np.full(bases.shape[0], np.inf)
    sheets = spec.sheets()
    lattice = [s for s in sheets if isinstance(s, LatticeSheet)]
    rest = [s for s in sheets if not isinstance(s, LatticeSheet)]
    if lattice:
        _walk_lattice_sheets(lattice, eps, bases, dirs, horizons, first)
    if rest:
        _march_sheets(rest, eps, bases, dirs, lengths, first)
    first[first >= horizons] = np.inf
    return first


def _check_epsilon(epsilon: float):
    """Refuse an epsilon that is not a positive finite number (NaN too)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")


def _visibility_report(spec: PointSetSpec, epsilon: float, bases: np.ndarray,
                       dirs: np.ndarray, lengths: np.ndarray,
                       segment_at) -> VisibilityReport:
    """Hit statistics of the probes; ``segment_at(i)`` gives probe i as a
    ``Segment``, built only for the worst miss."""
    first = _probe_first_hits(spec, epsilon, bases, dirs, lengths)
    hits = first < lengths
    worst = None
    if not np.all(hits):
        misses = np.flatnonzero(~hits)
        worst = segment_at(int(misses[np.argmax(first[misses])]))
    return VisibilityReport(epsilon=float(epsilon), L=float(np.max(lengths)),
                            segments_tested=int(bases.shape[0]),
                            hit_fraction=float(np.mean(hits)), worst_segment=worst)


def visibility_from_segments(spec: PointSetSpec, epsilon: float,
                             segments) -> VisibilityReport:
    """Hit statistics of explicit probe segments against a point set."""
    _check_epsilon(epsilon)
    if not segments:
        raise ValueError("at least one probe segment is required")
    bases = np.asarray([s.base for s in segments], dtype=float)
    dirs = np.asarray([s.direction for s in segments], dtype=float)
    lengths = np.asarray([s.length for s in segments], dtype=float)
    return _visibility_report(spec, epsilon, bases, dirs, lengths,
                              segments.__getitem__)


def check_visibility(spec: PointSetSpec, epsilon: float, L: float, count: int,
                     window: Window, seed: int) -> VisibilityReport:
    """Probe the set with `count` seeded segments of length L based in the window.

    A probe hits when some forest point comes within sup-norm epsilon of it.
    The report equals that of ``visibility_from_segments`` on
    ``sample_segments(window, L, count, seed)``.
    """
    _check_epsilon(epsilon)
    if L < 0:
        raise ValueError("L must be nonnegative")
    bases, rows, dirs, lengths = _probes(window, L, count, seed)
    return _visibility_report(spec, epsilon, bases, dirs, lengths,
                              lambda i: Segment(bases[i], rows[i], L))


def _grid_estimate(first: np.ndarray, L_max: float) -> float:
    """Smallest length on the grid {L_max * 2^-j} above every first hit."""
    threshold = float(np.max(first))
    if threshold >= L_max:
        return math.inf
    level = L_max
    for _ in range(60):
        if level / 2.0 <= threshold:
            break
        level /= 2.0
    return level


def estimate_visibility(spec: PointSetSpec, epsilon, L_max: float,
                        count: int, window: Window, seed: int):
    """Smallest length on the grid {L_max * 2^-j} at which all probes hit.

    Returns +inf when some probe of length L_max still misses.  The scan
    computes each probe's first blocking parameter once, so the returned
    grid value is consistent with check_visibility on the same seed.

    ``epsilon`` is one value, which gives one estimate, or a sequence,
    which gives a list of estimates in its order.  Every epsilon is checked
    before the probes are drawn, and one draw serves them all: the draw
    depends only on the window, L_max, count and seed.
    """
    single = np.ndim(epsilon) == 0
    epsilons = [epsilon] if single else list(epsilon)
    for eps in epsilons:
        _check_epsilon(eps)
    if L_max <= 0:
        raise ValueError("L_max must be positive")
    estimates = []
    if epsilons:
        bases, dirs, lengths = sample_probes(window, L_max, count, seed)
        estimates = [_grid_estimate(_probe_first_hits(spec, eps, bases, dirs,
                                                      lengths), L_max)
                     for eps in epsilons]
    return estimates[0] if single else estimates


# ---------------------------------------------------------------------------
# Empty tubes and vacant strips
# ---------------------------------------------------------------------------

def _unit_directions(directions, dim: int) -> list:
    """Each direction divided by its Euclidean norm.

    Refuses a direction of the wrong length, or one whose norm is not a
    positive finite number: a zero, NaN or infinite entry, or a vector
    whose norm underflows or overflows.  A lone number is one direction.
    """
    out = []
    for raw in [directions] if isinstance(directions, float) else directions:
        vec = np.asarray(raw, dtype=float)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec)) if vec.shape == (dim,) else math.nan
        if not (math.isfinite(norm) and norm > 0.0):
            raise ValueError(f"direction {raw!r} must be a finite nonzero "
                             f"{dim}-vector")
        out.append(vec / norm)
    return out


def _orthonormal_complement(direction: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.column_stack([direction, np.eye(direction.size)]))
    return q[:, 1:direction.size]


def _line_gap_profile(pts: np.ndarray, base: np.ndarray, direction: np.ndarray,
                      eps: float, t0: float, t1: float):
    """Unblocked gaps and merged blocked intervals of a clipped line.

    Each point blocks the open t-interval where the line passes within
    sup-norm eps of it; gaps partition [t0, t1] minus the blocked union.
    """
    if pts.shape[0]:
        b = pts - base
        t_lo, t_hi = _line_box(b - eps, b + eps, direction)
        t_lo = np.maximum(t_lo, t0)
        t_hi = np.minimum(t_hi, t1)
        keep = t_lo < t_hi
        ivals = np.column_stack([t_lo[keep], t_hi[keep]])
    else:
        ivals = np.empty((0, 2))
    merged = []
    for lo_v, hi_v in ivals[np.argsort(ivals[:, 0])] if ivals.size else []:
        if merged and lo_v <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi_v)
        else:
            merged.append([lo_v, hi_v])
    gaps = []
    cursor = t0
    for lo_v, hi_v in merged:
        if lo_v > cursor:
            gaps.append((cursor, lo_v - cursor))
        cursor = max(cursor, hi_v)
    if t1 > cursor:
        gaps.append((cursor, t1 - cursor))
    return gaps, merged


def find_empty_tube(spec: PointSetSpec, epsilon: float, window: Window,
                    directions, offsets_per_direction: int):
    """Longest sub-segment of the offset-line family avoiding all points by eps.

    Returns (segment, length); the segment keeps sup-norm distance >= eps
    from every point of the set within the window.

    Each base is built with one product per offset, and one closed
    `_line_box` call clips a direction's lines to the window.  With a base
    on a face an end may be -0.0 where a per-axis clip gave +0.0, which
    moves no reported float: a base, centre + product, is never -0.0 as
    (lo + hi)/2 never is, so base + t*direction and each gap length are the
    same for either zero.
    """
    _check_epsilon(epsilon)
    if offsets_per_direction < 1:
        raise ValueError("offsets_per_direction must be at least 1")
    dirs = _unit_directions(directions, window.dim)
    if not dirs:
        raise ValueError("at least one direction is required")
    lines = len(dirs) * offsets_per_direction
    check_limit("offset lines", lines, MAX_TUBE_LINES)
    pad = epsilon + 1e-6
    pts = enumerate_points(spec, Window(window.lo - pad, window.hi + pad))
    center = (window.lo + window.hi) / 2.0
    n = window.dim
    # A point farther than eps * sqrt(n) from a line in Euclidean norm is
    # farther than eps from it in sup-norm, so it blocks nothing.
    radius = epsilon * math.sqrt(n) + 1e-9
    best = None
    for direction in dirs:
        comp = _orthonormal_complement(direction)
        corners_p = window.corners() @ comp
        plo = corners_p.min(axis=0)
        phi = corners_p.max(axis=0)
        k = offsets_per_direction
        if n == 2:
            offs = (plo + (np.arange(k) + 0.5) * (phi - plo) / k)[:, None]
        else:
            offs = plo + halton(k, n - 1) * (phi - plo)
        proj = pts @ comp
        order = np.argsort(proj[:, 0])
        sorted_proj = proj[order, 0]
        bases = np.array([center + comp @ (off - center @ comp) for off in offs])
        enter, leave = _line_box(window.lo - bases, window.hi - bases, direction,
                                 closed=True)
        for off, base, t0, t1 in zip(offs, bases, enter, leave):
            if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
                continue
            i0 = np.searchsorted(sorted_proj, off[0] - radius, side="left")
            i1 = np.searchsorted(sorted_proj, off[0] + radius, side="right")
            slab = order[i0:i1]
            near = pts[slab[np.linalg.norm(proj[slab] - off, axis=1) < radius]]
            gaps, _ = _line_gap_profile(near, base, direction, epsilon, t0, t1)
            for start, length in gaps:
                if best is None or length > best[0]:
                    best = (length, base + start * direction, direction)
    if best is None:
        raise ValueError("no candidate line intersects the window")
    length, start, direction = best
    return Segment(start, direction, length), float(length)


def _dual_direction_candidates(spec: PointSetSpec, dim: int):
    """Normals along which constituent lattices project onto discrete sets.

    Returns (dirs, zs, owner): row j of dirs is z.B^-1 / |z.B^-1| for the
    primitive integer row zs[j] and the basis B of the lattice sheet
    spec.sheets()[owner[j]], the sheets taken in order.
    """
    max_index = 16 if dim <= 2 else max(1, int(round(50000 ** (1.0 / dim))) // 2)
    rng_axis = np.arange(-max_index, max_index + 1)
    zs = cartesian(*[rng_axis] * dim)
    zs = zs[np.any(zs != 0, axis=1)]
    gcds = np.gcd.reduce(np.abs(zs), axis=1)
    zs = zs[gcds == 1]
    lead = np.argmax(zs != 0, axis=1)
    signs = np.sign(zs[np.arange(zs.shape[0]), lead])
    zs = zs * signs[:, None]
    zs = np.unique(zs, axis=0)
    dirs, owners = [np.empty((0, dim))], [np.empty(0, dtype=np.int64)]
    for i, sheet in enumerate(spec.sheets()):
        if isinstance(sheet, LatticeSheet):
            duals = zs @ sheet.inverse
            dirs.append(duals / np.linalg.norm(duals, axis=1, keepdims=True))
            owners.append(np.full(zs.shape[0], i))
    owner = np.concatenate(owners)
    return np.concatenate(dirs), np.tile(zs, (len(owners) - 1, 1)), owner


def _box_chords(window: Window, us: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Length of the chord {x : u.x = offset} of the closed window, per row
    of the unit normals us (d = 2)."""
    along = np.stack([-us[:, 1], us[:, 0]], axis=1)
    foot = offsets[:, None] * us
    enter, leave = _line_box(window.lo - foot, window.hi - foot, along, closed=True)
    return np.maximum(leave - enter, 0.0)


def _spacing_bounds(spec: PointSetSpec, window: Window, us: np.ndarray,
                    zs: np.ndarray, owner: np.ndarray, bulk: float,
                    eps: float) -> np.ndarray:
    """Upper bound on the strip width along us[j] from the level lines of
    the lattice sheet owner[j] (see `vacant_strip`): s + 2E, or inf where
    the chord test fails, for d != 2, and for rows with owner -1.  zs[j]
    is signed so that us[j] lies close to s.zs[j].B^-1."""
    out = np.full(us.shape[0], math.inf)
    if window.dim != 2:
        return out
    sheets = spec.sheets()
    bases = np.tile(np.eye(2), (len(sheets), 1, 1))
    inverses = bases.copy()
    reach = np.zeros(len(sheets))       # bounds |m|_inf over the window
    slack = np.zeros(len(sheets))       # rounding of a lattice point
    dets = np.ones(len(sheets))
    for i, sheet in enumerate(sheets):
        if isinstance(sheet, LatticeSheet):
            bases[i], inverses[i] = sheet.basis, sheet.inverse
            images = (window.corners() - sheet.shift) @ sheet.inverse.T
            reach[i] = float(np.max(np.abs(images))) + 1.0
            slack[i] = 1e-15 * float(np.max(np.abs(sheet.basis).sum(axis=1)
                                            * reach[i] + np.abs(sheet.shift)))
            dets[i] = sheet.det
    rows = np.flatnonzero(owner >= 0)
    own = owner[rows]
    u, z, bases = us[rows], zs[rows], bases[own]
    norm = np.linalg.norm(np.einsum("nk,nkl->nl", z, inverses[own]), axis=1)
    s = 1.0 / norm
    step = dets[own] * norm
    rho = np.abs(np.einsum("nk,nkl->nl", u, bases) - s[:, None] * z)
    rho += 1e-15 * (np.einsum("nk,nkl->nl", np.abs(u), np.abs(bases))
                    + s[:, None] * np.abs(z))
    radius = float(max(np.max(np.abs(window.lo)), np.max(np.abs(window.hi))))
    u1 = np.abs(u).sum(axis=1)
    err = (rho.sum(axis=1) * reach[own]
           + u1 * (slack[own] + 2.0 * 10.0 ** -MERGE_DECIMALS + 1e-15 * radius))
    cu = u @ ((window.lo + window.hi) / 2.0)
    half = bulk + 2.0 * eps + s
    chords = np.minimum(_box_chords(window, u, cu - half),
                        _box_chords(window, u, cu + half))
    ok = (chords >= step + 1.0) & (4.0 * err < s)
    out[rows] = np.where(ok, s + 2.0 * err, math.inf)
    return out


def _strip_candidates(spec: PointSetSpec, window: Window, extras: list,
                      bulk: float, eps: float):
    """The candidate directions of `vacant_strip`, each with its leading
    nonzero entry positive, rounded to 12 digits and sorted, and the least
    spacing bound of the (sheet, z) pairs that round to each."""
    dim = window.dim
    dirs, zs, owner = _dual_direction_candidates(spec, dim)
    cands = np.concatenate([dirs] + [extra[None, :] for extra in extras])
    if cands.shape[0] == 0:
        raise ValueError("no candidate directions: supply candidate_directions")
    lead = np.argmax(np.abs(cands) > 1e-12, axis=1)
    signs = np.sign(cands[np.arange(cands.shape[0]), lead])
    cands, cand_of = np.unique(np.round(cands * signs[:, None], 12), axis=0,
                               return_inverse=True)
    cand_of = cand_of.ravel()
    zs = np.concatenate([zs, np.zeros((len(extras), dim))]) * signs[:, None]
    owner = np.concatenate([owner, np.full(len(extras), -1)])
    spacing = np.full(cands.shape[0], math.inf)
    np.minimum.at(spacing, cand_of, _spacing_bounds(spec, window, cands[cand_of],
                                                    zs, owner, bulk, eps))
    return cands, spacing


def _central_width(proj: np.ndarray, cu: float, bulk: float):
    """Largest gap of sorted projections whose midpoint lies within bulk of
    the centre's projection cu, or None when no gap does.

    The rounded midpoints (proj[i] + proj[i+1]) / 2 - cu never decrease
    with i, since float addition and division are monotone, so the gaps
    with -bulk <= mid - cu <= bulk form one run.  Bisection finds its ends
    from the same float expressions at the probed indices."""
    def mid(i):
        return (proj[i] + proj[i + 1]) / 2.0 - cu

    gaps = range(proj.size - 1)
    lo = bisect.bisect_left(gaps, True, key=lambda i: mid(i) >= -bulk)
    hi = bisect.bisect_left(gaps, True, key=lambda i: mid(i) > bulk)
    if hi <= lo:
        return None
    return float(np.max(np.diff(proj[lo:hi + 1])))


def _central_width_bound(q: np.ndarray, cu: float, bulk: float,
                         eps: float) -> float:
    """Upper bound on `_central_width` from the sorted projections q of a
    subset of the points (see `vacant_strip`); inf when q does not reach
    past both ends of the band [cu - bulk, cu + bulk] widened by 2*eps."""
    lo, hi = cu - bulk - 2.0 * eps, cu + bulk + 2.0 * eps
    if q.size < 2 or q[0] >= lo or q[-1] <= hi:
        return math.inf
    first = int(np.searchsorted(q, lo)) - 1             # last one below lo
    last = int(np.searchsorted(q, hi, side="right"))    # first one above hi
    return float(np.max(np.diff(q[first:last + 1]))) + 2.0 * eps


def vacant_strip(spec: PointSetSpec, window: Window,
                 candidate_directions=()) -> StripReport:
    """Direction maximizing the widest point-free strip through the window.

    Candidates are the dual-lattice directions of each constituent grid
    (integer index up to 16) plus any supplied extras; the width along a
    direction is the largest gap between consecutive point projections among
    strips passing within half the window inradius of the window center.
    The centering restriction discards gaps that exist only because a strip
    clips a corner of the window, where a single constituent reaches farther
    along the direction than the others.  Of the directions of maximal width
    the first in sorted candidate order is reported.

    Only a few directions need the sort of every projection.  Each direction
    has up to four upper bounds on its width, from the cheapest to the
    exact width: the level spacing of a lattice sheet, then the projections
    of a seeded quarter Q of the sub-window points, then those of all of
    them (P), then the full sort.

    Subset bounds.  Let P be the points of the sub-window |x - center|_inf
    <= bulk (bulk = half the inradius).  A central gap (a, b) has its
    midpoint in the band [c.u - bulk, c.u + bulk].  When P's projections
    reach past both ends of the band, the P-projections a' <= a and b' >= b
    next to the gap are consecutive among P's, the gap (a', b') meets the
    band, and b' - a' >= b - a: P is a subset and float subtraction is
    monotone.  So the largest P-gap meeting the band bounds the width from
    above.  Any subset of the points whose projections reach past both ends
    of the band gives such a bound, and a smaller subset a looser one; Q is
    a fixed seeded draw of a quarter of P (`STRIP_COARSE_SHARE`).  The
    projections of a subset come from their own product, so they may differ
    from the full ones in the last bits; the band is widened and the bound
    raised by 2*eps, with eps at a relative 1e-9 far above those differences
    and the rounding of the midpoint test.  A subset whose projections stay
    inside the band, or of fewer than two points, gives an infinite bound.

    Spacing bound (d = 2).  A candidate u comes from a primitive z and a
    sheet B.Z^2 + t as u ~ v/|v|, v = z.B^-1 (Cassels, An Introduction to
    the Geometry of Numbers, 1959).  Take s = 1/|v| as computed, and
    rho = B^T.u - s.z exactly (z signed as u is).  A sheet point x = B.m + t
    has x.u = s.(z.m) + t.u + rho.m, so the points with z.m = j lie on a
    line l_j whose exact projections stay within |rho|_1.M of the level
    s.j + t.u, M bounding |m|_inf over the window (the corners' images,
    plus 1).  Along l_j the points are |w| = |det B|.|v| apart.

    Chords.  The chord {x : u.x = y} of a convex window has a length
    concave in y, so if the chords at y = c.u -+ (bulk + 2*eps + s) are
    both at least |w| + 1, so is every chord in between.

    Bound.  Let (a, b) be consecutive projections of all the points with a
    central midpoint, and suppose b - a > s + 2E.  The closed interval of
    length s around (a + b)/2 lies in (a + E, b - E) and holds a level
    s.j + t.u, within bulk + s/2 (plus a rounding) of c.u.  When E < s/4,
    l_j then lies at least s/4 inside the two chords checked, and its own
    chord is at least |w| + 1 up to errors far below the 1 of slack.  So
    l_j has a sheet point at least 1/2 from both ends of its chord.  The
    float copy of that point stays in the half-open window: leaving it
    would need l_j to run along a side within the rounding of the points,
    and a line that far inside the two chords does not.  The point, or the
    enumerated row it merged with, projects within E of the level, so
    strictly inside (a, b), which contradicts a and b being consecutive.
    So every central gap is at most s + 2E, and as rounding is monotone,
    the float sum s + 2E bounds the float width too.

    Margin.  E sums four terms.  |rho|_1.M, with the rounding of rho
    added to rho, carries the 12-digit rounding of u (|u - v/|v||_inf up to
    5e-13) across the whole chord, not only the band.  The rest are |u|_1
    times: the rounding of a lattice point (the basis product plus the
    shift, taken as 1e-15 of their terms), the duplicate merge of
    `canonicalize_points` (rows within 1e-9, taken as 2e-9) and the
    rounding of the product x.u (1e-15 of max |x|_inf).  Each constant is
    at least twice the rounding it stands for, which also covers the
    rounding of E itself.  On the three-grid 2E is below 1e-8.  A direction
    dual to several sheets takes the least of their bounds; extras, and
    every direction when d != 2, get inf.

    Search.  One heap holds (-bound, k, tier) per direction, every
    direction first with its spacing bound.  Each step pops the largest
    bound (ties: smallest k) and refines it by one tier, keeping the least
    of its bounds, or, at the last tier, sorts every projection and keeps
    the widest strip found.  The search stops when the top bound is below
    that width, or equal to it at a larger k, so a direction is dropped
    only when it cannot beat the widest strip found under the tie rule:
    the result is that of a scan of every direction (Land and Doig's
    best-first branch and bound).
    """
    dim = window.dim
    extras = _unit_directions(candidate_directions, dim)
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    center = (window.lo + window.hi) / 2.0
    bulk = float(np.min(window.extent)) / 4.0
    # |x.u| <= dim * (|center|_inf + bulk) for x in P, for c.u and for every
    # central midpoint; eps is 1e-9 of that scale.
    eps = 1e-9 * dim * (float(np.max(np.abs(center))) + bulk)
    cands, spacing = _strip_candidates(spec, window, extras, bulk, eps)
    near = np.ones(pts.shape[0], dtype=bool)
    for k in range(dim):
        near &= np.abs(pts[:, k] - center[k]) <= bulk
    sub = np.compress(near, pts, axis=0)
    coarse = sub[np.random.default_rng(0).random(sub.shape[0]) < STRIP_COARSE_SHARE]
    heap = [(-b, k, 0) for k, b in enumerate(spacing.tolist())]
    heapq.heapify(heap)
    subsets = (coarse, sub)
    best_width = -1.0
    best_k = -1
    while heap:
        top, k, tier = heap[0]
        if -top < best_width or (-top == best_width and k > best_k):
            break
        heapq.heappop(heap)
        u = cands[k]
        cu = float(center @ u)
        if tier < len(subsets):
            bound = _central_width_bound(np.sort(subsets[tier] @ u), cu, bulk, eps)
            heapq.heappush(heap, (max(top, -bound), k, tier + 1))
            continue
        width = _central_width(np.sort(pts @ u), cu, bulk)
        if width is not None and (width > best_width
                                  or (width == best_width and k < best_k)):
            best_width = width
            best_k = k
    if best_width < 0.0:
        raise ValueError("no candidate strip passes near the window center")
    direction = cands[best_k].copy()
    direction.setflags(write=False)
    return StripReport(direction=direction, width=best_width,
                       window_radius=float(np.max(window.extent) / 2.0))


# ---------------------------------------------------------------------------
# Density and uniform discreteness
# ---------------------------------------------------------------------------

def density_profile(spec: PointSetSpec, radii) -> list:
    """(T, count/T^n) over Euclidean balls of the given increasing radii."""
    rs = [float(r) for r in radii]
    if not rs or any(r <= 0 for r in rs) or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    n = spec.dim
    out = []
    for t in rs:
        pts = enumerate_points(spec, Window.cube(t + 1e-6, n))
        count = int(np.count_nonzero(np.einsum("ij,ij->i", pts, pts) <= t * t)) \
            if pts.shape[0] else 0
        # A power that underflows to 0 or near it leaves no finite quotient.
        power = t ** n
        if power == 0.0 or not math.isfinite(count / power):
            raise ValueError(f"radius {t:g} is too small: count/T^{n} "
                             "overflows a float")
        out.append((t, count / power))
    return out


def min_gap(spec: PointSetSpec, window: Window) -> float:
    """Minimum pairwise Euclidean distance among the enumerated points."""
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    return _min_gap(pts)


def _min_gap(pts: np.ndarray) -> float:
    """Minimum pairwise Euclidean distance among two or more points.

    Any pair's distance bounds the minimum: r is the least distance between
    consecutive rows, which are near pairs when the rows are sorted, as
    enumerated points are.  A pair no farther apart than r differs by at
    most r on every axis, so it lies in one cell or in two neighbouring
    cells of a `geometry.CellIndex` of side r (1 + 1e-9).  Each sorted row
    is paired with the forward half of its neighbour cells, for
    MIN_GAP_BLOCK_ROWS rows at a time, the blocks going round-robin to
    `parallel.worker_count()` threads.  Every distance is the left-to-right
    sum of squared differences and then its square root, the floats a
    KD-tree query returns (its sum runs left to right below 8 dimensions),
    so the minimum is the float an unbounded nearest-neighbour query gives.
    r = 0 (a repeated point) is the minimum.

    Three roundings leave a cell coordinate (x - lo) * scale below 2^20
    less than 2^-31 from (x - lo) / side, so a pair's coordinates differ by
    less than 1 - 1e-9 + 2^-30 < 1, and its cells by at most one, on every
    axis.  The padded keys must fit in int64: when (extent / r)^d would
    exceed either limit, the cells are made coarser, which keeps every pair
    they held.
    """
    r2 = float(np.min(_squared_distances(pts[:-1], pts[1:])))
    if r2 == 0.0:
        return 0.0
    d = pts.shape[1]
    # Column by column: a reduction over axis 0 of two columns is ~15x slower.
    lo = np.array([col.min() for col in pts.T])
    extent = np.array([col.max() for col in pts.T]) - lo
    per_axis = min(2 ** 20, int(2.0 ** (62.0 / d)) - 4)
    scale = 1.0 / max(math.sqrt(r2) * (1.0 + 1e-9), float(np.max(extent)) / per_axis)
    index = CellIndex(pts, lo, scale, np.floor(extent * scale).astype(np.int64) + 1)
    # Key offsets of the forward half of the neighbour cells: a row's own
    # cell and the next along the last axis end at +2, and each forward row
    # of three cells along the last axis spans [row - 1, row + 2).
    forward = [int(np.dot(lead, index.strides[:-1]))
               for lead in itertools.product((-1, 0, 1), repeat=d - 1) if lead > (0,) * (d - 1)]
    offsets = [2] + [end for row in forward for end in (row - 1, row + 2)]
    size = MIN_GAP_BLOCK_ROWS

    def block(i):
        first = i * size
        own = index.keys[first:first + size]
        rows = index.rows(own, offsets)
        starts = [np.arange(first + 1, first + own.size + 1), *rows[1::2]]
        return min(_least_in_ranges(index.points, first, start, stop)
                   for start, stop in zip(starts, rows[0::2]))

    bests = []
    parallel.run_in_order(bests.append, block, -(-pts.shape[0] // size), parallel.worker_count())
    return math.sqrt(min(r2, *bests))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean distances, summed left to right."""
    total = (a[:, 0] - b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        total += (a[:, k] - b[:, k]) ** 2
    return total


def _least_in_ranges(pts: np.ndarray, first: int, start: np.ndarray,
                     stop: np.ndarray) -> float:
    """Least squared distance from each row first + i to the rows start[i]
    <= j < stop[i]; inf if none."""
    best = math.inf
    for rows, cols in run_pairs(start, stop):
        best = min(best, float(np.min(_squared_distances(
            np.take(pts, rows + first, axis=0), np.take(pts, cols, axis=0)))))
    return best


# ---------------------------------------------------------------------------
# Heavy boxes
# ---------------------------------------------------------------------------

def _inflate_to_volume(box: AlignedBox, target: float) -> AlignedBox:
    if box.volume >= target:
        return box
    center = (box.lo + box.hi) / 2.0
    half = (box.hi - box.lo) / 2.0
    flat = half <= 0.0
    if np.any(flat):
        # Give collapsed sides the length that alone reaches the target.
        fill = (target / max(float(np.prod(2.0 * half[~flat])), 1.0)
                if not flat.all() else target)
        half = half.copy()
        half[flat] = fill ** (1.0 / int(flat.sum())) / 2.0
    vol = float(np.prod(2.0 * half))
    # Slight overshoot keeps the product >= target despite rounding.  A side
    # that is short against its coordinates loses more to the rounding of
    # its bounds, so such a box grows again by what it still lacks.
    scale = max((target / vol) ** (1.0 / box.dim), 1.0) * (1.0 + 1e-12)
    for _ in range(3):
        out = AlignedBox.from_bounds(center - half * scale, center + half * scale)
        if not 0.0 < out.volume < target:
            break
        scale *= (target / out.volume) ** (1.0 / box.dim) * (1.0 + 1e-12)
    # A growth factor can move a side that is short against its coordinates
    # by less than one float spacing; such a box widens each bound outward
    # by one float at a time.  A side of zero length stays refused.
    for _ in range(INFLATE_NUDGES):
        if not 0.0 < out.volume < target:
            break
        out = AlignedBox.from_bounds(np.nextafter(out.lo, -np.inf),
                                     np.nextafter(out.hi, np.inf))
    return out


def _best_aligned_box(pts: np.ndarray, eps: float):
    n, d = pts.shape
    if d == 1:
        xs = np.sort(pts[:, 0])
        upper = np.searchsorted(xs, xs + eps, side="right")
        counts = upper - np.arange(n)
        i = int(np.argmax(counts))
        return AlignedBox.from_bounds([xs[i]], [xs[i] + eps]), int(counts[i])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if float(np.prod(hi - lo)) <= eps:
        return AlignedBox.from_bounds(lo, hi), n
    order_x = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order_x, 0]
    ys_by_x = pts[order_x, 1]
    order_y = np.argsort(pts[:, 1], kind="stable")
    ys = pts[order_y, 1]
    xs_by_y = pts[order_y, 0]
    stride = max(1, n // 256)
    best_cnt = 0
    best_box = None

    def sweep(primary, secondary, width, height, flip):
        # The winner is the first (anchor, lower edge) in loop order whose
        # count beats every earlier one: anchors ascending, then the
        # smallest lower edge.  An anchor whose slab holds no more than the
        # best count, or an edge whose window over the block does not, can
        # not beat it.  Returns whether the best count rose.
        nonlocal best_cnt, best_box
        start = best_cnt
        anchors = primary[::stride]
        if width >= primary[-1] - primary[0]:
            anchors = primary[:1]
        i0 = np.searchsorted(primary, anchors, side="left")
        i1 = np.searchsorted(primary, anchors + width, side="right")
        live = np.flatnonzero(i1 - i0 > best_cnt)
        while live.size:
            blk = live[:HEAVY_BLOCK_ANCHORS]
            cells = np.arange(1, blk.size + 1) * (i1[blk] - i0[blk[0]])
            blk = blk[:max(1, int(np.count_nonzero(cells <= HEAVY_BLOCK_CELLS)))]
            lo, hi = i0[blk[0]], i1[blk[-1]]
            order = np.argsort(secondary[lo:hi])
            s = secondary[lo:hi][order]
            first = np.searchsorted(s, s, side="left")
            last = np.searchsorted(s, s + height, side="right")
            cols = np.flatnonzero(last - first > best_cnt)
            if cols.size:
                pos = order + lo
                inside = (pos >= i0[blk, None]) & (pos < i1[blk, None])
                ranks = np.zeros((blk.size, s.size + 1), dtype=np.int64)
                np.cumsum(inside, axis=1, out=ranks[:, 1:])
                counts = np.where(inside[:, cols],
                                  ranks[:, last[cols]] - ranks[:, first[cols]], -1)
                top = counts.max(axis=1)
                r = int(np.argmax(top))
                if top[r] > best_cnt:
                    best_cnt = int(top[r])
                    a = anchors[blk[r]]
                    edge = s[cols[int(np.argmax(counts[r]))]]
                    lo_b = (a, edge) if not flip else (edge, a)
                    hi_b = (a + width, edge + height) if not flip \
                        else (edge + height, a + width)
                    best_box = AlignedBox.from_bounds(lo_b, hi_b)
            live = live[blk.size:]
            live = live[i1[live] - i0[live] > best_cnt]
        return best_cnt > start

    # With every point an anchor (stride 1), both sweeps of a ratio reach
    # the same count: moving a best box's left edge to its leftmost point
    # and its bottom edge to its lowest point keeps every point (fl is
    # monotone) and puts the box among the candidates of both.  So only the
    # sweep of the narrower slab runs, unless its lone anchor's slab rounds
    # short of the last point.  The witness stays the first x-sweep box of
    # the final count: when a lone y-sweep set that count, its ratio's
    # x-sweep runs again from one below and replaces the box if it reaches
    # the count.
    recheck = None
    for ratio in 2.0 ** np.linspace(-10, 10, 41):
        w = math.sqrt(eps * ratio)
        h = math.sqrt(eps / ratio)
        along_x = w <= h
        axis, width = (xs, w) if along_x else (ys, h)
        both = stride > 1 or (width >= axis[-1] - axis[0]
                              and axis[0] + width < axis[-1])
        if (both or along_x) and sweep(xs, ys_by_x, w, h, flip=False):
            recheck = None
        if (both or not along_x) and sweep(ys, xs_by_y, h, w, flip=True):
            recheck = None if both else (w, h)
    if recheck is not None:
        best_cnt -= 1
        if not sweep(xs, ys_by_x, *recheck, flip=False):
            best_cnt += 1
    return best_box, best_cnt


def _witness_box(pts: np.ndarray, eps: float) -> AlignedBox:
    """The best aligned box of pts, inflated to volume eps."""
    box, _ = _best_aligned_box(pts, eps)
    box = _inflate_to_volume(box, eps)
    # Sides below the spacing of floats near the coordinates cannot grow.
    if box.volume < eps:
        raise ValueError(f"eps={eps!r} is too small to inflate a box at these "
                         f"coordinates (volume {box.volume!r})")
    return box


def heavy_box(points, eps: float, rotation_samples: int = 0, seed: int = 0):
    """Search for a box of volume exactly eps containing many points.

    Returns (box, count) — a certified lower-bound witness: the box is
    axis-aligned (or a RotatedBox when rotations are sampled) and the count
    is the number of points it contains after inflating its volume to eps.
    Raises ValueError when float spacing keeps a candidate box below eps.
    """
    pts = point_array(points)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if pts.shape[0] == 0:
        raise ValueError("at least one point is required")
    if pts.shape[1] > 2:
        raise ValueError("heavy-box search is implemented for dimensions 1 and 2")
    if rotation_samples < 0:
        raise ValueError("rotation_samples must be nonnegative")
    if pts.shape[1] == 2 and rotation_samples > 0:
        check_limit(f"units of {rotation_samples} rotations of {pts.shape[0]} points",
                    rotation_samples * (pts.shape[0] + HEAVY_ROTATION_BASE),
                    MAX_HEAVY_ROTATION_WORK)
    box = _witness_box(pts, eps)
    count = int(np.count_nonzero(box.contains(pts)))
    best = (box, count)
    if pts.shape[1] == 2 and rotation_samples > 0:
        rng = np.random.default_rng(seed)
        for _ in range(rotation_samples):
            angle = float(rng.uniform(0.0, math.pi))
            c, s = math.cos(angle), math.sin(angle)
            rotated = pts @ np.array([[c, -s], [s, c]])
            rbox = _witness_box(rotated, eps)
            cnt = int(np.count_nonzero(rbox.contains(rotated)))
            if cnt > best[1]:
                best = (RotatedBox(angle=angle, box=rbox), cnt)
    return best


# ---------------------------------------------------------------------------
# Uniformly Diophantine margin
# ---------------------------------------------------------------------------

def udt_check(thetas, xi, T: int):
    """Best shift index and its twisted distance-to-integers margin.

    margin = max over i of min over integer u with 0 < sup-norm(u) <= T of
    the distance of u . (xi - theta_i) to the nearest integer; the returned
    index is 1-based.
    """
    # numpy refuses ragged lists, such as [[0.1], [0.2, 0.3]]; they fail the
    # shape checks below as empty arrays.
    try:
        arr = np.asarray(thetas, dtype=float)
    except ValueError:
        arr = np.empty(0)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("thetas must be a nonempty list of d-vectors of one d >= 1")
    try:
        xi_vec = np.atleast_1d(np.asarray(xi, dtype=float))
    except ValueError:
        xi_vec = np.empty(0)
    if xi_vec.shape != (arr.shape[1],):
        raise ValueError("xi must match the dimension of thetas")
    t_int = int(T)
    if t_int < 1:
        raise ValueError("T must be at least 1")
    d = arr.shape[1]
    # The grid is built in chunks, so this cap bounds time, not memory:
    # 1.1e8 (d = 1) to 3.5e7 (d = 3) rows times thetas per second measured.
    check_limit("u-grid entries", d * (2 * t_int + 1) ** d, 10 ** 8)
    # Every product u.(xi - theta) is at most T * |xi - theta|_1 in size.
    with np.errstate(over="ignore", invalid="ignore"):
        reach = t_int * np.abs(xi_vec - arr).sum(axis=1)
    if not np.all(np.isfinite(reach)):
        raise ValueError("thetas, xi and T * |xi - theta|_1 must be finite")
    width = 2 * t_int + 1
    rest = [np.arange(-t_int, t_int + 1)] * (d - 1) if d > 1 else []
    # Chunks of whole leading-axis slices.
    per = max(1, UDT_CHUNK_ROWS // width ** (d - 1))
    margins = np.full(arr.shape[0], np.inf)
    for c0 in range(0, width, per):
        c1 = min(c0 + per, width)
        us = cartesian(np.arange(c0 - t_int, c1 - t_int), *rest).astype(float)
        if c0 <= t_int < c1:
            # u = 0 alone is a chunk with no rows left.
            us = us[np.any(us != 0.0, axis=1)]
            if not us.shape[0]:
                continue
        for i, theta in enumerate(arr):
            prod = _matmul(us, xi_vec - theta)
            margins[i] = min(margins[i], float(np.min(np.abs(prod - np.rint(prod)))))
    best = int(np.argmax(margins))
    return best + 1, float(margins[best])
