"""Core geometric types, the blocked pair scan and the probe samplers.

All coordinates are double precision.  The probe objects (segments, windows,
aligned boxes) are immutable after construction and all operations here are
pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_limit

# Index pairs that `run_pairs` yields at a time, near the 17-19k of the net
# certificate's former 512-box blocks.  A warm `_min_gap` on the three-grid
# at r = 200 (191,053 pairs) took 0.13-0.15 s at every block from 2^13 to
# 2^16 pairs on 2 Xeon vCPUs (best of 7, two rounds), with no trend by size.
PAIR_BLOCK = 2 ** 14
# Probes that one visibility or calibration command may draw.  tracemalloc
# peaks at L_max 4096, eps 0.1 and 0.05 and 10^4 to 10^5 probes were
# 290-470 bytes a probe on Z^2, 560-800 on the Peres forest and the
# three-grid, and 1,015-1,288 on Z^3, at 4-7 us a probe and epsilon (32 us
# on a marched generalized Peres set) on 2 Xeon vCPUs, so the cap takes up
# to about 1.3 GB and 4-32 s an epsilon.
MAX_PROBES = 10 ** 6


def cartesian(*axes) -> np.ndarray:
    """Every choice of one entry per axis, as rows in lexicographic order
    of the positions (the last axis varies fastest); no axes give one
    empty row."""
    if not axes:
        return np.empty((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def run_pairs(start: np.ndarray, stop: np.ndarray):
    """Every (i, j) with start[i] <= j < stop[i], yielded as (rows, cols)
    index arrays in blocks of at most PAIR_BLOCK pairs.

    Pairs come in ascending order of i and then j, and a block holds whole
    runs: a run longer than PAIR_BLOCK is a block of its own, and an empty
    run gives no pair.  No block is empty.
    """
    count = np.maximum(stop - start, 0)
    ends = np.cumsum(count)
    done = 0
    while ends.size and done < ends[-1]:
        # From the next run that has pairs, whole runs up to PAIR_BLOCK
        # pairs, and at least that run.
        lo, hi = np.searchsorted(ends, [done, done + PAIR_BLOCK], side="right")
        hi = max(hi, lo + 1)
        size = count[lo:hi]
        upto = int(ends[hi - 1])
        yield (np.repeat(np.arange(lo, hi), size),
               np.repeat(start[lo:hi] - (ends[lo:hi] - size), size) + np.arange(done, upto))
        done = upto


def _vector(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Point:
    """A point in R^n with finite coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _vector(self.coords, "coords"))

    @property
    def dim(self) -> int:
        return self.coords.size

    def __repr__(self):
        return f"Point({tuple(self.coords)})"


def point_coords(p) -> np.ndarray:
    """Coordinates of ``p``, which may be a Point or any coordinate sequence."""
    if isinstance(p, Point):
        return p.coords
    return np.atleast_1d(np.asarray(p, dtype=float))


def point_array(points, what: str = "points", unit_cube: bool = False) -> np.ndarray:
    """Point objects, coordinate rows or an array as a finite (N, d) float
    array; a one-dimensional input is N points in d = 1.  With ``unit_cube``
    every coordinate must also lie in [0, 1], up to 1e-12."""
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
    else:
        arr = np.asarray([point_coords(p) for p in points], dtype=float) \
            if len(points) else np.empty((0, 1))
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{what} must form an (N, d) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    if unit_cube and arr.size and (arr.min() < -1e-12 or arr.max() > 1.0 + 1e-12):
        raise ValueError(f"{what} must lie in the unit cube")
    return arr


@dataclass(frozen=True, eq=False)
class Segment:
    """The directed segment {base + t*direction : 0 <= t <= length}.

    The direction is normalized on construction, so its Euclidean norm is 1
    to within floating-point accuracy.
    """

    base: np.ndarray
    direction: np.ndarray
    length: float

    def __post_init__(self):
        base = _vector(self.base, "base")
        direction = np.atleast_1d(np.asarray(self.direction, dtype=float))
        if direction.shape != base.shape:
            raise ValueError("base and direction must have the same dimension")
        norm = float(np.linalg.norm(direction))
        if not np.isfinite(norm) or norm <= 0.0:
            raise ValueError("direction must be a nonzero finite vector")
        direction = direction / norm
        direction.setflags(write=False)
        length = float(self.length)
        if not (length >= 0.0) or not np.isfinite(length):
            raise ValueError("length must be a finite nonnegative real")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "length", length)

    @property
    def dim(self) -> int:
        return self.base.size

    def translated(self, offset) -> "Segment":
        return Segment(self.base + np.asarray(offset, dtype=float),
                       self.direction, self.length)

    def __repr__(self):
        return (f"Segment(base={tuple(self.base)}, "
                f"direction={tuple(self.direction)}, length={self.length})")


@dataclass(frozen=True, eq=False)
class Window:
    """Half-open axis-aligned region [lo, hi) used to truncate infinite sets."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, "lo")
        hi = _vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same dimension")
        if not np.all(lo < hi):
            raise ValueError("window must satisfy lo[i] < hi[i] on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, radius: float, dim: int) -> "Window":
        """The centered cube [-radius, radius)^dim."""
        r = float(radius)
        return cls(np.full(dim, -r), np.full(dim, r))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        with np.errstate(over="ignore"):    # inf past the float range
            return float(np.prod(self.extent))

    def contains(self, points) -> np.ndarray:
        """Half-open membership mask for an (N, dim) array of points, built
        one column at a time."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must be rows of the window's dimension")
        inside = np.ones(pts.shape[0], dtype=bool)
        for k in range(self.dim):
            col = pts[:, k]
            inside &= (col >= self.lo[k]) & (col < self.hi[k])
        return inside

    def corners(self) -> np.ndarray:
        """All 2^dim corners as an array of shape (2^dim, dim)."""
        return cartesian(*np.stack([self.lo, self.hi], axis=1))

    def __repr__(self):
        return f"Window(lo={tuple(self.lo)}, hi={tuple(self.hi)})"


@dataclass(frozen=True, eq=False)
class AlignedBox:
    """A closed aligned box prod_i [a_i, b_i]."""

    intervals: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.intervals, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("intervals must be an array of (a_i, b_i) pairs")
        if not np.all(np.isfinite(arr)):
            raise ValueError("interval endpoints must be finite")
        if not np.all(arr[:, 0] <= arr[:, 1]):
            raise ValueError("each interval needs a_i <= b_i")
        arr.setflags(write=False)
        object.__setattr__(self, "intervals", arr)

    @classmethod
    def from_bounds(cls, lo, hi) -> "AlignedBox":
        return cls(np.stack([np.atleast_1d(np.asarray(lo, dtype=float)),
                             np.atleast_1d(np.asarray(hi, dtype=float))], axis=1))

    @property
    def dim(self) -> int:
        return self.intervals.shape[0]

    @property
    def lo(self) -> np.ndarray:
        return self.intervals[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.intervals[:, 1]

    @property
    def volume(self) -> float:
        return float(np.prod(self.intervals[:, 1] - self.intervals[:, 0]))

    def contains(self, points) -> np.ndarray:
        """Closed membership mask for an (N, dim) array of points, built one
        column at a time."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError("points must be rows of the box's dimension")
        inside = np.ones(pts.shape[0], dtype=bool)
        for col, (a, b) in zip(pts.T, self.intervals):
            inside &= (col >= a) & (col <= b)
        return inside

    def __repr__(self):
        pairs = ", ".join(f"[{a}, {b}]" for a, b in self.intervals)
        return f"AlignedBox({pairs})"


@dataclass(frozen=True, eq=False)
class RotatedBox:
    """The aligned ``box`` in a frame rotated by ``angle`` about ``center``.

    A point p lies in it when (p - center) @ R(angle) lies in ``box``, where
    R(angle) is the counter-clockwise rotation matrix.
    """

    angle: float
    box: AlignedBox
    center: np.ndarray = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def volume(self) -> float:
        return self.box.volume

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        c, s = math.cos(self.angle), math.sin(self.angle)
        return self.box.contains(pts @ np.array([[c, -s], [s, c]]))


def box_json(box) -> dict:
    """JSON form of an aligned box, or of a rotated one.

    A rotated box writes its ``angle``, its ``center`` and the intervals of
    its aligned ``box`` in the rotated frame.
    """
    if isinstance(box, RotatedBox):
        return {"angle": box.angle, "center": box.center.tolist(),
                "intervals": box.box.intervals.tolist()}
    return {"intervals": box.intervals.tolist()}


def _primitive_directions_2d(max_index: int) -> np.ndarray:
    """Unit vectors along (p, q) with |p|, |q| <= max_index and gcd(p, q) = 1."""
    dirs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    for p in range(-max_index, max_index + 1):
        for q in range(-max_index, max_index + 1):
            if p == 0 or q == 0 or math.gcd(abs(p), abs(q)) != 1:
                continue
            norm = math.hypot(p, q)
            dirs.append((p / norm, q / norm))
    return np.asarray(dirs)


def _stratified_directions(dim: int) -> np.ndarray:
    if dim == 2:
        return _primitive_directions_2d(8)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    return axes


def _first_primes(count: int) -> list:
    """The first ``count`` primes, by trial division."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def halton(n: int, d: int) -> np.ndarray:
    """The first n points of the unscrambled Halton sequence in [0, 1)^d.

    Column j holds the radical inverses of 0, ..., n-1 in the j-th prime
    base (Halton, Numer. Math. 1960).  The digits are summed in the order
    and with the factors of scipy's ``qmc.Halton(d, scramble=False)``:
    b2r = 1/base, then ``r * b2r`` is added and b2r divided by the base,
    least significant digit first, so every float equals scipy's.  Another
    order, or r / base**k in place of the running b2r, rounds differently.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    out = np.zeros((n, d))
    for j, base in enumerate(_first_primes(d)):
        q = np.arange(n, dtype=np.int64)
        col = out[:, j]
        b2r = 1.0 / base
        while np.any(q > 0):
            q, r = np.divmod(q, base)
            col += r * b2r
            b2r /= base
    return out


def _probe_rows(window: Window, count: int, seed: int):
    """Bases and unnormalized directions of the seeded probes, with their norms.

    Row i of the directions is the vector ``Segment`` would receive, and
    norms[i] is ``float(np.linalg.norm(row))``, the value ``Segment``
    divides it by.  Each random probe draws ``standard_normal(dim)`` until
    its norm is at least 1e-9, then ``random(dim)`` for its base, straight
    into its rows.  A norm below 1e-9 is rarer than one draw in 10^9,
    so the loop draws each probe once, and the norms follow from one
    stacked ``matmul`` of the rows with themselves, which numpy runs as one
    BLAS dot per row: the bits of ``x.dot(x)``, the dot product under
    ``np.linalg.norm`` of a 1-D vector.  Should a norm fall short, the draw
    starts over from the seed and redraws each short direction in turn.
    ``lo + U * extent`` over all the uniforms U at once rounds every entry
    as the per-row expression does.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    check_limit("probes", count, MAX_PROBES)
    dim = window.dim
    lo, extent = window.lo, window.extent
    n_strat = count // 2
    bases = np.empty((count, dim))
    raw = np.empty((count, dim))
    norms = np.empty(count)
    if n_strat:
        directions = _stratified_directions(dim)
        table = np.asarray([float(np.linalg.norm(v)) for v in directions])
        cycle = np.arange(n_strat) % len(directions)
        grid = halton(n_strat, dim)
        bases[:n_strat] = lo + grid * extent
        raw[:n_strat] = directions[cycle]
        norms[:n_strat] = table[cycle]
    rows, spots = raw[n_strat:], bases[n_strat:]
    for redraw in (False, True):
        rng = np.random.default_rng(seed)
        normal, uniform = rng.standard_normal, rng.random
        for vec, spot in zip(rows, spots):
            normal(out=vec)
            while redraw and math.sqrt(vec.dot(vec)) < 1e-9:
                normal(out=vec)
            uniform(out=spot)
        norms[n_strat:] = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel())
        if not np.any(norms[n_strat:] < 1e-9):
            break
    bases[n_strat:] = lo + bases[n_strat:] * extent
    return bases, raw, norms


def _probes(window: Window, length: float, count: int, seed: int):
    """The arrays of ``sample_probes`` with the drawn direction rows:
    (bases, rows, unit directions, lengths).

    ``Segment(bases[i], rows[i], length)`` is probe i of ``sample_segments``.
    Built from the unit direction instead, it would divide by a norm that
    can be 1 +- 2^-52 and move the last bit.
    """
    length = float(length)
    if not (length >= 0.0) or not np.isfinite(length):
        raise ValueError("length must be a finite nonnegative real")
    bases, raw, norms = _probe_rows(window, count, seed)
    # Row by row division by a scalar, as in Segment: a vectorized norm
    # (np.linalg.norm(axis=1)) rounds differently in the last bit.
    return bases, raw, raw / norms[:, None], np.full(count, length)


def sample_probes(window: Window, length: float, count: int, seed: int):
    """The probes of ``sample_segments`` as arrays (bases, directions, lengths).

    Makes the same random draws in the same order, and normalizes each
    direction by the same expression as ``Segment``, so every entry equals
    the corresponding ``Segment`` attribute exactly.
    """
    bases, _, dirs, lengths = _probes(window, length, count, seed)
    return bases, dirs, lengths


def sample_segments(window: Window, length: float, count: int, seed: int):
    """Deterministic probe segments with bases in the window.

    Half of the probes pair a stratified direction grid (all axis directions
    and, in dimension 2, every rational slope p/q with |p|, |q| <= 8) with a
    low-discrepancy grid of base points; the rest use seeded uniform random
    directions and bases.
    """
    bases, raw, _ = _probe_rows(window, count, seed)
    return [Segment(b, v, length) for b, v in zip(bases, raw)]
