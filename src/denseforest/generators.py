"""Point-set constructions and their driving sequences, enumerated over windows.

Every infinite set is represented by a small spec object that knows how to
list its points inside a half-open window and, for every sheet but the
lattices, how to produce candidate points near query locations (used by
the visibility scanner).  Enumeration output is canonicalized: duplicates
within 1e-9 are merged and rows are sorted lexicographically, so results are
independent of internal evaluation order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import check_limit
from .geometry import Window, cartesian

PHI = (1.0 + math.sqrt(5.0)) / 2.0
EULER_GAMMA = 0.5772156649015329

# Budget for the points one enumeration may build, checked against the sum
# of its sheets' estimates before any sheet is enumerated.  On the
# three-grid at r = 100, 200 and 400 (a 2-vCPU Xeon) the estimate was 1.2
# times the points kept, tracemalloc measured a peak of 56 bytes per point
# (47 per estimated point; the merge of the sheets' points sets it) and
# `enumerate_points` ran at 0.8-1.4e7 points/s, so a request at the cap
# takes about 1.7 GB and 2-4 s, which leaves room for the rest of a run on
# a host with 8 GB of memory.
MAX_ENUMERATED_POINTS = 3 * 10 ** 7
MERGE_DECIMALS = 9
# Rows that write_points_csv formats at a time.  Writing the three-grid at
# r = 200 (543,016 x 2 floats) on two threads peaked at 4.3 MB under
# tracemalloc with this value (2.2 MB at 2^12 rows, 8.5 MB at 2^14) and
# took 0.11 s (0.15 s at 2^12, where the second thread gained nothing,
# and 0.11 s at 2^14; 2-vCPU Xeon, medians of 11).  On one thread it took
# 0.15 s and peaked at 2.2 MB; the former %-operation writer took 0.66 s
# and 7.4 MB in an earlier set where one thread took 0.26 s.
CSV_CHUNK_ROWS = 2 ** 13


# ---------------------------------------------------------------------------
# Driving sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """A scalar or vector sequence k -> v_k driving a forest construction.

    Variants:
      * ``Golden``       v_{2k} = 0, v_{2k+1} = phi * k.
      * ``Tsokanos``     the dyadic sequence defined for indices |k| >= 1.
      * ``Quadratic``    v_k = alpha * k^2.
      * ``ConcatLinear`` interleaves the linear sequences (theta_i / s) * k.
    """

    variant: str
    alpha: float = PHI
    thetas: tuple = ()

    def __post_init__(self):
        if self.variant not in ("Golden", "Tsokanos", "Quadratic", "ConcatLinear"):
            raise ValueError(f"unknown sequence variant: {self.variant!r}")
        if self.variant == "Quadratic" and not np.isfinite(self.alpha):
            raise ValueError("Quadratic coefficient must be finite")
        if self.variant == "ConcatLinear":
            thetas = tuple(tuple(float(x) for x in np.atleast_1d(t)) for t in self.thetas)
            if not thetas:
                raise ValueError("ConcatLinear needs at least one direction vector")
            if len({len(t) for t in thetas}) != 1:
                raise ValueError("ConcatLinear thetas must share a dimension, got "
                                 f"widths {sorted({len(t) for t in thetas})}")
            if not thetas[0]:
                raise ValueError("ConcatLinear thetas have width 0: each needs "
                                 "at least one coordinate")
            if not np.all(np.isfinite(thetas)):
                raise ValueError("ConcatLinear direction vectors must be finite")
            object.__setattr__(self, "thetas", thetas)

    @property
    def dim(self) -> int:
        if self.variant == "ConcatLinear":
            return len(self.thetas[0])
        return 1

    def values(self, ks) -> np.ndarray:
        """Vectorized evaluation; returns shape (len(ks), dim).

        Negative indices use the even extension v_{-k} = v_k.  For the
        Tsokanos variant index 0 is outside the defining decomposition and is
        rejected here; use :func:`extended_values` where the symmetric
        extension with v_0 = 0 is wanted.
        """
        ks = np.asarray(ks, dtype=np.int64)
        flat = np.abs(ks.ravel())
        if self.variant == "Golden":
            out = np.where(flat % 2 == 0, 0.0, PHI * ((flat - 1) // 2))
        elif self.variant == "Quadratic":
            out = self.alpha * flat.astype(float) ** 2
        elif self.variant == "Tsokanos":
            if np.any(flat == 0):
                raise ValueError("the Tsokanos sequence is defined for indices |k| >= 1")
            out = _tsokanos_values(flat)
        else:
            s = len(self.thetas)
            theta = np.asarray(self.thetas, dtype=float)
            if np.any(flat == 0):
                raise ValueError("ConcatLinear indices start at |k| = 1")
            which = (flat - 1) % s
            out = theta[which] * (flat.astype(float) / s)[:, None]
            return out.reshape(ks.shape + (theta.shape[1],))
        return out.reshape(ks.shape + (1,))

    def extended_values(self, ks) -> np.ndarray:
        """Evaluation over all of Z with v_{-k} = v_k and v_0 = 0."""
        ks = np.asarray(ks, dtype=np.int64)
        flat = np.abs(ks.ravel())
        out = np.zeros((flat.size, self.dim))
        nz = flat != 0
        if np.any(nz):
            out[nz] = self.values(flat[nz])
        return out.reshape(ks.shape + (self.dim,))


def golden_sequence() -> SequenceSpec:
    return SequenceSpec("Golden")


def tsokanos_sequence() -> SequenceSpec:
    return SequenceSpec("Tsokanos")


def quadratic_sequence(alpha: float = PHI) -> SequenceSpec:
    return SequenceSpec("Quadratic", alpha=float(alpha))


def concat_linear_sequence(thetas) -> SequenceSpec:
    """One vector (a number or a list of numbers) or a list of vectors.

    Each vector becomes its own tuple before any array is built, so vectors
    of different widths are refused by SequenceSpec, which names them.
    """
    def is_vector(t):
        return isinstance(t, (list, tuple)) or np.ndim(t) > 0

    rows = list(thetas) if is_vector(thetas) else [thetas]
    if not any(map(is_vector, rows)):
        rows = [rows]
    if not all(map(is_vector, rows)) or any(is_vector(x) for t in rows for x in t):
        raise ValueError("ConcatLinear thetas must be a list of vectors")
    return SequenceSpec("ConcatLinear", thetas=tuple(tuple(t) for t in rows))


def seq_eval(spec: SequenceSpec, k: int):
    """Value of the sequence at index k (scalar for 1-d sequences)."""
    out = spec.values([int(k)])[0]
    if spec.dim == 1:
        return float(out[0])
    return out


def _tsokanos_values(ns: np.ndarray) -> np.ndarray:
    """Vectorized Tsokanos values for positive int64 indices.

    Index n >= 1 decomposes uniquely as n = k*2^i + 2^(i-1) - 2 with i >= 1
    and k >= 0; equivalently i - 1 is the 2-adic valuation of n + 2.  The
    inner decomposition k = r*2^(i^2+2) + s with 0 <= r < 2^(i^2+2) and
    1 <= s <= 2^(i^2+2) only covers 1 <= k <= 2^(2i^2+4), so k is folded into
    that range modulo 2^(2i^2+4) before splitting.
    """
    ns = np.asarray(ns, dtype=np.int64)
    m = ns + 2
    low = m & -m
    i_all = np.log2(low.astype(float)).astype(np.int64) + 1
    k_all = (m // low - 1) // 2
    out = np.empty(ns.shape, dtype=float)
    for i in np.unique(i_all):
        mask = i_all == i
        ebits = int(i) ** 2 + 2
        k = k_all[mask]
        if 2 * ebits < 63:  # else every int64 k lies below the period
            k = (k - 1) % (np.int64(1) << np.int64(2 * ebits)) + 1
        if ebits < 63:
            r, s = np.divmod(k - 1, np.int64(1) << np.int64(ebits))
            s = s + 1
        else:
            # 2^ebits exceeds any int64 k, so r = 0 (an even value).
            r, s = np.zeros_like(k), k
        v = (r * s).astype(float) * math.ldexp(1.0, -2 * ebits)
        v = v + np.where(r % 2 == 0, s.astype(float) * math.ldexp(1.0, -(ebits + 2)), 0.0)
        # k = 0 folds to r = 2^ebits - 1 (odd), s = 2^ebits: 1 - 2^-ebits.
        # Unfolded, divmod(-1, 2^ebits) would go negative.
        out[mask] = np.where(k_all[mask] == 0, 1.0 - math.ldexp(1.0, -ebits), v)
    return out


# ---------------------------------------------------------------------------
# Sheets: homogeneous layers a point set decomposes into
# ---------------------------------------------------------------------------

class PointSetSpec:
    """Base class for the tagged point-set constructions.

    A construction that is a single sheet (D2, cut-and-project) is that
    sheet, and its ``sheets()`` is ``(self,)``.
    """

    variant = ""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sheets(self):
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"variant": self.variant, "params": self.params()}


def _integer_ranges(images: np.ndarray):
    """Inclusive integer bounds, as floats, covering the rows of ``images`` per axis."""
    return np.ceil(images.min(axis=0) - 1e-9), np.floor(images.max(axis=0) + 1e-9)


def _grid_size(lo: np.ndarray, hi: np.ndarray) -> float:
    # inf past the float range, NaN (which the guards refuse) for inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.prod(np.maximum(hi - lo + 1.0, 0.0)))


def _integer_axes(lo: np.ndarray, hi: np.ndarray) -> list:
    # Floats do not wrap past 2^63 as int64 does; an empty axis (size 0) empties all.
    size = _grid_size(lo, hi)
    check_limit("integer points", size, MAX_ENUMERATED_POINTS)
    return [np.arange(a, min(b + 1.0, a + size)) for a, b in zip(lo, hi)]


def _integer_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return cartesian(*_integer_axes(lo, hi))


def _freeze(obj, **arrays):
    """Store read-only float copies of ``arrays`` on a frozen dataclass."""
    for name, arr in arrays.items():
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _abs_det(matrix: np.ndarray, refusal: str) -> float:
    """|det matrix|, refused with ValueError(refusal) unless 1e-12 < |det| < inf.

    Subnormal entries make the LU factorization divide by zero, and entries
    near the float range overflow it; the check refuses both results, so
    numpy's warnings about them are kept quiet.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = abs(float(np.linalg.det(matrix)))
    if not 1e-12 < det < math.inf:
        raise ValueError(refusal)
    return det


def _matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, never as a one-row product; matrix may be a vector.

    numpy multiplies a single row with BLAS gemv, or by a vector with a dot
    product, which can round differently from the product of several rows;
    a lone row is doubled so that a point, or a row of udt_check's u-grid,
    gets the same bits whatever window, batch or chunk it comes from.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ matrix)[:1]
    return rows @ matrix


@dataclass(frozen=True, eq=False)
class LatticeSheet:
    """The grid basis @ Z^n + shift."""

    basis: np.ndarray
    shift: np.ndarray
    inverse: np.ndarray = field(init=False)
    det: float = field(init=False)      # |det basis|

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        shift = np.asarray(self.shift, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("lattice basis must be a square matrix")
        if shift.shape != basis.shape[:1]:
            raise ValueError("lattice shift dimension must match the basis")
        if not (np.isfinite(basis).all() and np.isfinite(shift).all()):
            raise ValueError("lattice basis and shift must be finite")
        det = _abs_det(basis, "lattice basis must have 1e-12 < |det| < inf")
        _freeze(self, basis=basis, shift=shift, inverse=np.linalg.inv(basis))
        object.__setattr__(self, "det", det)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def points(self, zs: np.ndarray) -> np.ndarray:
        """basis @ z + shift for every row z of zs."""
        pts = _matmul(zs, self.basis.T)
        pts += self.shift
        return pts

    def estimate(self, window: Window) -> float:
        return window.volume / self.det * 1.2 + 16

    def _integer_box(self, window: Window):
        """Inclusive integer bounds (lo, hi), as floats, of the bounding box
        of the window's preimage; inf or NaN where the preimage leaves the
        float range, which the box guard refuses."""
        with np.errstate(over="ignore", invalid="ignore"):
            images = (window.corners() - self.shift) @ self.inverse.T
        return _integer_ranges(images)

    def _last_axis_runs(self, window: Window, prefixes: np.ndarray,
                        lo: np.ndarray, hi: np.ndarray):
        """Integer bounds first <= z_d <= last, as floats with first in
        [lo_d, hi_d + 1] and last at most hi_d, for each prefix
        (z_1..z_{d-1}) of the box [lo, hi], such that every row z whose
        point ``points`` puts in the window lies in them.

        Face k of the window holds lo_k <= c_k + b_k z_d < hi_k, with b the
        basis's last column and c_k the rest of the point.  The product that
        ``points`` rounds, the c_k computed here and the subtractions below
        each lie within (d + 1) u scale_k of their exact values (u = 2^-53;
        Higham, 2002, sec. 3.1), with scale_k = sum_j |B_kj| max|z_j| +
        |shift_k| + |lo_k| + |hi_k|; the margin is 8 (d + 3) u scale_k.  Inside
        a box under 2^50 a quotient rounds by less than one integer, so each
        bound, widened by one integer and clipped to the box, keeps every row
        that the window can hold.  A face with b_k = 0, or whose scale is past
        2^1000, bounds nothing."""
        d = self.dim
        big = np.maximum(np.abs(lo), np.abs(hi))
        first = np.full(prefixes.shape[0], lo[-1])
        last = np.full(prefixes.shape[0], hi[-1])
        for k in range(d):
            b = self.basis[k, -1]
            with np.errstate(over="ignore"):    # inf past the float range
                scale = float(np.abs(self.basis[k]) @ big) + abs(self.shift[k])
            scale += abs(window.lo[k]) + abs(window.hi[k])
            if b == 0.0 or not scale <= 2.0 ** 1000:
                continue
            margin = (d + 3) * 2.0 ** -50 * scale
            c = np.full(prefixes.shape[0], self.shift[k])
            for j in range(d - 1):
                c += self.basis[k, j] * prefixes[:, j]
            with np.errstate(over="ignore"):    # +-inf past the float range
                q_lo = (window.lo[k] - margin - c) / b
                q_hi = (window.hi[k] + margin - c) / b
            if b < 0.0:
                q_lo, q_hi = q_hi, q_lo
            np.maximum(first, np.ceil(q_lo) - 1.0, out=first)
            np.minimum(last, np.floor(q_hi) + 1.0, out=last)
        return np.minimum(first, hi[-1] + 1.0), last

    def enumerate(self, window: Window) -> np.ndarray:
        """The points in the window, in the order of the integer box's rows.

        The box is the integer bounding box of the window's preimage.  Of
        each prefix of its rows only the run that `_last_axis_runs` leaves
        is built, with the floats and in the order of the whole box's rows;
        the rows left out have their points outside the window.  A box that
        reaches 2^50 is built whole."""
        check_limit("points", self.estimate(window), MAX_ENUMERATED_POINTS)
        lo, hi = self._integer_box(window)
        axes = _integer_axes(lo, hi)
        if max(np.abs(lo).max(), np.abs(hi).max()) >= 2.0 ** 50:
            zs = cartesian(*axes)
        else:
            prefixes = cartesian(*axes[:-1])
            first, last = self._last_axis_runs(window, prefixes, lo, hi)
            counts = np.maximum(last - first + 1.0, 0.0).astype(np.int64)
            starts = np.cumsum(counts) - counts
            picks = np.arange(int(counts.sum())) + np.repeat(
                (first - lo[-1]).astype(np.int64) - starts, counts)
            zs = np.empty((picks.size, self.dim))
            zs[:, :-1] = np.repeat(prefixes, counts, axis=0)
            zs[:, -1] = axes[-1][picks]
        pts = self.points(zs)
        return np.compress(window.contains(pts), pts, axis=0)


Grid = LatticeSheet  # the public name of a translated lattice


@dataclass(frozen=True, eq=False)
class SequenceSheet:
    """A rotated copy of the column forest {(k, v_k + l) : k in Z, l in Z^(n-1)}."""

    seq: SequenceSpec
    rotation: np.ndarray
    dim: int

    def __post_init__(self):
        _freeze(self, rotation=self.rotation)

    def estimate(self, window: Window) -> float:
        return window.volume * 1.2 + 16

    def _columns(self, ks: np.ndarray, vs: np.ndarray, first: np.ndarray,
                 widths) -> np.ndarray:
        """The rotated points (k, v + first + s) of every row (k, v, first),
        row by row, s running over {0..widths_j - 1} per axis in
        lexicographic order.

        The rotation is a signed permutation, so every coordinate is exact
        whatever the number of rows."""
        stencil = cartesian(*[np.arange(w) for w in widths])
        pts = np.empty((ks.size, stencil.shape[0], self.dim))
        pts[..., 0] = ks[:, None]
        pts[..., 1:] = vs[:, None, :] + (first[:, None, :] + stencil)
        return pts.reshape(-1, self.dim) @ self.rotation.T

    def enumerate(self, window: Window) -> np.ndarray:
        check_limit("points", self.estimate(window), MAX_ENUMERATED_POINTS)
        pre = window.corners() @ self.rotation  # corners in unrotated frame
        lo = pre.min(axis=0) - 1e-9
        hi = pre.max(axis=0) + 1e-9
        ks = np.arange(math.ceil(lo[0]), math.floor(hi[0]) + 1, dtype=np.int64)
        vs = self.seq.extended_values(ks)
        # Column k holds the offsets l from ceil(lo - v_k) to floor(hi - v_k)
        # per axis; every column takes the widest run, and the window drops
        # the points beyond its own.
        first = np.ceil(lo[1:] - vs)
        widths = np.max(np.floor(hi[1:] - vs) - first + 1, axis=0, initial=0)
        pts = self._columns(ks, vs, first, widths.astype(np.int64))
        return np.compress(window.contains(pts), pts, axis=0)

    def near_rows(self, queries: np.ndarray, radius: float) -> float:
        """The rows ``candidates_near`` lists per query, sized in float."""
        return math.prod([2.0 * math.floor(radius + 0.5) + 3.0] * self.dim)

    def candidates_near(self, queries: np.ndarray, radius: float):
        ys = queries @ self.rotation
        # Past 2^52 a float holds no fraction, so unit columns run together.
        check_limit("units to a waypoint", np.abs(ys).max(initial=0.0), 2 ** 52)
        k_reach = int(math.floor(radius + 0.5)) + 1
        k_off = np.arange(-k_reach, k_reach + 1)
        ks = (np.rint(ys[:, 0]).astype(np.int64)[:, None] + k_off[None, :]).ravel()
        vs = self.seq.extended_values(ks)
        rest = ys[:, None, 1:] - vs.reshape(-1, k_off.size, self.dim - 1)
        first = (np.rint(rest) - k_reach).reshape(vs.shape)
        pts = self._columns(ks, vs, first, [k_off.size] * (self.dim - 1))
        rows = np.repeat(np.arange(ys.shape[0]), k_off.size ** self.dim)
        return pts, rows


# Global scale of the bit-reversal set.  The unscaled set {(x, rev x)} is
# guaranteed to meet every closed aligned box of area 6 (an x-window holding
# three consecutive dyadic blocks of length 2^a always holds an aligned pair,
# whose merged y-progressions have gap 2^-a), and admits empty boxes of area
# just under 4.  Scaling by 2^(-3/2) shrinks areas by 8, so every aligned box
# of area 1 contains a point while the density stays finite.
D2_SCALE = 2.0 ** -1.5
# The four sign choices of a nonnegative pair, in the order enumerate lists them.
D2_SIGNS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])


def _dyadic_fraction(m: np.ndarray) -> np.ndarray:
    """sum_{k>=1} bit_k(m) 2^-k for nonnegative integers m, exactly."""
    out = np.zeros(m.shape)
    for k in range(1, int(m.max(initial=0)).bit_length()):
        out += ((m >> k) & 1) * math.ldexp(1.0, -k)
    return out


@dataclass(frozen=True, eq=False)
class D2Sheet(PointSetSpec):
    """The planar dyadic bit-reversal set, scaled to hit unit aligned boxes.

    Before scaling, points are (+-sum a_n 2^n, +-sum a_n 2^(-n)) over finitely
    supported 0/1 sequences (a_n), the two signs chosen independently; every
    point is then multiplied by ``D2_SCALE``.  Split at the digit a_0, a
    nonnegative pair is (i + f(j), j + f(i)) with i, j >= 0 integers of
    equal parity (a_0 itself) and f = ``_dyadic_fraction``.
    """

    variant = "D2"

    @property
    def dim(self) -> int:
        return 2

    def sheets(self):
        return (self,)

    @staticmethod
    def _reach(window: Window):
        """Unscaled bounds on |x| and |y| over the window."""
        xmax = float(np.max(np.abs([window.lo[0], window.hi[0]]))) / D2_SCALE + 1e-9
        ymax = float(np.max(np.abs([window.lo[1], window.hi[1]]))) / D2_SCALE + 1e-9
        return xmax, ymax

    def estimate(self, window: Window) -> float:
        # Four sign choices of at most the pairs bound of `_d2_nonneg_pairs`.
        xmax, ymax = self._reach(window)
        with np.errstate(over="ignore"):    # inf past the float range
            return 4.0 * (np.floor(xmax) + 1.0) * (np.floor(ymax) + 1.0)

    def enumerate(self, window: Window) -> np.ndarray:
        pairs = _d2_nonneg_pairs(*self._reach(window))
        pts = (pairs[:, None, :] * D2_SIGNS[None, :, :]).reshape(-1, 2) * D2_SCALE
        return np.compress(window.contains(pts), pts, axis=0)

    def near_rows(self, queries: np.ndarray, radius: float) -> float:
        """The rows ``candidates_near`` lists per query at most, sized in float."""
        with np.errstate(over="ignore"):    # inf past the float range
            return 4.0 * (np.floor(2.0 * _d2_reach(queries, radius)) + 2.0) ** 2

    def candidates_near(self, queries: np.ndarray, radius: float):
        """(points, rows): every point within sup-norm ``radius`` of query rows[j].

        Near a reflected query (a, b), i lies in [a - r - 1, a + r] and j in
        [b - r - 1, b + r]: floor(2r) + 2 integers each.  The pairs come from
        ``_d2_pairs``, so the points are the floats of ``enumerate``.
        """
        reflected = (queries / D2_SCALE)[:, None, :] * D2_SIGNS
        r = _d2_reach(queries, radius)
        offsets = np.arange(math.floor(2.0 * r) + 2)
        top = np.floor(reflected + r).astype(np.int64)
        i, j = np.broadcast_arrays(top[:, :, :1, None] - offsets[:, None],
                                   top[:, :, 1:, None] - offsets)
        keep = (i >= 0) & (j >= 0) & ((i - j) % 2 == 0)
        rows, signs = np.nonzero(keep)[:2]
        return _d2_pairs(i[keep], j[keep]) * D2_SIGNS[signs] * D2_SCALE, rows


D2 = D2Sheet  # the public name of the bit-reversal set


def _d2_reach(queries: np.ndarray, radius: float) -> float:
    return radius / D2_SCALE + 1e-9 * (1.0 + np.abs(queries / D2_SCALE).max(initial=0.0))


def _d2_pairs(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The unscaled nonnegative D2 pairs (i + f(j), j + f(i)) of integer
    arrays i, j of equal parity that broadcast together; exact."""
    return np.stack([i + _dyadic_fraction(j), j + _dyadic_fraction(i)], axis=-1)


def _d2_nonneg_pairs(xmax: float, ymax: float) -> np.ndarray:
    """Nonnegative-quadrant representatives (x, y) with x <= xmax, y <= ymax."""
    if xmax < 0 or ymax < 0:
        return np.empty((0, 2))
    # x >= i and y >= j, so every pair comes from the integer grid
    # i <= floor(xmax), j <= floor(ymax), i = j (mod 2): at most
    # (floor(xmax) + 1)(floor(ymax) + 1) pairs, and a request over budget is
    # refused before any is built.  Measured bound/actual ratios: 2.37 at
    # xmax = ymax = 7, 2.09 at 28 and 2.0001 at 5657 (D2 windows of radius
    # 10 and 2000), 2.7 at (1000, 3) and 4.0 at (0.5, 1e4).  The build
    # peaks at about 41 bytes per pair (tracemalloc: 1.26e6 pairs at
    # xmax = ymax = 1590, 3.65e6 at 2700).
    bound = (np.floor(xmax) + 1.0) * (np.floor(ymax) + 1.0)
    check_limit("bit-reversal pairs", bound, MAX_ENUMERATED_POINTS // 4)
    # Row i pairs with j = 2t + (i mod 2).  x = i + f(j) and f ignores bit
    # 0 of j, so with t sorted once by f(2t) rows in ascending i list the
    # pairs in ascending x, the order that `d2_aligned_net` keeps in its
    # CSV.  An odd j past floor(ymax) has y > ymax and is dropped.
    i = np.arange(math.floor(xmax) + 1)[:, None]
    j = 2 * np.arange(math.floor(ymax) // 2 + 1)
    j = j[np.argsort(_dyadic_fraction(j))]
    pairs = np.empty((i.shape[0], j.size, 2))
    pairs[0::2] = _d2_pairs(i[0::2], j)
    pairs[1::2] = _d2_pairs(i[1::2], j + 1)
    pairs = pairs.reshape(-1, 2)
    return pairs[(pairs[:, 0] <= xmax) & (pairs[:, 1] <= ymax)]


@dataclass(frozen=True, eq=False)
class CutProjectSheet(PointSetSpec):
    """Cut-and-project set: physical projections of the grid points whose
    internal coordinates lie in [a, b)."""

    grid: LatticeSheet
    phys_basis: np.ndarray
    int_basis: np.ndarray
    window_interval: tuple
    variant = "CutAndProject"

    def __post_init__(self):
        phys = np.asarray(self.phys_basis, dtype=float)
        internal = np.asarray(self.int_basis, dtype=float)
        if phys.ndim != 2 or internal.ndim != 2 or phys.shape[0] != internal.shape[0]:
            raise ValueError("subspace bases must be column matrices over the same space")
        if not (np.isfinite(phys).all() and np.isfinite(internal).all()):
            raise ValueError("subspace bases must be finite")
        n = phys.shape[0]
        stacked = np.concatenate([phys, internal], axis=1)
        refusal = "physical and internal bases must span complementary subspaces"
        if stacked.shape != (n, n):
            raise ValueError(refusal)
        _abs_det(stacked, refusal)
        a, b = (float(x) for x in self.window_interval)
        if not a < b:
            raise ValueError("window interval must satisfy a < b")
        _freeze(self, phys_basis=phys, int_basis=internal, decompose=np.linalg.inv(stacked))
        object.__setattr__(self, "window_interval", (a, b))

    @property
    def dim(self) -> int:
        return self.phys_basis.shape[1]

    def sheets(self):
        return (self,)

    def params(self) -> dict:
        return {"grid": _grid_json(self.grid),
                "phys_basis": self.phys_basis.tolist(),
                "int_basis": self.int_basis.tolist(),
                "window_interval": list(self.window_interval)}

    def _cut_corners(self, window: Window) -> np.ndarray:
        """Grid coordinates of the corners of the cut over the window: the
        parallelotope {phys u + int w : u in window, w in [a, b]^q}."""
        if window.dim != self.dim:
            raise ValueError("window dimension must match the physical dimension")
        a, b = self.window_interval
        q = self.int_basis.shape[1]
        w_corners = Window(np.full(q, a), np.full(q, b)).corners()
        total = ((window.corners() @ self.phys_basis.T)[:, None, :]
                 + (w_corners @ self.int_basis.T)[None, :, :])
        return (total.reshape(-1, self.grid.dim) - self.grid.shift) @ self.grid.inverse.T

    def _project(self, zs: np.ndarray):
        """Physical parts of the grid points zs, and the cut's mask."""
        a, b = self.window_interval
        coords = _matmul(self.grid.points(zs), self.decompose.T)
        w = coords[:, self.dim:]
        return coords[:, :self.dim], np.all((w >= a) & (w < b), axis=1)

    def estimate(self, window: Window) -> float:
        return _grid_size(*_integer_ranges(self._cut_corners(window)))

    def enumerate(self, window: Window) -> np.ndarray:
        u, cut = self._project(_integer_grid(*_integer_ranges(self._cut_corners(window))))
        return np.compress(cut & window.contains(u), u, axis=0)

    def _stencil(self, radius: float):
        corners = self._cut_corners(Window.cube(radius, self.dim))
        with np.errstate(over="ignore"):    # inf widths past the float range
            return corners.min(axis=0), np.floor(np.ptp(corners, axis=0)) + 2.0

    def near_rows(self, queries: np.ndarray, radius: float) -> float:
        """The rows ``candidates_near`` lists per query, sized in float."""
        return math.prod(self._stencil(radius)[1].tolist())

    def candidates_near(self, queries: np.ndarray, radius: float):
        """(points, rows): every point within sup-norm ``radius`` of query rows[j].

        In grid coordinates the cut around q is the cut around 0 moved by
        q @ phys.T @ inv.T: floor(ptp) + 2 integers per axis from its first.
        """
        lo, widths = self._stencil(radius)
        moved = queries @ self.phys_basis.T @ self.grid.inverse.T
        check_limit("grid units to a waypoint", np.abs(moved).max(initial=0.0), 2 ** 52)
        stencil = cartesian(*[np.arange(w) for w in widths])
        zs = np.ceil(moved + (lo - 1e-9))[:, None, :] + stencil
        u, cut = self._project(zs.reshape(-1, self.grid.dim))
        rows = np.repeat(np.arange(queries.shape[0]), stencil.shape[0])
        return u[cut], rows[cut]


CutAndProject = CutProjectSheet  # the public name of a cut-and-project set


# ---------------------------------------------------------------------------
# Point-set specs
# ---------------------------------------------------------------------------

def rotate_axis_map(j: int, n: int) -> np.ndarray:
    """The rotation taking e_1 to e_j in the (x_1, x_j)-plane, identity elsewhere."""
    if not 1 <= j <= n:
        raise ValueError("axis index j must satisfy 1 <= j <= n")
    rot = np.eye(n)
    if j > 1:
        rot[0, 0] = rot[j - 1, j - 1] = 0.0
        rot[j - 1, 0] = 1.0
        rot[0, j - 1] = -1.0
    return rot


@dataclass(frozen=True, eq=False)
class PeresForest(PointSetSpec):
    """Union of Z^2, the golden-ratio shear of Z^2, and the shear rotated by 90 degrees."""

    variant = "PeresForest"

    @property
    def dim(self) -> int:
        return 2

    def sheets(self):
        shear = np.array([[1.0, 0.0], [PHI, 1.0]])
        rot = rotate_axis_map(2, 2)
        return (LatticeSheet(np.eye(2), np.zeros(2)),
                LatticeSheet(shear, np.zeros(2)),
                LatticeSheet(rot @ shear, np.zeros(2)))


@dataclass(frozen=True, eq=False)
class GeneralizedPeres(PointSetSpec):
    """Rotated union of the column forest {(k, v_k + l)} for a driving sequence."""

    seq: SequenceSpec
    n: int = 2
    variant = "GeneralizedPeres"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.seq.dim != self.n - 1:
            raise ValueError("sequence dimension must be n - 1")

    @property
    def dim(self) -> int:
        return self.n

    def sheets(self):
        return tuple(SequenceSheet(self.seq, rotate_axis_map(j, self.n), self.n)
                     for j in range(1, self.n + 1))

    def params(self) -> dict:
        return {"sequence": _seq_to_json(self.seq), "n": self.n}


def _three_grid_bases():
    alpha = math.sqrt(2.0)
    beta = 3.0 - math.sqrt(2.0) + math.sqrt(3.0) - math.sqrt(6.0)
    gamma = math.sqrt(3.0)
    delta = -3.0 + math.sqrt(6.0)
    second = np.array([[gamma, alpha], [0.0, 1.0]])
    third = np.array([[1.0, 0.0], [beta, delta]])
    return second, third


THREE_GRID_DEFAULT_X = (1.0 / math.pi, 1.0 / math.e)
THREE_GRID_DEFAULT_Y = (EULER_GAMMA, math.log(2.0))


@dataclass(frozen=True, eq=False)
class ThreeGrid(PointSetSpec):
    """Z^2 union two specific irrational grids, translated by x and y."""

    x: tuple = THREE_GRID_DEFAULT_X
    y: tuple = THREE_GRID_DEFAULT_Y
    variant = "ThreeGrid"

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != 2 or len(self.y) != 2 or not np.isfinite(self.x + self.y).all():
            raise ValueError("translations must be finite 2-vectors")

    @property
    def dim(self) -> int:
        return 2

    def sheets(self):
        second, third = _three_grid_bases()
        return (LatticeSheet(np.eye(2), np.zeros(2)),
                LatticeSheet(second, np.asarray(self.x)),
                LatticeSheet(third, np.asarray(self.y)))

    def params(self) -> dict:
        return {"x": list(self.x), "y": list(self.y)}


@dataclass(frozen=True, eq=False)
class GridUnion(PointSetSpec):
    """A finite union of lattice sheets (possibly empty)."""

    grids: tuple
    variant = "GridUnion"

    def __post_init__(self):
        grids = tuple(self.grids)
        dims = {g.dim for g in grids}
        if len(dims) > 1:
            raise ValueError("all grids in a union must share a dimension")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "_dim", dims.pop() if dims else 2)

    @property
    def dim(self) -> int:
        return self._dim

    def sheets(self):
        return self.grids

    def params(self) -> dict:
        return {"grids": [_grid_json(g) for g in self.grids]}


def _grid_json(g: LatticeSheet) -> dict:
    return {"basis": g.basis.tolist(), "translation": g.shift.tolist()}


def default_cut_and_project() -> CutProjectSheet:
    """Z^2 projected to the line y = x / (2*sqrt(3)), window of length 2 centered at 0."""
    slope = 1.0 / (2.0 * math.sqrt(3.0))
    phys = np.array([[1.0], [slope]]) / math.hypot(1.0, slope)
    internal = np.array([[-slope], [1.0]]) / math.hypot(1.0, slope)
    return CutProjectSheet(LatticeSheet(np.eye(2), np.zeros(2)), phys, internal, (-1.0, 1.0))


def integer_lattice(dim: int = 2) -> GridUnion:
    return GridUnion((LatticeSheet(np.eye(dim), np.zeros(dim)),))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable lexicographic order of the rows: ``np.lexsort(rows.T[::-1])``.

    numpy orders complex values by (real, imag) when neither part is NaN,
    so two NaN-free columns sort as one complex key, in one stable sort
    instead of two.  Rows of another width, or holding a NaN, use lexsort:
    as complex numbers (1, nan) sorts after (2, 0).
    """
    if rows.shape[1] == 2 and not np.isnan(rows).any():
        keys = np.ascontiguousarray(rows).view(np.complex128)[:, 0]
        return np.argsort(keys, kind="stable")
    return np.lexsort(rows.T[::-1])


def canonicalize_points(pts: np.ndarray) -> np.ndarray:
    """Merge duplicates within 1e-9 and sort rows lexicographically.

    Of each set of rows with equal rounded keys the first one is kept: a
    stable sort of the keys puts equal keys in runs in input order, and
    adjacent rows compare with float `!=`, so -0.0 equals 0.0 and a row
    holding NaN equals no other.  Rounding can reorder rows, so the kept
    points, taken in key order, are sorted again.  Rows that tie in that
    sort have equal keys as well, so the stable key sort left them in input
    order, and the result is the one a sort from input order gives.

    Both sorts go through `_row_order`.  For two NaN-free columns it sorts
    the rows as complex numbers, whose order numpy defines as lexicographic
    by (real, imag) when neither part is NaN; infinities compare as floats.
    A stable sort by one strict order is one permutation, so it equals
    lexsort's, ties (equal keys) staying in input order.  Other widths, and
    rows holding a NaN, fall back to lexsort.  -0.0 needs no special case:
    both sorts and the run test compare with float `<` and `!=`, under
    which -0.0 equals 0.0, and the kept points are already normalized.
    """
    if pts.shape[0] == 0:
        return pts
    pts = pts + 0.0  # normalizes -0.0
    keys = np.round(pts, MERGE_DECIMALS)
    order = _row_order(keys)
    runs = np.take(keys, order, axis=0)
    del keys
    first = np.zeros(order.size, dtype=bool)
    first[0] = True
    for k in range(runs.shape[1]):
        first[1:] |= runs[1:, k] != runs[:-1, k]
    del runs
    pts = np.take(pts, order[first], axis=0)
    del order, first
    return np.take(pts, _row_order(pts), axis=0)


def enumerate_points(spec: PointSetSpec, window: Window) -> np.ndarray:
    """All points of the infinite set inside the half-open window, canonicalized;
    refused before any sheet runs when the estimates exceed the budget."""
    if window.dim != spec.dim:
        raise ValueError("window dimension does not match the point set")
    sheets = spec.sheets()
    check_limit("points", sum(s.estimate(window) for s in sheets), MAX_ENUMERATED_POINTS)
    if not sheets:
        return np.empty((0, spec.dim))
    return canonicalize_points(np.concatenate([s.enumerate(window) for s in sheets]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _seq_to_json(seq: SequenceSpec) -> dict:
    doc = {"variant": seq.variant}
    if seq.variant == "Quadratic":
        doc["alpha"] = seq.alpha
    if seq.variant == "ConcatLinear":
        doc["thetas"] = [list(t) for t in seq.thetas]
    return doc


def seq_from_json(doc: dict) -> SequenceSpec:
    variant = doc["variant"]
    if variant == "Quadratic":
        return quadratic_sequence(doc.get("alpha", PHI))
    if variant == "ConcatLinear":
        return concat_linear_sequence(doc["thetas"])
    return SequenceSpec(variant)


def spec_to_json(spec: PointSetSpec) -> dict:
    return spec.to_json()


def spec_from_json(doc: dict) -> PointSetSpec:
    """The point set a spec object describes; ValueError names a missing key
    or a value of the wrong type."""
    if not isinstance(doc, dict):
        raise ValueError("a spec must be a JSON object")
    try:
        return _spec_from_dict(doc.get("variant"), doc.get("params", {}) or {})
    except KeyError as exc:
        raise ValueError(f"the spec lacks the key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"the spec holds a value of the wrong type: {exc}") from None


def _spec_from_dict(variant, params) -> PointSetSpec:
    if variant == "PeresForest":
        return PeresForest()
    if variant == "GeneralizedPeres":
        return GeneralizedPeres(seq_from_json(params["sequence"]), int(params.get("n", 2)))
    if variant == "ThreeGrid":
        return ThreeGrid(tuple(params.get("x", THREE_GRID_DEFAULT_X)),
                         tuple(params.get("y", THREE_GRID_DEFAULT_Y)))
    if variant == "D2":
        return D2()
    if variant == "GridUnion":
        return GridUnion(tuple(LatticeSheet(g["basis"], g["translation"])
                               for g in params.get("grids", [])))
    if variant == "CutAndProject":
        grid = params["grid"]
        return CutAndProject(LatticeSheet(grid["basis"], grid["translation"]),
                             params["phys_basis"], params["int_basis"],
                             tuple(params["window_interval"]))
    raise ValueError(f"unknown point-set variant: {variant!r}")


# write_points_csv lays each float's text out in a NUL-padded field of
# _FIELD bytes: the sign at byte 2, a "0.000" prefix ending at byte _DIGIT0,
# the 17 digits from there with the decimal point let in after the integer
# digits, "e-0N" at bytes 25-28 and the separator last.
_FIELD = 32
_DIGIT0 = 7
# Indices of the 4-byte words of `_csv_tables`.
_QUADS, _QUADS_NUL = 0, 10 ** 4
_LEADS = 2 * 10 ** 4
_NUL_WORD, _MINUS_WORD = _LEADS + 10, _LEADS + 11


def _veltkamp_split(v: np.ndarray):
    """v = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _csv_tables():
    """The tables of `_float_fields`, built once, on the first write (no
    import-time cost), and read-only, since every write shares them.

    `words` holds 4-byte words: the groups "0000".."9999", the same groups
    with their trailing zeros as NUL, the ten leading digits (byte 3), a
    NUL word and the minus sign (byte 2).  For each decimal exponent x in
    [-6, 16] (row x + 6), `head` keeps the sign and the digits before the
    decimal point, `tail` keeps the digits after it, shifted one byte to
    make room for the point, and `fill` (row 2(x + 6) + [a digit follows
    the point]) adds the zeros the head needs, the point, the "0.000" prefix
    of -4 <= x < 0 and the "e-0N" suffix of x < -4.  `pow10` is 10^k for
    0 <= k <= 22, the powers that are exact doubles, and its two halves.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    nonzero_from = np.logical_or.accumulate(digits[::-1] != 0)[::-1]
    words = np.zeros((_MINUS_WORD + 1, 4), dtype=np.uint8)
    words[_QUADS:_QUADS_NUL] = (digits + 48).T
    words[_QUADS_NUL:_LEADS] = ((digits + 48) * nonzero_from).T
    words[_LEADS:_NUL_WORD, 3] = np.arange(48, 58)
    words[_MINUS_WORD, 2] = 45
    x = np.arange(-6, 17)[:, None]
    q = np.arange(_FIELD)
    end = _DIGIT0 + 17
    point = _DIGIT0 + np.maximum(x, 0) + 1
    prefixed = (x >= -4) & (x < 0)
    head = (q == 2) | (~prefixed & (q >= _DIGIT0) & (q < point))
    tail = (q > np.where(prefixed, _DIGIT0, point)) & (q <= end)
    fill = np.where(head & (q >= _DIGIT0), 48, 0)
    fill = np.where(prefixed & (q >= _DIGIT0 + x) & (q <= _DIGIT0), 48, fill)
    fill = np.where(prefixed & (q == _DIGIT0 + x + 1), 46, fill)
    scientific = x < -4
    for offset, char in enumerate(b"e-0"):
        fill = np.where(scientific & (q == end + 1 + offset), char, fill)
    fill = np.where(scientific & (q == end + 4), 48 - x, fill)
    dot = np.where(~prefixed & (q == point), 46, 0)
    fill = np.stack([fill, fill | dot], axis=1)

    def rows(table):
        return (table * 255 if table.dtype == bool else table).astype(
            np.uint8).reshape(-1, _FIELD).view(np.uint64)

    pow10 = 10.0 ** np.arange(23)
    tables = (words.view(np.uint32)[:, 0], rows(head), rows(tail), rows(fill),
              pow10, *_veltkamp_split(pow10))
    for table in tables:
        table.setflags(write=False)
    return tables[:4] + (tables[4:],)


def _times_pow10(a: np.ndarray, x: np.ndarray, pow10):
    """Dekker's product a * 10^(16 - x) = h + l, exact for -6 <= x <= 16.

    numpy rounds each call once (no FMA), and 10^(16 - x) is an exact
    double, so h is the rounded product and l its exact error.
    """
    k = (16 - x).astype(np.intp)
    b, b_hi, b_lo = (p[k] for p in pow10)
    h = a * b
    a_hi, a_lo = _veltkamp_split(a)
    return h, a_lo * b_lo - (((h - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _digit_words(v: np.ndarray, words, pow10):
    """The 4-byte words of each float's field, its table row x + 6 and the
    mask of the floats left to the %-operation.

    For 1e-6 <= |v| < 1e17 the 17 digits are the integer D nearest to
    |v| * 10^(16 - x), x = floor(log10 |v|), ties to even as in dtoa: with
    the exact product h + l, h >= 10^16 is an even integer, so D = h +
    rint(l).  x starts from np.log10, which can be one off near a power of
    ten; comparing h + l with 10^16 and 10^17 exactly corrects it.  No D
    reaches 10^17: a double would have to lie within 5e-18 (relative) below
    a power of ten 10^-5 ... 10^17, and the nearest lie 8e-17 or more below.
    The float temporaries end with this call, before the byte stage.
    """
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), -6, 16)
    h, l = _times_pow10(a, x, pow10)
    off = ((h - 1e17) + l >= 0).astype(float) - ((h - 1e16) + l < 0)
    redo = np.flatnonzero(off)
    if redo.size:
        x[redo] += off[redo]
        fast[redo[x[redo] < -6]] = False
        redo = redo[x[redo] >= -6]
        h[redo], l[redo] = _times_pow10(a[redo], x[redo], pow10)
    # D = hi * 10^8 + lo: the floor can be one off, the carry puts it right.
    hi = np.floor(h / 1e8)
    lo = h - hi * 1e8 + np.rint(l)
    del a, h, l
    carry = np.floor(lo / 1e8)
    hi += carry
    lo -= carry * 1e8
    hi[zero] = lo[zero] = x[zero] = 0.0
    # The words of a field: sign, leading digit, four groups of 4 digits
    # whose trailing zeros are NUL when no nonzero group follows, two NULs.
    hi, lo = hi.astype(np.intp), lo.astype(np.intp)
    text = np.zeros((v.size, _FIELD // 4), dtype=np.uint32)
    text[:, 0] = words.take(_NUL_WORD + np.signbit(v))
    lead = hi // 10 ** 8
    text[:, 1] = words.take(lead + _LEADS)
    hi -= lead * 10 ** 8
    hi_4, lo_4 = hi // 10 ** 4, lo // 10 ** 4
    groups = (hi_4, hi - hi_4 * 10 ** 4, lo_4, lo - lo_4 * 10 ** 4)
    nul = np.ones(v.size, dtype=bool)
    for j in (3, 2, 1, 0):
        text[:, 2 + j] = words.take(groups[j] + nul * _QUADS_NUL)
        nul &= groups[j] == 0
    return text.view(np.uint64), (x + 6).astype(np.intp), ~(fast | zero)


def _float_fields(v: np.ndarray, tables) -> np.ndarray:
    """The "%.17g" text of each float of v, as NUL-padded _FIELD-byte rows.

    `_digit_words` writes the digits; the tables of the row's exponent keep
    the head, shift the tail one byte to let the point in and add the fill.
    Zeros print as "0" and "-0"; every other value, nan and inf too, is
    formatted by one %-operation.
    """
    words, head, tail, fill, pow10 = tables
    text, row, slow = _digit_words(v, words, pow10)
    raw = text.view(np.uint8)
    after_point = raw.ravel().take(np.arange(_DIGIT0 + 1, raw.size, _FIELD)
                                   + np.maximum(row - 6, 0))
    # The tail table never keeps byte 0, so the bytes shift as one run.
    shifted = np.zeros_like(raw)
    shifted.reshape(-1)[1:] = raw.reshape(-1)[:-1]
    text &= head.take(row, axis=0)
    text |= shifted.view(np.uint64) & tail.take(row, axis=0)
    text |= fill.take(2 * row + (after_point != 0), axis=0)
    if slow.any():
        values = v[slow].tolist()
        slow_text = ("%.17g " * len(values)) % tuple(values)
        raw[slow] = np.array(slow_text.split(), dtype=f"S{_FIELD}").view(
            np.uint8).reshape(-1, _FIELD)
    return raw


def write_points_csv(path, pts: np.ndarray, header=None):
    """Write rows as CSV with 17 significant digits.

    The header names the columns; by default it is x1,...,xn.  Each float's
    text is "%.17g" % v, the same as format(v, ".17g"), for every float,
    inf and nan too.  `_float_fields` builds the fields of CSV_CHUNK_ROWS
    rows at a time with array arithmetic; the separators go in their last
    bytes and one mask drops the NUL padding.  The chunks go round-robin to
    this thread and up to `parallel.worker_count()` - 1 more; each formats
    its chunk and writes it once every earlier chunk is written, so the
    bytes do not depend on the thread count.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rows, cols = pts.shape
    if header is None:
        header = [f"x{i + 1}" for i in range(cols)]
    tables = _csv_tables()
    chunk_rows = CSV_CHUNK_ROWS

    def chunk_text(k):
        block = pts[k * chunk_rows:(k + 1) * chunk_rows]
        text = _float_fields(block.ravel(), tables).reshape(len(block), cols, -1)
        text[:, :, -1] = ord(",")
        text[:, -1, -1] = ord("\n")
        return str(text[text != 0], "ascii")

    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        if cols == 0:
            handle.write("\n" * rows)
            return
        parallel.run_in_order(handle.write, chunk_text, -(-rows // chunk_rows),
                              parallel.worker_count())


def read_points_csv(path) -> np.ndarray:
    """The points of a CSV written by ``write_points_csv``, one row each.

    A file that holds only its header gives shape (0, header columns).
    """
    with open(path) as handle:
        header = handle.readline().strip()
        if not header.startswith("x1"):
            raise ValueError("point CSV must start with an x1,...,xn header")
        start = handle.tell()
        if not any(line.strip() for line in handle):
            return np.empty((0, len(header.split(","))))
        handle.seek(start)
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return data


def json_loads(text: str, **kwargs):
    """``json.loads``, refusing with ValueError a document nested past the
    parser's recursion limit (about 1,000 levels), which it would raise as
    RecursionError."""
    try:
        return json.loads(text, **kwargs)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def load_spec(path_or_doc) -> PointSetSpec:
    """Load a PointSetSpec from a JSON document, JSON text, or file path."""
    if isinstance(path_or_doc, PointSetSpec):
        return path_or_doc
    if isinstance(path_or_doc, dict):
        return spec_from_json(path_or_doc)
    text = str(path_or_doc)
    if text.lstrip().startswith("{"):
        return spec_from_json(json_loads(text))
    with open(text) as handle:
        return spec_from_json(json_loads(handle.read()))
