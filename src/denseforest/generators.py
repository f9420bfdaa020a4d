"""Point-set constructions and their driving sequences, enumerated over windows.

Every infinite set is represented by a small spec object that knows how to
list its points inside a half-open window and, for the lattice-backed
constructions, how to produce candidate points near query locations (used by
the visibility scanners).  Enumeration output is canonicalized: duplicates
within 1e-9 are merged and rows are sorted lexicographically, so results are
independent of internal evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .geometry import Window

PHI = (1.0 + math.sqrt(5.0)) / 2.0
EULER_GAMMA = 0.5772156649015329

MAX_ENUMERATED_POINTS = 10 ** 8
MERGE_DECIMALS = 9


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
                raise ValueError("ConcatLinear direction vectors must share a dimension")
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
    return SequenceSpec("ConcatLinear", thetas=tuple(np.atleast_2d(np.asarray(thetas, dtype=float)).tolist()))


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
        i = int(i)
        if i <= 5:
            # 2^(2i^2+4) <= 2^54 fits in int64, so fold and split exactly.
            ebits = i * i + 2
            period = np.int64(1) << np.int64(2 * ebits)
            kf = (k_all[mask] - 1) % period + 1
            r, s = np.divmod(kf - 1, np.int64(1) << np.int64(ebits))
            s = s + 1
            v = (r * s).astype(float) * math.ldexp(1.0, -(2 * i * i + 4))
            v = v + np.where(r % 2 == 0, s.astype(float) * math.ldexp(1.0, -(i * i + 4)), 0.0)
        elif i <= 7:
            # k always lies below 2^(2i^2+4) here; split without folding.
            r, s = np.divmod(k_all[mask] - 1, np.int64(1) << np.int64(i * i + 2))
            s = s + 1
            v = (r * s).astype(float) * math.ldexp(1.0, -(2 * i * i + 4))
            v = v + np.where(r % 2 == 0, s.astype(float) * math.ldexp(1.0, -(i * i + 4)), 0.0)
        else:
            # 2^(i^2+2) exceeds any representable k, so r = 0 (an even value).
            v = k_all[mask].astype(float) * math.ldexp(1.0, -(i * i + 4))
        # k = 0 folds to the top of the range: r = 2^(i^2+2) - 1 (odd) and
        # s = 2^(i^2+2), giving 1 - 2^-(i^2+2) for every i.  The i <= 5 branch
        # reaches this through the modular fold; the others need it spelled
        # out because divmod(-1, E) would go negative.
        v = np.where(k_all[mask] == 0, 1.0 - math.ldexp(1.0, -(i * i + 2)), v)
        out[mask] = v
    return out


# ---------------------------------------------------------------------------
# Sheets: homogeneous layers a point set decomposes into
# ---------------------------------------------------------------------------

def _check_budget(estimate: float):
    if estimate > MAX_ENUMERATED_POINTS:
        raise ResourceLimitError(
            f"enumeration would produce about {estimate:.3g} points "
            f"(limit {MAX_ENUMERATED_POINTS:.0e})")


def _integer_ranges(images: np.ndarray):
    """Inclusive integer bounds covering the rows of ``images`` per axis."""
    lo = np.ceil(images.min(axis=0) - 1e-9).astype(np.int64)
    hi = np.floor(images.max(axis=0) + 1e-9).astype(np.int64)
    return lo, hi


def _integer_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    counts = np.maximum(hi - lo + 1, 0)
    _check_budget(float(np.prod(counts.astype(float))))
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True, eq=False)
class LatticeSheet:
    """The grid basis @ Z^n + shift."""

    basis: np.ndarray
    shift: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float).copy()
        n = basis.shape[0]
        if basis.shape != (n, n):
            raise ValueError("lattice basis must be a square matrix")
        det = np.linalg.det(basis)
        if abs(det) <= 1e-12:
            raise ValueError("lattice basis must have |det| > 1e-12")
        shift = np.asarray(self.shift, dtype=float).copy()
        if shift.shape != (n,):
            raise ValueError("lattice shift dimension must match the basis")
        basis.setflags(write=False)
        shift.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "shift", shift)
        inverse = np.linalg.inv(basis)
        inverse.setflags(write=False)
        object.__setattr__(self, "inverse", inverse)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def enumerate(self, window: Window) -> np.ndarray:
        _check_budget(window.volume / abs(np.linalg.det(self.basis)) * 1.2 + 16)
        images = (window.corners() - self.shift) @ self.inverse.T
        zlo, zhi = _integer_ranges(images)
        zs = _integer_grid(zlo, zhi)
        pts = zs @ self.basis.T + self.shift
        return pts[window.contains(pts)]

    def candidates_near(self, queries: np.ndarray, radius: float):
        """Lattice points within sup-norm ``radius`` of each query row.

        Returns (points, rows) where rows[j] indexes the query the candidate
        belongs to.  The candidate set is a superset: exactness comes from
        the caller's distance filter.
        """
        ys = (queries - self.shift) @ self.inverse.T
        reach = np.abs(self.inverse).sum(axis=1) * radius
        ks = np.floor(reach + 0.5).astype(np.int64) + 1
        axes = [np.arange(-k, k + 1) for k in ks]
        mesh = np.meshgrid(*axes, indexing="ij")
        stencil = np.stack([m.ravel() for m in mesh], axis=1)
        zs = np.rint(ys)[:, None, :] + stencil[None, :, :]
        pts = zs.reshape(-1, self.dim) @ self.basis.T + self.shift
        rows = np.repeat(np.arange(queries.shape[0]), stencil.shape[0])
        return pts, rows


@dataclass(frozen=True, eq=False)
class SequenceSheet:
    """A rotated copy of the column forest {(k, v_k + l) : k in Z, l in Z^(n-1)}."""

    seq: SequenceSpec
    rotation: np.ndarray
    dim: int

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float).copy()
        rotation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)

    def enumerate(self, window: Window) -> np.ndarray:
        _check_budget(window.volume * 1.2 + 16)
        pre = window.corners() @ self.rotation  # corners in unrotated frame
        lo = pre.min(axis=0) - 1e-9
        hi = pre.max(axis=0) + 1e-9
        ks = np.arange(math.ceil(lo[0]), math.floor(hi[0]) + 1, dtype=np.int64)
        if ks.size == 0:
            return np.empty((0, self.dim))
        vs = self.seq.extended_values(ks)
        blocks = []
        for k, v in zip(ks, vs):
            axes = [np.arange(math.ceil(lo[j + 1] - v[j]), math.floor(hi[j + 1] - v[j]) + 1)
                    for j in range(self.dim - 1)]
            if any(a.size == 0 for a in axes):
                continue
            mesh = np.meshgrid(*axes, indexing="ij")
            ls = np.stack([m.ravel() for m in mesh], axis=1)
            block = np.empty((ls.shape[0], self.dim))
            block[:, 0] = k
            block[:, 1:] = v + ls
            blocks.append(block)
        if not blocks:
            return np.empty((0, self.dim))
        pts = np.concatenate(blocks) @ self.rotation.T
        return pts[window.contains(pts)]

    def candidates_near(self, queries: np.ndarray, radius: float):
        ys = queries @ self.rotation
        k_reach = int(math.floor(radius + 0.5)) + 1
        k_off = np.arange(-k_reach, k_reach + 1)
        ks = np.rint(ys[:, 0]).astype(np.int64)[:, None] + k_off[None, :]
        vs = self.seq.extended_values(ks.ravel()).reshape(ks.shape + (self.dim - 1,))
        rest = ys[:, None, 1:] - vs  # target offsets for the integer shifts
        axes = [np.arange(-k_reach, k_reach + 1)] * (self.dim - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        stencil = np.stack([m.ravel() for m in mesh], axis=1)
        ls = np.rint(rest)[:, :, None, :] + stencil[None, None, :, :]
        n_q, n_k, n_l = ks.shape[0], ks.shape[1], stencil.shape[0]
        pts = np.empty((n_q, n_k, n_l, self.dim))
        pts[..., 0] = ks[:, :, None]
        pts[..., 1:] = vs[:, :, None, :] + ls
        pts = pts.reshape(-1, self.dim) @ self.rotation.T
        rows = np.repeat(np.arange(n_q), n_k * n_l)
        return pts, rows


# Global scale of the bit-reversal set.  The unscaled set {(x, rev x)} is
# guaranteed to meet every closed aligned box of area 6 (an x-window holding
# three consecutive dyadic blocks of length 2^a always holds an aligned pair,
# whose merged y-progressions have gap 2^-a), and admits empty boxes of area
# just under 4.  Scaling by 2^(-3/2) shrinks areas by 8, so every aligned box
# of area 1 contains a point while the density stays finite.
D2_SCALE = 2.0 ** -1.5


@dataclass(frozen=True, eq=False)
class D2Sheet:
    """The planar dyadic bit-reversal set, scaled to hit unit aligned boxes.

    Before scaling, points are (+-sum a_n 2^n, +-sum a_n 2^(-n)) over finitely
    supported 0/1 sequences (a_n), the two signs chosen independently; every
    point is then multiplied by ``D2_SCALE``.
    """

    dim: int = 2

    def enumerate(self, window: Window) -> np.ndarray:
        xmax = float(np.max(np.abs([window.lo[0], window.hi[0]]))) / D2_SCALE + 1e-9
        ymax = float(np.max(np.abs([window.lo[1], window.hi[1]]))) / D2_SCALE + 1e-9
        pairs = _d2_nonneg_pairs(xmax, ymax)
        if pairs.size == 0:
            return np.empty((0, 2))
        signs = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
        pts = (pairs[:, None, :] * signs[None, :, :]).reshape(-1, 2) * D2_SCALE
        return pts[window.contains(pts)]


def _d2_nonneg_pairs(xmax: float, ymax: float) -> np.ndarray:
    """Nonnegative-quadrant representatives (x, y) with x <= xmax, y <= ymax."""
    if xmax < 0 or ymax < 0:
        return np.empty((0, 2))
    positions = []
    n = 0
    # n < 1024 keeps 2.0 ** n finite; no float xmax can reach 2^1024.
    while n < 1024 and 2.0 ** n <= xmax:
        if 2.0 ** (-n) <= ymax:
            positions.append(n)
        n += 1
    n = -1
    while 2.0 ** (-n) <= ymax:
        if 2.0 ** n <= xmax:
            positions.append(n)
        n -= 1
    # Descending x-weight keeps the x-prune effective early.
    positions.sort(reverse=True)
    weights = [(2.0 ** p, 2.0 ** (-p)) for p in positions]
    out = []
    limit = MAX_ENUMERATED_POINTS // 4
    # Depth-first over include/exclude choices, the exclude branch first; a
    # stack of pending (index, x, y) nodes keeps the depth off the call stack.
    stack = [(0, 0.0, 0.0)]
    while stack:
        if len(out) > limit:
            raise ResourceLimitError("bit-reversal enumeration exceeds the point budget")
        idx, x, y = stack.pop()
        if idx == len(weights):
            out.append((x, y))
            continue
        wx, wy = weights[idx]
        if x + wx <= xmax and y + wy <= ymax:
            stack.append((idx + 1, x + wx, y + wy))
        stack.append((idx + 1, x, y))
    return np.asarray(out)


@dataclass(frozen=True, eq=False)
class CutProjectSheet:
    """Physical-space coordinates of grid points whose internal part is in the window."""

    basis: np.ndarray
    shift: np.ndarray
    phys_basis: np.ndarray
    int_basis: np.ndarray
    window_interval: tuple

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        shift = np.asarray(self.shift, dtype=float)
        phys = np.asarray(self.phys_basis, dtype=float)
        internal = np.asarray(self.int_basis, dtype=float)
        if phys.ndim != 2 or internal.ndim != 2 or phys.shape[0] != internal.shape[0]:
            raise ValueError("subspace bases must be column matrices over the same space")
        n = phys.shape[0]
        stacked = np.concatenate([phys, internal], axis=1)
        if stacked.shape != (n, n) or abs(np.linalg.det(stacked)) <= 1e-12:
            raise ValueError("physical and internal bases must span complementary subspaces")
        a, b = (float(x) for x in self.window_interval)
        if not a < b:
            raise ValueError("window interval must satisfy a < b")
        for name, arr in (("basis", basis), ("shift", shift),
                          ("phys_basis", phys), ("int_basis", internal)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "window_interval", (a, b))
        decompose = np.linalg.inv(stacked)
        decompose.setflags(write=False)
        object.__setattr__(self, "decompose", decompose)

    @property
    def dim(self) -> int:
        return self.phys_basis.shape[1]

    @property
    def total_dim(self) -> int:
        return self.phys_basis.shape[0]

    def enumerate(self, window: Window) -> np.ndarray:
        if window.dim != self.dim:
            raise ValueError("window dimension must match the physical dimension")
        a, b = self.window_interval
        q = self.int_basis.shape[1]
        u_corners = window.corners()
        w_corners = Window(np.full(q, a), np.full(q, b)).corners()
        total = []
        for u in u_corners:
            for w in w_corners:
                total.append(self.phys_basis @ u + self.int_basis @ w)
        region = np.asarray(total)
        binv = np.linalg.inv(self.basis)
        zlo, zhi = _integer_ranges((region - self.shift) @ binv.T)
        zs = _integer_grid(zlo, zhi)
        grid_pts = zs @ self.basis.T + self.shift
        coords = grid_pts @ self.decompose.T
        u = coords[:, :self.dim]
        w = coords[:, self.dim:]
        keep = np.all((w >= a) & (w < b), axis=1) & window.contains(u)
        return u[keep]


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


class PointSetSpec:
    """Base class for the tagged point-set constructions."""

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
        if len(self.x) != 2 or len(self.y) != 2:
            raise ValueError("translations must be 2-vectors")

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
class D2(PointSetSpec):
    """The planar dyadic bit-reversal set meeting every aligned box of volume 1."""

    variant = "D2"

    @property
    def dim(self) -> int:
        return 2

    def sheets(self):
        return (D2Sheet(),)


@dataclass(frozen=True, eq=False)
class Grid:
    """A translated full-rank lattice basis @ Z^n + translation."""

    basis: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float).copy()
        n = basis.shape[0]
        if basis.shape != (n, n):
            raise ValueError("grid basis must be square")
        if abs(np.linalg.det(basis)) <= 1e-12:
            raise ValueError("grid basis must have |det| > 1e-12")
        translation = np.asarray(self.translation, dtype=float).copy()
        if translation.shape != (n,):
            raise ValueError("grid translation dimension must match the basis")
        basis.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "translation", translation)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True, eq=False)
class GridUnion(PointSetSpec):
    """A finite union of grids (possibly empty)."""

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
        return tuple(LatticeSheet(g.basis, g.translation) for g in self.grids)

    def params(self) -> dict:
        return {"grids": [{"basis": g.basis.tolist(),
                           "translation": g.translation.tolist()} for g in self.grids]}


@dataclass(frozen=True, eq=False)
class CutAndProject(PointSetSpec):
    """Cut-and-project set: physical projections of grid points with internal part in [a, b)."""

    grid: Grid
    phys_basis: np.ndarray
    int_basis: np.ndarray
    window_interval: tuple
    variant = "CutAndProject"

    def __post_init__(self):
        sheet = CutProjectSheet(self.grid.basis, self.grid.translation,
                                self.phys_basis, self.int_basis, self.window_interval)
        object.__setattr__(self, "phys_basis", sheet.phys_basis)
        object.__setattr__(self, "int_basis", sheet.int_basis)
        object.__setattr__(self, "window_interval", sheet.window_interval)
        object.__setattr__(self, "_sheet", sheet)

    @property
    def dim(self) -> int:
        return self._sheet.dim

    def sheets(self):
        return (self._sheet,)

    def params(self) -> dict:
        return {"grid": {"basis": self.grid.basis.tolist(),
                         "translation": self.grid.translation.tolist()},
                "phys_basis": self.phys_basis.tolist(),
                "int_basis": self.int_basis.tolist(),
                "window_interval": list(self.window_interval)}


def default_cut_and_project() -> CutAndProject:
    """Z^2 projected to the line y = x / (2*sqrt(3)), window of length 2 centered at 0."""
    slope = 1.0 / (2.0 * math.sqrt(3.0))
    phys = np.array([[1.0], [slope]]) / math.hypot(1.0, slope)
    internal = np.array([[-slope], [1.0]]) / math.hypot(1.0, slope)
    return CutAndProject(Grid(np.eye(2), np.zeros(2)), phys, internal, (-1.0, 1.0))


def integer_lattice(dim: int = 2) -> GridUnion:
    return GridUnion((Grid(np.eye(dim), np.zeros(dim)),))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def canonicalize_points(pts: np.ndarray) -> np.ndarray:
    """Merge duplicates within 1e-9 and sort rows lexicographically."""
    if pts.shape[0] == 0:
        return pts
    pts = pts + 0.0  # normalizes -0.0
    keys = np.round(pts, MERGE_DECIMALS)
    _, idx = np.unique(keys, axis=0, return_index=True)
    pts = pts[np.sort(idx)]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def enumerate_points(spec: PointSetSpec, window: Window) -> np.ndarray:
    """All points of the infinite set inside the half-open window, canonicalized."""
    if window.dim != spec.dim:
        raise ValueError("window dimension does not match the point set")
    parts = [sheet.enumerate(window) for sheet in spec.sheets()]
    if not parts:
        return np.empty((0, spec.dim))
    return canonicalize_points(np.concatenate(parts))


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
    variant = doc.get("variant")
    params = doc.get("params", {}) or {}
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
        grids = tuple(Grid(np.asarray(g["basis"], dtype=float),
                           np.asarray(g["translation"], dtype=float))
                      for g in params.get("grids", []))
        return GridUnion(grids)
    if variant == "CutAndProject":
        grid = Grid(np.asarray(params["grid"]["basis"], dtype=float),
                    np.asarray(params["grid"]["translation"], dtype=float))
        return CutAndProject(grid,
                             np.asarray(params["phys_basis"], dtype=float),
                             np.asarray(params["int_basis"], dtype=float),
                             tuple(params["window_interval"]))
    raise ValueError(f"unknown point-set variant: {variant!r}")


def write_points_csv(path, pts: np.ndarray):
    """Write points as CSV with header x1,...,xn and 17 significant digits."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    header = ",".join(f"x{i + 1}" for i in range(pts.shape[1]))
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in pts:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_points_csv(path) -> np.ndarray:
    with open(path) as handle:
        header = handle.readline().strip()
        if not header.startswith("x1"):
            raise ValueError("point CSV must start with an x1,...,xn header")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return data


def load_spec(path_or_doc) -> PointSetSpec:
    """Load a PointSetSpec from a JSON document, JSON text, or file path."""
    if isinstance(path_or_doc, PointSetSpec):
        return path_or_doc
    if isinstance(path_or_doc, dict):
        return spec_from_json(path_or_doc)
    text = str(path_or_doc)
    if text.lstrip().startswith("{"):
        return spec_from_json(json.loads(text))
    with open(text) as handle:
        return spec_from_json(json.load(handle))
