"""Construction and verification of epsilon-nets for boxes in the unit cube."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .generators import D2Sheet
from .geometry import AlignedBox, RotatedBox, Window, box_json, run_pairs

MAX_NET_SIZE = 10 ** 7
ASPECT_CAP = 2.0 ** 10
# verify_net draws and checks boxes in chunks of this many, so its memory
# does not grow with the number of trials.
CHUNK_BOXES = 4096
# Each sampled box first tests the net points in the 3 x 3 cells around its
# centre, for this many boxes at a time and at most CELL_RUN_POINTS points
# from each row of 3 cells, so the candidate arrays stay near 1 MB.
CERTIFY_BOXES = 512
CELL_RUN_POINTS = 32
# How far inside a rotated box, in its own frame, a point must lie to
# certify a hit without the full-net product.
ROTATED_HIT_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class Net:
    """A finite point set in [0,1]^d built to meet every box of volume epsilon."""

    points: np.ndarray
    epsilon: float
    method: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("net points must form an (N, d) array")
        if pts.size and (pts.min() < -1e-12 or pts.max() > 1.0 + 1e-12):
            raise ValueError("net points must lie in the unit cube")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.method not in ("HausslerWelzl", "D2Aligned"):
            raise ValueError(f"unknown net method: {self.method!r}")
        # A read-only array that owns its memory is kept as it is: no view
        # of it can write, so hw_net and d2_aligned_net hand over theirs.
        if pts.flags.writeable or not pts.flags.owndata:
            pts = pts.copy()
            pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class NetReport:
    """Outcome of probing a net with boxes of one fixed volume."""

    boxes_tested: int
    hit_fraction: float
    worst_missed_box: object = None

    def to_json(self) -> dict:
        worst = None
        if self.worst_missed_box is not None:
            worst = box_json(self.worst_missed_box)
        return {"boxes_tested": self.boxes_tested,
                "hit_fraction": self.hit_fraction,
                "worst_missed_box": worst}


def hw_net(eps: float, d: int, C: float, seed: int) -> Net:
    """Uniform random net of ceil(C * (1/eps) * ln(1/eps)) points in [0,1]^d."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be positive and finite")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    size = C * (1.0 / eps) * math.log(1.0 / eps)
    # The budget counts coordinates: MAX_NET_SIZE planar points.  A tiny eps
    # or a huge C overflows the size to inf.
    if not math.isfinite(size) or math.ceil(size) * max(d, 2) > 2 * MAX_NET_SIZE:
        raise ResourceLimitError(f"net of {size:.3g} points in dimension {d} exceeds "
                                 f"the limit of {2 * MAX_NET_SIZE} coordinates")
    size = math.ceil(size)
    pts = np.random.default_rng(seed).random((size, d))
    pts.setflags(write=False)
    return Net(points=pts, epsilon=float(eps), method="HausslerWelzl")


def d2_aligned_net(eps: float) -> Net:
    """Scaled bit-reversal net (sqrt(eps) * D2) restricted to the closed unit square.

    Any aligned box of volume eps inside [0,1]^2, rescaled by 1/sqrt(eps),
    has volume 1 and therefore meets the bit-reversal set; scaling back shows
    the net meets the original box.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    scale = math.sqrt(eps)
    reach = 1.0 / scale
    raw = D2Sheet().enumerate(Window([-1e-9, -1e-9], [reach + 1e-9, reach + 1e-9]))
    scaled = raw * scale
    pts = scaled[np.all((scaled >= 0.0) & (scaled <= 1.0), axis=1)]
    pts.setflags(write=False)
    return Net(points=pts, epsilon=float(eps), method="D2Aligned")


def _feasible_aspect(volume: float, rng) -> float:
    lo = max(1.0 / ASPECT_CAP, volume)
    hi = min(ASPECT_CAP, 1.0 / volume)
    if hi < lo:
        raise ValueError("volume admits no box within the aspect cap")
    if hi == lo:
        return lo
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _draw_aligned_box(volume: float, rng):
    """Centre and half-sides (cx, cy, w/2, h/2) of the next aligned box."""
    ratio = _feasible_aspect(volume, rng)
    w = math.sqrt(volume * ratio)
    h = math.sqrt(volume / ratio)
    cx = rng.uniform(w / 2.0, 1.0 - w / 2.0) if w < 1.0 else 0.5
    cy = rng.uniform(h / 2.0, 1.0 - h / 2.0) if h < 1.0 else 0.5
    return cx, cy, w / 2.0, h / 2.0


def _draw_rotated_box(volume: float, rng):
    """Centre, half-sides and angle (cx, cy, w/2, h/2, angle) of the next
    rotated box."""
    for _ in range(10000):
        angle = float(rng.uniform(0.0, math.pi))
        ratio = _feasible_aspect(volume, rng)
        w = math.sqrt(volume * ratio)
        h = math.sqrt(volume / ratio)
        c, s = abs(math.cos(angle)), abs(math.sin(angle))
        ex = (w * c + h * s) / 2.0
        ey = (w * s + h * c) / 2.0
        if 2.0 * ex > 1.0 or 2.0 * ey > 1.0:
            continue
        cx = rng.uniform(ex, 1.0 - ex) if ex < 0.5 else 0.5
        cy = rng.uniform(ey, 1.0 - ey) if ey < 0.5 else 0.5
        return cx, cy, w / 2.0, h / 2.0, angle
    raise ValueError("could not fit a rotated box of the requested volume")


def _aligned_box(cx, cy, hw, hh) -> AlignedBox:
    return AlignedBox.from_bounds([cx - hw, cy - hh], [cx + hw, cy + hh])


def sample_aligned_box(volume: float, rng) -> AlignedBox:
    """One aligned box of exactly `volume` inside [0,1]^2.

    Aspect is log-uniform over the ratios that fit in the unit square and
    the center is uniform over the placements keeping the box unclipped.
    """
    return _aligned_box(*_draw_aligned_box(volume, rng))


def _rotated_box(cx, cy, hw, hh, angle) -> RotatedBox:
    return RotatedBox(angle, AlignedBox.from_bounds([-hw, -hh], [hw, hh]), [cx, cy])


def sample_rotated_box(volume: float, rng):
    """One rotated rectangle of exactly `volume` inside [0,1]^2.

    Angle and aspect are drawn until the rotated rectangle fits in the unit
    square; the center is then uniform over the placements keeping it inside.
    """
    return _rotated_box(*_draw_rotated_box(volume, rng))


# sampler name -> (draw one box as floats, box object from those floats)
_SAMPLERS = {"aligned": (_draw_aligned_box, _aligned_box),
             "rotated": (_draw_rotated_box, _rotated_box)}


class _CellIndex:
    """The net points sorted into a g x g grid of cells over [0,1]^2.

    g = floor(sqrt(size / 4)) gives about four points a cell; at one a cell,
    verify_net left several times more boxes to the full-net check.  Cell
    (i, j) has key (i + 1)(g + 2) + j + 1, so a border of empty cells
    surrounds the grid and the cells (i, j - 1 .. j + 1) are one run of
    sorted points.
    """

    def __init__(self, points: np.ndarray):
        self.g = max(1, math.isqrt(points.shape[0] // 4))
        keys = self.keys(points)
        order = np.argsort(keys, kind="stable")
        self.points = points[order]
        self.starts = np.searchsorted(keys[order], np.arange((self.g + 2) ** 2 + 1))

    def keys(self, xy: np.ndarray) -> np.ndarray:
        cell = np.clip(np.floor(xy * self.g), 0, self.g - 1).astype(np.int64) + 1
        return cell[:, 0] * (self.g + 2) + cell[:, 1]

    def near(self, centres: np.ndarray):
        """(rows, candidate points): the points of the 3 x 3 cells around each
        centre, at most CELL_RUN_POINTS from each row of 3 cells."""
        runs = self.keys(centres)[:, None] + (self.g + 2) * np.arange(-1, 2)
        start = self.starts[runs - 1].ravel()
        stop = np.minimum(self.starts[runs + 2].ravel(), start + CELL_RUN_POINTS)
        rows, cols = run_pairs(start, stop)
        return rows // 3, self.points[cols]


def _certified_hits(index: _CellIndex, rows: np.ndarray, rotated: bool) -> np.ndarray:
    """Boxes (rows of drawn floats) that a net point near their centre lies in.

    True is a hit that ``box.contains(points)`` also finds; False decides
    nothing.  Aligned boxes compare with the box's own bounds, so the test
    is exact.  A rotated box's membership goes through a matrix product
    whose rounding depends on the row count, so a point certifies it only
    ROTATED_HIT_MARGIN inside, far beyond any rounding of that product.
    """
    hits = np.zeros(rows.shape[0], dtype=bool)
    for lo in range(0, rows.shape[0], CERTIFY_BOXES):
        chunk = rows[lo:lo + CERTIFY_BOXES]
        box, near = index.near(chunk[:, :2])
        x = near[:, 0]
        y = near[:, 1]
        cx, cy, hw, hh = (chunk[box, j] for j in range(4))
        if not rotated:
            inside = (x >= cx - hw) & (x <= cx + hw) & (y >= cy - hh) & (y <= cy + hh)
        else:
            c = np.cos(chunk[:, 4])[box]
            s = np.sin(chunk[:, 4])[box]
            u = (x - cx) * c + (y - cy) * s
            v = (y - cy) * c - (x - cx) * s
            inside = ((np.abs(u) <= hw - ROTATED_HIT_MARGIN)
                      & (np.abs(v) <= hh - ROTATED_HIT_MARGIN))
        hits[lo + box[inside]] = True
    return hits


def _box_hits(net: Net, box_sampler: str, volume: float, trials: int,
              seed: int):
    """Yield (rows, hits) for each chunk of the sampled boxes, in order.

    rows holds each box's drawn floats and hits whether it contains a net
    point.  A box no point near its centre certifies is decided by
    ``box.contains(net.points)`` over the whole net.
    """
    draw, make = _SAMPLERS[box_sampler]
    rng = np.random.default_rng(seed)
    index = _CellIndex(net.points) if net.size else None
    for start in range(0, trials, CHUNK_BOXES):
        count = min(CHUNK_BOXES, trials - start)
        rows = np.array([draw(volume, rng) for _ in range(count)])
        if index is None:
            yield rows, np.zeros(count, dtype=bool)
            continue
        hits = _certified_hits(index, rows, box_sampler == "rotated")
        for i in np.flatnonzero(~hits):
            hits[i] = bool(np.any(make(*rows[i]).contains(net.points)))
        yield rows, hits


def verify_net(net: Net, box_sampler: str, volume: float, trials: int,
               seed: int) -> NetReport:
    """Fraction of sampled volume-`volume` boxes containing a net point.

    box_sampler is "aligned" or "rotated"; boxes are closed and always lie
    inside the unit square.  The first box that misses is reported.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0.0 < volume <= 1.0:
        raise ValueError("volume must lie in (0, 1]")
    if box_sampler not in _SAMPLERS:
        raise ValueError("box_sampler must be 'aligned' or 'rotated'")
    if net.dim != 2:
        raise ValueError("net verification is implemented for dimension 2")
    _, make = _SAMPLERS[box_sampler]
    hits = 0
    worst = None
    for rows, hit in _box_hits(net, box_sampler, volume, trials, seed):
        hits += int(np.count_nonzero(hit))
        if worst is None and not hit.all():
            worst = make(*rows[int(np.argmin(hit))])
    return NetReport(boxes_tested=int(trials),
                     hit_fraction=hits / trials,
                     worst_missed_box=worst)


def slab_lower_bound(points, dim: int | None = None) -> AlignedBox:
    """A point-free axis slab of volume at least 1/(k+1) for k input points.

    Sorting each coordinate (with 0/1 sentinels) splits the cube into k+1
    slabs along that axis; the best axis's largest gap is returned.  The
    slab is open in its interior, so boundary points do not intersect it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        if dim is None:
            raise ValueError("dim is required for an empty point list")
        pts = np.empty((0, dim))
    if pts.ndim == 1:
        pts = pts[:, None]
    d = pts.shape[1]
    if dim is not None and d != dim:
        raise ValueError("points do not match the requested dimension")
    best_axis, best_gap, best_lo = 0, -1.0, 0.0
    for axis in range(d):
        vals = np.concatenate([[0.0], np.sort(pts[:, axis]), [1.0]])
        gaps = np.diff(vals)
        j = int(np.argmax(gaps))
        if gaps[j] > best_gap:
            best_axis, best_gap, best_lo = axis, float(gaps[j]), float(vals[j])
    lo = np.zeros(d)
    hi = np.ones(d)
    lo[best_axis] = best_lo
    hi[best_axis] = best_lo + best_gap
    return AlignedBox.from_bounds(lo, hi)
