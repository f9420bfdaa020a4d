"""Construction and verification of epsilon-nets for boxes in the unit cube."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_limit
from .generators import D2Sheet
from .geometry import (AlignedBox, RotatedBox, Window, box_json, point_array,
                       run_pairs)

# Planar points hw_net may draw (it counts coordinates: 2 * MAX_NET_SIZE / d
# points in dimension d > 2).  On 2 Xeon vCPUs it drew 10^5 and 10^6 points in
# 3-20 ms (tracemalloc peaks 1.8 and 18 MB), and verify_net checked 10^4 boxes
# against 10^5, 10^6 and 3 * 10^6 points in 0.06, 0.34-0.38 and 0.8-1.0 s (4.4,
# 44 and 132 MB): a net at the cap draws in 180 MB and verifies in 3 s and 440 MB.
MAX_NET_SIZE = 10 ** 7
ASPECT_CAP = 2.0 ** 10
# verify_net draws and checks boxes in chunks of this many, so its memory
# does not grow with the number of trials.
CHUNK_BOXES = 4096
# verify_net refuses more boxes than this.  On 2 Xeon vCPUs it checked
# 1.3e5 to 3.8e5 boxes/s against a net for the boxes' volume (eps = volume =
# 0.01, hw or d2 net, aligned or rotated), so the cap runs 30 to 75 s; boxes
# that fall to the full-net check, as at volume 0.001 on a net for 0.01,
# ran at 1.6e4 to 2.3e4 boxes/s.  Memory does not grow with the boxes: a
# chunk holds 41 bytes a box, and its draw and check peak at 2.1 MB (d2
# net, aligned) to 2.5 MB (hw net, rotated) under tracemalloc.
MAX_VERIFY_TRIALS = 10 ** 7
# A rotated box makes at most this many attempts to fit in the unit square.
ROTATED_ATTEMPTS = 10000
# The rotated draw evaluates blocks of at most this many doubles at once
# (about 230 bytes a double with its temporaries, near 1 MB), unless one box
# needs more.
DRAW_BLOCK = 4096
# Ends of a rotated box's doubles that a block leaves undecided or that
# mean every attempt missed.
_STOP = -1
_FAIL = -2
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
        pts = point_array(self.points, "net points", unit_cube=True)
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
    # Exact in ints, as d may not fit a float; a tiny eps or a huge C makes size inf.
    need = math.ceil(size) * max(d, 2) if math.isfinite(size) else size
    check_limit("net coordinates", need, 2 * MAX_NET_SIZE)
    pts = np.random.default_rng(seed).random((math.ceil(size), d))
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


def _aspect_range(volume: float):
    """(lo, hi) of the log-uniform aspect ratio; lo == hi draws no ratio."""
    lo = max(1.0 / ASPECT_CAP, volume)
    hi = min(ASPECT_CAP, 1.0 / volume)
    if hi < lo:
        raise ValueError("volume admits no box within the aspect cap")
    return lo, hi


def _uniform(lo, hi, u):
    """What ``rng.uniform(lo, hi)`` returns for the double u of ``rng.random()``."""
    return lo + (hi - lo) * u


def _sides(volume: float, lo: float, hi: float, u: np.ndarray):
    """Full sides (w, h) of the boxes whose aspect ratio draws the doubles u."""
    if hi == lo:
        ratio = np.full(u.shape, lo)
    else:
        ratio = np.exp(_uniform(math.log(lo), math.log(hi), u))
    return np.sqrt(volume * ratio), np.sqrt(volume / ratio)


def _centres(half: np.ndarray, at: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Centre coordinate uniform over [half, 1 - half] from the double u[at],
    or 0.5 without a double where half is 1/2 or more."""
    draw = _uniform(half, 1.0 - half, u[np.minimum(at, u.size - 1)])
    return np.where(half < 0.5, draw, 0.5)


def _rewind(rng, state, used: int) -> None:
    """Leave rng `used` doubles after `state`, as many scalar draws would."""
    rng.bit_generator.state = state
    rng.random(used)


def _aligned_rows(volume: float, count: int, rng) -> np.ndarray:
    """Rows (cx, cy, w/2, h/2) of the next `count` aligned boxes.

    Each box takes the doubles of ``rng.random()`` in order: one for the
    aspect ratio unless lo == hi, then one for each centre coordinate whose
    side is below 1.  Every stream position is evaluated as the start of a
    box, the boxes' starts follow from the per-position lengths, and the
    generator ends just past the doubles they used, so rows and generator
    equal those of one box at a time.
    """
    lo, hi = _aspect_range(volume)
    step = int(hi != lo)
    state = rng.bit_generator.state
    u = rng.random(count * (step + 2))
    w, h = _sides(volume, lo, hi, u)
    size = step + (w < 1.0) + (h < 1.0)
    sizes = size.tolist()
    start = np.empty(count, dtype=np.int64)
    p = 0
    for i in range(count):
        start[i] = p
        p += sizes[p]
    w, h = w[start] / 2.0, h[start] / 2.0
    cx = _centres(w, start + step, u)
    cy = _centres(h, start + step + (w < 0.5), u)
    _rewind(rng, state, int(start[-1] + size[start[-1]]))
    return np.column_stack([cx, cy, w, h])


def _rotated_block(volume: float, lo: float, hi: float, step: int,
                   u: np.ndarray):
    """Every attempt a rotated box could start at a position of u.

    Returns (angle, w, h, ex, ey, fit) for each position p with a full
    attempt in u: the angle from u[p], the sides from u[p + 1] (lo == hi
    draws none), the half extents of the rotated box, and whether it fits.
    The cosine and sine are ``math.cos`` and ``math.sin``, as in one draw.
    """
    n = u.size - step + 1
    angle = math.pi * u[:n]
    w, h = _sides(volume, lo, hi, u[step - 1:step - 1 + n])
    listed = angle.tolist()
    c = np.abs(np.fromiter(map(math.cos, listed), float, n))
    s = np.abs(np.fromiter(map(math.sin, listed), float, n))
    ex = (w * c + h * s) / 2.0
    ey = (w * s + h * c) / 2.0
    fit = ~((2.0 * ex > 1.0) | (2.0 * ey > 1.0))
    return angle, w, h, ex, ey, fit


def _next_fit(fit: np.ndarray, step: int) -> np.ndarray:
    """For each position p, the first q >= p, q = p mod step, whose attempt
    fits; past every position where none does."""
    none = fit.size + ROTATED_ATTEMPTS * step
    first = np.where(fit, np.arange(fit.size), none)
    for r in range(step):
        first[r::step] = np.minimum.accumulate(first[r::step][::-1])[::-1]
    return first


def _rotated_rows(volume: float, count: int, rng) -> np.ndarray:
    """Rows (cx, cy, w/2, h/2, angle) of the next `count` rotated boxes.

    A box makes attempts of `step` doubles (angle, then ratio unless
    lo == hi) until one fits, at most ROTATED_ATTEMPTS, then takes one
    double for each centre coordinate whose half extent is below 1/2.  A
    block of doubles is evaluated at every position, ``_next_fit`` finds
    each position's first fitting attempt, and the boxes' starts are walked
    from position to position.  The block ends at the first box it cannot
    decide; the generator is rewound to that box and the next block starts
    there, so rows, errors and generator equal those of one box at a time.
    """
    lo, hi = _aspect_range(volume)
    step = 1 + int(hi != lo)
    longest = ROTATED_ATTEMPTS * step + 2
    rows = np.empty((count, 5))
    done = 0
    grow = 0
    while done < count:
        size = max(grow, min(DRAW_BLOCK, (count - done) * (step + 2)))
        state = rng.bit_generator.state
        u = rng.random(size)
        angle, w, h, ex, ey, fit = _rotated_block(volume, lo, hi, step, u)
        n = angle.size
        pos = np.arange(n)
        first = _next_fit(fit, step)
        found = first - pos < ROTATED_ATTEMPTS * step
        at = np.minimum(first, n - 1)
        end = at + step + (ex[at] < 0.5) + (ey[at] < 0.5)
        # Where the box starting at each position ends: STOP when the block
        # cannot decide it, FAIL when ROTATED_ATTEMPTS attempts all miss.
        jump = np.where(found, np.where(end <= size, end, _STOP),
                        np.where(pos + (ROTATED_ATTEMPTS - 1) * step < n, _FAIL, _STOP))
        jump = jump.tolist() + [_STOP] * step
        starts = []
        p = 0
        for _ in range(count - done):
            if jump[p] < 0:
                break
            starts.append(p)
            p = jump[p]
        if len(starts) < count - done and jump[p] == _FAIL:
            _rewind(rng, state, p + ROTATED_ATTEMPTS * step)
            raise ValueError("could not fit a rotated box of the requested volume")
        if starts:
            q = first[starts]
            cx = _centres(ex[q], q + step, u)
            cy = _centres(ey[q], q + step + (ex[q] < 0.5), u)
            rows[done:done + len(starts)] = np.column_stack(
                [cx, cy, w[q] / 2.0, h[q] / 2.0, angle[q]])
            done += len(starts)
            grow = 0
        else:
            # A block of `longest` doubles decides the box at its start.
            grow = min(4 * size, longest)
        _rewind(rng, state, p)
    return rows


def _generator(rng):
    """rng, which the array draws rewind through ``rng.bit_generator.state``."""
    if not hasattr(rng, "bit_generator"):
        raise TypeError("rng must be a numpy.random.Generator, "
                        f"not {type(rng).__name__}")
    return rng


def _aligned_box(cx, cy, hw, hh) -> AlignedBox:
    return AlignedBox.from_bounds([cx - hw, cy - hh], [cx + hw, cy + hh])


def sample_aligned_box(volume: float, rng) -> AlignedBox:
    """One aligned box of exactly `volume` inside [0,1]^2.

    Aspect is log-uniform over the ratios that fit in the unit square and
    the center is uniform over the placements keeping the box unclipped.
    rng is a ``numpy.random.Generator``; other generators raise TypeError.
    """
    return _aligned_box(*_aligned_rows(volume, 1, _generator(rng))[0])


def _rotated_box(cx, cy, hw, hh, angle) -> RotatedBox:
    return RotatedBox(angle, AlignedBox.from_bounds([-hw, -hh], [hw, hh]), [cx, cy])


def sample_rotated_box(volume: float, rng):
    """One rotated rectangle of exactly `volume` inside [0,1]^2.

    Angle and aspect are drawn until the rotated rectangle fits in the unit
    square; the center is then uniform over the placements keeping it inside.
    rng is a ``numpy.random.Generator``; other generators raise TypeError.
    """
    return _rotated_box(*_rotated_rows(volume, 1, _generator(rng))[0])


# sampler name -> (draw the rows of count boxes, box object from one row)
_SAMPLERS = {"aligned": (_aligned_rows, _aligned_box),
             "rotated": (_rotated_rows, _rotated_box)}


class _CellIndex:
    """The net points sorted into a g x g grid of cells over [0,1]^2.

    g = floor(sqrt(size / 4)) gives about four points a cell; at one a cell,
    verify_net left several times more boxes to the full-net check.  Cell
    (i, j) has key (i + 1)(g + 2) + j + 1, so a border of empty cells
    surrounds the grid and the cells (i, j - 1 .. j + 1) are one run of
    sorted points.  The sorted x and y are kept as contiguous columns.
    """

    def __init__(self, points: np.ndarray):
        self.g = max(1, math.isqrt(points.shape[0] // 4))
        keys = self.keys(points)
        order = np.argsort(keys, kind="stable")
        self.x = points[order, 0]
        self.y = points[order, 1]
        self.starts = np.searchsorted(keys[order], np.arange((self.g + 2) ** 2 + 1))

    def keys(self, xy: np.ndarray) -> np.ndarray:
        cell = np.clip(np.floor(xy * self.g), 0, self.g - 1).astype(np.int64) + 1
        return cell[:, 0] * (self.g + 2) + cell[:, 1]


def _certified_hits(index: _CellIndex, rows: np.ndarray, rotated: bool) -> np.ndarray:
    """Boxes (rows of drawn floats) that a net point near their centre lies in.

    Near means in the 3 x 3 cells around the centre.  Every box is first
    scored against its centre cell, and only the boxes still open against
    the other 8 cells: a box hit in the first phase stays hit, and an open
    box gets every pair it has left, so the hits are those of all 9 cells.
    True is a hit that ``box.contains(points)`` also finds; False decides
    nothing.  Aligned boxes compare with the box's own bounds, so the test
    is exact.  A rotated box's membership goes through a matrix product
    whose rounding depends on the row count, so a point certifies it only
    ROTATED_HIT_MARGIN inside, far beyond any rounding of that product.
    Each block of pairs takes its box columns from one per-box table: the
    4 bounds of an aligned box, or a rotated box's centre, half sides less
    the margin, cosine and sine.
    """
    cx, cy, hw, hh = rows[:, :4].T
    if rotated:
        table = np.stack([cx, cy, hw - ROTATED_HIT_MARGIN, hh - ROTATED_HIT_MARGIN,
                          np.cos(rows[:, 4]), np.sin(rows[:, 4])])
    else:
        table = np.stack([cx - hw, cx + hw, cy - hh, cy + hh])
    hits = np.zeros(rows.shape[0], dtype=bool)
    keys = index.keys(rows[:, :2])
    row = index.g + 2
    # Each phase's runs of cells, as key ranges [first, stop) from the
    # centre's key: the centre cell, then for the boxes still open its two
    # neighbours in the centre's run and the two outer runs of 3 cells.
    phases = (([0], [1]), ([-1, 1, -row - 1, row - 1], [0, 2, 2 - row, row + 2]))
    for first, stop in phases:
        boxes = np.flatnonzero(~hits)
        start = index.starts[(keys[boxes, None] + first).ravel()]
        end = index.starts[(keys[boxes, None] + stop).ravel()]
        for run, cols in run_pairs(start, end):
            box = boxes[run // len(first)]
            x = np.take(index.x, cols)
            y = np.take(index.y, cols)
            if rotated:
                cx, cy, hw, hh, c, s = np.take(table, box, axis=1)
                u = (x - cx) * c + (y - cy) * s
                v = (y - cy) * c - (x - cx) * s
                inside = (np.abs(u) <= hw) & (np.abs(v) <= hh)
            else:
                x0, x1, y0, y1 = np.take(table, box, axis=1)
                inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
            hits[box[inside]] = True
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
        rows = draw(volume, count, rng)
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
    check_limit("trials", trials, MAX_VERIFY_TRIALS)
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
    A point that is not finite or lies outside the unit cube is refused.
    """
    pts = point_array(points, unit_cube=True)
    if pts.size == 0:
        if dim is None:
            raise ValueError("dim is required for an empty point list")
        pts = np.empty((0, dim))
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
