"""Finite-window measurements on point sets and sequences.

Dispersion and discrepancy are computed exactly in low dimension; the
sup-type quantities (super-uniform dispersion, visibility, vacant strips,
heavy boxes) are certified lower bounds obtained from seeded deterministic
searches whose sampling parameters are recorded in the returned reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .errors import ResourceLimitError
from .generators import LatticeSheet, PointSetSpec, SequenceSpec, enumerate_points
from .geometry import AlignedBox, Segment, Window, point_coords, sample_segments

# Work budget for exact discrepancy, in slab-scan units (one unit = one
# point visited in one y-slab pass).  The traced unitcube run of perfbench
# (perfbench/README.md, "Where the time goes": 4.14M units in 1.62 s on a
# 2-vCPU Xeon) measured 2.55e6 units/s, so at the cap a single call runs
# about 26 minutes.  The cap stays until the slab loop becomes an
# incremental sweep; the budget is then set from that sweep's throughput.
MAX_DISCREPANCY_WORK = 4 * 10 ** 9
DISPERSION_GRID_BUDGET = 2 ** 18
# Twist rows per block of the d = 1 SUD window scan.  At N = 2^14 and
# m_max = 64 one block is about 8 MB per array (values, order, sorted).
SUD_BLOCK_ROWS = 64


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


def _points_array(points, dim: int | None = None) -> np.ndarray:
    """Coerce Point objects / tuples / arrays to a (N, d) float array.

    A one-dimensional array-like is read as N scalar points in d=1.
    """
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
    else:
        arr = np.asarray([point_coords(p) for p in points], dtype=float) \
            if len(points) else np.empty((0, dim or 1))
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("points must form an (N, d) array")
    if dim is not None and arr.shape[0] and arr.shape[1] != dim:
        raise ValueError(f"points must have dimension {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must have finite coordinates")
    return arr


def _unit_cube_check(arr: np.ndarray):
    if arr.shape[0] == 0:
        raise ValueError("at least one point is required")
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("points must lie in the unit cube")


# ---------------------------------------------------------------------------
# Dispersion
# ---------------------------------------------------------------------------

def dispersion(points) -> DispersionReport:
    """Sup-norm dispersion of points in [0,1]^d.

    d=1 is exact (boundary distances and half the largest interior gap);
    d>=2 is a grid lower bound whose error is at most grid_resolution/2.
    """
    arr = _points_array(points)
    _unit_cube_check(arr)
    n, d = arr.shape
    if d == 1:
        u = np.sort(arr[:, 0])
        gap = float(np.max(np.diff(u))) if n > 1 else 0.0
        value = max(float(u[0]), float(1.0 - u[-1]), gap / 2.0)
        return DispersionReport(N=n, value=value, exact=True)
    m = max(2, int(round(DISPERSION_GRID_BUDGET ** (1.0 / d))))
    axes = [np.linspace(0.0, 1.0, m)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=1)
    dists, _ = cKDTree(arr).query(nodes, k=1, p=np.inf)
    return DispersionReport(N=n, value=float(np.max(dists)), exact=False,
                            grid_resolution=1.0 / (m - 1))


def _toroidal_dispersion_rows(s: np.ndarray) -> np.ndarray:
    """Toroidal 1-D dispersion of each row of ascending fractional parts in [0,1)."""
    wrap = 1.0 - s[:, -1] + s[:, 0]
    if s.shape[1] > 1:
        inner = np.max(np.diff(s, axis=1), axis=1)
        return np.maximum(inner, wrap) / 2.0
    return wrap / 2.0


def _toroidal_dispersion(pts: np.ndarray) -> float:
    """Toroidal sup-norm dispersion of one point set in [0,1)^d (grid bound for d>=2)."""
    n, d = pts.shape
    if d == 1:
        return float(_toroidal_dispersion_rows(np.sort(pts.T, axis=1))[0])
    shifts = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in shifts], axis=1)
    tiled = (pts[None, :, :] + offsets[:, None, :]).reshape(-1, d)
    m = max(2, int(round(4096 ** (1.0 / d))))
    axes = [np.linspace(0.0, 1.0, m, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=1)
    dists, _ = cKDTree(tiled).query(nodes, k=1, p=np.inf)
    return float(np.max(dists))


# ---------------------------------------------------------------------------
# Discrepancy
# ---------------------------------------------------------------------------

def _critical_values(xs: np.ndarray):
    """Unique sorted coordinates with 0/1 sentinels and <=/< cumulative counts."""
    vals, counts = np.unique(xs, return_counts=True)
    if vals.size == 0 or vals[0] > 0.0:
        vals = np.concatenate([[0.0], vals])
        counts = np.concatenate([[0], counts])
    if vals[-1] < 1.0:
        vals = np.concatenate([vals, [1.0]])
        counts = np.concatenate([counts, [0]])
    cum = np.cumsum(counts)
    return vals, cum, cum - counts


def _discrepancy_1d(xs: np.ndarray, n: int) -> float:
    vals, cum, below = _critical_values(xs)
    if vals.size > MAX_DISCREPANCY_WORK:  # the scan below is linear
        raise ResourceLimitError("too many critical intervals for exact discrepancy")
    up = cum / n - vals          # closed-right / open-left term
    down = vals - below / n      # closed-left / open-right term
    d_plus = float(np.max(up + np.maximum.accumulate(down)))
    shifted = np.concatenate([[-np.inf], np.maximum.accumulate(up)[:-1]])
    d_minus = float(np.max(down + shifted))
    return max(d_plus, d_minus, 0.0)


def _slab_extremes(xs_sorted: np.ndarray, scale: float, n: int):
    """Best overfull (closed) and underfull (open) x-interval deviations
    for points of one y-slab, with box area = scale * x-length."""
    vals, cum, below = _critical_values(xs_sorted)
    up = cum / n - scale * vals
    down = scale * vals - below / n
    over = float(np.max(up + np.maximum.accumulate(down)))
    shifted = np.concatenate([[-np.inf], np.maximum.accumulate(up)[:-1]])
    under = float(np.max(down + shifted))
    return over, under


def _discrepancy_2d(pts: np.ndarray, n: int) -> float:
    yv = np.unique(np.concatenate([pts[:, 1], [0.0, 1.0]]))
    m = yv.size
    work_estimate = (m * (m + 1) / 2) * (n + 2)
    if work_estimate > MAX_DISCREPANCY_WORK:
        raise ResourceLimitError("too many critical boxes for exact discrepancy")
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    ys = pts[order, 1]
    best = 0.0
    for ia in range(m):
        ya = yv[ia]
        for ib in range(ia, m):
            yb = yv[ib]
            scale = yb - ya
            closed = xs[(ys >= ya) & (ys <= yb)]
            over, _ = _slab_extremes(closed, scale, n)
            best = max(best, over)
            if ib > ia:
                open_ = xs[(ys > ya) & (ys < yb)]
                _, under = _slab_extremes(open_, scale, n)
                best = max(best, under)
    return best


def discrepancy(points) -> float:
    """Exact extreme discrepancy over aligned boxes in [0,1]^d (d <= 2).

    Overfull deviations are attained on closed boxes with faces through
    point coordinates; underfull ones on open boxes, both enumerated exactly.
    """
    arr = _points_array(points)
    _unit_cube_check(arr)
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
        parts.append(qmc.Halton(d=d, scramble=False).random(n_grid))
    n_rand = count - n_grid
    if n_rand:
        parts.append(np.random.default_rng(seed).random((n_rand, d)))
    return np.concatenate(parts)


def _m_samples(m_max: int) -> list:
    if m_max <= 64:
        return list(range(m_max + 1))
    return [int(v) for v in np.unique(np.round(np.linspace(0, m_max, 64)).astype(np.int64))]


def _shift_groups(ms: list, N: int) -> list:
    """Runs of consecutive shifts whose first and last differ by at most N.

    The windows m <= j < m+N of a run lie in one span of at most 2N indices,
    so one sort of the span serves every shift of the run, and a sampled
    m_max far above N never makes a span longer than 2N.
    """
    groups = [[ms[0]]]
    for m in ms[1:]:
        if m - groups[-1][0] <= N:
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _window_dispersion_max(v: np.ndarray, idx: np.ndarray, shifts: list,
                           N: int, xis: np.ndarray) -> float:
    """Max over twists xi and shifts m of the toroidal dispersion of the
    window {w_j : m <= j < m+N} of w_j = (v_j - xi*j) mod 1, j in idx.

    Each block of twist rows is sorted once.  A shift keeps the sorted
    entries whose index lies in its window, exactly N per row, which are the
    floats a sort of that window alone gives, so the gaps and the value are
    the same to the last bit.
    """
    best = 0.0
    for b in range(0, xis.size, SUD_BLOCK_ROWS):
        w = np.mod(v[None, :] - xis[b:b + SUD_BLOCK_ROWS, None] * idx[None, :], 1.0)
        order = np.argsort(w, axis=1)
        s = np.take_along_axis(w, order, axis=1)
        for m in shifts:
            lo = m - shifts[0]
            keep = (order >= lo) & (order < lo + N)
            rows = s[keep].reshape(w.shape[0], N)
            best = max(best, float(np.max(_toroidal_dispersion_rows(rows))))
    return best


def sud_estimate(seq: SequenceSpec, N: int, m_max: int, xi_count: int,
                 seed: int) -> SUDEstimate:
    """Lower bound for the uniform dispersion of {v_{k+m} - xi*(k+m)}, k < N.

    Maximizes the toroidal dispersion of the N fractional-part vectors over
    sampled shifts m and twists xi (xi matters only mod 1).  The shift-m set
    is the window m <= j < m+N of the single sequence v_j - xi*j, so the
    sequence is evaluated once over the spans of `_shift_groups`, and for
    d = 1 each span is sorted once per block of twists.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if xi_count < 1:
        raise ValueError("xi_count must be at least 1")
    d = seq.dim
    ms = _m_samples(m_max)
    xis = _xi_samples(xi_count, d, seed)
    groups = _shift_groups(ms, N)
    spans = [np.arange(g[0], g[-1] + N, dtype=np.int64) for g in groups]
    values = np.split(seq.extended_values(np.concatenate(spans)),
                      np.cumsum([span.size for span in spans])[:-1])
    best = 0.0
    for shifts, idx, vs in zip(groups, spans, values):
        if d == 1:
            best = max(best, _window_dispersion_max(vs[:, 0], idx, shifts, N,
                                                    xis[:, 0]))
            continue
        # d >= 2 keeps one KD-tree per (m, xi): its grid bound is a nearest-
        # neighbour query, and a tree over the span cannot leave out the
        # indices outside a window without querying past them.
        for m in shifts:
            win = slice(m - shifts[0], m - shifts[0] + N)
            for xi in xis:
                pts = np.mod(vs[win] - np.outer(idx[win].astype(float), xi), 1.0)
                best = max(best, _toroidal_dispersion(pts))
    return SUDEstimate(N=int(N), m_samples=ms, xi_samples=int(xi_count),
                       value=best)


# ---------------------------------------------------------------------------
# Visibility probing
# ---------------------------------------------------------------------------

def _candidate_scores(cand: np.ndarray, bases: np.ndarray, dirs: np.ndarray,
                      eps: float) -> np.ndarray:
    """Earliest parameter at which each candidate point starts blocking.

    For candidate p against the line base + t*dir, the blocked set
    {t : sup-norm(base + t*dir - p) < eps} is an open interval (t_lo, t_hi);
    the score is t_lo when the interval is nonempty and reaches past t=0,
    else +inf.  A probe of length L is hit by p exactly when score < L.
    """
    b = cand - bases
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (b - eps) / dirs
        hi = (b + eps) / dirs
    lo2 = np.minimum(lo, hi)
    hi2 = np.maximum(lo, hi)
    flat = dirs == 0.0
    if np.any(flat):
        inside = np.abs(b) < eps
        lo2 = np.where(flat, np.where(inside, -np.inf, np.inf), lo2)
        hi2 = np.where(flat, np.where(inside, np.inf, -np.inf), hi2)
    t_lo = lo2.max(axis=-1)
    t_hi = hi2.min(axis=-1)
    valid = (t_lo < t_hi) & (t_hi > 0.0)
    return np.where(valid, t_lo, np.inf)


def _generic_sheet_tree(sheets, bases, dirs, lengths, reach):
    """KD-tree over enumerated points of sheets lacking analytic candidates."""
    ends = bases + lengths[:, None] * dirs
    lo = np.minimum(bases.min(axis=0), ends.min(axis=0)) - (reach + 1.0)
    hi = np.maximum(bases.max(axis=0), ends.max(axis=0)) + (reach + 1.0)
    pts = [sheet.enumerate(Window(lo, hi)) for sheet in sheets]
    pool = np.concatenate(pts) if pts else np.empty((0, bases.shape[1]))
    return (cKDTree(pool), pool) if pool.shape[0] else (None, pool)


def _probe_first_hits(spec: PointSetSpec, eps: float, bases: np.ndarray,
                      dirs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per probe, the infimum of blocking scores over all forest points.

    Scans waypoints spaced 1 apart along each probe; every point within
    sup-norm eps of the probe lies within eps + 1/2 of some waypoint, so the
    candidate sets cover all blockers and the scores are exact.
    """
    n_probe, d = bases.shape
    reach = eps + 0.5 + 1e-6
    guard = (eps + reach) * math.sqrt(d) + 1e-9
    sheets = spec.sheets()
    analytic = [s for s in sheets if hasattr(s, "candidates_near")]
    generic = [s for s in sheets if not hasattr(s, "candidates_near")]
    tree, pool = (None, None)
    if generic:
        tree, pool = _generic_sheet_tree(generic, bases, dirs, lengths, reach)
    first = np.full(n_probe, np.inf)
    horizons = np.ceil(lengths)
    alive = np.arange(n_probe)
    chunk = 4096
    t = 0.0
    while alive.size:
        for start in range(0, alive.size, chunk):
            sel = alive[start:start + chunk]
            q = bases[sel] + t * dirs[sel]
            for sheet in analytic:
                cand, rows = sheet.candidates_near(q, reach)
                stencil = cand.shape[0] // sel.size
                scores = _candidate_scores(
                    cand, bases[sel][rows], dirs[sel][rows], eps)
                per_probe = scores.reshape(sel.size, stencil).min(axis=1)
                np.minimum.at(first, sel, per_probe)
            if tree is not None:
                hits = tree.query_ball_point(q, reach * math.sqrt(d) + 1e-9)
                for j, idx in enumerate(hits):
                    if not idx:
                        continue
                    cand = pool[idx]
                    sc = _candidate_scores(
                        cand, np.broadcast_to(bases[sel[j]], cand.shape),
                        np.broadcast_to(dirs[sel[j]], cand.shape), eps)
                    first[sel[j]] = min(first[sel[j]], float(sc.min()))
        t += 1.0
        alive = alive[(horizons[alive] >= t) & (first[alive] > t - guard)]
    return first


def _segments_to_arrays(segments):
    bases = np.asarray([s.base for s in segments], dtype=float)
    dirs = np.asarray([s.direction for s in segments], dtype=float)
    lengths = np.asarray([s.length for s in segments], dtype=float)
    return bases, dirs, lengths


def visibility_from_segments(spec: PointSetSpec, epsilon: float,
                             segments) -> VisibilityReport:
    """Hit statistics of explicit probe segments against a point set."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not segments:
        raise ValueError("at least one probe segment is required")
    bases, dirs, lengths = _segments_to_arrays(segments)
    first = _probe_first_hits(spec, epsilon, bases, dirs, lengths)
    hits = first < lengths
    fraction = float(np.mean(hits))
    worst = None
    if not np.all(hits):
        misses = np.flatnonzero(~hits)
        worst = segments[int(misses[np.argmax(first[misses])])]
    return VisibilityReport(epsilon=float(epsilon), L=float(np.max(lengths)),
                            segments_tested=len(segments),
                            hit_fraction=fraction, worst_segment=worst)


def check_visibility(spec: PointSetSpec, epsilon: float, L: float, count: int,
                     window: Window, seed: int) -> VisibilityReport:
    """Probe the set with `count` seeded segments of length L based in the window.

    A probe hits when some forest point comes within sup-norm epsilon of it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if L < 0:
        raise ValueError("L must be nonnegative")
    segments = sample_segments(window, L, count, seed)
    report = visibility_from_segments(spec, epsilon, segments)
    return VisibilityReport(epsilon=report.epsilon, L=float(L),
                            segments_tested=report.segments_tested,
                            hit_fraction=report.hit_fraction,
                            worst_segment=report.worst_segment)


def estimate_visibility(spec: PointSetSpec, epsilon: float, L_max: float,
                        count: int, window: Window, seed: int) -> float:
    """Smallest length on the grid {L_max * 2^-j} at which all probes hit.

    Returns +inf when some probe of length L_max still misses.  The scan
    computes each probe's first blocking parameter once, so the returned
    grid value is consistent with check_visibility on the same seed.
    """
    if L_max <= 0:
        raise ValueError("L_max must be positive")
    segments = sample_segments(window, L_max, count, seed)
    bases, dirs, lengths = _segments_to_arrays(segments)
    first = _probe_first_hits(spec, epsilon, bases, dirs, lengths)
    threshold = float(np.max(first))
    if threshold >= L_max:
        return math.inf
    level = L_max
    for _ in range(60):
        if level / 2.0 <= threshold:
            break
        level /= 2.0
    return level


# ---------------------------------------------------------------------------
# Empty tubes and vacant strips
# ---------------------------------------------------------------------------

def _orthonormal_complement(direction: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.column_stack([direction, np.eye(direction.size)]))
    return q[:, 1:direction.size]


def _clip_line(base: np.ndarray, direction: np.ndarray, window: Window):
    t0, t1 = -np.inf, np.inf
    for j in range(base.size):
        if direction[j] == 0.0:
            if not (window.lo[j] <= base[j] <= window.hi[j]):
                return None
            continue
        a = (window.lo[j] - base[j]) / direction[j]
        b = (window.hi[j] - base[j]) / direction[j]
        t0 = max(t0, min(a, b))
        t1 = min(t1, max(a, b))
    if not np.isfinite(t0) or not np.isfinite(t1) or t0 >= t1:
        return None
    return t0, t1


def _line_gap_profile(pts: np.ndarray, base: np.ndarray, direction: np.ndarray,
                      eps: float, t0: float, t1: float):
    """Unblocked gaps and merged blocked intervals of a clipped line.

    Each point blocks the open t-interval where the line passes within
    sup-norm eps of it; gaps partition [t0, t1] minus the blocked union.
    """
    if pts.shape[0]:
        b = pts - base
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (b - eps) / direction
            hi = (b + eps) / direction
        lo2 = np.minimum(lo, hi)
        hi2 = np.maximum(lo, hi)
        flat = direction == 0.0
        if np.any(flat):
            inside = np.abs(b) < eps
            lo2 = np.where(flat, np.where(inside, -np.inf, np.inf), lo2)
            hi2 = np.where(flat, np.where(inside, np.inf, -np.inf), hi2)
        t_lo = np.maximum(lo2.max(axis=1), t0)
        t_hi = np.minimum(hi2.min(axis=1), t1)
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
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if offsets_per_direction < 1:
        raise ValueError("offsets_per_direction must be at least 1")
    dirs = [np.asarray(d, dtype=float) for d in directions]
    if not dirs:
        raise ValueError("at least one direction is required")
    pad = epsilon + 1e-6
    pts = enumerate_points(spec, Window(window.lo - pad, window.hi + pad))
    center = (window.lo + window.hi) / 2.0
    n = window.dim
    best = None
    for raw in dirs:
        direction = raw / np.linalg.norm(raw)
        comp = _orthonormal_complement(direction)
        corners_p = window.corners() @ comp
        plo = corners_p.min(axis=0)
        phi = corners_p.max(axis=0)
        k = offsets_per_direction
        if n == 2:
            offs = (plo + (np.arange(k) + 0.5) * (phi - plo) / k)[:, None]
        else:
            offs = plo + qmc.Halton(d=n - 1, scramble=False).random(k) * (phi - plo)
        proj = pts @ comp if pts.shape[0] else np.empty((0, n - 1))
        if n == 2 and pts.shape[0]:
            order = np.argsort(proj[:, 0])
            sorted_proj = proj[order, 0]
        for off in offs:
            base = center + comp @ (off - center @ comp)
            clip = _clip_line(base, direction, window)
            if clip is None:
                continue
            t0, t1 = clip
            if pts.shape[0] == 0:
                near = pts
            elif n == 2:
                radius = epsilon * math.sqrt(2) + 1e-9
                i0 = np.searchsorted(sorted_proj, off[0] - radius, side="left")
                i1 = np.searchsorted(sorted_proj, off[0] + radius, side="right")
                near = pts[order[i0:i1]]
            else:
                radius = epsilon * math.sqrt(n) + 1e-9
                near = pts[np.linalg.norm(proj - off, axis=1) < radius]
            gaps, _ = _line_gap_profile(near, base, direction, epsilon, t0, t1)
            for start, length in gaps:
                if best is None or length > best[0]:
                    best = (length, base + start * direction, direction)
    if best is None:
        raise ValueError("no candidate line intersects the window")
    length, start, direction = best
    return Segment(start, direction, length), float(length)


def _dual_direction_candidates(spec: PointSetSpec, dim: int) -> list:
    """Normals along which constituent lattices project onto discrete sets."""
    out = []
    max_index = 16 if dim <= 2 else max(1, int(round(50000 ** (1.0 / dim))) // 2)
    rng_axis = np.arange(-max_index, max_index + 1)
    mesh = np.meshgrid(*([rng_axis] * dim), indexing="ij")
    zs = np.stack([g.ravel() for g in mesh], axis=1)
    zs = zs[np.any(zs != 0, axis=1)]
    gcds = np.gcd.reduce(np.abs(zs), axis=1)
    zs = zs[gcds == 1]
    lead = np.argmax(zs != 0, axis=1)
    signs = np.sign(zs[np.arange(zs.shape[0]), lead])
    zs = zs * signs[:, None]
    zs = np.unique(zs, axis=0)
    for sheet in spec.sheets():
        if isinstance(sheet, LatticeSheet):
            duals = zs @ sheet.inverse
            out.append(duals / np.linalg.norm(duals, axis=1, keepdims=True))
    return out


def _central_width(proj: np.ndarray, cu: float, bulk: float):
    """Largest gap of sorted projections whose midpoint lies within bulk of
    the centre's projection cu, or None when no gap does."""
    gaps = np.diff(proj)
    mids = (proj[:-1] + proj[1:]) / 2.0
    central = np.abs(mids - cu) <= bulk
    if not np.any(central):
        return None
    return float(np.max(gaps[central]))


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

    Only a few directions need the sort of every projection.  Let P be the
    points of the sub-window |x - center|_inf <= bulk (bulk = half the
    inradius).  A central gap (a, b) has its midpoint in the band
    [c.u - bulk, c.u + bulk].  When P's projections reach past both ends of
    the band, the P-projections a' <= a and b' >= b next to the gap are
    consecutive among P's, the gap (a', b') meets the band, and b' - a' >=
    b - a: P is a subset and float subtraction is monotone.  So the largest
    P-gap meeting the band bounds the width from above, and the full sort
    runs in order of decreasing bound until the next bound is below the
    widest strip found, which leaves the result exactly that of a scan of
    every direction.  P's projections come from their own product, so they
    may differ from the full ones in the last bits; the band is widened and
    the bound raised by 2*eps, with eps at a relative 1e-9 far above those
    differences and the rounding of the midpoint test.  A direction whose
    P-projections stay inside the band gets an infinite bound.
    """
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    dim = window.dim
    groups = _dual_direction_candidates(spec, dim)
    extras = [np.asarray(d, dtype=float) for d in candidate_directions]
    for extra in extras:
        groups.append((extra / np.linalg.norm(extra))[None, :])
    if not groups:
        raise ValueError("no candidate directions: supply candidate_directions")
    cands = np.concatenate(groups)
    lead = np.argmax(np.abs(cands) > 1e-12, axis=1)
    signs = np.sign(cands[np.arange(cands.shape[0]), lead])
    cands = cands * signs[:, None]
    cands = np.unique(np.round(cands, 12), axis=0)
    center = (window.lo + window.hi) / 2.0
    bulk = float(np.min(window.extent)) / 4.0
    sub = pts[np.all(np.abs(pts - center) <= bulk, axis=1)]
    # |x.u| <= dim * (|center|_inf + bulk) for x in P, for c.u and for every
    # central midpoint; eps is 1e-9 of that scale.
    eps = 1e-9 * dim * (float(np.max(np.abs(center))) + bulk)
    bounds = np.array([_central_width_bound(np.sort(sub @ u), float(center @ u),
                                            bulk, eps) for u in cands])
    best_width = -1.0
    best_k = -1
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] < best_width:
            break
        u = cands[k]
        width = _central_width(np.sort(pts @ u), float(center @ u), bulk)
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
        out.append((t, count / t ** n))
    return out


def min_gap(spec: PointSetSpec, window: Window) -> float:
    """Minimum pairwise Euclidean distance among the enumerated points."""
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(np.min(dists[:, 1]))


# ---------------------------------------------------------------------------
# Heavy boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RotatedBox:
    """An axis-aligned box expressed in a frame rotated by `angle`."""

    angle: float
    box: AlignedBox

    @property
    def volume(self) -> float:
        return self.box.volume

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c, s = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        return self.box.contains(pts @ rot)


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
    # Slight overshoot keeps the product >= target despite rounding.
    scale = max((target / vol) ** (1.0 / box.dim), 1.0) * (1.0 + 1e-12)
    return AlignedBox.from_bounds(center - half * scale, center + half * scale)


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
        nonlocal best_cnt, best_box
        anchors = primary[::stride]
        if width >= primary[-1] - primary[0]:
            anchors = primary[:1]
        for a in anchors:
            i0 = np.searchsorted(primary, a, side="left")
            i1 = np.searchsorted(primary, a + width, side="right")
            if i1 - i0 <= best_cnt:
                continue
            slab = np.sort(secondary[i0:i1])
            upper = np.searchsorted(slab, slab + height, side="right")
            counts = upper - np.arange(slab.size)
            j = int(np.argmax(counts))
            if counts[j] > best_cnt:
                best_cnt = int(counts[j])
                lo_b = (a, slab[j]) if not flip else (slab[j], a)
                hi_b = (a + width, slab[j] + height) if not flip \
                    else (slab[j] + height, a + width)
                best_box = AlignedBox.from_bounds(lo_b, hi_b)

    for ratio in 2.0 ** np.linspace(-10, 10, 41):
        w = math.sqrt(eps * ratio)
        h = math.sqrt(eps / ratio)
        sweep(xs, ys_by_x, w, h, flip=False)
        sweep(ys, xs_by_y, h, w, flip=True)
    return best_box, best_cnt


def heavy_box(points, eps: float, aligned_only: bool = True,
              rotation_samples: int = 0, seed: int = 0):
    """Search for a box of volume exactly eps containing many points.

    Returns (box, count) — a certified lower-bound witness: the box is
    axis-aligned (or a RotatedBox when rotations are sampled) and the count
    is the number of points it contains after inflating its volume to eps.
    """
    pts = _points_array(points)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if pts.shape[0] == 0:
        raise ValueError("at least one point is required")
    if pts.shape[1] > 2:
        raise ValueError("heavy-box search is implemented for dimensions 1 and 2")
    box, _ = _best_aligned_box(pts, eps)
    box = _inflate_to_volume(box, eps)
    count = int(np.count_nonzero(box.contains(pts)))
    best = (box, count)
    if not aligned_only and pts.shape[1] == 2 and rotation_samples > 0:
        rng = np.random.default_rng(seed)
        for _ in range(rotation_samples):
            angle = float(rng.uniform(0.0, math.pi))
            c, s = math.cos(angle), math.sin(angle)
            rotated = pts @ np.array([[c, -s], [s, c]])
            rbox, _ = _best_aligned_box(rotated, eps)
            rbox = _inflate_to_volume(rbox, eps)
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
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("thetas must be a nonempty list of d-vectors")
    xi_vec = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi_vec.shape != (arr.shape[1],):
        raise ValueError("xi must match the dimension of thetas")
    t_int = int(T)
    if t_int < 1:
        raise ValueError("T must be at least 1")
    d = arr.shape[1]
    if d * (2 * t_int + 1) ** d > 10 ** 8:
        raise ResourceLimitError("u-grid too large for exhaustive margin search")
    axis = np.arange(-t_int, t_int + 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    us = np.stack([g.ravel() for g in mesh], axis=1).astype(float)
    us = us[np.any(us != 0.0, axis=1)]
    margins = np.empty(arr.shape[0])
    for i, theta in enumerate(arr):
        prod = us @ (xi_vec - theta)
        margins[i] = float(np.min(np.abs(prod - np.rint(prod))))
    best = int(np.argmax(margins))
    return best + 1, float(margins[best])
