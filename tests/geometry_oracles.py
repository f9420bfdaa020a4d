"""Sup-norm distances from points to segments, the points of a segment, the
window around a segment's sup-norm tube, and the former per-caller slab
tests of line clipping and window chords.

The program itself never needs these: the visibility probes score blockers
with `analysis._candidate_scores`, and every line-box interval comes from
`analysis._line_box`.  The tests use them as exact oracles.
"""

import math

import numpy as np

from denseforest.geometry import Segment, Window, point_coords


def supnorm_segment_distances(points, segment: Segment) -> np.ndarray:
    """Exact min over t in [0, L] of ||base + t*direction - p||_inf, per point.

    The map t -> ||base + t*direction - p||_inf is convex piecewise linear;
    its minimum over [0, L] is attained at an endpoint, at a root of one of
    the coordinate terms |a_i + t*alpha_i|, or at a crossing of two terms,
    so evaluating those candidate parameters is exact.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != segment.dim:
        raise ValueError("point dimension does not match segment dimension")
    alpha = segment.direction
    a = segment.base[None, :] - pts
    d = alpha.size
    candidates = [np.zeros(pts.shape[0]), np.full(pts.shape[0], segment.length)]
    # Divisions by near-zero components may overflow to +-inf; such
    # candidates clip to the endpoints below, which are already listed.
    with np.errstate(over="ignore"):
        for i in range(d):
            if alpha[i] != 0.0:
                candidates.append(-a[:, i] / alpha[i])
        for i in range(d):
            for j in range(i + 1, d):
                diff = alpha[j] - alpha[i]
                if diff != 0.0:
                    candidates.append((a[:, i] - a[:, j]) / diff)
                total = alpha[i] + alpha[j]
                if total != 0.0:
                    candidates.append(-(a[:, i] + a[:, j]) / total)
    ts = np.clip(np.stack(candidates, axis=1), 0.0, segment.length)
    residuals = a[:, None, :] + ts[:, :, None] * alpha[None, None, :]
    return np.abs(residuals).max(axis=2).min(axis=1)


def supnorm_point_segment_distance(p, segment: Segment) -> float:
    """Exact sup-norm distance from a point to a segment."""
    coords = point_coords(p)
    if coords.size != segment.dim:
        raise ValueError("point dimension does not match segment dimension")
    return float(supnorm_segment_distances(coords[None, :], segment)[0])


def point_at(segment: Segment, t: float) -> np.ndarray:
    """The point base + t*direction of the segment's line."""
    return segment.base + t * segment.direction


def tube_bounding_window(segment: Segment, eps: float) -> Window:
    """Smallest window containing every point within sup-norm eps of the segment."""
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    ends = np.stack([segment.base, point_at(segment, segment.length)])
    return Window(ends.min(axis=0) - eps, ends.max(axis=0) + eps)


def clip_line(base: np.ndarray, direction: np.ndarray, window: Window):
    """(t0, t1) of the line base + t*direction in the closed window, one
    axis at a time, or None when it misses the window or is unbounded."""
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


def box_chords(window: Window, us: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Length of the chord {x : u.x = offset} of the closed window, per row
    of the unit normals us (d = 2), with its own flat-axis rule."""
    along = np.stack([-us[:, 1], us[:, 0]], axis=1)
    foot = offsets[:, None] * us
    flat = along == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (window.lo - foot) / along
        b = (window.hi - foot) / along
    # A chord parallel to a side is the whole line or nothing along it.
    inside = (foot >= window.lo) & (foot <= window.hi)
    a = np.where(flat, np.where(inside, -math.inf, math.inf), a)
    b = np.where(flat, math.inf, b)
    enter = np.max(np.minimum(a, b), axis=1)
    leave = np.min(np.maximum(a, b), axis=1)
    return np.maximum(leave - enter, 0.0)
