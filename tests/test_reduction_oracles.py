"""Differential tests of the fast reductions and probe scans against direct oracles.

`sud_estimate` bounds each twist by the dispersion of the core that all
windows of a run of shifts share, and, best bound first, only for the
twists whose bound can still win sorts the span once and keeps each
shift's window by index; `vacant_strip` bounds every direction by the level
spacing of a lattice sheet and refines, best bound first, only the
directions that can still win: from a seeded quarter of the sub-window
around the centre, then from the whole sub-window, then by the full sort,
whose central gaps are one run found by bisection.  The oracles below
compute the same quantities the direct way: one sort per (shift, twist)
matrix and the former two-pass scan that took every twist's first window,
one full sort per direction, the scan that bounds every direction from the
sub-window alone, and a mask over every gap; the spacing bounds are checked
against the full width of every direction they bound.  The SUD tests count
the twist rows that reach the per-shift scan, and a strip test the
directions that reach each tier, so that pruned and surviving cases are
both exercised.

`min_gap` scans the pairs of neighbouring cells of a grid whose side is
the least distance between consecutive rows, in blocks of sorted rows on
up to three threads; its oracles are the unbounded KD-tree query of every
point and the former lookup over the whole key array on one thread.  The
d = 1 SUD core bounds run on the same threads, and a failure in either
must reach the caller and end every thread.  `dispersion` (d >= 2) and the SUD grid
bound mark the grid nodes within a bound of some point and compute exact
distances only for the others; their oracle is a KD-tree query (p = inf)
of every node, the former code.
`canonicalize_points` merges rounded duplicates with one stable sort; its
oracle is `np.unique(axis=0)`.  Two NaN-free columns sort as one complex
key; the former code, two lexsorts, is the oracle of that sort.
`Window.contains` builds its mask one column at a time; its oracle compares
the whole array at once.  `LatticeSheet.enumerate` builds, of each prefix
of its integer box, only the run of last entries that the window's faces
leave; its oracle builds every row of the box.

`_probe_first_hits` walks lattice sheets column by column in lattice
coordinates and marches the other sheets in unit steps, each sheet listing
its own candidates.  Its oracles are the unit-step march the walk replaced,
which visits a lattice stencil around waypoints spaced 1 apart and keeps a
KD-tree and per-probe loop over the enumerated D2 and cut-and-project
points (picked by sheet type), and a brute force that scores every
enumerated point of the probe's tube.  All three score points with the
same kernel.

`_probe_rows` draws each random probe straight into its rows, takes the
norms from one stacked matmul and forms the bases after the loop, and it
starts over with a per-probe check when a norm is short; its oracle is the
former per-row loop with `np.linalg.norm`.  `_walk_lattice_sheets` holds
only the live probes of each sheet's walk, compressed when some drop; its
oracles are the index-based walk it replaced, which gathers every probe's
state by index on every call, and a walk that recomputes every probe's
next entry on every round.  The walk also skips the columns
whose box provably holds no integer; its oracle is the walk without the
skip, compared below the horizon, and every skipped column's float box is
checked to be empty as `score` rounds it.  `estimate_visibility` draws one
sample for a sequence of epsilons; its oracle is one call per epsilon.

`find_empty_tube` passes each offset line only the points of a slab and
ball around it; its oracle passes every window point.

`SequenceSheet.enumerate` and `SequenceSheet.candidates_near` build their
points with one column builder over a box of integer offsets.  Their
oracles are the per-column loop and the centred stencil they replaced; a
further test checks that the candidates cover every enumerated point of
the sup-norm box around each query, which the march relies on.  The D2 and
cut-and-project candidates are checked the same way, and also to be points
that `enumerate` lists, byte for byte.

`verify_net` draws each chunk of boxes as floats, certifies hits from the
net points in the cells around each centre and checks the remaining boxes
against the whole net.  Its oracles are the per-box loop it replaced (the
former samplers build each box object and test it against every net
point) and the former KD-tree certificate from the 8 nearest net points.

`discrepancy` gathers each slab from one prefix table of points per
y-level and x-bucket, many slabs per array pass, and scans only the slabs
on a coarse grid of y-levels and those that the coarse slabs cannot rule
out; `heavy_box` counts a block of anchors at once
from ranks in their sorted slab union and, below 512 points, sweeps each
aspect ratio along its narrower side only.  Their oracles are the loops they
replaced: one critical-value scan per slab, and one sort per anchor, aspect
ratio and sweep axis.  `udt_check` builds its u-grid in chunks; its oracle
builds the whole grid.

`_tsokanos_values` evaluates every dyadic block with one body; its oracle
is the former function with three branches.

`_d2_nonneg_pairs` builds the D2 pairs (i + f(j), j + f(i)) over a grid of
integers i, j of equal parity; its oracle is the former bit reversal of
every integer b below xmax 2^-lo, the positions lo..hi read off
`math.frexp`.

`halton` is a numpy radical inverse; its oracle is scipy's
`qmc.Halton(d, scramble=False)`, which the program no longer imports.
`write_points_csv` builds the "%.17g" text of a chunk of rows with array
arithmetic (Dekker's exact product with a power of ten, a 4-digit table)
and leaves only the values outside 1e-6 <= |v| < 1e17 to one %-operation;
the tests run it on one to three threads, the caller among them, and its
oracle is the per-row writer, one f-string per float.  The SUD twist
values t - floor(t) are compared bit for bit with np.mod(t, 1.0).

The fast paths promise the same floats, so every comparison is exact.
"""

import contextlib
import functools
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import qmc

import denseforest.analysis as analysis
import denseforest.epsnet as epsnet
import denseforest.generators as generators
import denseforest.geometry as geometry
import denseforest.parallel as parallel
from denseforest.analysis import (RotatedBox, _best_aligned_box,
                                  _candidate_scores, _central_width,
                                  _central_width_bound, _covered,
                                  _grid_bound,
                                  _dual_direction_candidates, _m_samples,
                                  _min_gap, _probe_first_hits, _shift_groups,
                                  _strip_candidates, _toroidal_dispersion,
                                  _unit_directions, _xi_samples, discrepancy,
                                  dispersion, find_empty_tube, heavy_box, min_gap,
                                  sud_estimate, udt_check,
                                  vacant_strip, visibility_from_segments)
from denseforest.errors import ResourceLimitError
from denseforest.epsnet import (Net, _aligned_rows, _box_hits, _rotated_rows,
                                d2_aligned_net, sample_aligned_box,
                                sample_rotated_box, verify_net)
from denseforest.generators import (D2, D2_SCALE, CutAndProject,
                                    CutProjectSheet, D2Sheet,
                                    GeneralizedPeres, Grid,
                                    GridUnion, LatticeSheet, PeresForest,
                                    SequenceSheet, ThreeGrid,
                                    _d2_nonneg_pairs,
                                    _tsokanos_values, canonicalize_points,
                                    concat_linear_sequence,
                                    default_cut_and_project, enumerate_points,
                                    golden_sequence, integer_lattice,
                                    quadratic_sequence, tsokanos_sequence,
                                    write_points_csv)
from denseforest.geometry import (AlignedBox, Segment, Window, cartesian,
                                  halton, sample_probes)
from geometry_oracles import tube_bounding_window

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def sud_oracle(seq, N, m_max, xi_count, seed):
    """Sort-per-shift SUD: a fresh (twist x N) matrix per shift m."""
    d = seq.dim
    xis = _xi_samples(xi_count, d, seed)
    best = 0.0
    for m in _m_samples(m_max):
        idx = np.arange(m, m + N, dtype=np.int64)
        vs = seq.extended_values(idx)
        if d == 1:
            mats = np.mod(vs[:, 0][None, :] - xis[:, :1] * idx[None, :], 1.0)
            s = np.sort(mats, axis=1)
            wrap = 1.0 - s[:, -1] + s[:, 0]
            if N > 1:
                rows = np.maximum(np.max(np.diff(s, axis=1), axis=1), wrap) / 2.0
            else:
                rows = wrap / 2.0
            best = max(best, float(np.max(rows)))
        else:
            for xi in xis:
                pts = np.mod(vs - np.outer(idx.astype(float), xi), 1.0)
                best = max(best, _toroidal_dispersion(pts))
    return best


def former_run_dispersion_max(vs, idx, shifts, N, xis, best):
    """The two-pass run scan that best-first SUD replaced: each block's
    first windows raise best, and each row's core bound then decides
    whether the row is scanned over the other shifts."""
    span = shifts[-1] - shifts[0]
    rows = max(1, analysis.SUD_BLOCK_CELLS // vs.size)
    for b in range(0, xis.shape[0], rows):
        w = vs[None, :, :] - xis[b:b + rows, None, :] * idx[None, :, None]
        w -= np.floor(w)
        best = max(best, float(np.max(analysis._window_dispersions(w[:, :N]))))
        if span == 0:
            continue
        if span < N:
            w = w[analysis._window_dispersions(w[:, span:N]) > best]
        if w.shape[0]:
            best = max(best, analysis._shift_windows_max(
                w, [m - shifts[0] for m in shifts[1:]], N))
    return best


def sud_block_cells(cells):
    """SUD_BLOCK_CELLS patched to cells, or left as it is for None."""
    if cells is None:
        return contextlib.nullcontext()
    return mock.patch.object(analysis, "SUD_BLOCK_CELLS", cells)


def former_sud_value(seq, N, m_max, xi_count, seed):
    with mock.patch.object(analysis, "_run_dispersion_max", former_run_dispersion_max):
        return sud_estimate(seq, N, m_max, xi_count, seed).value


def former_central_width(proj, cu, bulk):
    """The mask over every gap that the central run replaced."""
    gaps = np.diff(proj)
    mids = (proj[:-1] + proj[1:]) / 2.0
    central = np.abs(mids - cu) <= bulk
    if not np.any(central):
        return None
    return float(np.max(gaps[central]))


def strip_oracle(spec, window, candidate_directions=()):
    """Full-scan strip: every candidate direction sorts every projection.

    Returns (width, direction); raises ValueError where `vacant_strip` must.
    """
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    groups = [_dual_direction_candidates(spec, window.dim)[0]]
    for extra in candidate_directions:
        extra = np.asarray(extra, dtype=float)
        groups.append((extra / np.linalg.norm(extra))[None, :])
    cands = np.concatenate(groups)
    if cands.shape[0] == 0:
        raise ValueError("no candidate directions")
    lead = np.argmax(np.abs(cands) > 1e-12, axis=1)
    signs = np.sign(cands[np.arange(cands.shape[0]), lead])
    cands = np.unique(np.round(cands * signs[:, None], 12), axis=0)
    center = (window.lo + window.hi) / 2.0
    bulk = float(np.min(window.extent)) / 4.0
    best_width, best_dir = -1.0, None
    for u in cands:
        proj = np.sort(pts @ u)
        mids = (proj[:-1] + proj[1:]) / 2.0
        central = np.abs(mids - float(center @ u)) <= bulk
        if not np.any(central):
            continue
        width = float(np.max(np.diff(proj)[central]))
        if width > best_width:
            best_width, best_dir = width, u
    if best_width < 0.0:
        raise ValueError("no candidate strip passes near the window center")
    return best_width, best_dir


def assert_strip_matches(spec, window, extras=()):
    try:
        width, direction = strip_oracle(spec, window, extras)
    except ValueError:
        with pytest.raises(ValueError):
            vacant_strip(spec, window, extras)
        return None
    rep = vacant_strip(spec, window, extras)
    assert np.float64(rep.width).tobytes() == np.float64(width).tobytes()
    assert rep.direction.tobytes() == direction.tobytes()
    return rep


def strip_p_bound_oracle(spec, window, candidate_directions=()):
    """The strip scan with the sub-window bound alone: every direction sorts
    the projections of the sub-window points P for its bound, and the full
    sort runs in order of decreasing P-bound.  Returns (width, direction)."""
    dim = window.dim
    extras = _unit_directions(candidate_directions, dim)
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    groups = [_dual_direction_candidates(spec, dim)[0]]
    for extra in extras:
        groups.append(extra[None, :])
    cands = np.concatenate(groups)
    if cands.shape[0] == 0:
        raise ValueError("no candidate directions: supply candidate_directions")
    lead = np.argmax(np.abs(cands) > 1e-12, axis=1)
    signs = np.sign(cands[np.arange(cands.shape[0]), lead])
    cands = cands * signs[:, None]
    cands = np.unique(np.round(cands, 12), axis=0)
    center = (window.lo + window.hi) / 2.0
    bulk = float(np.min(window.extent)) / 4.0
    sub = pts[np.all(np.abs(pts - center) <= bulk, axis=1)]
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
    return best_width, cands[best_k]


def assert_strip_matches_p_bound(spec, window, extras=()):
    try:
        width, direction = strip_p_bound_oracle(spec, window, extras)
    except ValueError:
        with pytest.raises(ValueError):
            vacant_strip(spec, window, extras)
        return
    rep = vacant_strip(spec, window, extras)
    assert np.float64(rep.width).tobytes() == np.float64(width).tobytes()
    assert rep.direction.tobytes() == direction.tobytes()


def grid_bound_oracle(pts, axes):
    """The former grid bound: one KD-tree query (p = inf) of every node."""
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(pts).query(cartesian(*axes), k=1, p=np.inf)
    return float(np.max(dists))


def toroidal_dispersion_oracle(pts):
    """The former `_toroidal_dispersion`: every one of the 3^d copies."""
    d = pts.shape[1]
    offsets = cartesian(*[np.array([-1.0, 0.0, 1.0])] * d)
    tiled = (pts[None, :, :] + offsets[:, None, :]).reshape(-1, d)
    m = max(2, int(round(4096 ** (1.0 / d))))
    return grid_bound_oracle(tiled, [np.linspace(0.0, 1.0, m, endpoint=False)] * d)


def min_gap_oracle(pts):
    """Unbounded nearest-neighbour query of every point in a balanced tree."""
    from scipy.spatial import cKDTree

    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(np.min(dists[:, 1]))


def former_min_gap(pts):
    """`_min_gap` with its former whole-array lookup: every row's
    neighbour runs searched in the whole key array at once, on one thread."""
    r2 = float(np.min(analysis._squared_distances(pts[:-1], pts[1:])))
    if r2 == 0.0:
        return 0.0
    n, d = pts.shape
    lo = np.array([col.min() for col in pts.T])
    extent = np.array([col.max() for col in pts.T]) - lo
    per_axis = min(2 ** 20, int(2.0 ** (62.0 / d)) - 4)
    side = max(math.sqrt(r2) * (1.0 + 1e-9), float(np.max(extent)) / per_axis)
    dims = np.floor(extent / side).astype(np.int64) + 3
    keys = np.zeros(n, dtype=np.int64)
    for k in range(d):
        keys *= dims[k]
        keys += np.floor((pts[:, k] - lo[k]) / side).astype(np.int64) + 1
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pts = np.take(pts, order, axis=0)
    best = analysis._least_in_ranges(pts, 0, np.arange(1, n + 1),
                                     np.searchsorted(keys, keys + 1, side="right"))
    strides = np.append(np.cumprod(dims[:0:-1])[::-1], 1)
    for lead in itertools.product((-1, 0, 1), repeat=d - 1):
        if lead > (0,) * (d - 1):
            row = int(np.dot(lead, strides[:-1]))
            best = min(best, analysis._least_in_ranges(
                pts, 0, np.searchsorted(keys, keys + (row - 1)),
                np.searchsorted(keys, keys + (row + 1), side="right")))
    return math.sqrt(min(r2, best))


@contextlib.contextmanager
def worker_threads(workers):
    """`parallel.worker_count` patched to `workers`, with thread switches
    every 10 us, so that the threads finish out of order."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(parallel, "worker_count", return_value=workers):
            yield
    finally:
        sys.setswitchinterval(interval)


def canonicalize_oracle(pts):
    """Duplicate merge by `np.unique(axis=0)` of the rounded keys."""
    if pts.shape[0] == 0:
        return pts
    pts = pts + 0.0
    keys = np.round(pts, generators.MERGE_DECIMALS)
    _, idx = np.unique(keys, axis=0, return_index=True)
    pts = pts[np.sort(idx)]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def former_canonicalize(pts):
    """`canonicalize_points` as two lexsorts of every column."""
    if pts.shape[0] == 0:
        return pts
    pts = pts + 0.0
    keys = np.round(pts, generators.MERGE_DECIMALS)
    order = np.lexsort(keys.T[::-1])
    runs = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(runs[1:] != runs[:-1], axis=1)
    pts = pts[np.sort(order[first])]
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def former_window_contains(window, points):
    """`Window.contains` as one comparison of the whole array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.all((pts >= window.lo) & (pts < window.hi), axis=1)


def former_box_contains(box, points):
    """`AlignedBox.contains` as one comparison of the whole array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.all((pts >= box.lo) & (pts <= box.hi), axis=1)


SEQUENCES = [golden_sequence(), tsokanos_sequence(), quadratic_sequence(PHI),
             concat_linear_sequence([[PHI - 1.0], [math.sqrt(2.0) - 1.0]])]


class TestSUDOracle:
    @given(st.sampled_from(SEQUENCES), st.integers(1, 300),
           st.integers(0, 200), st.integers(1, 40), st.integers(0, 2 ** 16))
    @example(tsokanos_sequence(), 1, 0, 1, 0)
    @example(golden_sequence(), 1, 200, 3, 1)        # N = 1: every span is one shift
    @example(quadratic_sequence(PHI), 5, 200, 40, 2)  # sampled shifts, several spans
    @example(golden_sequence(), 300, 64, 33, 3)       # all 65 shifts in one span
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_per_shift(self, seq, N, m_max, xi_count, seed):
        assert sud_estimate(seq, N, m_max, xi_count, seed).value == \
            sud_oracle(seq, N, m_max, xi_count, seed)

    def test_block_boundary(self):
        # 65 twists over one span of 70 + 257 indices, scanned in batches of
        # at most 64, 3 and 1 rows, their core bounds in blocks of 111, 5 and
        # 1 rows: the best value and the bounds carry across blocks.
        seq = quadratic_sequence(PHI)
        expected = sud_oracle(seq, 257, 70, 65, 9)
        for rows in (64, 3, 1):
            with mock.patch.object(analysis, "SUD_BLOCK_CELLS", rows * 327 + 5):
                assert sud_estimate(seq, 257, 70, 65, 9).value == expected

    def test_sampled_shifts_keep_spans_short(self):
        N, m_max = 8, 10 ** 5
        groups = _shift_groups(_m_samples(m_max), N)
        assert [m for g in groups for m in g] == _m_samples(m_max)
        assert all(g[-1] - g[0] <= N // 2 for g in groups)
        seq = tsokanos_sequence()
        assert sud_estimate(seq, N, m_max, 5, 6).value == \
            sud_oracle(seq, N, m_max, 5, 6)

    @given(st.integers(1, 2 ** 16), st.one_of(st.integers(0, 200),
                                              st.integers(0, 10 ** 9)))
    @example(1, 64)
    @example(3, 64)
    @settings(max_examples=60, deadline=None)
    def test_runs_span_at_most_half_n(self, N, m_max):
        # The runs cover the shifts in order, each spans at most N // 2, so
        # its core keeps N - N // 2 >= 1 indices, and a run ends only where
        # the next shift lies more than N // 2 past its first.
        ms = _m_samples(m_max)
        groups = _shift_groups(ms, N)
        assert [m for g in groups for m in g] == ms
        assert all(g[-1] - g[0] <= N // 2 for g in groups)
        assert all(b[0] - a[0] > N // 2 for a, b in zip(groups, groups[1:]))

    @pytest.mark.parametrize("N, m_max", [(1, 3), (17, 5), (12, 90)])
    def test_two_dimensional_sequence(self, N, m_max):
        seq = concat_linear_sequence([[PHI - 1.0, math.sqrt(2.0) - 1.0],
                                      [math.sqrt(3.0) - 1.0, math.e - 2.0]])
        assert sud_estimate(seq, N, m_max, 3, 4).value == \
            sud_oracle(seq, N, m_max, 3, 4)

    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=3),
           st.integers(1, 40), st.integers(0, 12), st.integers(1, 4),
           st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_two_dimensional_core_bound(self, thetas, N, m_max, xi_count, seed):
        seq = concat_linear_sequence(thetas)
        assert sud_estimate(seq, N, m_max, xi_count, seed).value == \
            sud_oracle(seq, N, m_max, xi_count, seed)

    def test_twist_values_match_np_mod(self):
        # `_twist` reduces t = v_j - xi*j with t - floor(t), which rounds the
        # same exact value as np.mod(t, 1.0) (the fmod, plus 1 when t < 0)
        # once: bit for bit, +0.0 for -0.0 and integers, 1.0 for negatives
        # above -2^-54, and |t| up to 1e20.  The values are caught as
        # `_core_bounds` twists them into its buffers, before their sort.
        rng = np.random.default_rng(0)
        vs = np.concatenate([
            [-0.0, 0.0, 3.0, -7.0, -2.0 ** 53, -(2.0 ** 52 + 0.5), 0.5, -0.5,
             -5e-324, -1e-300, -1e-17, -2.0 ** -60, -1e20, 1e20],
            rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 21, 2000)])
        vs = np.concatenate([vs, np.round(vs)])[:, None]
        idx = np.arange(vs.shape[0], dtype=np.int64)
        xis = np.array([[0.0], [PHI - 1.0], [-0.25], [1e-17], [-3.0]])
        twist, twists = analysis._twist, []

        def logged_twist(*args):
            twists.append(twist(*args).copy())
            return args[3]

        with mock.patch.object(analysis, "_twist", side_effect=logged_twist):
            analysis._run_dispersion_max(vs, idx, [0], vs.shape[0], xis, 0.0)
        (w,) = twists
        assert np.array_equal(w.view(np.uint64),
                              analysis._twist(vs, idx, xis).view(np.uint64))
        expected = np.mod(vs[None, :, :] - xis[:, None, :] * idx[None, :, None], 1.0)
        assert np.array_equal(w.view(np.uint64), expected.view(np.uint64))
        assert np.signbit(w).sum() == 0 and (w == 1.0).any()

    @given(st.sampled_from(SEQUENCES), st.integers(1, 300), st.integers(0, 10 ** 6),
           st.integers(1, 40), st.integers(0, 2 ** 16),
           st.sampled_from([None, 1, 7, 300, 1000]), st.integers(1, 3))
    @example(golden_sequence(), 1, 0, 5, 0, 1, 1)      # one value a row, no gaps
    @example(tsokanos_sequence(), 300, 0, 40, 1, 1000, 3)  # blocks of 3 rows, the last of 1
    @example(golden_sequence(), 1, 0, 40, 2, 1, 2)     # 40 one-row blocks on two threads
    @settings(max_examples=60, deadline=None)
    def test_core_bounds_match_window_dispersions(self, seq, n, m, xi_count, seed, cells,
                                                  workers):
        # The blocks that `_core_bounds` twists into its buffers, and for
        # d = 1 sorts in place on up to `workers` threads, each block in its
        # thread's slot, give the floats of `_window_dispersions` over a
        # fresh array of every twist.
        idx = np.arange(m, m + n, dtype=np.int64)
        vs = seq.extended_values(idx)
        xis = _xi_samples(xi_count, seq.dim, seed)
        with sud_block_cells(cells), worker_threads(workers):
            got = analysis._core_bounds(vs, idx, xis)
        want = analysis._window_dispersions(analysis._twist(vs, idx, xis))
        assert got.shape == (xi_count,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seq, N, m_max, xi_count, cells", [
        (tsokanos_sequence(), 1, 3, 7, 2),
        (quadratic_sequence(PHI), 2, 5, 9, 3),
        (golden_sequence(), 64, 0, 12, 256),   # three whole blocks of 4 rows
        (golden_sequence(), 64, 0, 13, 256),   # and a last block of one
        (tsokanos_sequence(), 2 ** 12, 64, 64, None),
        (SEQUENCES[3], 1, 3, 7, 4),
        (SEQUENCES[3], 2, 5, 9, 8),
        (SEQUENCES[3], 32, 0, 9, 192),         # three whole blocks of 3 rows
    ], ids=["d1-N1", "d1-N2", "d1-edge", "d1-edge+1", "d1-default", "d2-N1",
            "d2-N2", "d2-edge"])
    def test_worker_counts_give_equal_bits(self, seq, N, m_max, xi_count, cells):
        values = []
        for workers in (1, 2, 3):
            with sud_block_cells(cells), worker_threads(workers):
                values.append(sud_estimate(seq, N, m_max, xi_count, 5).value.hex())
        assert values == [sud_oracle(seq, N, m_max, xi_count, 5).hex()] * 3

    @staticmethod
    def scanned_rows(seq, N, m_max, xi_count, seed):
        """The value, and the twist rows that reach the per-shift scan."""
        with mock.patch.object(analysis, "_shift_windows_max",
                               wraps=analysis._shift_windows_max) as scan:
            value = sud_estimate(seq, N, m_max, xi_count, seed).value
        return value, sum(c.args[0].shape[0] for c in scan.call_args_list)

    @pytest.mark.parametrize("seq, N", [(tsokanos_sequence(), 2 ** 11),
                                        (quadratic_sequence(PHI), 2 ** 12)])
    def test_every_row_pruned(self, seq, N):
        # Every twist row but the one with the top core bound is pruned: the
        # scan of that row over all 65 shifts reaches a value that no other
        # row's bound exceeds.  One scan covers the run's twists, though
        # their core bounds come in several blocks, at the default cells and
        # at 2^13.
        xis = _xi_samples(64, 1, 0)
        idx = np.arange(64 + N, dtype=np.int64)
        w = np.mod(seq.extended_values(idx)[:, 0] - xis * idx, 1.0)
        core = np.sort(w[:, 64:N], axis=1)
        bounds = np.maximum(np.max(np.diff(core, axis=1), axis=1),
                            1.0 - core[:, -1] + core[:, 0]) / 2.0
        for cells in (None, 2 ** 13):
            with sud_block_cells(cells):
                assert analysis.SUD_BLOCK_CELLS // (N - 64) < 64
                with mock.patch.object(analysis, "_shift_windows_max",
                                       wraps=analysis._shift_windows_max) as scan:
                    value = sud_estimate(seq, N, 64, 64, 0).value
            (rows, offsets, _), _ = scan.call_args
            assert scan.call_count == 1 and offsets == list(range(65))
            assert np.array_equal(rows[:, :, 0], w[[np.argmax(bounds)]])
            assert value == sud_oracle(seq, N, 64, 64, 0)

    @pytest.mark.parametrize("seq, N, m_max, xi_count, seed", [
        (tsokanos_sequence(), 2 ** 11, 64, 64, 0),
        (quadratic_sequence(PHI), 2 ** 12, 64, 64, 0),
        (golden_sequence(), 16, 8, 64, 1),    # 27 rows scanned
    ])
    def test_one_value_sort_per_twist(self, seq, N, m_max, xi_count, seed):
        # One run, so each twist's values are sorted once, for its core
        # bound, and again only if its row is scanned.  The two-pass scan
        # also sorted every twist's first window: 2 * xi_count rows.
        with mock.patch.object(analysis, "_core_bounds",
                               wraps=analysis._core_bounds) as sorts, \
                mock.patch.object(analysis, "_shift_windows_max",
                                  wraps=analysis._shift_windows_max) as scan:
            value = sud_estimate(seq, N, m_max, xi_count, seed).value
        scanned = sum(c.args[0].shape[0] for c in scan.call_args_list)
        sorted_rows = sum(c.args[2].shape[0] for c in sorts.call_args_list)
        assert sorted_rows + scanned <= xi_count + scanned
        assert value == sud_oracle(seq, N, m_max, xi_count, seed)

    @staticmethod
    def block_log(seq, N, m_max, xi_count, seed, bound=None):
        """The value, the rows of each block that `_core_bounds` twists into
        its buffers, and the rows of each scan.  ``bound`` replaces the
        core bounds of a run's twists."""
        core, twist, scan = (analysis._core_bounds, analysis._twist,
                             analysis._shift_windows_max)
        blocks, scans = [], []

        def logged_core(vs, idx, xis):
            return core(vs, idx, xis) if bound is None else bound(xis)

        def logged_twist(vs, idx, xis, out=None, tmp=None):
            if out is not None:
                blocks.append(xis.shape[0])
            return twist(vs, idx, xis, out, tmp)

        def logged_scan(w, offsets, n):
            scans.append(w)
            return scan(w, offsets, n)

        with mock.patch.object(analysis, "_core_bounds", logged_core), \
                mock.patch.object(analysis, "_twist", logged_twist), \
                mock.patch.object(analysis, "_shift_windows_max", logged_scan):
            value = sud_estimate(seq, N, m_max, xi_count, seed).value
        return value, blocks, scans

    @staticmethod
    def batch_sizes(rows, cap):
        """The batches 1, 2, 4, ... up to cap that take rows in all."""
        sizes, size = [], 1
        while rows > 0:
            sizes.append(min(size, rows))
            rows, size = rows - size, min(2 * size, cap)
        return sizes

    @pytest.mark.parametrize("cells", [None, 5 * 24, 24])
    @pytest.mark.parametrize("forced", [False, True])
    def test_many_survivors_scan_in_doubling_batches(self, cells, forced):
        # Golden, N = 16, m_max 8 and 64 twists: one run of 24 indices, whose
        # core bounds come in blocks of 15 and 3 rows for 5 * 24 and 24
        # cells.  27 rows reach the scan, the last batch with 12 of its 16
        # rows.  Forced, a bound of 2 on even rows and 1 on odd ones (every
        # toroidal dispersion is at most 1/2) sends every row through: the
        # even rows first, then the odd ones, each in row order, since ties
        # go by row.  Batches capped at 5 and 1 rows carry the best value
        # across batches.
        seq, N, m_max, xi_count, seed = golden_sequence(), 16, 8, 64, 1
        with sud_block_cells(cells):
            value, blocks, scans = self.block_log(
                seq, N, m_max, xi_count, seed,
                (lambda xis: 2.0 - np.arange(xis.shape[0]) % 2) if forced else None)
            cap = max(1, analysis.SUD_BLOCK_CELLS // (N + m_max))
            rows = max(1, analysis.SUD_BLOCK_CELLS // (N - m_max))
        assert value == sud_oracle(seq, N, m_max, xi_count, seed)
        sizes = [w.shape[0] for w in scans]
        assert 0 not in sizes and max(sizes) <= cap
        assert len(sizes) <= len(self.batch_sizes(xi_count, cap))
        if forced:
            assert blocks == []
            assert sizes == self.batch_sizes(xi_count, cap)
            idx = np.arange(N + m_max, dtype=np.int64)
            twists = analysis._twist(seq.extended_values(idx), idx,
                                     _xi_samples(xi_count, 1, seed))
            assert np.array_equal(np.concatenate(scans),
                                  np.concatenate([twists[0::2], twists[1::2]]))
        else:
            assert sum(blocks) == xi_count and max(blocks) == min(rows, xi_count)
        if cells is None and not forced:
            assert sizes == [1, 2, 4, 8, 12]

    @given(st.sampled_from(SEQUENCES[:3]), st.integers(1, 80),
           st.one_of(st.integers(0, 150), st.integers(10 ** 5, 10 ** 6)),
           st.integers(1, 24), st.integers(0, 2 ** 16),
           st.sampled_from([None, 1, 100, 600]))
    @example(golden_sequence(), 5, 5, 7, 0, None)       # runs 0-2 and 3-5
    @example(tsokanos_sequence(), 40, 0, 9, 1, None)    # span 0
    @example(quadratic_sequence(PHI), 6, 100, 12, 2, 1)  # sampled, one row a block
    @example(golden_sequence(), 16, 8, 64, 1, 100)      # survivors in several blocks
    @example(golden_sequence(), 16, 64, 16, 0, 100)     # runs of 9 consecutive shifts
    @settings(max_examples=60, deadline=None)
    def test_matches_former_two_pass(self, seq, N, m_max, xi_count, seed, cells):
        with sud_block_cells(cells):
            got = sud_estimate(seq, N, m_max, xi_count, seed).value
            want = former_sud_value(seq, N, m_max, xi_count, seed)
        assert got.hex() == want.hex()
        assert got.hex() == sud_oracle(seq, N, m_max, xi_count, seed).hex()

    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=2),
           st.integers(1, 80),
           st.one_of(st.integers(0, 70), st.integers(10 ** 5, 10 ** 6)),
           st.integers(1, 4), st.integers(0, 2 ** 16), st.sampled_from([None, 1, 200]))
    @example([(PHI - 1.0, math.sqrt(2.0) - 1.0)], 5, 5, 3, 0, None)  # runs 0-2 and 3-5
    @example([(PHI - 1.0, math.sqrt(2.0) - 1.0)], 7, 0, 3, 0, 1)     # span 0
    @example([(PHI - 1.0, math.sqrt(2.0) - 1.0)], 3, 65, 2, 5, None)  # sampled
    @settings(max_examples=20, deadline=None)
    def test_two_dimensional_matches_former_two_pass(self, thetas, N, m_max,
                                                    xi_count, seed, cells):
        seq = concat_linear_sequence(thetas)
        with sud_block_cells(cells):
            got = sud_estimate(seq, N, m_max, xi_count, seed).value
            want = former_sud_value(seq, N, m_max, xi_count, seed)
        assert got.hex() == want.hex()
        assert got.hex() == sud_oracle(seq, N, m_max, xi_count, seed).hex()

    @pytest.mark.parametrize("seq", [golden_sequence(), concat_linear_sequence(
        [[PHI - 1.0, math.sqrt(2.0) - 1.0]])], ids=["d1", "d2"])
    @pytest.mark.parametrize("N, m_max", [(16, 10 ** 6), (1, 20)])
    def test_one_shift_run_reads_its_core(self, seq, N, m_max):
        # Every run holds one shift, so each block of 3 twist rows takes one
        # core value per row, its window, and no row reaches the scan.
        runs = len(_shift_groups(_m_samples(m_max), N))
        assert runs == len(_m_samples(m_max))
        with sud_block_cells(3 * N * seq.dim), \
                mock.patch.object(analysis, "_twist",
                                  wraps=analysis._twist) as cores, \
                mock.patch.object(analysis, "_shift_windows_max",
                                  wraps=analysis._shift_windows_max) as scan:
            value = sud_estimate(seq, N, m_max, 10, 7).value
        assert all(c.args[3] is not None for c in cores.call_args_list)
        assert cores.call_count == runs * 4 and scan.call_count == 0
        assert value == sud_oracle(seq, N, m_max, 10, 7)

    def test_surviving_rows_are_scanned(self):
        # One of the 16 twists has a core bound above every first window,
        # and a later shift of it sets the value.
        seq = golden_sequence()
        value, rows = self.scanned_rows(seq, 32, 8, 16, 1)
        assert 0 < rows < 16
        assert value == sud_oracle(seq, 32, 8, 16, 1)
        assert value > sud_estimate(seq, 32, 0, 16, 1).value

    def test_block_memory_is_bounded_by_cells(self):
        # At N = 2^20 a block of core bounds and a batch of the scan hold one
        # twist row, and each thread holds one core block, so four twists
        # take less than a span's memory more than one: 0.7 MB less on one
        # thread and 7.5 MB more on two; 64-row blocks held all four at once.
        # The worker counts are pinned to those the program can run on, so
        # the bound does not depend on the host's CPUs.  Each thread holds
        # its own 24 MB of core buffers: on three, four twists took 32.6 MB
        # more than one.
        N = 2 ** 20
        seq = quadratic_sequence(PHI)
        assert analysis.SUD_BLOCK_CELLS // (N - 2) <= 1
        span_bytes = 8 * (N + 2)
        for workers in (1, parallel.WORKERS):
            peaks = []
            with mock.patch.object(parallel, "worker_count", return_value=workers):
                for xi_count in (1, 4):
                    tracemalloc.start()
                    try:
                        sud_estimate(seq, N, 2, xi_count, 0)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
            assert peaks[1] < peaks[0] + span_bytes, workers
            assert max(peaks) < 10 * span_bytes, workers

    def test_memory_does_not_grow_with_spans(self):
        # m_max 0 gives one span of N indices; m_max 10^7 gives 64 spans of
        # one shift each, which are evaluated one at a time (all 64 at once
        # peaked at 61 MB, against 0.9 MB for one).  Each case runs once
        # before it is measured, so that no first-call set-up is counted.
        N = 2 ** 14
        seq = quadratic_sequence(PHI)
        assert len(_shift_groups(_m_samples(10 ** 7), N)) == 64
        peaks = []
        for m_max in (0, 10 ** 7):
            sud_estimate(seq, N, m_max, 1, 0)
            tracemalloc.start()
            try:
                sud_estimate(seq, N, m_max, 1, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 * 8 * N


# A drawn basis with a subnormal entry, whose determinant divides by zero.
SUBNORMAL_BASIS_DRAW = ([([0.0, 0.0, 5e-324, 2.0], 0.0, 0.0)], -3.0, -3.0, 3.0, 3.0)


def drawn_grid_union(grids):
    """The union of the drawn (basis entries, tx, ty) grids, each basis with
    |det| >= 0.3.  The drawn entries include subnormals, whose determinant
    divides by zero, so it is taken with numpy's warnings off."""
    sheets = []
    for entries, tx, ty in grids:
        basis = np.asarray(entries).reshape(2, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            assume(abs(np.linalg.det(basis)) >= 0.3)
        sheets.append(Grid(basis, np.array([tx, ty])))
    return GridUnion(tuple(sheets))


class TestStripOracle:
    @given(st.lists(st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
                              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=3),
           st.floats(-12.0, -3.0), st.floats(-12.0, -3.0),
           st.floats(3.0, 12.0), st.floats(3.0, 12.0))
    @example(*SUBNORMAL_BASIS_DRAW)
    @settings(max_examples=25, deadline=None)
    def test_random_grid_unions(self, grids, lo_x, lo_y, hi_x, hi_y):
        assert_strip_matches(drawn_grid_union(grids),
                             Window([lo_x, lo_y], [hi_x, hi_y]))

    @pytest.mark.parametrize("radius", [30.0, 50.0, 100.0])
    def test_three_grid(self, radius):
        assert_strip_matches(ThreeGrid(), Window.cube(radius, 2))

    def test_non_cube_window(self):
        assert_strip_matches(ThreeGrid(), Window([-25.0, -10.0], [35.0, 12.0]))

    def test_integer_lattice_3d(self):
        assert_strip_matches(integer_lattice(3), Window.cube(4.0, 3))

    def test_candidate_direction_extras(self):
        assert_strip_matches(ThreeGrid(), Window.cube(30.0, 2),
                             [(1.0, 2.0), (3.0, -1.0), (0.8, 0.6)])
        assert_strip_matches(integer_lattice(2), Window.cube(10.0, 2),
                             [(1.0, 2.0)])

    @pytest.mark.parametrize("spacing, shift", [
        (10.0, 5.0),   # no point within bulk = 4 of the centre
        (6.0, 0.0),    # one point there
        (5.0, 2.0),    # projections inside the band along the axes
        (5.0, 1.0),    # past its lower end only along the diagonals
    ])
    def test_sub_window_fallback(self, spacing, shift):
        spec = GridUnion((Grid(spacing * np.eye(2), np.full(2, shift)),))
        assert_strip_matches(spec, Window.cube(8.0, 2))

    def test_any_upper_bound_gives_the_full_scan(self, monkeypatch):
        # Valid but loose bounds that rise along the candidate order make the
        # scan fully sort every direction, last candidate first.
        rising = itertools.count()
        monkeypatch.setattr(analysis, "_central_width_bound",
                            lambda *args: 1e9 + next(rising))
        monkeypatch.setattr(analysis, "_spacing_bounds",
                            lambda spec, window, us, *args:
                            2e9 + np.arange(us.shape[0], dtype=float))
        assert_strip_matches(integer_lattice(2), Window.cube(20.0, 2))
        assert_strip_matches(ThreeGrid(), Window.cube(30.0, 2))

    def test_bound_covers_last_bit_differences(self):
        # The subset's projections of the two points at the widest gap, one
        # ulp closer together, as a separate product may round them, still
        # give a bound at least the width of the exact projections.
        proj = np.array([-4.0, -0.5, 3.5, 4.0])
        width = _central_width(proj, 0.0, 3.0)
        assert width == 4.0
        subset = np.array([-4.0, np.nextafter(-0.5, 0.0), np.nextafter(3.5, 0.0), 4.0])
        assert _central_width_bound(subset, 0.0, 3.0, 1e-9 * 3.0) >= width

    @pytest.mark.parametrize("q", [[-3.5, 0.0, 5.0], [-5.0, 0.0, 3.5]],
                             ids=["first-at-lo", "last-at-hi"])
    def test_bound_needs_projections_past_the_band(self, q):
        # The band is [-3.5, 3.5]; a projection exactly at an end does not
        # reach past it, so no bound.
        assert _central_width_bound(np.array(q), 0.0, 3.0, 0.25) == math.inf

    def test_tied_widths_report_first_candidate(self):
        # (0, 1) and (1, 0) both have width 1; (0, 1) sorts first.
        rep = assert_strip_matches(integer_lattice(2), Window.cube(20.0, 2))
        assert rep.width == 1.0
        assert list(rep.direction) == [0.0, 1.0]


class TestCentralRunOracle:
    """`_central_width` bisects for the run of central gaps; its oracle is
    the mask over every gap."""

    @given(st.lists(st.one_of(st.integers(-4, 4).map(float),
                              st.floats(-10.0, 10.0, allow_subnormal=False)),
                    max_size=40),
           st.floats(-20.0, 20.0), st.one_of(st.just(0.0), st.floats(0.0, 8.0)))
    @example([0.0, 2.0], 0.0, 1.0)          # n = 2, mid - cu == bulk
    @example([0.0, 2.0], 2.0, 1.0)          # mid - cu == -bulk
    @example([0.0, 2.0], 5.0, 1.0)          # no central gap: None
    @example([-1.0, 1.0, 1.0, 1.0, 3.0], 1.0, 0.0)   # ties, bulk 0
    @example([-3.0, -1.0, 0.5, 4.0], 15.0, 2.0)      # cu past every projection
    @example([-3.0, -1.0, 0.5, 4.0], -15.0, 2.0)
    @example([7.0], 7.0, 1.0)                         # no gap at all
    @settings(max_examples=300, deadline=None)
    def test_matches_mask(self, values, cu, bulk):
        proj = np.sort(np.array(values, dtype=float))
        got = _central_width(proj, cu, bulk)
        want = former_central_width(proj, cu, bulk)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.hex() == want.hex()


class TestStripCoarseTier:
    """`vacant_strip` against the scan that bounds from the sub-window alone."""

    @given(st.lists(st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
                              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=3),
           st.floats(-12.0, -3.0), st.floats(-12.0, -3.0),
           st.floats(3.0, 12.0), st.floats(3.0, 12.0))
    @example(*SUBNORMAL_BASIS_DRAW)
    @settings(max_examples=25, deadline=None)
    def test_random_grid_unions(self, grids, lo_x, lo_y, hi_x, hi_y):
        assert_strip_matches_p_bound(drawn_grid_union(grids),
                                     Window([lo_x, lo_y], [hi_x, hi_y]))

    @pytest.mark.parametrize("radius", [30.0, 50.0, 100.0])
    def test_three_grid(self, radius):
        assert_strip_matches_p_bound(ThreeGrid(), Window.cube(radius, 2))

    def test_coarse_draw_below_two_points(self):
        # Two points in the sub-window, and the seeded quarter keeps neither,
        # so every coarse bound is inf and the sub-window bound decides.
        spec = GridUnion((Grid(np.diag([5.0, 10.0]), np.array([1.0, 0.0])),))
        window = Window.cube(8.0, 2)
        pts = enumerate_points(spec, window)
        sub = np.all(np.abs(pts) <= 4.0, axis=1)
        draw = np.random.default_rng(0).random(int(sub.sum()))
        assert sub.sum() >= 2
        assert np.count_nonzero(draw < analysis.STRIP_COARSE_SHARE) < 2
        assert_strip_matches_p_bound(spec, window)
        assert_strip_matches(spec, window)

    def test_directions_reaching_each_tier(self):
        # At r = 100 all 957 directions get a finite spacing bound; 79 are
        # refined by the quarter, 22 of those by the sub-window, and 3 of
        # those get the full sort.
        spec, window = ThreeGrid(), Window.cube(100.0, 2)
        with mock.patch.object(analysis, "_central_width_bound",
                               wraps=analysis._central_width_bound) as bound, \
                mock.patch.object(analysis, "_central_width",
                                  wraps=analysis._central_width) as full:
            rep = vacant_strip(spec, window)
        cands, spacing, _, _ = spacing_cases(spec, window)
        assert cands.shape[0] == 957
        assert np.all(np.isfinite(spacing))
        sizes = [c.args[0].size for c in bound.call_args_list]
        sub_size = max(sizes)
        assert len(sizes) == 79 + 22
        assert sizes.count(sub_size) == 22
        assert full.call_count == 3
        width, direction = strip_p_bound_oracle(spec, window)
        assert rep.width == width
        assert rep.direction.tobytes() == direction.tobytes()


def spacing_cases(spec, window, extras=()):
    """The strip candidates and their spacing bounds, with the full width
    (None where no gap is central) of each candidate whose bound is finite.
    Returns (cands, spacing, finite, widths)."""
    pts = enumerate_points(spec, window)
    center = (window.lo + window.hi) / 2.0
    bulk = float(np.min(window.extent)) / 4.0
    eps = 1e-9 * window.dim * (float(np.max(np.abs(center))) + bulk)
    cands, spacing = _strip_candidates(spec, window,
                                       _unit_directions(extras, window.dim),
                                       bulk, eps)
    finite = np.flatnonzero(np.isfinite(spacing))
    widths = [_central_width(np.sort(pts @ cands[k]), float(center @ cands[k]), bulk)
              for k in finite]
    return cands, spacing, finite, widths


def assert_spacing_bounds_hold(spec, window, extras=()):
    """Every finite spacing bound is at least the width of its direction.
    Returns the number of finite bounds and of candidates."""
    cands, spacing, finite, widths = spacing_cases(spec, window, extras)
    for k, width in zip(finite, widths):
        if width is not None:
            assert spacing[k] >= width, (cands[k], spacing[k], width)
    return finite.size, cands.shape[0]


class TestStripSpacingTier:
    """The lattice-spacing bound against the full width of each direction."""

    @pytest.mark.parametrize("radius", [30.0, 50.0, 100.0])
    def test_three_grid(self, radius):
        finite, total = assert_spacing_bounds_hold(ThreeGrid(), Window.cube(radius, 2))
        assert finite == total == 957

    @given(st.lists(st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
                              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=3),
           st.floats(-12.0, -3.0), st.floats(-12.0, -3.0),
           st.floats(3.0, 12.0), st.floats(3.0, 12.0))
    @example(*SUBNORMAL_BASIS_DRAW)
    @settings(max_examples=40, deadline=None)
    def test_random_grid_unions(self, grids, lo_x, lo_y, hi_x, hi_y):
        assert_spacing_bounds_hold(drawn_grid_union(grids),
                                   Window([lo_x, lo_y], [hi_x, hi_y]), [(1.0, 2.0)])

    @pytest.mark.parametrize("basis, radius", [
        ([[3.0, 0.0], [0.0, 3.0]], 4.0),       # covolume 9 in a small window
        ([[2.5, 1.0], [0.5, 2.0]], 3.0),
        ([[1.0, 0.0], [0.0, 1.0]], 1.5),
    ])
    def test_chord_condition_fails_on_small_windows(self, basis, radius):
        # Level lines that cross the window in short chords may hold no
        # point, so those directions keep an infinite bound.
        spec = GridUnion((Grid(np.asarray(basis), np.array([0.3, 0.1])),))
        finite, total = assert_spacing_bounds_hold(spec, Window.cube(radius, 2))
        assert finite < total

    @pytest.mark.parametrize("basis", [
        [[1.0, 0.0], [0.0, 1.0]],
        [[2.0, 1.0], [1.0, 1.0]],
        [[5.0, 2.0], [2.0, 1.0]],
        [[math.sqrt(3.0), math.sqrt(2.0)], [0.0, 1.0]],
    ])
    def test_single_lattice_width_equals_spacing(self, basis):
        # One lattice has no point between two level lines, so every central
        # gap is the level spacing and the bound exceeds it by its margin.
        spec = GridUnion((Grid(np.asarray(basis), np.array([0.25, 0.5])),))
        window = Window.cube(30.0, 2)
        cands, spacing, finite, widths = spacing_cases(spec, window)
        assert finite.size > 0
        for k, width in zip(finite, widths):
            assert width is not None
            assert 0.0 <= spacing[k] - width <= 1e-7, (cands[k], spacing[k], width)
        rep = vacant_strip(spec, window)
        k = int(np.flatnonzero((cands == rep.direction).all(axis=1))[0])
        assert rep.width <= spacing[k] <= rep.width + 1e-7

    def test_extras_and_other_dimensions_get_no_spacing_bound(self):
        cands, spacing, _, _ = spacing_cases(integer_lattice(2), Window.cube(10.0, 2),
                                             [(1.0, 3.0 ** 0.5)])
        extra = np.flatnonzero(np.all(np.abs(cands - [0.5, 3.0 ** 0.5 / 2.0]) < 1e-9,
                                      axis=1))
        assert extra.size == 1 and spacing[extra[0]] == math.inf
        _, spacing, _, _ = spacing_cases(integer_lattice(3), Window.cube(4.0, 3))
        assert np.all(spacing == math.inf)

    def test_three_grid_at_radius_200(self):
        # The sweep benchmark's strip: its width and direction, and at most
        # 152 quarter, 27 sub-window and 6 full sorts.
        spec, window = ThreeGrid(), Window.cube(200.0, 2)
        with mock.patch.object(analysis, "_central_width_bound",
                               wraps=analysis._central_width_bound) as bound, \
                mock.patch.object(analysis, "_central_width",
                                  wraps=analysis._central_width) as full:
            rep = vacant_strip(spec, window)
        assert np.float64(rep.width).tobytes() == \
            np.float64(0.14174290272305257).tobytes()
        assert rep.direction.tobytes() == np.array([0.8, 0.6]).tobytes()
        sizes = [c.args[0].size for c in bound.call_args_list]
        sub_size = max(sizes)
        assert len(sizes) - sizes.count(sub_size) <= 152
        assert sizes.count(sub_size) <= 27
        assert full.call_count <= 6


@st.composite
def grid_point_sets(draw, dims=(2, 3, 4), max_points=40):
    """Point sets in [0,1]^d: uniform, on the coordinates of a grid of m
    nodes an axis (m of the dispersion grid at d), on a coarse dyadic grid,
    with repeated points, and with coordinates at 0 and 1."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["uniform", "nodes", "dyadic", "repeated", "ends"]))
    pts = rng.random((n, d))
    if kind == "nodes":
        m = max(2, int(round(analysis.DISPERSION_GRID_BUDGET ** (1.0 / d))))
        pts = np.linspace(0.0, 1.0, m)[rng.integers(0, m, (n, d))]
    elif kind == "dyadic":
        pts = rng.integers(0, 9, (n, d)) / 8.0
    elif kind == "repeated":
        pts = np.repeat(pts[:max(1, n // 4)], 4, axis=0)
    elif kind == "ends":
        pts = np.where(rng.random((n, d)) < 0.5, np.round(pts), pts)
    return pts


class TestGridBoundOracle:
    @given(grid_point_sets())
    @settings(max_examples=40, deadline=None)
    def test_dispersion_matches_kd_tree(self, pts):
        d = pts.shape[1]
        m = max(2, int(round(analysis.DISPERSION_GRID_BUDGET ** (1.0 / d))))
        assert dispersion(pts).value == \
            grid_bound_oracle(pts, [np.linspace(0.0, 1.0, m)] * d)

    @given(grid_point_sets(max_points=60))
    @settings(max_examples=60, deadline=None)
    def test_toroidal_dispersion_matches_kd_tree(self, pts):
        pts = np.mod(pts, 1.0)
        assert _toroidal_dispersion(pts) == toroidal_dispersion_oracle(pts)

    @given(grid_point_sets(), st.integers(2, 19), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_small_grids(self, pts, m, endpoint):
        axes = [np.linspace(0.0, 1.0, m, endpoint=endpoint)] * pts.shape[1]
        assert _grid_bound(pts, axes) == grid_bound_oracle(pts, axes)

    @given(grid_point_sets(), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_cover_is_exact_at_every_nearest_distance(self, pts, m):
        # Covering at r must mark exactly the nodes whose nearest distance is
        # at most r, at each such distance and one ulp below it, so a cover
        # that marks one ulp too far or too near fails here.
        axes = [np.linspace(0.0, 1.0, m)] * pts.shape[1]
        from scipy.spatial import cKDTree
        near, _ = cKDTree(pts).query(cartesian(*axes), k=1, p=np.inf)
        values = np.unique(near)
        for r in np.concatenate([values, np.nextafter(values[values > 0.0], 0.0)]):
            assert np.array_equal(_covered(axes, pts, r), near <= r)

    def test_bound_one_ulp_above_the_subgrid_bound(self):
        # On the 16 x 16 grid the first round samples the even-index nodes,
        # whose largest nearest distance is 1/2, at the node (0, 0).  Every
        # other node lies within 1/2 of a point but (15/16, 15/16), whose
        # nearest point is 1/2 + 2^-53 away (the differences are exact).  A
        # cover at the subgrid bound plus one ulp would report 1/2.
        axes = [np.arange(16) / 16.0] * 2
        pts = np.array([[0.5, 0.4], [0.4, 0.5], [0.4375 - 2.0 ** -53, 0.9375]])
        even = [a[::2] for a in axes]
        assert grid_bound_oracle(pts, even) == 0.5
        assert _grid_bound(pts, axes) == grid_bound_oracle(pts, axes) == \
            np.nextafter(0.5, 1.0)

    def test_one_point_at_a_corner(self):
        for corner in ([0.0, 0.0], [1.0, 1.0], [0.0, 1.0, 0.0]):
            pts = np.array([corner])
            axes = [np.linspace(0.0, 1.0, 5)] * pts.shape[1]
            assert _grid_bound(pts, axes) == grid_bound_oracle(pts, axes) == 1.0


class TestMinGapOracle:
    @pytest.mark.parametrize("radius", [30.0, 100.0])
    def test_three_grid(self, radius):
        window = Window.cube(radius, 2)
        assert min_gap(ThreeGrid(), window) == \
            min_gap_oracle(enumerate_points(ThreeGrid(), window))

    @pytest.mark.parametrize("block", [1, 7])
    def test_three_grid_small_pair_blocks(self, block):
        window = Window.cube(30.0, 2)
        with mock.patch.object(geometry, "PAIR_BLOCK", block):
            assert min_gap(ThreeGrid(), window) == \
                min_gap_oracle(enumerate_points(ThreeGrid(), window))

    @given(st.integers(2, 300), st.integers(1, 4), st.integers(0, 2 ** 16),
           st.sampled_from([1.0, 0.37, 1e-6]))
    @settings(max_examples=60, deadline=None)
    def test_random_points(self, n, d, seed, scale):
        # Small integer coordinates give repeated points and tied distances.
        rng = np.random.default_rng(seed)
        pts = rng.integers(-6, 7, (n, d)) * scale + rng.random((n, d)) * \
            (rng.random() < 0.5)
        assert _min_gap(pts) == min_gap_oracle(pts)

    @pytest.mark.parametrize("where", [0, 10, 63, 64, 200])
    def test_repeated_point(self, where):
        pts = np.random.default_rng(where).random((300, 3)) * 100.0
        pts[where + 1] = pts[where]
        assert _min_gap(pts) == min_gap_oracle(pts) == 0.0

    def test_fewer_than_seed_points(self):
        pts = np.random.default_rng(5).random((10, 2))
        assert _min_gap(pts) == min_gap_oracle(pts)
        assert _min_gap(pts[:2]) == min_gap_oracle(pts[:2])

    def test_closest_pair_beyond_seed_points(self):
        # The first 64 points are 1 apart; the closest pair is far beyond
        # them, and tied with a second pair.
        pts = np.concatenate([np.stack([np.arange(64.0), np.zeros(64)], axis=1),
                              [[0.0, 50.0], [0.5, 50.0], [9.0, 50.0], [9.5, 50.0]]])
        assert _min_gap(pts) == min_gap_oracle(pts) == 0.5

    def test_tied_lattice_distances(self):
        pts = enumerate_points(integer_lattice(3), Window.cube(4.0, 3))
        assert _min_gap(pts) == min_gap_oracle(pts) == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unsorted_rows(self, seed):
        # Consecutive rows of a shuffled set are far apart, so the first
        # radius is large and the cells hold many points each.
        rng = np.random.default_rng(seed)
        pts = rng.random((2000, 2)) * 10.0
        assert _min_gap(pts) == min_gap_oracle(pts)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [analysis.MIN_GAP_BLOCK_ROWS - 1,
                                   analysis.MIN_GAP_BLOCK_ROWS,
                                   analysis.MIN_GAP_BLOCK_ROWS + 1])
    def test_block_edges(self, n, workers):
        # Shuffled rows, so the consecutive rows' radius is far above the
        # minimum and the blocks' searches find it.
        pts = np.random.default_rng(n).random((n, 2)) * 100.0
        with worker_threads(workers):
            gap = _min_gap(pts)
        assert gap == former_min_gap(pts) == min_gap_oracle(pts)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d, axis", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)])
    def test_nearest_pair_straddles_a_block_edge(self, d, axis, workers):
        # Points 1 apart on a line along `axis`, the one at B =
        # MIN_GAP_BLOCK_ROWS moved to B - 0.5 and to the end of the rows:
        # consecutive rows give the radius 1, and the pair 0.5 apart is
        # the last row of the first block sorted by cell and the first of
        # the second.  Along the last axis it lies in the next cell's run
        # of the first search; along another axis, in a forward row.
        B = analysis.MIN_GAP_BLOCK_ROWS
        x = np.arange(B + 8.0)
        x[B] -= 0.5
        pts = np.zeros((x.size, d))
        pts[:, axis] = np.concatenate([np.delete(x, B), [x[B]]])
        with worker_threads(workers):
            gap = _min_gap(pts)
        assert gap == former_min_gap(pts) == min_gap_oracle(pts) == 0.5

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_repeated_point_far_from_its_copy(self, workers):
        # The copy is the last row, so no two consecutive rows repeat and
        # only the blocks' searches find it.
        pts = np.random.default_rng(8).random((analysis.MIN_GAP_BLOCK_ROWS + 3000, 3))
        pts[-1] = pts[5]
        with worker_threads(workers):
            gap = _min_gap(pts)
        assert gap == former_min_gap(pts) == min_gap_oracle(pts) == 0.0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dimensions_on_every_worker_count(self, d, workers):
        # Four blocks of 2^14 shuffled rows on small integer coordinates
        # plus jitter, so many cells hold several points.
        rng = np.random.default_rng(d)
        n = 3 * analysis.MIN_GAP_BLOCK_ROWS + 77
        pts = rng.integers(-40, 41, (n, d)) + rng.random((n, d)) * 0.9
        with worker_threads(workers):
            gap = _min_gap(pts)
        assert gap == former_min_gap(pts) == min_gap_oracle(pts)

    @given(st.integers(2, 400), st.integers(1, 4), st.integers(0, 2 ** 16),
           st.sampled_from([1.0, 0.37, 1e-6]), st.sampled_from([1, 2, 7, 64]),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_former_lookup(self, n, d, seed, scale, block, workers):
        # Blocks of 1 to 64 rows, so most sets span many blocks.
        rng = np.random.default_rng(seed)
        pts = rng.integers(-6, 7, (n, d)) * scale + rng.random((n, d)) * \
            (rng.random() < 0.5)
        with mock.patch.object(analysis, "MIN_GAP_BLOCK_ROWS", block), \
                worker_threads(workers):
            gap = _min_gap(pts)
        assert gap == former_min_gap(pts) == min_gap_oracle(pts)

    def test_cells_coarsen_past_int64(self):
        # (extent / r)^d = (1e4 / 1e-6)^4 = 1e40 cells would overflow int64
        # keys; the coarser cells still hold the closest pair.
        # The consecutive pair gives r = 1e-6; a closer pair lies elsewhere.
        rng = np.random.default_rng(3)
        pts = rng.random((3000, 4)) * 1e4
        pts[1001] = pts[1000] + [1e-6, 0.0, 0.0, 0.0]
        pts[2500] = pts[17] + [0.0, 3e-7, 0.0, -5e-7]
        r = np.min(np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1)))
        assert (np.ptp(pts) / r) ** 4 > 2.0 ** 63
        gap = _min_gap(pts)
        assert gap == min_gap_oracle(pts)
        assert gap < 6e-7


# Coordinates near the rounding boundaries of the 1e-9 merge, signed zeros
# and offsets of 1e-12 that merge.
MERGE_VALUES = [0.0, -0.0, 1e-12, -1e-12, 5e-10, -5e-10,
                np.nextafter(5e-10, 0.0), np.nextafter(5e-10, 1.0),
                1.5e-9, 2.5e-9, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 0.5, 0.5 + 5e-10,
                123.4567890005, -7.25]


class TestCanonicalizeOracle:
    @staticmethod
    def assert_matches(pts):
        got = canonicalize_points(pts)
        expected = canonicalize_oracle(pts)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(st.integers(1, 3), st.lists(st.integers(0, len(MERGE_VALUES) - 1),
                                       min_size=0, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_boundary_values(self, d, picks):
        values = np.array(MERGE_VALUES)[picks[:len(picks) // d * d]]
        self.assert_matches(values.reshape(-1, d))

    @given(st.integers(0, 2 ** 16), st.integers(1, 400), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_rows_with_duplicates(self, seed, n, d):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-3, 4, (n, d)) * 0.5
        pts += rng.choice([0.0, 1e-12, -1e-12, 5e-10], size=(n, d))
        self.assert_matches(pts)

    def test_signed_zero_keys(self):
        # -1e-12 rounds to -0.0 and +1e-12 to 0.0: one point.
        pts = np.array([[1e-12, 2.0], [-1e-12, 2.0], [-0.0, 2.0], [0.0, 2.0]])
        self.assert_matches(pts)
        assert canonicalize_points(pts).shape == (1, 2)

    def test_all_rows_equal(self):
        self.assert_matches(np.full((50, 2), 3.25))
        assert canonicalize_points(np.full((50, 2), 3.25)).shape == (1, 2)

    def test_three_grid(self):
        spec, window = ThreeGrid(), Window.cube(30.0, 2)
        raw = np.concatenate([sheet.enumerate(window) for sheet in spec.sheets()])
        self.assert_matches(raw)
        self.assert_matches(raw[::-1].copy())


# MERGE_VALUES with NaN and the infinities.
SPECIAL_VALUES = MERGE_VALUES + [math.nan, math.inf, -math.inf]


def special_rows(d, picks):
    return np.array(SPECIAL_VALUES)[picks[:len(picks) // d * d]].reshape(-1, d)


class TestCanonicalizeSort:
    """`canonicalize_points` sorts two NaN-free columns as one complex key;
    its oracle is the former code, two lexsorts, and bytes must be equal."""

    @staticmethod
    def assert_matches(pts):
        got = canonicalize_points(pts)
        expected = former_canonicalize(pts)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(st.integers(1, 3), st.lists(st.integers(0, len(SPECIAL_VALUES) - 1),
                                       min_size=0, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_special_values(self, d, picks):
        self.assert_matches(special_rows(d, picks))

    def test_nan_rows_keep_the_lexicographic_order(self):
        # As complex numbers (1, nan) sorts after (2, 0), but lexicographic
        # order puts it first, so rows with a NaN must not take the
        # complex sort.
        pts = np.array([[2.0, 0.0], [1.0, math.nan], [math.nan, -1.0],
                        [math.inf, 3.0], [1.0, -math.inf], [math.nan, math.nan]])
        keys = pts.view(np.complex128)[:, 0]
        assert not np.array_equal(np.argsort(keys, kind="stable"),
                                  np.lexsort(pts.T[::-1]))
        self.assert_matches(pts)
        got = canonicalize_points(pts)
        assert np.isnan(got[-1]).all()
        assert got[0].tolist() == [1.0, -math.inf]

    @given(st.integers(1, 3), st.integers(0, 2 ** 16), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_rows(self, d, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-4, 5, (n, d)) * 0.25
        pts += rng.choice([0.0, 1e-12, -1e-12, 4e-10, -6e-10], size=(n, d))
        self.assert_matches(pts)

    @pytest.mark.parametrize("layout", ["fortran", "column_slice", "read_only",
                                        "row_slice"])
    def test_memory_layouts(self, layout):
        rng = np.random.default_rng(5)
        base = rng.integers(-3, 4, (400, 4)) * 0.5 + rng.choice([0.0, 1e-12], (400, 4))
        pts = {"fortran": np.asfortranarray(base[:, :2]),
               "column_slice": base[:, 1::2],
               "read_only": base[:, :2].copy(),
               "row_slice": base[::3, 2:]}[layout]
        if layout == "read_only":
            pts.setflags(write=False)
        assert pts.shape[1] == 2
        self.assert_matches(pts)

    def test_fortran_rows_cannot_be_viewed_as_complex(self):
        # The complex view needs C-contiguous rows; the sum that normalizes
        # -0.0 keeps the Fortran layout, so the sort must make them so.
        pts = np.asfortranarray(np.arange(8.0).reshape(4, 2)) + 0.0
        assert not pts.flags.c_contiguous
        with pytest.raises(ValueError):
            pts.view(np.complex128)
        self.assert_matches(np.asfortranarray(np.arange(8.0).reshape(4, 2)[::-1]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_widths(self, d):
        rng = np.random.default_rng(d)
        pts = rng.integers(-2, 3, (500, d)) * 0.5 + rng.choice([0.0, 1e-12], (500, d))
        self.assert_matches(pts)
        self.assert_matches(np.empty((0, d)))

    def test_rounding_reorders_rows(self):
        # p lies right of q, but their keys share x = 0.5, so by key p
        # (smaller y) comes first; the kept points are sorted again.
        p = [0.5 + 2e-10, 1.0]
        q = [0.5, 2.0]
        pts = np.array([q, p, [0.5 - 3e-10, 1.5], [0.25, 7.0],
                        [0.5 + 2e-10, 1.0 + 3e-10]])
        keys = np.round(pts, generators.MERGE_DECIMALS)
        assert not np.array_equal(np.lexsort(keys.T[::-1]), np.lexsort(pts.T[::-1]))
        self.assert_matches(pts)
        rng = np.random.default_rng(11)
        many = rng.integers(0, 6, (2000, 2)) * 0.5 + rng.uniform(-4e-10, 4e-10, (2000, 2))
        self.assert_matches(many)

    def test_three_grid_sheets(self):
        # At r = 200 the third sheet has few distinct x, so y decides
        # almost every comparison.
        spec, window = ThreeGrid(), Window.cube(200.0, 2)
        sheets = [sheet.enumerate(window) for sheet in spec.sheets()]
        third = sheets[2]
        assert np.unique(third[:, 0]).size <= 401 < third.shape[0] // 100
        for pts in sheets:
            self.assert_matches(pts)
        self.assert_matches(np.concatenate(sheets))


# Window bounds, values next to them, NaN and the infinities.
CONTAINS_VALUES = [-1.5, np.nextafter(-1.5, -2.0), np.nextafter(-1.5, 0.0),
                   2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0),
                   0.0, -0.0, 0.25, 7.0, math.nan, math.inf, -math.inf]


class TestWindowContainsOracle:
    """`Window.contains` builds its mask one column at a time; its oracle
    compares the whole array at once."""

    @given(st.integers(1, 3), st.lists(st.integers(0, len(CONTAINS_VALUES) - 1),
                                       min_size=0, max_size=90))
    @settings(max_examples=150, deadline=None)
    def test_special_values(self, d, picks):
        window = Window(np.full(d, -1.5), np.full(d, 2.0))
        pts = np.array(CONTAINS_VALUES)[picks[:len(picks) // d * d]].reshape(-1, d)
        got = window.contains(pts)
        assert got.dtype == bool
        assert np.array_equal(got, former_window_contains(window, pts))

    def test_bounds_are_half_open(self):
        window = Window([0.0, -1.0, 2.0], [1.0, 1.0, 3.0])
        pts = np.array([[0.0, -1.0, 2.0], [1.0, 0.0, 2.5], [0.5, 1.0, 2.5],
                        [0.5, 0.0, 3.0], [np.nextafter(1.0, 0.0), 0.0, 2.5],
                        [math.nan, 0.0, 2.5], [0.5, math.inf, 2.5]])
        got = window.contains(pts)
        assert got.tolist() == [True, False, False, False, True, False, False]
        assert np.array_equal(got, former_window_contains(window, pts))

    def test_single_point(self):
        window = Window([0.0, 0.0], [1.0, 1.0])
        for point in ([0.5, 0.5], [1.0, 0.5], [0.0, 0.0], [math.nan, 0.5]):
            got = window.contains(point)
            assert got.shape == (1,)
            assert np.array_equal(got, former_window_contains(window, point))

    def test_other_widths_are_refused(self):
        # The whole-array comparison broadcast one column against every
        # axis; the mask refuses rows of another width instead.
        window = Window([0.0, 0.0], [1.0, 1.0])
        for pts in (np.zeros((4, 1)), np.zeros((4, 3)), np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match="window's dimension"):
                window.contains(pts)

    @given(st.integers(0, 2 ** 16), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_3d(self, seed, n):
        rng = np.random.default_rng(seed)
        lo = rng.integers(-3, 1, 3).astype(float)
        window = Window(lo, lo + rng.integers(1, 4, 3))
        pts = rng.integers(-4, 5, (n, 3)) * 0.5
        assert np.array_equal(window.contains(pts), former_window_contains(window, pts))


class TestAlignedBoxContainsOracle:
    """`AlignedBox.contains` builds its mask one column at a time; its
    oracle compares the whole array at once."""

    @given(st.integers(1, 3), st.lists(st.integers(0, len(CONTAINS_VALUES) - 1),
                                       min_size=0, max_size=90))
    @settings(max_examples=150, deadline=None)
    def test_special_values(self, d, picks):
        box = AlignedBox.from_bounds(np.full(d, -1.5), np.full(d, 2.0))
        pts = np.array(CONTAINS_VALUES)[picks[:len(picks) // d * d]].reshape(-1, d)
        got = box.contains(pts)
        assert got.dtype == bool
        assert np.array_equal(got, former_box_contains(box, pts))

    def test_faces_are_inside_and_nan_rows_are_not(self):
        box = AlignedBox.from_bounds([0.0, -1.0, 2.0], [1.0, 1.0, 2.0])
        pts = np.array([[0.0, -1.0, 2.0], [1.0, 1.0, 2.0], [0.5, 0.0, 2.0],
                        [np.nextafter(1.0, 2.0), 0.0, 2.0], [0.5, 0.0, np.nextafter(2.0, 3.0)],
                        [math.nan, 0.0, 2.0], [0.5, math.nan, 2.0], [math.nan] * 3,
                        [0.5, -math.inf, 2.0]])
        got = box.contains(pts)
        assert got.tolist() == [True, True, True, False, False, False, False, False, False]
        assert np.array_equal(got, former_box_contains(box, pts))
        for point in pts:
            assert np.array_equal(box.contains(point), former_box_contains(box, point))

    def test_rotated_box(self):
        rng = np.random.default_rng(5)
        box = RotatedBox(0.3, AlignedBox.from_bounds([-0.2, -0.1], [0.2, 0.1]), (0.5, 0.5))
        pts = rng.random((500, 2))
        c, s = math.cos(0.3), math.sin(0.3)
        rotated = (pts - box.center) @ np.array([[c, -s], [s, c]])
        assert np.array_equal(box.contains(pts), former_box_contains(box.box, rotated))
        assert 0 < box.contains(pts).sum() < 500

    def test_other_widths_are_refused(self):
        # The whole-array comparison broadcast one column against every
        # axis; the mask refuses rows of another width instead.
        box = AlignedBox.from_bounds([0.0, 0.0], [1.0, 1.0])
        for pts in (np.zeros((4, 1)), np.zeros((4, 3)), np.zeros((2, 4, 2))):
            with pytest.raises(ValueError, match="box's dimension"):
                box.contains(pts)

    @given(st.integers(0, 2 ** 16), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_3d(self, seed, n):
        rng = np.random.default_rng(seed)
        lo = rng.integers(-3, 1, 3).astype(float)
        box = AlignedBox.from_bounds(lo, lo + rng.integers(0, 4, 3))
        pts = rng.integers(-4, 5, (n, 3)) * 0.5
        assert np.array_equal(box.contains(pts), former_box_contains(box, pts))


def lattice_candidates_near(sheet, queries, radius):
    """Lattice points of a stencil covering sup-norm ``radius`` around each query.

    Returns (points, rows) with rows[j] the query of candidate j; a superset
    of the points within the radius.
    """
    ys = (queries - sheet.shift) @ sheet.inverse.T
    reach = np.abs(sheet.inverse).sum(axis=1) * radius
    ks = np.floor(reach + 0.5).astype(np.int64) + 1
    axes = [np.arange(-k, k + 1) for k in ks]
    mesh = np.meshgrid(*axes, indexing="ij")
    stencil = np.stack([m.ravel() for m in mesh], axis=1)
    zs = np.rint(ys)[:, None, :] + stencil[None, :, :]
    pts = zs.reshape(-1, sheet.dim) @ sheet.basis.T + sheet.shift
    rows = np.repeat(np.arange(queries.shape[0]), stencil.shape[0])
    return pts, rows


def generic_tree_oracle(sheets, bases, dirs, lengths, reach):
    """KD-tree and pool over the points of the D2 and cut-and-project
    sheets, enumerated in the box of every probe widened by reach + 1."""
    from scipy.spatial import cKDTree

    ends = bases + lengths[:, None] * dirs
    lo = np.minimum(bases.min(axis=0), ends.min(axis=0)) - (reach + 1.0)
    hi = np.maximum(bases.max(axis=0), ends.max(axis=0)) + (reach + 1.0)
    window = Window(lo, hi)
    pool = np.concatenate([sheet.enumerate(window) for sheet in sheets])
    return (cKDTree(pool), pool) if pool.shape[0] else (None, pool)


def march_oracle(spec, eps, bases, dirs, lengths):
    """Unit-step march over every sheet: the minimum score over its visits.

    Every point within sup-norm eps of the probe lies within eps + 1/2 of a
    waypoint, so the visits cover every blocker up to ceil(length).  The
    march also visits points beyond that, so its value for a miss depends on
    the stencil; compare it after dropping scores >= ceil(length).
    """
    n_probe, d = bases.shape
    reach = eps + 0.5 + 1e-6
    guard = (eps + reach) * math.sqrt(d) + 1e-9
    sheets = spec.sheets()
    generic = [s for s in sheets if isinstance(s, (D2Sheet, CutProjectSheet))]
    tree, pool = (None, None)
    if generic:
        tree, pool = generic_tree_oracle(generic, bases, dirs, lengths, reach)
    first = np.full(n_probe, np.inf)
    horizons = np.ceil(lengths)
    alive = np.arange(n_probe)
    t = 0.0
    while alive.size:
        q = bases[alive] + t * dirs[alive]
        for sheet in sheets:
            if isinstance(sheet, LatticeSheet):
                cand, rows = lattice_candidates_near(sheet, q, reach)
            elif isinstance(sheet, SequenceSheet):
                cand, rows = sheet.candidates_near(q, reach)
            else:
                continue
            scores = _candidate_scores(cand, bases[alive][rows],
                                       dirs[alive][rows], eps)
            np.minimum.at(first, alive[rows], scores)
        if tree is not None:
            for j, idx in enumerate(tree.query_ball_point(
                    q, reach * math.sqrt(d) + 1e-9)):
                if idx:
                    sc = _candidate_scores(pool[idx], bases[alive[j]],
                                           dirs[alive[j]], eps)
                    first[alive[j]] = min(first[alive[j]], float(sc.min()))
        t += 1.0
        alive = alive[(horizons[alive] >= t) & (first[alive] > t - guard)]
    return first


def brute_first_hits(spec, eps, bases, dirs, lengths):
    """Least score below ceil(length) over every point of each probe's tube."""
    out = np.full(bases.shape[0], np.inf)
    for i, (base, direction, length) in enumerate(zip(bases, dirs, lengths)):
        horizon = math.ceil(length)
        # The pad beyond eps keeps blockers in the window when Segment
        # rounds the (already unit) direction differently in the last bit,
        # and keeps two or more rows in each sheet's lattice product: numpy
        # computes a one-row product with BLAS gemv, which can round a
        # point differently from the gemm of larger products.
        window = tube_bounding_window(Segment(base, direction, horizon), eps + 2.0)
        pts = enumerate_points(spec, window)
        scores = _candidate_scores(pts, base, direction, eps)
        below = scores[scores < horizon]
        if below.size:
            out[i] = below.min()
    return out


def _random_grid_union(dim, seed):
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(int(rng.integers(1, 4))):
        basis = np.eye(dim) + rng.uniform(-0.6, 0.6, (dim, dim))
        if abs(np.linalg.det(basis)) < 0.3:
            basis = np.eye(dim)
        shift = rng.uniform(0.0, 1.0, dim) if rng.random() < 0.7 else np.zeros(dim)
        grids.append(Grid(basis, shift))
    return GridUnion(tuple(grids))


def probe_spec(family, seed):
    if family == "z2":
        return integer_lattice(2)
    if family == "z3":
        return integer_lattice(3)
    if family == "peres":
        return PeresForest()
    if family == "three-grid":
        return ThreeGrid()
    if family == "union2":
        return _random_grid_union(2, seed)
    if family == "union3":
        return _random_grid_union(3, seed)
    if family == "d2":
        return D2()
    if family == "cut-and-project":
        return default_cut_and_project()
    if family == "concat3":
        return GeneralizedPeres(concat_linear_sequence(
            [[PHI - 1.0, math.sqrt(2.0) - 1.0], [math.sqrt(3.0) - 1.0, math.e - 2.0]]), 3)
    return GeneralizedPeres(SEQUENCES[int(family[-1])], 2)


PROBE_FAMILIES = ["z2", "z3", "peres", "three-grid", "union2", "union3", "d2",
                  "cut-and-project", "concat3", "gperes0", "gperes1", "gperes2",
                  "gperes3"]


@st.composite
def probe_cases(draw):
    family = draw(st.sampled_from(PROBE_FAMILIES))
    spec = probe_spec(family, draw(st.integers(0, 2 ** 16)))
    d = spec.dim
    eps = draw(st.floats(0.01, 0.6))
    n = draw(st.integers(1, 6))
    bases, dirs, lengths = [], [], []
    for _ in range(n):
        bases.append(draw(st.lists(st.floats(-8.0, 8.0), min_size=d, max_size=d)))
        kind = draw(st.sampled_from(["axis", "rational", "random"]))
        if kind == "axis":
            vec = np.zeros(d)
            vec[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        else:
            if kind == "rational":
                comps = st.integers(-5, 5).map(float)
            else:
                comps = st.floats(-1.0, 1.0)
            vec = np.asarray(draw(st.lists(comps, min_size=d, max_size=d)))
            assume(np.linalg.norm(vec) > 1e-3)
        dirs.append(vec / np.linalg.norm(vec))
        lengths.append(draw(st.one_of(st.floats(0.0, 24.0),
                                      st.integers(0, 24).map(float))))
    return spec, eps, np.asarray(bases), np.asarray(dirs), np.asarray(lengths)


class TestProbeFirstHits:
    @given(probe_cases())
    # A single candidate inside the column boxes of a round: as a one-row
    # lattice product it would round differently in the last bit.
    @example((ThreeGrid(), 0.11969586797279312,
              np.array([[-3.3129615600339886, 4.123689650437143]]),
              np.array([[0.14617898382362626, 0.9892581587676151]]),
              np.array([4.3495261135824865])))
    @settings(max_examples=200, deadline=None)
    def test_matches_march_and_brute_force(self, case):
        spec, eps, bases, dirs, lengths = case
        first = _probe_first_hits(spec, eps, bases, dirs, lengths)
        march = march_oracle(spec, eps, bases, dirs, lengths)
        march = np.where(march < np.ceil(lengths), march, np.inf)
        assert first.tobytes() == march.tobytes()
        assert first.tobytes() == brute_first_hits(spec, eps, bases, dirs,
                                                   lengths).tobytes()

    @pytest.mark.parametrize("spec", [integer_lattice(2), PeresForest(), ThreeGrid()],
                             ids=["z2", "peres", "three-grid"])
    def test_seeded_probes_match_march(self, spec):
        # Long probes with the stratified rational directions of sample_segments.
        bases, dirs, lengths = sample_probes(Window.cube(20.0, 2), 300.0, 400, 3)
        for eps in (0.05, 0.2, 0.6):
            first = _probe_first_hits(spec, eps, bases, dirs, lengths)
            march = march_oracle(spec, eps, bases, dirs, lengths)
            march = np.where(march < np.ceil(lengths), march, np.inf)
            assert first.tobytes() == march.tobytes()

    def test_blocker_between_length_and_horizon(self):
        # Z^2, eps 0.1: the line y = 0.05 from x = 0.3 meets the box of (k, 0)
        # for x in (k - 0.1, k + 0.1), so (1, 0) scores 0.6 and (2, 0) 1.6.
        spec = integer_lattice(2)
        base = np.array([[0.3, 0.05]])
        east = np.array([[1.0, 0.0]])
        score = float(_candidate_scores(np.array([[1.0, 0.0]]), base, east, 0.1)[0])
        assert 0.59 < score < 0.61
        # L = 0.5: the blocker at 0.6 lies in [L, ceil L) and is the value.
        assert _probe_first_hits(spec, 0.1, base, east, np.array([0.5]))[0] == score
        # L = 0: nothing scores below ceil L = 0, so the value is +inf; the
        # march's stencil visits (1, 0) and would report 0.6.
        assert _probe_first_hits(spec, 0.1, base, east, np.array([0.0]))[0] == math.inf
        assert march_oracle(spec, 0.1, base, east, np.array([0.0]))[0] == score
        miss = Segment(base[0], east[0], 0.5)
        rep = visibility_from_segments(spec, 0.1, [miss])
        assert rep.hit_fraction == 0.0 and rep.worst_segment is miss

    @pytest.mark.parametrize("spec", [
        integer_lattice(1),
        GridUnion((Grid([[1.0]], [0.0]), Grid([[PHI]], [0.3])))],
        ids=["z1", "two-grid-1d"])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.6])
    def test_one_dimensional_walk(self, spec, eps):
        # With d = 1 a column holds one point: the walk's stencil is the
        # single empty row of cartesian() with an offset 0 inserted.
        bases, dirs, _ = sample_probes(Window.cube(20.0, 1), 1.0, 64, 5)
        lengths = np.linspace(0.0, 12.5, 64)
        first = _probe_first_hits(spec, eps, bases, dirs, lengths)
        assert first.tobytes() == brute_first_hits(spec, eps, bases, dirs,
                                                   lengths).tobytes()
        assert np.isfinite(first).sum() > 32



def former_probe_rows(window, count, seed):
    """`_probe_rows` as one loop over the random probes: each base formed in
    its own row, each norm taken by `np.linalg.norm`."""
    dim = window.dim
    rng = np.random.default_rng(seed)
    n_strat = count // 2
    bases = np.empty((count, dim))
    raw = np.empty((count, dim))
    norms = np.empty(count)
    if n_strat:
        directions = geometry._stratified_directions(dim)
        table = np.asarray([float(np.linalg.norm(v)) for v in directions])
        cycle = np.arange(n_strat) % len(directions)
        bases[:n_strat] = window.lo + halton(n_strat, dim) * window.extent
        raw[:n_strat] = directions[cycle]
        norms[:n_strat] = table[cycle]
    for i in range(n_strat, count):
        vec = rng.standard_normal(dim)
        norm = float(np.linalg.norm(vec))
        while norm < 1e-9:
            vec = rng.standard_normal(dim)
            norm = float(np.linalg.norm(vec))
        bases[i] = window.lo + rng.random(dim) * window.extent
        raw[i] = vec
        norms[i] = norm
    return bases, raw, norms


class ShortNormals:
    """A generator that counts its draws and scales its normal draws whose
    numbers (from 1) are in ``short`` by 1e-12, below the redraw threshold
    of a probe direction's norm."""

    make = staticmethod(np.random.default_rng)

    def __init__(self, short, seed):
        self.rng = self.make(seed)
        self.short = short
        self.normals = self.uniforms = 0

    def standard_normal(self, size=None, out=None):
        vec = self.rng.standard_normal(size, out=out)
        self.normals += 1
        if self.normals in self.short:
            vec *= 1e-12
        return vec

    def random(self, size=None, out=None):
        self.uniforms += 1
        return self.rng.random(size, out=out)


def draw_with_short_normals(monkeypatch, short, window, count, seed):
    """`_probe_rows` and `former_probe_rows` with `ShortNormals` generators,
    and the generators that `_probe_rows` made."""
    made = []

    def make(seed):
        made.append(ShortNormals(short, seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", make)
    got = geometry._probe_rows(window, count, seed)
    draws = list(made)
    want = former_probe_rows(window, count, seed)
    monkeypatch.undo()
    return got, want, draws


class IndexColumnWalk(analysis._ColumnWalk):
    """`_ColumnWalk` as it was before it held only its live probes: every
    probe stays in its state, and ``entry``, ``bounds``, ``skip`` and
    ``score`` gather the state of the probe indices ``sel`` on each call."""

    def entry(self, sel, j):
        return (self.start[sel] + j - self.r_a[sel] - self.pos[sel]) / self.speed[sel]

    def bounds(self, sel, j):
        y0, u, lo_off, hi_off = (np.take(a, sel, axis=1)[:, None]
                                 for a in (self.y0, self.u, self.lo_off, self.hi_off))
        y_in = y0 + self.entry(sel, j) * u
        return y_in + lo_off, y_in + hi_off

    def skip(self, sel, limit):
        lo, hi = self.bounds(sel, self.done[sel] + np.arange(analysis.SKIP_MAX_PERIOD)[:, None])
        m = np.floor(hi)
        margin = self.margin[sel]
        left = lo - m - margin
        right = m + 1.0 - hi - margin
        empty = (left > 0.0) & (right > 0.0)
        empty &= (np.arange(empty.shape[0])[:, None] != self.axis[sel])[:, None]
        sigma = np.take(self.u, sel, axis=1) / self.speed[sel]
        jump = np.zeros(sel.size)
        for q in range(1, analysis.SKIP_MAX_PERIOD + 1):
            delta = (q * sigma - np.rint(q * sigma))[:, None]
            room = np.where(delta > 0.0, right[:, :q], left[:, :q])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                blocks = np.floor(room / np.abs(delta)) + 1.0
            blocks = np.where(empty[:, :q], blocks, 0.0).max(axis=0)
            jump = np.maximum(jump, q * blocks.min(axis=0))
        end = np.floor(limit * self.speed[sel] + self.r_a[sel] + self.pos[sel]
                       - self.start[sel]) + 1.0
        self.done[sel] += np.minimum(jump, np.maximum(end - self.done[sel], 0.0))

    def score(self, sel, columns, eps, bases, dirs, first):
        d = bases.shape[1]
        j = self.done[sel] + np.arange(columns)[:, None]
        lo, hi = self.bounds(sel, j)
        lo = np.ceil(lo)
        hi = np.floor(hi)
        axis = self.axis[sel]
        on_axis = (np.arange(d)[:, None] == axis)[:, None]
        col = self.sgn[sel] * (self.start[sel] + j)
        lo = np.where(on_axis, col, lo)
        hi = np.where(on_axis, col, hi)
        k = int((hi - lo).max()) + 1
        zs = lo[:, None] + np.take(analysis._walk_stencils(k, d), axis, axis=2)[:, :, None]
        inside = np.flatnonzero((zs <= hi[:, None]).all(axis=0))
        owner = np.take(sel, inside % sel.size)
        pts = self.sheet.points(np.stack([np.take(z, inside) for z in zs], axis=1))
        np.minimum.at(first, owner, _candidate_scores(
            pts, np.take(bases, owner, axis=0), np.take(dirs, owner, axis=0), eps))


def index_walk_lattice_sheets(sheets, eps, bases, dirs, horizons, first,
                              walk_type=IndexColumnWalk):
    """`_walk_lattice_sheets` as it was with `IndexColumnWalk`: one shrinking
    array of live probe indices per sheet."""
    walks = [walk_type(s, eps, bases, dirs, horizons) for s in sheets]
    guard = 1e-9 * (1.0 + horizons)
    alive = [np.arange(bases.shape[0])] * len(walks)
    columns = analysis.WALK_FIRST_COLUMNS

    def entered(walk, live):
        limit = np.minimum(first[live], horizons[live]) + guard[live]
        keep = walk.entry(live, walk.done[live]) <= limit
        return live[keep], limit[keep]

    while True:
        moved = False
        for i, walk in enumerate(walks):
            live, limit = entered(walk, alive[i])
            if columns == analysis.WALK_MAX_COLUMNS and live.size:
                walk.skip(live, limit)
                live, _ = entered(walk, live)
            alive[i] = live
            if not live.size:
                continue
            moved = True
            chunk = max(1, analysis.PROBE_KERNEL_ROWS // (columns * walk.rows_per_column))
            for lo in range(0, live.size, chunk):
                walk.score(live[lo:lo + chunk], columns, eps, bases, dirs, first)
            walk.done[live] += columns
        if not moved:
            return
        columns = min(2 * columns, analysis.WALK_MAX_COLUMNS)


def former_walk_lattice_sheets(sheets, eps, bases, dirs, horizons, first):
    """`_walk_lattice_sheets` with every probe's next entry recomputed on
    every round and sheet."""
    walks = [IndexColumnWalk(s, eps, bases, dirs, horizons) for s in sheets]
    guard = 1e-9 * (1.0 + horizons)
    everyone = np.arange(bases.shape[0])
    columns = analysis.WALK_FIRST_COLUMNS
    while True:
        moved = False
        for walk in walks:
            limit = np.minimum(first, horizons) + guard
            alive = np.flatnonzero(walk.entry(everyone, walk.done) <= limit)
            if not alive.size:
                continue
            moved = True
            chunk = max(1, analysis.PROBE_KERNEL_ROWS // (columns * walk.rows_per_column))
            for lo in range(0, alive.size, chunk):
                walk.score(alive[lo:lo + chunk], columns, eps, bases, dirs, first)
            walk.done[alive] += columns
        if not moved:
            return
        columns = min(2 * columns, analysis.WALK_MAX_COLUMNS)


PROBE_WINDOWS = {1: Window([-20.0], [20.0]), 2: Window([-3.0, 1.0], [5.0, 2.5]),
                 3: Window([-4.0, -1.0, 0.5], [4.0, 6.0, 0.75])}


class TestProbeDrawOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 257])
    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_rows_match_the_former_loop(self, dim, count, seed):
        got = geometry._probe_rows(PROBE_WINDOWS[dim], count, seed)
        want = former_probe_rows(PROBE_WINDOWS[dim], count, seed)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_draw_matches_the_former_loop(self, seed):
        window = Window.cube(50.0, 2)
        got = geometry._probe_rows(window, 10 ** 4, seed)
        want = former_probe_rows(window, 10 ** 4, seed)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_redrawn_directions_match_the_former_loop(self, dim, monkeypatch):
        # Every third normal draw is too short, so the redraw loop runs.
        for count in (1, 2, 3, 64):
            got, want, _ = draw_with_short_normals(monkeypatch, range(1, 10 ** 6, 3),
                                                   PROBE_WINDOWS[dim], count, 7)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert np.all(want[2] >= 1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count, where", [(64, "first"), (64, "last"), (65, "last"),
                                              (1, "first")])
    def test_one_short_normal_redraws_like_the_former_loop(self, dim, count, where,
                                                           monkeypatch):
        # One short normal, at the first or the last random probe, or at
        # the only probe: the first pass is thrown away, and the second
        # redraws that direction alone, as the former loop did.
        randoms = count - count // 2
        short = {1 if where == "first" else randoms}
        got, want, draws = draw_with_short_normals(monkeypatch, short,
                                                   PROBE_WINDOWS[dim], count, 7)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert np.all(want[2] >= 1e-9)
        assert [(g.normals, g.uniforms) for g in draws] == [(randoms, randoms),
                                                           (randoms + 1, randoms)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 257])
    def test_a_clean_draw_is_one_pass(self, dim, count, monkeypatch):
        # One normal and one uniform draw per random probe, from one
        # generator: no second pass.
        got, want, draws = draw_with_short_normals(monkeypatch, set(),
                                                   PROBE_WINDOWS[dim], count, 7)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        randoms = count - count // 2
        assert [(g.normals, g.uniforms) for g in draws] == [(randoms, randoms)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_norms_are_numpy_norms(self, dim):
        # The norms come from one stacked matmul, one BLAS dot per row, which
        # must round as sqrt(v.dot(v)); a numpy whose norm or matmul rounds
        # otherwise fails here.
        count = 2001
        _, raw, norms = geometry._probe_rows(Window.cube(50.0, dim), count, 1)
        for i in range(count // 2, count):
            assert norms[i] == float(np.linalg.norm(raw[i]))


class UnskippedColumnWalk(IndexColumnWalk):
    """`IndexColumnWalk` with no skip: every probe scores each of its
    columns until its next entry passes min(first, horizon)."""

    def skip(self, sel, limit):
        pass


unskipped_walk_lattice_sheets = functools.partial(index_walk_lattice_sheets,
                                                  walk_type=UnskippedColumnWalk)


def record_walk(walk_fn, monkeypatch, sheets, eps, bases, dirs, lengths):
    """``first`` after ``walk_fn``, and the (sheet, probe ids, columns) of
    every chunk it scored, from `_ColumnWalk` (a slice of its live probes)
    or `IndexColumnWalk` (probe indices)."""
    calls = []

    def recorder(score):
        def recording(walk, sel, columns, *rest):
            index = next(i for i, s in enumerate(sheets) if s is walk.sheet)
            ids = walk.ids[sel] if isinstance(sel, slice) else sel
            calls.append((index, ids.tobytes(), columns))
            return score(walk, sel, columns, *rest)
        return recording

    for walk_type in (analysis._ColumnWalk, IndexColumnWalk):
        monkeypatch.setattr(walk_type, "score", recorder(walk_type.score))
    first = np.full(bases.shape[0], np.inf)
    walk_fn(sheets, eps, bases, dirs, np.ceil(lengths), first)
    monkeypatch.undo()
    return first, calls


def scored_rows(calls):
    """The (probe, column) rows of every chunk ``record_walk`` saw."""
    return sum(len(sel) // 8 * columns for _, sel, columns in calls)


def below_horizon(first, lengths):
    """``first`` with every value at or past the horizon set to +inf, as
    ``_probe_first_hits`` reports it."""
    return np.where(first < np.ceil(lengths), first, np.inf)


class TestShrinkingWalkOracle:
    # The skip moves where the rounds start, so the chunks differ from the
    # former walk's and so does ``first`` past the horizon.
    @pytest.mark.parametrize("spec", [integer_lattice(2), PeresForest(), ThreeGrid(),
                                      integer_lattice(1), integer_lattice(3)],
                             ids=["z2", "peres", "three-grid", "z1", "z3"])
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_matches_the_walk_over_every_probe(self, spec, eps, monkeypatch):
        sheets = [s for s in spec.sheets() if isinstance(s, LatticeSheet)]
        bases, dirs, lengths = sample_probes(Window.cube(20.0, spec.dim), 300.0, 400, 3)
        got = record_walk(analysis._walk_lattice_sheets, monkeypatch, sheets,
                          eps, bases, dirs, lengths)
        want = record_walk(former_walk_lattice_sheets, monkeypatch, sheets,
                           eps, bases, dirs, lengths)
        got_first = below_horizon(got[0], lengths)
        assert got_first.tobytes() == below_horizon(want[0], lengths).tobytes()
        assert scored_rows(got[1]) <= scored_rows(want[1])
        assert np.isfinite(got_first).any()


class TestLiveProbeWalk:
    """The walk that holds only its live probes against `IndexColumnWalk`:
    the same chunks in the same order, hence ``first`` bit for bit."""

    @pytest.mark.parametrize("spec", [integer_lattice(2), PeresForest(), ThreeGrid(),
                                      integer_lattice(1), integer_lattice(3)],
                             ids=["z2", "peres", "three-grid", "z1", "z3"])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_matches_the_index_walk(self, spec, eps, monkeypatch):
        sheets = [s for s in spec.sheets() if isinstance(s, LatticeSheet)]
        bases, dirs, lengths = sample_probes(Window.cube(20.0, spec.dim), 300.0, 400, 3)
        jumped = []
        skip = analysis._ColumnWalk.skip

        def counting(walk, limit):
            before = walk.done.sum()
            skip(walk, limit)
            jumped.append(walk.done.sum() - before)

        monkeypatch.setattr(analysis._ColumnWalk, "skip", counting)
        got = record_walk(analysis._walk_lattice_sheets, monkeypatch, sheets,
                          eps, bases, dirs, lengths)
        want = record_walk(index_walk_lattice_sheets, monkeypatch, sheets,
                           eps, bases, dirs, lengths)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        assert np.isfinite(got[0]).any()
        # On Z^1 every probe meets a point within its first columns, so no
        # walk reaches the rounds that skip.
        assert sum(jumped) > 0 or eps > 0.01 or spec.dim == 1

    def test_keep_compresses_every_probe_array(self):
        bases, dirs, lengths = sample_probes(Window.cube(20.0, 2), 300.0, 40, 3)
        sheet = PeresForest().sheets()[1]
        walk = analysis._ColumnWalk(sheet, 0.05, bases, dirs, np.ceil(lengths))
        full = IndexColumnWalk(sheet, 0.05, bases, dirs, np.ceil(lengths))
        walk.keep(np.ones(40, dtype=bool))
        walk.keep(np.arange(40) % 3 != 1)
        walk.keep(np.arange(27) % 2 == 0)
        ids = np.arange(40)[np.arange(40) % 3 != 1][::2]
        assert walk.ids.tobytes() == ids.tobytes()
        for name in analysis._ColumnWalk.PER_PROBE:
            got, want = getattr(walk, name), getattr(full, name)
            assert got.flags.c_contiguous and got.shape == want.shape[:-1] + (ids.size,)
            assert got.tobytes() == np.take(want, ids, axis=-1).tobytes(), name
        j = np.arange(3.0)[:, None] + walk.done
        for got, want in zip(walk.bounds(j), full.bounds(ids, j)):
            assert got.tobytes() == want.tobytes()


def nudge(draw, x):
    """x itself, a few ulps away, or 1e-15 to 1e-2 away (log-uniform); the
    last kind, 1e-4 to 1e-2 away, drifts by a box width within the horizon."""
    kind = draw(st.sampled_from(["exact", "ulps", "offset", "drift"]))
    if kind == "ulps":
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(1, 4))):
            x = float(np.nextafter(x, toward))
    elif kind == "offset":
        x += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-15.0, -2.0))
    elif kind == "drift":
        x += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-4.0, -2.0))
    return x


@st.composite
def near_rational_probes(draw):
    """Long probes along and near the rational directions of `sample_probes`:
    integer vectors with entries up to 8, the axes and diagonals among them,
    with one entry nudged."""
    family = draw(st.sampled_from(["z2", "three-grid", "peres", "z3"]))
    spec = probe_spec(family, 0)
    d = spec.dim
    eps = draw(st.floats(0.01, 0.6))
    n = draw(st.integers(1, 6))
    coords = st.one_of(st.floats(-50.0, 50.0),
                       st.integers(-400, 400).map(lambda k: k / 8.0))
    bases, dirs, lengths = [], [], []
    for _ in range(n):
        bases.append(draw(st.lists(coords, min_size=d, max_size=d)))
        kind = draw(st.sampled_from(["axis", "diagonal", "rational"]))
        if kind == "axis":
            vec = np.zeros(d)
            vec[draw(st.integers(0, d - 1))] = 1.0
        elif kind == "diagonal":
            vec = np.ones(d)
        else:
            vec = np.asarray(draw(st.lists(st.integers(-8, 8), min_size=d,
                                           max_size=d)), dtype=float)
            assume(np.any(vec))
        vec *= np.asarray(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=d, max_size=d)))
        i = draw(st.integers(0, d - 1))
        vec[i] = nudge(draw, vec[i])
        dirs.append(vec / np.linalg.norm(vec))
        lengths.append(draw(st.one_of(st.sampled_from([64.0, 1000.0, 4096.0]),
                                      st.floats(0.0, 4096.0))))
    return spec, eps, np.asarray(bases), np.asarray(dirs), np.asarray(lengths)


def record_skips(monkeypatch, sheets, eps, bases, dirs, lengths):
    """``first`` after `_walk_lattice_sheets`, and the (box, probe id, done
    before, done after) of every probe that a skip moved.  The box, read
    at skip time while the walk still holds the probe, is the dominant axis
    and, per axis and skipped column, whether the column's float box, as
    ``score`` rounds it, holds no integer."""
    skips = []
    skip = analysis._ColumnWalk.skip

    def recording(walk, limit):
        before = walk.done.copy()
        skip(walk, limit)
        for p in np.flatnonzero(walk.done != before):
            lo, hi = walk.bounds(np.arange(before[p], walk.done[p])[:, None],
                                 slice(p, p + 1))
            box = (np.ceil(lo[:, :, 0]) > np.floor(hi[:, :, 0]), walk.axis[p])
            skips.append((box, walk.ids[p], before[p], walk.done[p]))

    monkeypatch.setattr(analysis._ColumnWalk, "skip", recording)
    first = np.full(bases.shape[0], np.inf)
    analysis._walk_lattice_sheets(sheets, eps, bases, dirs, np.ceil(lengths), first)
    monkeypatch.undo()
    return first, skips


def assert_skipped_columns_are_empty(skips):
    """Every skipped column's float box, as ``score`` rounds it, holds no
    integer on some axis other than the dominant one."""
    for (empty, axis), probe, before, after in skips:
        empty[axis] = False
        assert empty.any(axis=0).all(), (probe, before, after)


class TestColumnSkip:
    """The skip leaves ``first`` below the horizon bit for bit as the walk
    without it found it, and skips only columns whose box is empty."""

    @given(near_rational_probes())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_unskipped_walk(self, case):
        spec, eps, bases, dirs, lengths = case
        sheets = spec.sheets()
        horizons = np.ceil(lengths)
        want = np.full(bases.shape[0], np.inf)
        unskipped_walk_lattice_sheets(sheets, eps, bases, dirs, horizons, want)
        with pytest.MonkeyPatch.context() as monkeypatch:
            got, skips = record_skips(monkeypatch, sheets, eps, bases, dirs, lengths)
        assert below_horizon(got, lengths).tobytes() == \
            below_horizon(want, lengths).tobytes()
        assert_skipped_columns_are_empty(skips)

    @pytest.mark.parametrize("spec", [integer_lattice(2), ThreeGrid(), PeresForest(),
                                      integer_lattice(3)],
                             ids=["z2", "three-grid", "peres", "z3"])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.6])
    def test_seeded_probes(self, spec, eps, monkeypatch):
        bases, dirs, lengths = sample_probes(Window.cube(50.0, spec.dim), 4096.0,
                                             500, 2)
        want = np.full(bases.shape[0], np.inf)
        unskipped_walk_lattice_sheets(spec.sheets(), eps, bases, dirs,
                                      np.ceil(lengths), want)
        got, skips = record_skips(monkeypatch, spec.sheets(), eps, bases, dirs,
                                  lengths)
        assert below_horizon(got, lengths).tobytes() == \
            below_horizon(want, lengths).tobytes()
        assert_skipped_columns_are_empty(skips)

    # Z^2 at eps 0.01 from (0.3, y) along slopes within ulps of 1/3 and
    # 2/7: the float box of column 62, where the first skip looks, lies
    # 1e-14 to 1e-12 above the row below it.  Over the next 4,000 columns
    # the box drifts by a few 1e-14, and some of its float boxes reach the
    # row; a skip with no margin would jump over them.
    GRAZING = [(0.11333592543122409, 0.9486832980505138, 0.31622776601683794),
               (0.09857368056979768, 0.9615239476408232, 0.274721127897378)]

    def test_a_box_that_grazes_an_integer_is_not_skipped(self, monkeypatch):
        bases = np.array([[0.3, y] for y, _, _ in self.GRAZING])
        dirs = np.array([[a, b] for _, a, b in self.GRAZING])
        lengths = np.full(2, 4096.0)
        sheets = integer_lattice(2).sheets()
        walk = analysis._ColumnWalk(sheets[0], 0.01, bases, dirs, lengths)
        lo, _ = walk.bounds(np.full((1, 2), 62.0))
        gap = lo[1, 0, :] - np.floor(lo[1, 0, :])
        assert np.all((gap > 0.0) & (gap < 1e-12))
        first, skips = record_skips(monkeypatch, sheets, 0.01, bases, dirs, lengths)
        want = np.full(2, np.inf)
        unskipped_walk_lattice_sheets(sheets, 0.01, bases, dirs, lengths, want)
        assert first.tobytes() == want.tobytes()
        assert_skipped_columns_are_empty(skips)

    def test_a_skip_stops_at_the_dominant_axis(self, monkeypatch):
        # Z^2 at eps 0.1 from (0.3, 0.5): along +x every column's box on the
        # off axis y is about [0.4, 0.6], so the probe jumps to its horizon.
        # With slope 1e-4 the box drifts up to the row y = 1 near x = 4000,
        # and the probe jumps only to there.  Were the dominant axis, which
        # always holds its column, counted as empty for ever, both probes
        # would jump to the horizon.
        bases = np.array([[0.3, 0.5], [0.3, 0.5]])
        dirs = np.array([[1.0, 0.0], [1.0, 1e-4]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        lengths = np.array([4096.0, 4096.0])
        sheets = integer_lattice(2).sheets()
        first, skips = record_skips(monkeypatch, sheets, 0.1, bases, dirs, lengths)
        want = np.full(2, np.inf)
        unskipped_walk_lattice_sheets(sheets, 0.1, bases, dirs, np.ceil(lengths), want)
        assert first.tobytes() == want.tobytes()
        assert first[0] == np.inf and 3990.0 < first[1] < 4010.0
        ends = {int(p): after for _, p, _, after in skips}
        assert ends[0] == 4096.0 and 3900.0 < ends[1] < first[1]


class TestWalkWork:
    def test_z2_misses_skip_their_columns(self, monkeypatch):
        # The benchmark's Z^2 draw at a fifth of its count: before the
        # skip, the misses walked about 4,096 columns each.
        spec = integer_lattice(2)
        bases, dirs, lengths = sample_probes(Window.cube(50.0, 2), 4096.0, 2000, 1)
        got = record_walk(analysis._walk_lattice_sheets, monkeypatch,
                          spec.sheets(), 0.1, bases, dirs, lengths)
        want = record_walk(unskipped_walk_lattice_sheets, monkeypatch,
                           spec.sheets(), 0.1, bases, dirs, lengths)
        assert below_horizon(got[0], lengths).tobytes() == \
            below_horizon(want[0], lengths).tobytes()
        assert scored_rows(got[1]) * 10 < scored_rows(want[1])


def former_line_box(lo, hi, dirs, closed=False):
    """`_line_box` with one max (min) over the last axis of the slabs."""
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
    return enter.max(axis=-1), leave.min(axis=-1)


def former_candidate_scores(cand, bases, dirs, eps):
    b = cand - bases
    t_lo, t_hi = former_line_box(b - eps, b + eps, dirs)
    return np.where((t_lo < t_hi) & (t_hi > 0.0), t_lo, np.inf)


LINE_BOX_BOUNDS = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, -2.5, 1e-300]
LINE_BOX_DIRS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 1e-200]


@st.composite
def line_box_cases(draw):
    """Bounds with signed zeros and infinities, and directions with zero
    entries, one row per line or one row for all; d = 1 to 4."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))

    def rows(values, count):
        flat = draw(st.lists(values, min_size=count * d, max_size=count * d))
        return np.array(flat, dtype=float).reshape(count, d)

    bounds = st.sampled_from(LINE_BOX_BOUNDS) | st.floats(-10.0, 10.0)
    lo, hi = rows(bounds, n), rows(bounds, n)
    dirs = rows(st.sampled_from(LINE_BOX_DIRS) | st.floats(-4.0, 4.0),
                draw(st.sampled_from([1, n])))
    if draw(st.booleans()) and dirs.shape[0] == 1:
        dirs = dirs[0]
    return lo, hi, dirs, draw(st.booleans())


class TestLineBoxFold:
    @given(line_box_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_last_axis_reduction(self, case):
        lo, hi, dirs, closed = case
        got = analysis._line_box(lo, hi, dirs, closed)
        want = former_line_box(lo, hi, dirs, closed)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_signed_zero_ties(self):
        # Every slab enters at +-0: the fold keeps the zero a reduction keeps.
        lo = np.array([[0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]])
        for dirs in (np.array([1.0, -1.0]), np.array([-1.0, 1.0]), np.array([1.0, 1.0])):
            got = analysis._line_box(lo, lo + 1.0, dirs)
            want = former_line_box(lo, lo + 1.0, dirs)
            for g, w in zip(got, want):
                assert np.array_equal(np.signbit(g), np.signbit(w)) and np.array_equal(g, w)


WALK_STATE = ("y0", "u", "lo_off", "hi_off")


def former_walk_state(sheet, eps, bases, dirs, horizons):
    """The state of `_ColumnWalk` as the former row-major constructor built
    it: (n, d) coordinate arrays and per-probe values."""
    n, d = bases.shape
    inv = sheet.inverse
    y0 = (bases - sheet.shift) @ inv.T
    u = dirs @ inv.T
    r = eps * np.abs(inv).sum(axis=1)
    rp = r + 1e-9 * (1.0 + r + np.abs(y0) + horizons[:, None] * np.abs(u))
    rows = np.arange(n)
    axis = np.argmax(np.abs(u), axis=1)
    sgn = np.sign(u[rows, axis])
    pos = sgn * y0[rows, axis]
    r_a = rp[rows, axis]
    sweep = (2.0 * r_a / np.abs(u[rows, axis]))[:, None] * u
    lo_off = np.minimum(sweep, 0.0) - rp
    hi_off = np.maximum(sweep, 0.0) + rp
    width = hi_off - lo_off
    width[rows, axis] = 0.0
    return {"y0": y0, "u": u, "lo_off": lo_off, "hi_off": hi_off, "axis": axis,
            "sgn": sgn, "speed": np.abs(u[rows, axis]), "pos": pos, "r_a": r_a,
            "start": np.ceil(pos - r_a),
            "margin": 1e-9 * (1.0 + r_a + np.abs(y0).max(axis=1)
                              + horizons * np.abs(u).max(axis=1)),
            "rows_per_column": int((np.floor(width.max()) + 2.0) ** (d - 1))}


class FormerColumnWalk(IndexColumnWalk):
    """`IndexColumnWalk` with the former row-major ``bounds``, ``skip`` and
    ``score``, run on (n, d) views of the walk's transposed state."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rows = {name: getattr(self, name).T for name in WALK_STATE}
        self.skipped = 0

    def bounds(self, sel, j):
        y0, u, lo_off, hi_off = (self.rows[name] for name in WALK_STATE)
        t_in = self.entry(sel[:, None], j)
        y_in = y0[sel, None, :] + t_in[:, :, None] * u[sel, None, :]
        return y_in + lo_off[sel, None, :], y_in + hi_off[sel, None, :]

    def skip(self, sel, limit):
        before = self.done[sel]
        lo, hi = self.bounds(sel, self.done[sel, None] + np.arange(analysis.SKIP_MAX_PERIOD))
        m = np.floor(hi)
        margin = self.margin[sel, None, None]
        left = lo - m - margin
        right = m + 1.0 - hi - margin
        empty = (left > 0.0) & (right > 0.0)
        empty[np.arange(sel.size), :, self.axis[sel]] = False
        sigma = self.rows["u"][sel] / self.speed[sel, None]
        jump = np.zeros(sel.size)
        for q in range(1, analysis.SKIP_MAX_PERIOD + 1):
            delta = (q * sigma - np.rint(q * sigma))[:, None, :]
            room = np.where(delta > 0.0, right[:, :q], left[:, :q])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                blocks = np.floor(room / np.abs(delta)) + 1.0
            blocks = np.where(empty[:, :q], blocks, 0.0).max(axis=2)
            jump = np.maximum(jump, q * blocks.min(axis=1))
        end = np.floor(limit * self.speed[sel] + self.r_a[sel] + self.pos[sel]
                       - self.start[sel]) + 1.0
        self.done[sel] += np.minimum(jump, np.maximum(end - self.done[sel], 0.0))
        self.skipped += int(np.sum(self.done[sel] - before))

    def score(self, sel, columns, eps, bases, dirs, first):
        d = bases.shape[1]
        j = self.done[sel, None] + np.arange(columns)
        lo, hi = self.bounds(sel, j)
        lo = np.ceil(lo)
        hi = np.floor(hi)
        axis = self.axis[sel]
        on_axis = (np.arange(d) == axis[:, None])[:, None, :]
        col = (self.sgn[sel, None] * (self.start[sel, None] + j))[:, :, None]
        lo = np.where(on_axis, col, lo)
        hi = np.where(on_axis, col, hi)
        k = int((hi - lo).max()) + 1
        stencil = analysis._walk_stencils(k, d).transpose(2, 1, 0)[axis]
        zs = lo[:, :, None, :] + stencil[:, None, :, :]
        inside = np.flatnonzero(np.all(zs <= hi[:, :, None, :], axis=-1))
        owner = sel[inside // (columns * stencil.shape[1])]
        pts = self.sheet.points(zs.reshape(-1, d))
        np.minimum.at(first, owner, former_candidate_scores(
            pts[inside], bases[owner], dirs[owner], eps))


def skewed_lattice_3d():
    basis = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.4], [-0.3, 0.2, 1.1]])
    return GridUnion((Grid(basis, np.array([0.1, 0.7, 0.35])),))


def former_walk_first_hits(monkeypatch, spec, eps, bases, dirs, lengths):
    """``_probe_first_hits`` with every walk a `FormerColumnWalk`, and the
    columns that its skips jumped."""
    walks = []

    def make(*args):
        walks.append(FormerColumnWalk(*args))
        return walks[-1]

    monkeypatch.setattr(analysis, "_walk_lattice_sheets",
                        functools.partial(index_walk_lattice_sheets, walk_type=make))
    first = _probe_first_hits(spec, eps, bases, dirs, lengths)
    monkeypatch.undo()
    return first, sum(w.skipped for w in walks)


WALK_SPECS = {"z2": integer_lattice(2), "peres": PeresForest(), "three-grid": ThreeGrid(),
              "skewed-3d": skewed_lattice_3d()}


class TestCoordinateMajorWalk:
    """The walk's (d, n) layout against the former row-major walk."""

    @pytest.mark.parametrize("name", list(WALK_SPECS))
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_state_matches_the_former_constructor(self, name, eps):
        spec = WALK_SPECS[name]
        bases, dirs, lengths = sample_probes(Window.cube(50.0, spec.dim), 4096.0, 300, 2)
        horizons = np.ceil(lengths)
        for sheet in spec.sheets():
            walk = analysis._ColumnWalk(sheet, eps, bases, dirs, horizons)
            want = former_walk_state(sheet, eps, bases, dirs, horizons)
            for key in WALK_STATE:
                got = getattr(walk, key)
                # One contiguous row per lattice axis, and no row-major copy.
                assert got.shape == (spec.dim, 300) and got.flags.c_contiguous
                assert got.T.tobytes() == want[key].tobytes(), key
            for key, value in want.items():
                if key not in WALK_STATE:
                    assert np.asarray(getattr(walk, key)).tobytes() == \
                        np.asarray(value).tobytes(), key
            assert not any(isinstance(v, np.ndarray) and v.shape == (300, spec.dim)
                           for v in vars(walk).values())

    @pytest.mark.parametrize("name", list(WALK_SPECS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_first_hits_match_the_former_walk(self, name, seed, monkeypatch):
        # Half the probes run along the stratified rational slopes; at eps
        # 0.01 some walk past 62 columns on every set, and skips run.
        spec = WALK_SPECS[name]
        bases, dirs, lengths = sample_probes(Window.cube(50.0, spec.dim), 4096.0, 400, seed)
        for eps in (0.01, 0.05, 0.2):
            want, skipped = former_walk_first_hits(monkeypatch, spec, eps, bases, dirs,
                                                   lengths)
            got = _probe_first_hits(spec, eps, bases, dirs, lengths)
            assert got.tobytes() == want.tobytes()
            assert np.isfinite(got).any()
            assert skipped > 0 or eps > 0.01

    @given(near_rational_probes())
    @settings(max_examples=60, deadline=None)
    def test_near_rational_probes_match_the_former_walk(self, case):
        spec, eps, bases, dirs, lengths = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            want, _ = former_walk_first_hits(monkeypatch, spec, eps, bases, dirs, lengths)
        assert _probe_first_hits(spec, eps, bases, dirs, lengths).tobytes() == want.tobytes()


class TestWalkMemory:
    def test_benchmark_peres_draw_peak(self):
        # The benchmark's Peres draw at eps 0.2 peaked at 10.47 MiB with
        # the row-major walk (numpy 2.4.6); the (d, n) layout must not add
        # a copy of the walk's state, or a larger chunk, on top of that.
        bases, dirs, lengths = sample_probes(Window.cube(50.0, 2), 4096.0, 10 ** 4, 1)
        tracemalloc.start()
        try:
            _probe_first_hits(PeresForest(), 0.2, bases, dirs, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.47 * 2 ** 20


class TestOneDrawPerCommand:
    EPSILONS = [0.2, 0.1, 0.05]

    @pytest.mark.parametrize("spec", [integer_lattice(2), PeresForest(), ThreeGrid()],
                             ids=["z2", "peres", "three-grid"])
    def test_sequence_equals_single_calls(self, spec, monkeypatch):
        window = Window.cube(20.0, 2)
        singles = [analysis.estimate_visibility(spec, eps, 64.0, 300, window, 3)
                   for eps in self.EPSILONS]
        draws = []
        sample = analysis.sample_probes
        monkeypatch.setattr(analysis, "sample_probes",
                            lambda *a: draws.append(a) or sample(*a))
        got = analysis.estimate_visibility(spec, self.EPSILONS, 64.0, 300, window, 3)
        assert np.asarray(got).tobytes() == np.asarray(singles).tobytes()
        assert len(draws) == 1

    def test_every_epsilon_is_checked_before_the_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("probes were drawn")

        monkeypatch.setattr(analysis, "sample_probes", no_draw)
        for bad in ([0.1, math.nan], [0.2, 0.0], [-1.0]):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                analysis.estimate_visibility(integer_lattice(2), bad, 8.0, 4,
                                             Window.cube(2.0, 2), 0)
        assert analysis.estimate_visibility(integer_lattice(2), [], 8.0, 4,
                                            Window.cube(2.0, 2), 0) == []

    def test_visibility_csv_equals_single_epsilon_runs(self, tmp_path):
        from denseforest.cli import run

        def visibility(eps, out):
            assert run(["visibility", "--spec", "peres", "--eps", eps,
                        "--l-max", "64", "--count", "300", "--radius", "20",
                        "--seed", "1", "--out", str(out)]) == 0
            return out.read_bytes().splitlines(keepends=True)

        both = visibility("0.2,0.1", tmp_path / "both.csv")
        first = visibility("0.2", tmp_path / "a.csv")
        second = visibility("0.1", tmp_path / "b.csv")
        assert first[0] == second[0]
        assert both == [first[0], *first[1:], *second[1:]]
        assert len(both) == 3

def former_sequence_enumerate(sheet, window):
    """`SequenceSheet.enumerate` as a loop over the columns k, each column
    building the grid of its own range of offsets l."""
    pre = window.corners() @ sheet.rotation
    lo = pre.min(axis=0) - 1e-9
    hi = pre.max(axis=0) + 1e-9
    ks = np.arange(math.ceil(lo[0]), math.floor(hi[0]) + 1, dtype=np.int64)
    if ks.size == 0:
        return np.empty((0, sheet.dim))
    vs = sheet.seq.extended_values(ks)
    blocks = []
    for k, v in zip(ks, vs):
        axes = [np.arange(math.ceil(lo[j + 1] - v[j]), math.floor(hi[j + 1] - v[j]) + 1)
                for j in range(sheet.dim - 1)]
        if any(a.size == 0 for a in axes):
            continue
        mesh = np.meshgrid(*axes, indexing="ij")
        ls = np.stack([m.ravel() for m in mesh], axis=1)
        block = np.empty((ls.shape[0], sheet.dim))
        block[:, 0] = k
        block[:, 1:] = v + ls
        blocks.append(block)
    if not blocks:
        return np.empty((0, sheet.dim))
    pts = np.concatenate(blocks) @ sheet.rotation.T
    return pts[window.contains(pts)]


def former_sequence_candidates(sheet, queries, radius):
    """`SequenceSheet.candidates_near` as a stencil of offsets -k..k around
    the rounded targets of every column k within reach."""
    ys = queries @ sheet.rotation
    k_reach = int(math.floor(radius + 0.5)) + 1
    k_off = np.arange(-k_reach, k_reach + 1)
    ks = np.rint(ys[:, 0]).astype(np.int64)[:, None] + k_off[None, :]
    vs = sheet.seq.extended_values(ks.ravel()).reshape(ks.shape + (sheet.dim - 1,))
    rest = ys[:, None, 1:] - vs
    axes = [np.arange(-k_reach, k_reach + 1)] * (sheet.dim - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    stencil = np.stack([m.ravel() for m in mesh], axis=1)
    ls = np.rint(rest)[:, :, None, :] + stencil[None, None, :, :]
    n_q, n_k, n_l = ks.shape[0], ks.shape[1], stencil.shape[0]
    pts = np.empty((n_q, n_k, n_l, sheet.dim))
    pts[..., 0] = ks[:, :, None]
    pts[..., 1:] = vs[:, :, None, :] + ls
    pts = pts.reshape(-1, sheet.dim) @ sheet.rotation.T
    return pts, np.repeat(np.arange(n_q), n_k * n_l)


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


SHEET_SPECS = [GeneralizedPeres(golden_sequence()),
               GeneralizedPeres(tsokanos_sequence()),
               GeneralizedPeres(quadratic_sequence(0.7)),
               probe_spec("concat3", 0)]
SHEET_IDS = ["golden", "tsokanos", "quadratic-0.7", "concat3"]


@st.composite
def sheet_windows(draw):
    spec = draw(st.sampled_from(SHEET_SPECS))
    d = spec.dim
    lo = np.asarray(draw(st.lists(st.floats(-30.0, 30.0), min_size=d, max_size=d)))
    extent = np.asarray(draw(st.lists(st.floats(0.01, 8.0), min_size=d, max_size=d)))
    return spec, Window(lo, lo + extent)


@st.composite
def sheet_queries(draw):
    spec = draw(st.sampled_from(SHEET_SPECS))
    d = spec.dim
    n = draw(st.integers(1, 8))
    qs = draw(st.lists(st.lists(st.floats(-60.0, 60.0), min_size=d, max_size=d),
                       min_size=n, max_size=n))
    return spec, np.asarray(qs), draw(st.floats(0.01, 2.6))


def column_count(sheet, window):
    """The columns k the window's bounding box meets in the sheet's frame."""
    pre = window.corners() @ sheet.rotation
    return max(0, math.floor(pre[:, 0].max() + 1e-9) - math.ceil(pre[:, 0].min() - 1e-9) + 1)


def full_box_enumerate(sheet, window):
    """`LatticeSheet.enumerate` as it was: the points of every row of the
    integer box, masked by the window."""
    generators.check_limit("points", sheet.estimate(window),
                           generators.MAX_ENUMERATED_POINTS)
    lo, hi = sheet._integer_box(window)
    size = generators._grid_size(lo, hi)
    generators.check_limit("integer points", size, generators.MAX_ENUMERATED_POINTS)
    pts = sheet.points(cartesian(*[np.arange(a, min(b + 1.0, a + size))
                                   for a, b in zip(lo, hi)]))
    return np.compress(window.contains(pts), pts, axis=0)


def assert_enumeration_matches(sheet, window):
    """The same bits as the full box, or the same refusal, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = full_box_enumerate(sheet, window)
        except ResourceLimitError as refusal:
            with pytest.raises(ResourceLimitError) as got:
                sheet.enumerate(window)
            assert str(got.value) == str(refusal)
            return None
        got = sheet.enumerate(window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


ENUM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-6, 0.5, 1.0]),
    st.floats(-3.0, 3.0))


@st.composite
def lattice_windows(draw):
    """A sheet with zero, subnormal, huge or plain basis entries (any whose
    |det| the sheet refuses is redrawn), and a window of 1-4 units a side
    or one under 1e-3 that holds at most a row."""
    d = draw(st.integers(1, 3))
    basis = np.array(draw(st.lists(ENUM_ENTRIES, min_size=d * d, max_size=d * d)))
    shift = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    try:
        sheet = LatticeSheet(basis.reshape(d, d), shift)
    except ValueError:
        assume(False)
    lo = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
    side = draw(st.sampled_from([1e-4, 1e-3, 1.0, 4.0]))
    return sheet, Window(lo, lo + side * np.array(
        draw(st.lists(st.floats(0.5, 1.0), min_size=d, max_size=d))))


class TestLatticeEnumerationOracle:
    """`LatticeSheet.enumerate` builds, of each prefix of the integer box,
    only the run of last entries that the window's faces leave; its oracle
    builds every row of the box."""

    @given(lattice_windows())
    @example((LatticeSheet(np.array([[0.0, 1.0], [1.0, 5e-324]]), np.zeros(2)),
              Window([-3.0, -3.0], [3.0, 3.0])))
    @example((LatticeSheet(np.array([[1e300, 0.0], [0.0, 1.0]]), np.zeros(2)),
              Window([-3.0, -3.0], [3.0, 3.0])))
    @example((LatticeSheet(np.array([[1.0, 1e300], [1e-300, 2.0]]), np.full(2, 0.25)),
              Window([-3.0, -3.0], [3.0, 3.0])))
    @example((LatticeSheet(np.array([[1e-6, 0.0], [5e-7, 1.0000001e-6]]), np.zeros(2)),
              Window([-3e-5, -3e-5], [3e-5, 3e-5])))      # |det| just past 1e-12
    @example((LatticeSheet(np.array([[2.0]]), np.array([0.5])),
              Window([0.6], [2.4])))                      # an empty box, d = 1
    @example((LatticeSheet(np.array([[2.0]]), np.array([0.5])),
              Window([2.5 + 1e-12], [3.0])))               # a row, none kept
    @example((LatticeSheet(np.array([[2.0]]), np.array([0.5])),
              Window([0.4], [0.6])))                      # one row, d = 1
    @example((LatticeSheet(np.eye(2), np.full(2, 0.5)),
              Window([0.1, 0.1], [0.4, 0.4])))             # an empty box, d = 2
    @example((LatticeSheet(np.eye(2), np.full(2, 0.5)),
              Window([0.4, 0.4], [0.6, 0.6])))             # one row, d = 2
    @example((LatticeSheet(np.eye(3), np.full(3, 0.5)),
              Window([0.1, 0.1, 0.1], [0.4, 0.4, 0.4])))   # an empty box, d = 3
    @example((LatticeSheet(np.eye(3), np.zeros(3)),
              Window([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])))  # one row, -0.0 starts
    @example((LatticeSheet(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                           np.zeros(3)), Window.cube(2.0, 3)))  # a zero last column entry
    @example((LatticeSheet(np.eye(2), np.array([0.0, 1e15])),
              Window.cube(3.0, 2)))                        # a box just under 2^50
    @example((LatticeSheet(np.eye(2), np.array([0.0, 1e17])),
              Window.cube(3.0, 2)))                        # past 2^50: the whole box
    @settings(max_examples=300, deadline=None)
    def test_matches_full_box(self, case):
        assert_enumeration_matches(*case)

    @pytest.mark.parametrize("spec, window", [
        (ThreeGrid(), Window.cube(50.0, 2)),
        (ThreeGrid(), Window([-25.0, -10.0], [35.0, 12.0])),
        (integer_lattice(3), Window.cube(4.0, 3)),
        (integer_lattice(1), Window.cube(7.5, 1)),
    ])
    def test_builds_only_the_runs(self, spec, window):
        # A prefix with a point in the window builds its kept rows and at
        # most two more, one at each end of its run.  (Only the faces that
        # the last axis crosses bound a run, so a prefix outside the window
        # along the other axes may build rows and keep none.)
        for sheet in spec.sheets():
            with mock.patch.object(LatticeSheet, "points", autospec=True,
                                   side_effect=LatticeSheet.points) as points:
                got = assert_enumeration_matches(sheet, window)
            (_, zs), _ = points.call_args
            _, prefix = np.unique(zs[:, :-1], axis=0, return_inverse=True)
            built = np.bincount(prefix)
            kept = np.bincount(prefix, window.contains(sheet.points(zs)),
                               minlength=built.size)
            assert kept.sum() == got.shape[0]
            assert np.all((built <= kept + 2) | (kept == 0))

    def test_refuses_what_the_full_box_refuses(self):
        # The box guard still counts the whole box: a sheared lattice whose
        # preimage box is long is refused though few of its rows would be
        # built.
        sheet = LatticeSheet(np.array([[1.0, 1e4], [0.0, 1.0]]), np.zeros(2))
        window = Window.cube(50.0, 2)
        assert sheet.estimate(window) < generators.MAX_ENUMERATED_POINTS
        with pytest.raises(ResourceLimitError, match="integer points"):
            full_box_enumerate(sheet, window)
        assert_enumeration_matches(sheet, window)


class TestSequenceSheetOracle:
    @given(sheet_windows())
    @settings(max_examples=150, deadline=None)
    def test_enumerate_matches_column_loop(self, case):
        spec, window = case
        for sheet in spec.sheets():
            assert_same_array(sheet.enumerate(window),
                              former_sequence_enumerate(sheet, window))

    @pytest.mark.parametrize("spec", SHEET_SPECS, ids=SHEET_IDS)
    def test_window_edge_cases(self, spec):
        d = spec.dim
        no_k = Window(np.r_[0.2, np.full(d - 1, -5.0)], np.r_[0.8, np.full(d - 1, 5.0)])
        thin = Window(np.r_[-6.0, np.full(d - 1, 0.1)], np.r_[6.0, np.full(d - 1, 0.6)])
        windows = [no_k, thin, Window.cube(1e-3, d), Window.cube(9.5, d)]
        missed = False
        for window in windows:
            for sheet in spec.sheets():
                want = former_sequence_enumerate(sheet, window)
                assert_same_array(sheet.enumerate(window), want)
                met = np.unique(np.rint((want @ sheet.rotation)[:, 0]))
                missed |= met.size < column_count(sheet, window)
        # The first sheet's frame is the window's own: no_k holds no column
        # and thin misses every column whose value is near an integer.
        assert column_count(spec.sheets()[0], no_k) == 0
        assert missed

    @given(sheet_queries())
    @settings(max_examples=150, deadline=None)
    def test_candidates_match_stencil(self, case):
        spec, queries, radius = case
        for sheet in spec.sheets():
            got, rows = sheet.candidates_near(queries, radius)
            want, want_rows = former_sequence_candidates(sheet, queries, radius)
            assert_same_array(got, want)
            assert_same_array(rows, want_rows)

    @given(sheet_queries())
    @settings(max_examples=150, deadline=None)
    def test_candidates_cover_the_box(self, case):
        # Every point of the sheet within sup-norm radius of a query is
        # listed for it: the visibility march relies on this.
        spec, queries, radius = case
        for sheet in spec.sheets():
            cand, rows = sheet.candidates_near(queries, radius)
            for i, q in enumerate(queries):
                pts = sheet.enumerate(Window(q - radius - 1.0, q + radius + 1.0))
                inside = pts[np.abs(pts - q).max(axis=1) <= radius]
                listed = set(map(tuple, cand[rows == i]))
                assert all(tuple(p) in listed for p in inside)


def _cut_and_project_plane():
    """Z^3 cut by a slab around a plane: a two-dimensional quasicrystal."""
    phys = np.linalg.qr(np.array([[1.0, 0.3], [0.2, 1.0], [0.7, -0.4]]))[0]
    internal = np.cross(phys[:, 0], phys[:, 1])[:, None]
    return CutAndProject(Grid(np.eye(3), np.zeros(3)), phys, internal, (-0.5, 0.7))


NON_LATTICE_SHEETS = [D2Sheet(), default_cut_and_project().sheets()[0],
                      _cut_and_project_plane().sheets()[0]]
NON_LATTICE_IDS = ["d2", "cut-and-project", "cut-and-project-plane"]


def assert_candidates_are_the_sets_points(sheet, queries, radius):
    """``candidates_near`` lists, for each query, every point of
    ``enumerate`` within sup-norm ``radius``, and only points that
    ``enumerate`` lists, with the same bytes."""
    cand, rows = sheet.candidates_near(queries, radius)
    assert cand.dtype == np.float64 and cand.shape == (rows.size, sheet.dim)
    for i, q in enumerate(queries):
        listed = cand[rows == i]
        near = sheet.enumerate(Window(q - radius - 1.0, q + radius + 1.0))
        inside = near[np.abs(near - q).max(axis=1) <= radius]
        keys = {p.tobytes() for p in listed}
        assert all(p.tobytes() in keys for p in inside)
        if listed.size:
            around = Window(np.minimum(listed.min(axis=0), q) - 1.0,
                            np.maximum(listed.max(axis=0), q) + 1.0)
            known = {p.tobytes() for p in sheet.enumerate(around)}
            assert keys <= known


@st.composite
def non_lattice_queries(draw):
    sheet = draw(st.sampled_from(NON_LATTICE_SHEETS))
    n = draw(st.integers(1, 6))
    coords = st.one_of(st.floats(-60.0, 60.0), st.integers(-40, 40).map(float))
    qs = draw(st.lists(st.lists(coords, min_size=sheet.dim, max_size=sheet.dim),
                       min_size=n, max_size=n))
    return sheet, np.asarray(qs), draw(st.floats(0.01, 2.6))


class TestNonLatticeCandidates:
    """D2 and cut-and-project sheets list their own march candidates."""

    @given(non_lattice_queries())
    @settings(max_examples=120, deadline=None)
    def test_candidates_are_the_sets_points(self, case):
        assert_candidates_are_the_sets_points(*case)

    @pytest.mark.parametrize("sheet", NON_LATTICE_SHEETS, ids=NON_LATTICE_IDS)
    # The march's reach at eps 0.1, and radius D2_SCALE, whose box around a
    # query on D2_SCALE * Z has D2 points on its edges.
    @pytest.mark.parametrize("radius", [0.6000010, D2_SCALE, 1.0, 2.5])
    def test_origin_axes_and_far_queries(self, sheet, radius):
        s = D2_SCALE
        if sheet.dim == 1:
            queries = [[0.0], [s], [-3.0], [1e4], [-1e4 + 0.37]]
        else:
            queries = [[0.0, 0.0], [0.0, 5.3], [-7.1, 0.0], [s, -s],
                       [3 * s, 0.0], [1e4, 0.3], [-0.2, -1e4], [1e4, -s]]
        assert_candidates_are_the_sets_points(sheet, np.asarray(queries), radius)


def tube_oracle(spec, eps, window, directions, offsets_per_direction):
    """`find_empty_tube` with every window point passed to `_line_gap_profile`."""
    pad = eps + 1e-6
    pts = enumerate_points(spec, Window(window.lo - pad, window.hi + pad))
    profile = analysis._line_gap_profile
    with mock.patch.object(analysis, "_line_gap_profile",
                           lambda near, *line: profile(pts, *line)):
        return find_empty_tube(spec, eps, window, directions,
                               offsets_per_direction)


class TestTubeOracle:
    @pytest.mark.parametrize("spec, radius, eps, directions", [
        (PeresForest(), 30.0, 0.1, [(1.0, 1.0), (1.0, PHI)]),
        (ThreeGrid(), 200.0, 0.2, [(1.0, 0.0), (1.0, 1.0)]),
        (integer_lattice(3), 10.0, 0.2, [(1.0, 0.0, 0.0), (1.0, 2.0, 3.0)]),
        (probe_spec("concat3", 0), 10.0, 0.1, [(0.0, 0.0, 1.0), (1.0, 1.0, PHI)]),
    ], ids=["peres", "three-grid", "z3", "concat3"])
    def test_near_filter_is_exact(self, spec, radius, eps, directions):
        window = Window.cube(radius, spec.dim)
        seg, length = find_empty_tube(spec, eps, window, directions, 8)
        want, want_length = tube_oracle(spec, eps, window, directions, 8)
        assert seg.base.tobytes() == want.base.tobytes()
        assert seg.direction.tobytes() == want.direction.tobytes()
        assert np.float64(length).tobytes() == np.float64(want_length).tobytes()


class _SampledRotatedBox:
    """A rectangle of fixed area rotated by `angle` about its center."""

    def __init__(self, center, half_sides, angle):
        self.center = np.asarray(center, dtype=float)
        self.half_sides = np.asarray(half_sides, dtype=float)
        self.angle = float(angle)
        self.box = AlignedBox.from_bounds(-self.half_sides, self.half_sides)

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        c, s = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        return self.box.contains(pts @ rot)


def feasible_aspect(volume, rng):
    lo = max(1.0 / epsnet.ASPECT_CAP, volume)
    hi = min(epsnet.ASPECT_CAP, 1.0 / volume)
    if hi < lo:
        raise ValueError("volume admits no box within the aspect cap")
    if hi == lo:
        return lo
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_aligned_box(volume, rng):
    """The former scalar draw: (cx, cy, w/2, h/2) of the next aligned box."""
    ratio = feasible_aspect(volume, rng)
    w = math.sqrt(volume * ratio)
    h = math.sqrt(volume / ratio)
    cx = rng.uniform(w / 2.0, 1.0 - w / 2.0) if w < 1.0 else 0.5
    cy = rng.uniform(h / 2.0, 1.0 - h / 2.0) if h < 1.0 else 0.5
    return cx, cy, w / 2.0, h / 2.0


def draw_rotated_box(volume, rng):
    """The former scalar draw: (cx, cy, w/2, h/2, angle) of the next rotated box."""
    for _ in range(10000):
        angle = float(rng.uniform(0.0, math.pi))
        ratio = feasible_aspect(volume, rng)
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


SCALAR_DRAWS = {"aligned": draw_aligned_box, "rotated": draw_rotated_box}


def former_box(row):
    """The former sampler's box from the floats one scalar draw returns."""
    if len(row) == 4:
        cx, cy, hw, hh = row
        return AlignedBox.from_bounds([cx - hw, cy - hh], [cx + hw, cy + hh])
    cx, cy, hw, hh, angle = row
    return _SampledRotatedBox([cx, cy], [hw, hh], angle)


def former_aligned_box(volume, rng):
    return former_box(draw_aligned_box(volume, rng))


def former_rotated_box(volume, rng):
    return former_box(draw_rotated_box(volume, rng))


FORMER_SAMPLERS = {"aligned": former_aligned_box, "rotated": former_rotated_box}


def former_box_json(box):
    """The report JSON of a former sampler's box; a rotated one has its centre."""
    if isinstance(box, AlignedBox):
        return {"intervals": box.intervals.tolist()}
    return {"angle": box.angle, "center": box.center.tolist(),
            "intervals": box.box.intervals.tolist()}


def verify_oracle(net, box_sampler, volume, trials, seed):
    """The former per-box loop; returns (report JSON, first missed box, per-box hits)."""
    rng = np.random.default_rng(seed)
    hits = []
    worst = None
    for _ in range(trials):
        box = FORMER_SAMPLERS[box_sampler](volume, rng)
        hits.append(bool(net.size and np.any(box.contains(net.points))))
        if not hits[-1] and worst is None:
            worst = box
    doc = {"boxes_tested": trials, "hit_fraction": sum(hits) / trials,
           "worst_missed_box": None if worst is None else former_box_json(worst)}
    return doc, worst, np.array(hits)


def former_certified_hits(points, tree, rows, rotated, nearest=8):
    """The former certificate: a box is a hit when one of the `nearest` net
    points nearest its centre (one KD-tree query) lies in it."""
    k = min(nearest, points.shape[0])
    _, idx = tree.query(rows[:, :2], k=k)
    near = points[idx.reshape(rows.shape[0], k)]
    x = near[:, :, 0]
    y = near[:, :, 1]
    cx, cy, hw, hh = (rows[:, j, None] for j in range(4))
    if not rotated:
        return np.any((x >= cx - hw) & (x <= cx + hw)
                      & (y >= cy - hh) & (y <= cy + hh), axis=1)
    c = np.cos(rows[:, 4, None])
    s = np.sin(rows[:, 4, None])
    u = (x - cx) * c + (y - cy) * s
    v = (y - cy) * c - (x - cx) * s
    return np.any((np.abs(u) <= hw - epsnet.ROTATED_HIT_MARGIN)
                  & (np.abs(v) <= hh - epsnet.ROTATED_HIT_MARGIN), axis=1)


def former_box_hits(net, box_sampler, volume, trials, seed):
    """The former `_box_hits`: KD-tree certificates, then the full-net check."""
    from scipy.spatial import cKDTree

    draw = SCALAR_DRAWS[box_sampler]
    rng = np.random.default_rng(seed)
    tree = cKDTree(net.points) if net.size else None
    for start in range(0, trials, epsnet.CHUNK_BOXES):
        count = min(epsnet.CHUNK_BOXES, trials - start)
        rows = np.array([draw(volume, rng) for _ in range(count)])
        if tree is None:
            yield rows, np.zeros(count, dtype=bool)
            continue
        hits = former_certified_hits(net.points, tree, rows, box_sampler == "rotated")
        for i in np.flatnonzero(~hits):
            hits[i] = bool(np.any(former_box(rows[i]).contains(net.points)))
        yield rows, hits


def box_fields(box):
    """Every float that defines a sampled box, as bytes.

    A former rotated box also kept its half sides, which are its box's
    upper bounds exactly.
    """
    if isinstance(box, AlignedBox):
        return box.intervals.tobytes()
    if isinstance(box, _SampledRotatedBox):
        assert box.half_sides.tobytes() == box.box.hi.tobytes()
    return (box.center.tobytes(), np.float64(box.angle).tobytes(),
            box.box.intervals.tobytes())


def assert_verify_matches(net, box_sampler, volume, trials, seed):
    try:
        expected, expected_worst, expected_hits = verify_oracle(
            net, box_sampler, volume, trials, seed)
    except ValueError:
        with pytest.raises(ValueError):
            verify_net(net, box_sampler, volume, trials, seed)
        return None
    report = verify_net(net, box_sampler, volume, trials, seed)
    assert json.dumps(report.to_json()) == json.dumps(expected)
    if expected_worst is not None:
        assert box_fields(report.worst_missed_box) == box_fields(expected_worst)
    hits = np.concatenate([h for _, h in
                           _box_hits(net, box_sampler, volume, trials, seed)])
    assert hits.tolist() == expected_hits.tolist()
    former = np.concatenate([h for _, h in
                             former_box_hits(net, box_sampler, volume, trials, seed)])
    assert former.tolist() == expected_hits.tolist()
    return expected_hits


def _net(points, eps=0.5):
    return Net(points=np.asarray(points, dtype=float).reshape(-1, 2),
               epsilon=eps, method="HausslerWelzl")


@st.composite
def net_cases(draw):
    kind = draw(st.sampled_from(["empty", "one", "duplicates", "d2", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "empty":
        net = _net(np.empty((0, 2)))
    elif kind == "one":
        net = _net(rng.random((1, 2)))
    elif kind == "duplicates":
        pts = rng.random((draw(st.integers(1, 6)), 2))
        net = _net(np.repeat(pts, draw(st.integers(2, 4)), axis=0))
    elif kind == "d2":
        net = d2_aligned_net(draw(st.sampled_from([0.01, 0.05, 0.2, 1.0])))
    else:
        net = _net(rng.random((draw(st.integers(2, 80)), 2)))
    volume = draw(st.one_of(st.floats(1e-4, 1.0), st.sampled_from([0.01, 0.5, 1.0])))
    return net, volume


class TestVerifyNetOracle:
    @given(net_cases(), st.sampled_from(["aligned", "rotated"]),
           st.integers(1, 40), st.integers(0, 2 ** 16),
           st.integers(1, 9), st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_box_loop(self, case, box_sampler, trials, seed, chunk,
                                  block):
        # Small chunks and pair blocks make a few trials span several
        # chunks and cut a box's candidates across blocks.
        net, volume = case
        with mock.patch.object(epsnet, "CHUNK_BOXES", chunk), \
                mock.patch.object(geometry, "PAIR_BLOCK", block):
            assert_verify_matches(net, box_sampler, volume, trials, seed)

    @pytest.mark.parametrize("box_sampler", ["aligned", "rotated"])
    @pytest.mark.parametrize("points", [[], [[0.0, 0.0]], [[1.0, 1.0]], [[0.5, 0.5]],
                                        [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]])
    def test_edge_nets(self, box_sampler, points):
        # Empty and one-point nets, points on the unit square's corners and
        # a repeated point; every box's decision and the report bytes match.
        assert_verify_matches(_net(points, eps=0.01), box_sampler, 0.01, 300, 4)

    @pytest.mark.parametrize("box_sampler", ["aligned", "rotated"])
    def test_sparse_net_across_chunks(self, box_sampler):
        # 300 points at volume 0.01: a few hundred misses and more boxes
        # no nearest point certifies, over two real chunks.
        net = _net(np.random.default_rng(5).random((300, 2)), eps=0.01)
        hits = assert_verify_matches(net, box_sampler, 0.01,
                                     epsnet.CHUNK_BOXES + 500, 7)
        assert 0 < np.count_nonzero(~hits) < hits.size
        # Some hits are left to the full-net check: their point lies
        # beyond the cells around the centre.
        index = epsnet._CellIndex(net.points)
        assert any(np.any(hit & ~epsnet._certified_hits(index, rows, box_sampler == "rotated"))
                   for rows, hit in _box_hits(net, box_sampler, 0.01,
                                              epsnet.CHUNK_BOXES + 500, 7))

    @pytest.mark.parametrize("box_sampler", ["aligned", "rotated"])
    def test_points_on_box_edges_and_corners(self, box_sampler):
        # Replay the sampler and give box i a net point on its corner or on
        # an edge, or (aligned) one ulp outside an edge, for i mod 3 = 0, 1, 2.
        volume, trials, seed = 0.02, 120, 11
        rng = np.random.default_rng(seed)
        boxes = [FORMER_SAMPLERS[box_sampler](volume, rng) for _ in range(trials)]
        pts = []
        for i, box in enumerate(boxes):
            if box_sampler == "aligned":
                (x0, x1), (y0, y1) = box.intervals
                mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
                choices = ([(x0, y0), (x1, y0), (x0, y1), (x1, y1)],
                           [(x0, my), (x1, my), (mx, y0), (mx, y1)],
                           [(np.nextafter(x0, -1.0), my), (np.nextafter(x1, 2.0), my),
                            (mx, np.nextafter(y0, -1.0)), (mx, np.nextafter(y1, 2.0))])
                pts.append(choices[i % 3][i // 3 % 4])
            else:
                c, s = math.cos(box.angle), math.sin(box.angle)
                local = box.half_sides * [(1.0, 1.0), (1.0, 0.0), (0.0, -1.0)][i % 3]
                pts.append(box.center + local @ np.array([[c, s], [-s, c]]))
        # Box i is checked against a net of its own point alone, so that
        # point is the one its nearest-point test sees.
        for i, p in enumerate(pts):
            hits = assert_verify_matches(_net(p, eps=volume), box_sampler,
                                         volume, i + 1, seed)
            if box_sampler == "aligned":
                assert hits[i] == (i % 3 != 2)

    @pytest.mark.parametrize("volume", [0.003, 0.01, 0.3, 1.0])
    def test_draw_helpers_match_samplers(self, volume):
        # One generator serves the array draws of 1 to 7 boxes and the samplers
        # in turn; each box equals the former sampler's box from a generator
        # with the same seed.
        rng = np.random.default_rng(4)
        expected_rng = np.random.default_rng(4)
        for i in range(400):
            for drawn in (_aligned_rows(volume, 1 + i % 7, rng) if i % 2
                          else [sample_aligned_box(volume, rng)]):
                box = epsnet._aligned_box(*drawn) if i % 2 else drawn
                assert box_fields(box) == \
                    box_fields(former_aligned_box(volume, expected_rng))
        if volume < 0.5:
            for i in range(400):
                for drawn in (_rotated_rows(volume, 1 + i % 7, rng) if i % 2
                              else [sample_rotated_box(volume, rng)]):
                    box = epsnet._rotated_box(*drawn) if i % 2 else drawn
                    assert box_fields(box) == \
                        box_fields(former_rotated_box(volume, expected_rng))
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_memory_does_not_grow_with_trials(self):
        net = _net(np.random.default_rng(2).random((300, 2)), eps=0.01)
        peaks = []
        with mock.patch.object(epsnet, "CHUNK_BOXES", 512):
            for trials in (2 * 512, 8 * 512):
                tracemalloc.start()
                try:
                    verify_net(net, "rotated", 0.01, trials, 3)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


class StreamRng:
    """A generator that returns a fixed list of doubles in order.

    ``random(k)`` and ``uniform(lo, hi) = lo + (hi - lo) u`` read the list as
    numpy's Generator reads its stream; ``bit_generator.state`` is the
    position, so a draw can save and restore it.
    """

    def __init__(self, doubles):
        self.doubles = np.asarray(doubles, dtype=float)
        self.bit_generator = self
        self.state = 0

    def random(self, size):
        out = self.doubles[self.state:self.state + size].copy()
        assert out.size == size, "stream exhausted"
        self.state += size
        return out

    def uniform(self, lo, hi):
        return lo + (hi - lo) * float(self.random(1)[0])


def draw_both(box_sampler, volume, counts, make_rng):
    """(rows or error, final state) of the array draw and of the scalar
    draw over consecutive chunks of `counts` boxes from one generator each."""
    results = []
    for array in (True, False):
        rng = make_rng()
        rows = []
        try:
            for count in counts:
                if array:
                    rows.append(epsnet._SAMPLERS[box_sampler][0](volume, count, rng))
                else:
                    rows.append(np.array([SCALAR_DRAWS[box_sampler](volume, rng)
                                          for _ in range(count)]))
            out = np.concatenate(rows).tobytes()
        except ValueError as exc:
            out = (len(rows), str(exc))
        results.append((out, rng.bit_generator.state))
    return results


# Volumes at and around the edges of the aspect range: 1 draws no ratio,
# 2^-10 has both sides below 1 at the cap, 0.5 and above can round a side to 1.
DRAW_VOLUMES = [1.0, 2.0 ** -10, 0.5, 0.2, 0.01, 0.001, 0.9, 1.0 - 2.0 ** -53,
                2.0 ** -10 * (1.0 + 2.0 ** -52), 1.0 / 3.0]
DRAW_CHUNKS = [1, 3, epsnet.CHUNK_BOXES - 1, epsnet.CHUNK_BOXES + 1]
SPECIAL_DOUBLES = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]


class TestBoxDrawOracle:
    """The array draws give the scalar draws' rows, errors and generator state."""

    @given(st.sampled_from(["aligned", "rotated"]),
           st.one_of(st.sampled_from(DRAW_VOLUMES), st.floats(1e-4, 1.0)),
           st.lists(st.sampled_from(DRAW_CHUNKS), min_size=1, max_size=2),
           st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_numpy_generator(self, box_sampler, volume, counts, seed):
        array, scalar = draw_both(box_sampler, volume, counts,
                                  lambda: np.random.default_rng(seed))
        assert array == scalar

    @given(st.sampled_from(["aligned", "rotated"]), st.sampled_from(DRAW_VOLUMES),
           st.lists(st.sampled_from([1, 2, 3, 7]), min_size=1, max_size=3),
           st.lists(st.one_of(st.sampled_from(SPECIAL_DOUBLES),
                              st.floats(0.0, 1.0, exclude_max=True)), max_size=40),
           st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_crafted_streams(self, box_sampler, volume, counts, head, seed):
        # Doubles of 0 and 1 - 2^-53 put aspect ratios at the ends of their
        # range, so sides round to 1 and boxes take fewer doubles.
        tail = np.random.default_rng(seed).random(6 * epsnet.ROTATED_ATTEMPTS)
        stream = np.concatenate([head, tail])
        array, scalar = draw_both(box_sampler, volume, counts,
                                  lambda: StreamRng(stream))
        assert array == scalar

    def test_side_of_one_draws_no_centre(self):
        # At volume 1/2 a ratio double of 0 gives the ratio 1/2, so h = 1 and
        # the box takes 2 doubles; the others take 3.
        stream = [0.0, 0.25, 0.7, 0.1, 0.2, 0.9, 0.3, 0.6]
        rng = StreamRng(stream)
        rows = _aligned_rows(0.5, 2, rng)
        assert rng.state == 5
        assert rows[0, 1] == 0.5 and rows[0, 3] == 0.5
        array, scalar = draw_both("aligned", 0.5, [2], lambda: StreamRng(stream))
        assert array == scalar

    @pytest.mark.parametrize("fitting", [0, 3])
    def test_rotated_failure_at_the_same_box(self, fitting):
        # At volume 1 only the angle 0 fits, with no centre double.  After
        # `fitting` such boxes, ROTATED_ATTEMPTS misses raise at the next box
        # and leave the generator just past them.
        misses = epsnet.ROTATED_ATTEMPTS
        stream = [0.0] * fitting + [0.3] * misses + [0.0] * 10 + [0.3] * 3 * misses
        rng = StreamRng(stream)
        with pytest.raises(ValueError, match="could not fit a rotated box"):
            _rotated_rows(1.0, fitting + 1, rng)
        assert rng.state == fitting + misses
        array, scalar = draw_both("rotated", 1.0, [fitting + 2],
                                  lambda: StreamRng(stream))
        assert array == scalar

    def test_rotated_fit_at_the_last_attempt(self):
        misses = epsnet.ROTATED_ATTEMPTS - 1
        stream = [0.3] * misses + [0.0] + [0.3] * 3 * misses
        rng = StreamRng(stream)
        rows = _rotated_rows(1.0, 1, rng)
        assert rng.state == misses + 1
        assert rows.tolist() == [[0.5, 0.5, 0.5, 0.5, 0.0]]

    def test_volume_above_one_refused(self):
        for box_sampler in ("aligned", "rotated"):
            with pytest.raises(ValueError, match="aspect cap"):
                epsnet._SAMPLERS[box_sampler][0](1.5, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Unit-cube box statistics: discrepancy, heavy box, UDT margin
# ---------------------------------------------------------------------------

def former_critical_values(xs):
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


def former_slab_extremes(xs_sorted, scale, n):
    vals, cum, below = former_critical_values(xs_sorted)
    up = cum / n - scale * vals
    down = scale * vals - below / n
    over = float(np.max(up + np.maximum.accumulate(down)))
    shifted = np.concatenate([[-np.inf], np.maximum.accumulate(up)[:-1]])
    under = float(np.max(down + shifted))
    return over, under


def discrepancy_oracle(pts):
    """Two critical-value scans per slab: closed for overfull, open for underfull."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if pts.shape[1] == 1:
        over, under = former_slab_extremes(pts[:, 0], 1.0, n)
        return max(over, under, 0.0)
    yv = np.unique(np.concatenate([pts[:, 1], [0.0, 1.0]]))
    m = yv.size
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
            over, _ = former_slab_extremes(closed, scale, n)
            best = max(best, over)
            if ib > ia:
                open_ = xs[(ys > ya) & (ys < yb)]
                _, under = former_slab_extremes(open_, scale, n)
                best = max(best, under)
    return best


def slab_rows(pts):
    """Over and under of every slab (a, b), a <= b, each counted from the
    points alone and scanned on its own by `_slab_extremes`."""
    n = pts.shape[0]
    yv, level = analysis._buckets(pts[:, 1])
    xv, bucket = analysis._buckets(pts[:, 0])
    rows = {}
    for a in range(yv.size):
        for b in range(a, yv.size):
            closed = np.bincount(bucket[(level >= a) & (level <= b)], minlength=xv.size)
            open_ = np.bincount(bucket[(level > a) & (level < b)], minlength=xv.size)
            over, under = analysis._slab_extremes(
                xv, np.array([yv[b] - yv[a]]), n, np.cumsum(closed)[None, :],
                np.cumsum(open_)[None, :])
            rows[a, b] = over[0], under[0]
    return rows


def best_aligned_box_oracle(pts, eps):
    """One sort per anchor, ratio and axis; returns (box, count, y-sweep won)."""
    n, d = pts.shape
    if d == 1:
        xs = np.sort(pts[:, 0])
        upper = np.searchsorted(xs, xs + eps, side="right")
        counts = upper - np.arange(n)
        i = int(np.argmax(counts))
        return AlignedBox.from_bounds([xs[i]], [xs[i] + eps]), int(counts[i]), False
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if float(np.prod(hi - lo)) <= eps:
        return AlignedBox.from_bounds(lo, hi), n, False
    order_x = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order_x, 0]
    ys_by_x = pts[order_x, 1]
    order_y = np.argsort(pts[:, 1], kind="stable")
    ys = pts[order_y, 1]
    xs_by_y = pts[order_y, 0]
    stride = max(1, n // 256)
    best = [0, None, False]

    def sweep(primary, secondary, width, height, flip):
        anchors = primary[::stride]
        if width >= primary[-1] - primary[0]:
            anchors = primary[:1]
        for a in anchors:
            i0 = np.searchsorted(primary, a, side="left")
            i1 = np.searchsorted(primary, a + width, side="right")
            if i1 - i0 <= best[0]:
                continue
            slab = np.sort(secondary[i0:i1])
            upper = np.searchsorted(slab, slab + height, side="right")
            counts = upper - np.arange(slab.size)
            j = int(np.argmax(counts))
            if counts[j] > best[0]:
                lo_b = (a, slab[j]) if not flip else (slab[j], a)
                hi_b = (a + width, slab[j] + height) if not flip \
                    else (slab[j] + height, a + width)
                best[:] = [int(counts[j]), AlignedBox.from_bounds(lo_b, hi_b), flip]

    for ratio in 2.0 ** np.linspace(-10, 10, 41):
        w = math.sqrt(eps * ratio)
        h = math.sqrt(eps / ratio)
        sweep(xs, ys_by_x, w, h, flip=False)
        sweep(ys, xs_by_y, h, w, flip=True)
    return best[1], best[0], best[2]


def heavy_box_oracle(pts, eps, rotation_samples=0, seed=0):
    """The former heavy_box body over the oracle's aligned boxes."""
    def witness(p):
        box, _, _ = best_aligned_box_oracle(p, eps)
        return analysis._inflate_to_volume(box, eps)

    box = witness(pts)
    best = (box, int(np.count_nonzero(box.contains(pts))))
    if pts.shape[1] == 2 and rotation_samples > 0:
        rng = np.random.default_rng(seed)
        for _ in range(rotation_samples):
            angle = float(rng.uniform(0.0, math.pi))
            c, s = math.cos(angle), math.sin(angle)
            rotated = pts @ np.array([[c, -s], [s, c]])
            rbox = witness(rotated)
            cnt = int(np.count_nonzero(rbox.contains(rotated)))
            if cnt > best[1]:
                best = (RotatedBox(angle=angle, box=rbox), cnt)
    return best


def udt_oracle(thetas, xi, T):
    """The whole u-grid at once."""
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    xi_vec = np.atleast_1d(np.asarray(xi, dtype=float))
    d = arr.shape[1]
    axis = np.arange(-T, T + 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    us = np.stack([g.ravel() for g in mesh], axis=1).astype(float)
    us = us[np.any(us != 0.0, axis=1)]
    margins = np.empty(arr.shape[0])
    for i, theta in enumerate(arr):
        prod = us @ (xi_vec - theta)
        margins[i] = float(np.min(np.abs(prod - np.rint(prod))))
    best = int(np.argmax(margins))
    return best + 1, float(margins[best])


@st.composite
def cube_points(draw, max_n=30, dim=2):
    """Points of [0, 1]^dim with ties, faces, the tolerance band, or all equal."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, max_n))
    pts = rng.random((n, dim))
    kind = draw(st.sampled_from(["uniform", "sevenths", "band", "equal"]))
    if kind in ("sevenths", "band"):
        pts = np.round(pts * 7.0) / 7.0
    if kind == "band":
        # Coordinates within 1e-12 outside the cube pass the input check.
        shift = rng.random((n, dim)) * 1e-12
        pts = np.where(rng.random((n, dim)) < 0.3,
                       np.where(pts < 0.5, -shift, 1.0 + shift), pts)
    if kind == "equal":
        pts[:] = pts[0]
    return pts


def assert_box_equal(got, expected):
    (box, count), (want, want_count) = got, expected
    assert type(box) is type(want) and count == want_count
    if isinstance(want, RotatedBox):
        assert box.angle == want.angle
        box, want = box.box, want.box
    assert box.lo.tobytes() == want.lo.tobytes()
    assert box.hi.tobytes() == want.hi.tobytes()


class TestDiscrepancyOracle:
    @given(cube_points(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    @example(np.array([[0.0, 0.0], [1.0, 1.0], [-1e-12, 1.0 + 1e-12]]), 1)
    @example(np.array([[0.5, 0.5]]), 1)
    def test_matches_slab_loop(self, pts, rows):
        # Blocks of 1-3 rows put block edges inside every lower level's scan.
        k = np.unique(np.concatenate([pts[:, 0], [0.0, 1.0]])).size
        expected = discrepancy_oracle(pts)
        assert discrepancy(pts) == expected
        with mock.patch.object(analysis, "DISCREPANCY_BLOCK_CELLS", rows * k):
            assert discrepancy(pts) == expected

    @given(cube_points(max_n=60, dim=1))
    @settings(max_examples=80, deadline=None)
    def test_one_dimension_matches_scan(self, pts):
        assert discrepancy(pts) == discrepancy_oracle(pts)

    def test_tolerance_band_bucket_outside_cube(self):
        # The point at x = -1e-12 gives a bucket outside the cube that the
        # slab [1/2, 1] has no point in; kept, it would widen that slab's
        # open boxes past x = 0.
        pts = np.array([[-1e-12, 0.0], [0.25, 0.5], [0.75, 0.75]])
        assert discrepancy(pts) == discrepancy_oracle(pts)

    def test_seeded_uniform(self):
        pts = np.random.default_rng(1).random((60, 2))
        assert discrepancy(pts) == discrepancy_oracle(pts)

    @given(cube_points(max_n=25), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    @example(np.array([[-1e-12, 0.0], [0.25, 0.5], [0.75, 0.75], [1.0 + 1e-12, 0.2]]), 2)
    def test_every_slab_within_its_coarse_bounds(self, pts, spacing):
        # Every slab's over and under, counted directly, are the gathered
        # ones bit for bit and at most the bounds from its inner and outer
        # coarse slabs, far inside the 2^-30 margin of the pruning.
        with mock.patch.object(analysis, "DISCREPANCY_COARSE_STEP", spacing):
            slabs = analysis._Slabs(pts, pts.shape[0])
        rows = slab_rows(pts)
        a, b = np.array(list(rows)).T
        over, under = np.array(list(rows.values())).T
        got_over, got_under = slabs.extremes(a, b)
        assert got_over.tobytes() == over.tobytes()
        assert got_under.tobytes() == under.tobytes()
        bound_over, bound_under = slabs.bounds(a, b)
        assert np.all(over <= bound_over + 2.0 ** -40)
        assert np.all(under <= bound_under + 2.0 ** -40)
        coarse = np.isin(a, slabs.grid) & np.isin(b, slabs.grid)
        assert np.array_equal(bound_over[coarse], over[coarse])
        assert np.array_equal(bound_under[coarse], under[coarse])

    @given(cube_points(), st.sampled_from([1, 2, 3, "m", 10 ** 6]), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    @example(np.array([[0.0, 0.0], [1.0, 1.0], [-1e-12, 1.0 + 1e-12]]), 1, 1)
    def test_any_coarse_spacing_matches_slab_loop(self, pts, spacing, rows):
        # Spacing 1 scans every slab as coarse; m or more leaves the grid
        # {0, m - 1}, so every other slab is bounded from three slabs.
        if spacing == "m":
            spacing = np.unique(np.concatenate([pts[:, 1], [0.0, 1.0]])).size
        k = np.unique(np.concatenate([pts[:, 0], [0.0, 1.0]])).size
        with mock.patch.object(analysis, "DISCREPANCY_COARSE_STEP", spacing), \
                mock.patch.object(analysis, "DISCREPANCY_BLOCK_CELLS", rows * k):
            assert discrepancy(pts) == discrepancy_oracle(pts)

    def test_hammersley_set(self):
        # Many slabs lie near the answer here, so pruning is weak and most
        # of the fine scan runs.
        pts = np.column_stack([np.arange(256) / 256, halton(256, 1)[:, 0]])
        assert discrepancy(pts) == discrepancy_oracle(pts)

    def test_grid_with_ties(self):
        pts = cartesian(*[np.linspace(0.0, 1.0, 15)] * 2)
        assert discrepancy(pts) == discrepancy_oracle(pts)

    def test_uniform_points_scan_few_slabs(self):
        # At 200 uniform points the 1,378 coarse slabs and the few that
        # their bounds leave are about 7% of the 20,503 slabs.
        pts = np.random.default_rng(1).random((200, 2))
        calls = []
        real = analysis._slab_extremes

        def counted(vals, scale, n, closed, open_):
            calls.append(scale.size)
            return real(vals, scale, n, closed, open_)

        with mock.patch.object(analysis, "_slab_extremes", counted):
            assert discrepancy(pts) == discrepancy_oracle(pts)
        assert 1378 <= sum(calls) <= 0.1 * 20503

    def test_guard_refuses_before_any_table(self, monkeypatch):
        pts = np.random.default_rng(0).random((50, 2))
        monkeypatch.setattr(analysis, "MAX_DISCREPANCY_WORK", 52 * 53 // 2 * 52 - 1)
        with mock.patch.object(np, "bincount", side_effect=AssertionError), \
                pytest.raises(ResourceLimitError):
            discrepancy(pts)

    def test_memory_stays_within_block_budget(self):
        # 600 points on 60 y-levels: several blocks per lower level.  The
        # scan holds at most 12 arrays of one block (8 bytes a cell) besides
        # O(n) for the points.
        rng = np.random.default_rng(2)
        n = 600
        pts = np.column_stack([rng.random(n), rng.integers(0, 60, n) / 59.0])
        tracemalloc.start()
        try:
            discrepancy(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * analysis.DISCREPANCY_BLOCK_CELLS + 100 * n


@st.composite
def plane_points(draw, max_n=60):
    """Points inside and outside the unit square: uniform, sevenths, on a
    line, stretched and shifted, or rotated as `heavy_box` rotates them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, max_n))
    pts = rng.random((n, 2))
    kind = draw(st.sampled_from(["uniform", "sevenths", "line", "stretched", "rotated"]))
    if kind == "sevenths":
        pts = np.round(pts * 7.0) / 7.0
    elif kind == "line":
        pts[:, 1] = 0.3 * pts[:, 0] + 0.1
    elif kind == "stretched":
        pts = pts * rng.uniform(0.1, 5.0, 2) - 0.5
    elif kind == "rotated":
        angle = rng.uniform(0.0, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        pts = pts @ np.array([[c, -s], [s, c]])
    return pts


# A last point one float above 0.75, so that fl(-0.5 + 1.25) = 0.75 leaves it
# out of the slab of the lone anchor -0.5.
PAST_THREE_QUARTERS = 0.75 + 2.0 ** -53


class TestHeavyBoxOracle:
    @given(cube_points(max_n=40) | plane_points(),
           st.sampled_from([1e-4, 0.01, 0.05, 0.3, 2.0]),
           st.integers(1, 4), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    @example(np.random.default_rng(2).random((8, 2)), 0.05, 32, 2 ** 20)
    def test_matches_anchor_loop(self, pts, eps, anchors, cells):
        # Small blocks cut the live anchors and the cell budget in many places.
        # Below 512 points only the narrower sweep of each ratio runs, and a
        # lone y-sweep that sets the final count is rechecked by its ratio's
        # x-sweep; in the example that recheck replaces the y-sweep's box.
        box, count, _ = best_aligned_box_oracle(pts, eps)
        got = _best_aligned_box(pts, eps)
        assert_box_equal(got, (box, count))
        with mock.patch.object(analysis, "HEAVY_BLOCK_ANCHORS", anchors), \
                mock.patch.object(analysis, "HEAVY_BLOCK_CELLS", cells):
            assert_box_equal(_best_aligned_box(pts, eps), (box, count))

    @pytest.mark.parametrize("pts, eps, hi", [
        # A y-sweep that ran alone sets the count, and the x-sweep's rerun
        # finds no box of it: its lone anchor's slab misses the last point.
        ([[-0.5, 5.0], [-0.4, 0.0], [PAST_THREE_QUARTERS, 0.0],
          [PAST_THREE_QUARTERS, 0.6], [-0.4, 0.6]], 0.78125, [0.85, 0.625]),
        # The narrow x-sweep's lone anchor misses the last point, so the
        # ratio runs both sweeps.
        ([[-0.5, 50.0], [-0.4, 0.0], [PAST_THREE_QUARTERS, 0.0],
          [PAST_THREE_QUARTERS, 2.3], [-0.4, 2.3]], 3.125, [0.85, 2.5])],
        ids=["recheck-keeps-y-box", "both-sweeps"])
    def test_lone_anchor_short_of_last_point(self, pts, eps, hi):
        pts = np.array(pts)
        box, count, _ = best_aligned_box_oracle(pts, eps)
        assert count == 4
        assert box.lo.tolist() == [-0.4, 0.0] and box.hi.tolist() == hi
        assert_box_equal(_best_aligned_box(pts, eps), (box, count))

    @pytest.mark.parametrize("n", [511, 512])
    def test_last_size_with_every_anchor(self, n):
        # 511 points sweep once per ratio; 512 sample every other anchor and
        # sweep both axes.
        pts = np.random.default_rng(n).random((n, 2))
        box, count, _ = best_aligned_box_oracle(pts, 0.01)
        assert_box_equal(_best_aligned_box(pts, 0.01), (box, count))

    @given(cube_points(max_n=40, dim=1), st.sampled_from([1e-3, 0.1, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_one_dimension(self, pts, eps):
        assert_box_equal(heavy_box(pts, eps), heavy_box_oracle(pts, eps))

    @pytest.mark.parametrize("n,seed,eps,sevenths", [
        (300, 1, 0.01, False), (600, 0, 0.01, False), (600, 0, 0.05, False),
        (700, 3, 0.02, True)])
    def test_stride_sampled_anchors(self, n, seed, eps, sevenths):
        # 300 points have stride 1 and sweep once per ratio; from 512 points
        # every (n // 256)-th anchor is sampled and both sweeps run.
        pts = np.random.default_rng(seed).random((n, 2))
        if sevenths:
            pts = np.round(pts * 7.0) / 7.0
        box, count, _ = best_aligned_box_oracle(pts, eps)
        assert_box_equal(_best_aligned_box(pts, eps), (box, count))
        with mock.patch.object(analysis, "HEAVY_BLOCK_ANCHORS", 3), \
                mock.patch.object(analysis, "HEAVY_BLOCK_CELLS", 50):
            assert_box_equal(_best_aligned_box(pts, eps), (box, count))

    def test_y_sweep_winner(self):
        # With sampled anchors the y-sweep can beat every x-sweep box.
        pts = np.random.default_rng(0).random((600, 2))
        box, count, flipped = best_aligned_box_oracle(pts, 0.01)
        assert flipped
        assert_box_equal(_best_aligned_box(pts, 0.01), (box, count))

    @given(cube_points(max_n=40), st.sampled_from([0.01, 0.05, 0.2]),
           st.integers(1, 3), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_rotation_samples(self, pts, eps, samples, seed):
        got = heavy_box(pts, eps, rotation_samples=samples, seed=seed)
        assert_box_equal(got, heavy_box_oracle(pts, eps, samples, seed))


class TestUDTOracle:
    @pytest.mark.parametrize("d,T,chunk_rows", [
        (1, 1, 1), (1, 2, 1), (1, 7, 2), (1, 50, 5), (1, 300, 64),
        (2, 1, 1), (2, 6, 14), (2, 20, 100), (3, 2, 1), (3, 5, 150), (3, 7, 500)])
    def test_matches_whole_grid(self, d, T, chunk_rows):
        rng = np.random.default_rng(d * 1000 + T)
        thetas = rng.random((4, d)) * 3.0
        thetas[0] = PHI
        xi = rng.random(d)
        expected = udt_oracle(thetas, xi, T)
        assert udt_check(thetas, xi, T) == expected
        with mock.patch.object(analysis, "UDT_CHUNK_ROWS", chunk_rows):
            assert udt_check(thetas, xi, T) == expected

    @given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 80),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_random_chunks(self, d, T, chunk_rows, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.random((int(rng.integers(1, 4)), d)) * 3.0
        xi = rng.random(d)
        with mock.patch.object(analysis, "UDT_CHUNK_ROWS", chunk_rows):
            assert udt_check(thetas, xi, T) == udt_oracle(thetas, xi, T)

    def test_memory_does_not_grow_with_T(self):
        peaks = []
        for T in (100_000, 400_000):
            tracemalloc.start()
            try:
                udt_check([0.0, PHI], 0.3, T)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


class TestHaltonOracle:
    @given(st.integers(1, 8), st.integers(0, 5000))
    @example(1, 0)
    @example(8, 0)
    @example(1, 1)
    @example(8, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_bitwise(self, d, n):
        got = halton(n, d)
        expected = qmc.Halton(d=d, scramble=False).random(n)
        assert got.shape == expected.shape == (n, d)
        assert got.tobytes() == expected.tobytes()

    def test_long_prefix(self):
        expected = qmc.Halton(d=12, scramble=False).random(100_000)
        assert halton(100_000, 12).tobytes() == expected.tobytes()

    def test_needs_a_dimension(self):
        with pytest.raises(ValueError):
            halton(4, 0)


def former_write_points_csv(path, pts, header=None):
    """The per-row writer: one f-string per float."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if header is None:
        header = [f"x{i + 1}" for i in range(pts.shape[1])]
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in pts:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                  -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17, 123.0]


def assert_csv_matches(tmp_path, pts, header=None):
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    write_points_csv(got, pts, header=header)
    former_write_points_csv(expected, pts, header=header)
    assert got.read_bytes() == expected.read_bytes()


def raised_within(seconds, fn, *args):
    """The exception fn(*args) raises, or None, run on a thread that must
    end within `seconds` and leave as many threads running as before it."""
    before = threading.active_count()
    raised = [None]

    def call():
        try:
            fn(*args)
        except Exception as exc:
            raised[0] = exc

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(seconds)
    assert not caller.is_alive()
    assert threading.active_count() == before
    return raised[0]


class TestCSVWriterOracle:
    def test_special_floats(self, tmp_path):
        pts = np.array(SPECIAL_FLOATS)
        assert_csv_matches(tmp_path, pts.reshape(-1, 1))
        assert_csv_matches(tmp_path, pts.reshape(-1, 3))
        assert_csv_matches(tmp_path, pts.reshape(1, -1))

    @pytest.mark.parametrize("shape", [(0, 2), (0, 1), (1, 2), (1, 1), (1, 5), (2, 0)])
    def test_empty_and_one_row(self, tmp_path, shape):
        pts = np.arange(float(np.prod(shape))).reshape(shape) / 7.0
        assert_csv_matches(tmp_path, pts)

    def test_tables_are_built_once_and_read_only(self, tmp_path):
        write_points_csv(tmp_path / "a.csv", np.ones((4, 2)))
        tables = generators._csv_tables()
        write_points_csv(tmp_path / "b.csv", np.ones((4, 2)))
        assert generators._csv_tables() is tables
        arrays = [*tables[:4], *tables[4]]
        assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)

    def test_custom_header(self, tmp_path):
        pts = np.array([[8.0, 0.25], [16.0, math.inf]])
        assert_csv_matches(tmp_path, pts, header=("N", "value"))
        assert (tmp_path / "got.csv").read_text() == "N,value\n8,0.25\n16,inf\n"

    @given(st.integers(1, 5), st.integers(0, 23), st.integers(1, 4),
           st.integers(0, 2 ** 16), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_rows_cross_chunk_edges(self, tmp_path_factory, chunk_rows, rows,
                                    cols, seed, workers):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300,
                                                                       (rows, cols))
        special = rng.random((rows, cols)) < 0.1
        pts[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
        with mock.patch.object(generators, "CSV_CHUNK_ROWS", chunk_rows), \
                worker_threads(workers):
            error = raised_within(10.0, assert_csv_matches,
                                  tmp_path_factory.mktemp("csv"), pts)
        if error is not None:
            raise error

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_bit_patterns(self, tmp_path, seed):
        # 10^5 finite doubles of random bits (mostly outside the arithmetic
        # range; nan and inf are in SPECIAL_FLOATS),
        # 10^5 with binary exponents -33..66 (about 1e-10 to 7e19) and 10^4
        # subnormals, each of either sign.
        rng = np.random.default_rng(seed)
        n = 10 ** 5
        mantissa = rng.integers(0, 2 ** 52, 2 * n + 10 ** 4, dtype=np.uint64)
        exponent = np.concatenate([rng.integers(0, 2047, n),
                                   rng.integers(1023 - 33, 1023 + 67, n),
                                   np.zeros(10 ** 4, dtype=np.int64)])
        sign = rng.integers(0, 2, mantissa.size).astype(np.uint64)
        bits = (sign << np.uint64(63)) | (exponent.astype(np.uint64) << np.uint64(52)) \
            | mantissa
        assert_csv_matches(tmp_path, bits.view(np.float64).reshape(-1, 2))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
        pts = np.stack([powers, np.nextafter(powers, 0.0),
                        np.nextafter(powers, np.inf)], axis=1)
        assert_csv_matches(tmp_path, np.concatenate([pts, -pts]))

    def test_digits_carrying_into_the_next_decade(self, tmp_path):
        # Doubles just below a power of ten whose 17 digits round up to it.
        # None lies where the digits come from arithmetic (1e-6 <= |v| <
        # 1e17): there the largest double below each 10^k, k = -5..17, is
        # more than 5e-18 (relative) below it, so the digits never reach
        # 10^17.  Python's formatter writes the ones that do exist.
        carrying = [1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70,
                    1e-14, 1e98, 1e129, 1e153, 1e220]
        for v in carrying:
            assert Fraction(v) < Fraction(10) ** round(math.log10(v))
            assert f"{v:.17g}" == f"{v:g}"
        for k in range(-5, 18):
            below = max(v for v in (float(f"1e{k}"), math.nextafter(float(f"1e{k}"), 0))
                        if Fraction(v) < Fraction(10) ** k)
            assert (Fraction(10) ** k - Fraction(below)) / Fraction(10) ** k > \
                Fraction(5, 10 ** 18)
            carrying.append(below)
        assert_csv_matches(tmp_path, np.array(carrying).reshape(-1, 1))

    def test_ties_round_to_even(self, tmp_path):
        # a * 10^k ends in exactly .5 for a = odd / 2^(k+1): the 17th digit
        # is a tie, which goes to the even digit, as in Python's dtoa.
        assert f"{1234567890123456.25:.17g}" == "1234567890123456.2"
        assert f"{1234567890123456.75:.17g}" == "1234567890123456.8"
        rng = np.random.default_rng(5)
        ties = [1234567890123456.25, 1234567890123456.75]
        for k in range(1, 11):
            lo, hi = 10 ** (16 - k), min(10 ** (17 - k), 2 ** (52 - k))
            odd = rng.integers(lo << (k + 1), hi << (k + 1), 2000) | 1
            ties.extend(odd / 2.0 ** (k + 1))
        for v in ties[::97]:
            assert (Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))).denominator == 2
        ties = np.array(ties)
        assert_csv_matches(tmp_path, np.stack([ties, -ties], axis=1))

    def test_low_digits_near_a_multiple_of_10_8(self, tmp_path):
        # The writer splits the 17 digits D at 10^8 from the rounded product
        # h; when D ends in nearly eight zeros or nines, h and D can lie on
        # either side of a multiple of 10^8 (955 of these 7,360 values).
        rng = np.random.default_rng(3)
        lows = [*range(8), *range(10 ** 8 - 8, 10 ** 8)]
        values = [float(f"{int(q) * 10 ** 8 + low}e{x - 16}")
                  for x in range(-6, 17)
                  for q in rng.integers(10 ** 8, 10 ** 9, 20) for low in lows]
        assert_csv_matches(tmp_path, np.array(values).reshape(-1, 2))

    def test_signed_zeros(self, tmp_path):
        pts = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert_csv_matches(tmp_path, pts)
        assert (tmp_path / "got.csv").read_text() == "x1,x2\n0,-0\n-0,0\n"

    def test_edges_of_the_arithmetic_range(self, tmp_path):
        # 1e-6 and 1e17 bound the arithmetic; 1e-4 and 1e17 switch %g
        # between fixed and exponent notation; 1e16 has the largest integer
        # part.
        edges = np.array([1e-6, 1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-7,
                          99999999999999984.0, 1e-7])
        pts = np.stack([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)],
                       axis=1)
        assert_csv_matches(tmp_path, np.concatenate([pts, -pts]))

    @pytest.mark.parametrize("spec", [ThreeGrid(), default_cut_and_project()],
                             ids=["three-grid", "cut-and-project"])
    def test_enumerated_sets(self, tmp_path, spec):
        assert_csv_matches(tmp_path, enumerate_points(spec, Window.cube(50, spec.dim)))

    def test_memory_stays_below_the_former_peak(self, tmp_path):
        # 543,016 x 2 floats, the size of the three-grid at r = 200, with
        # two chunks of CSV_CHUNK_ROWS = 2^13 rows in flight on any host.
        # The one-thread writer peaked at 5.3 MB under tracemalloc; the
        # %-operation writer on 2^16-row chunks peaked at 7.4 MB.
        pts = np.random.default_rng(0).standard_normal((543016, 2)) * 100.0
        with mock.patch.object(parallel, "worker_count", return_value=2):
            tracemalloc.start()
            try:
                write_points_csv(tmp_path / "big.csv", pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 6 * 10 ** 6

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_chunk_is_raised_and_ends_every_thread(self, tmp_path, workers):
        pts = np.arange(40.0).reshape(-1, 2)
        float_fields = generators._float_fields

        def failing(v, tables):
            if v[0] == pts[8, 0]:
                raise ArithmeticError("third chunk")
            return float_fields(v, tables)

        with mock.patch.object(generators, "CSV_CHUNK_ROWS", 4), \
                mock.patch.object(parallel, "worker_count", return_value=workers), \
                mock.patch.object(generators, "_float_fields", failing):
            error = raised_within(5.0, write_points_csv, tmp_path / "a.csv", pts)
        assert isinstance(error, ArithmeticError) and str(error) == "third chunk"
        expected = tmp_path / "expected.csv"
        former_write_points_csv(expected, pts[:8])
        assert (tmp_path / "a.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_write_is_raised_and_stops_the_threads(self, tmp_path, workers):
        # Chunk 1's write fails.  Every other chunk is slow, so any second
        # thread is still formatting one then.  No thread may start a chunk
        # while `workers` chunks are taken but not yet written.
        pts = np.arange(200.0).reshape(-1, 2)
        started, written, in_flight = itertools.count(), [], []
        float_fields = generators._float_fields

        def counted(v, tables):
            in_flight.append(next(started) + 1 - len(written))
            if v[0] != pts[2, 0]:
                time.sleep(0.1)
            return float_fields(v, tables)

        def failing_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write

            def failing_write(text):
                if text[0].isdigit() and written:
                    time.sleep(0.05)
                    raise OSError(28, "No space left on device")
                if text[0].isdigit():
                    written.append(text)
                return write(text)

            handle.write = failing_write
            return handle

        with mock.patch.object(generators, "CSV_CHUNK_ROWS", 2), \
                mock.patch.object(parallel, "worker_count", return_value=workers), \
                mock.patch.object(generators, "_float_fields", counted), \
                mock.patch.object(generators, "open", failing_open, create=True):
            error = raised_within(5.0, write_points_csv, tmp_path / "w.csv", pts)
        assert isinstance(error, OSError) and error.errno == 28
        assert max(in_flight) <= workers
        assert len(in_flight) <= 1 + workers

    def test_a_thread_that_cannot_start_ends_the_others(self, tmp_path):
        # The second of two helper threads fails to start, as in a process
        # out of threads; the first is still joined.
        starts = itertools.count()

        class SecondStartFails(threading.Thread):
            def start(self):
                if next(starts) == 1:
                    raise RuntimeError("can't start new thread")
                super().start()

        before = threading.active_count()
        with mock.patch.object(generators, "CSV_CHUNK_ROWS", 2), \
                mock.patch.object(parallel, "worker_count", return_value=3), \
                mock.patch.object(parallel.threading, "Thread", SecondStartFails), \
                pytest.raises(RuntimeError, match="can't start"):
            write_points_csv(tmp_path / "t.csv", np.arange(40.0).reshape(-1, 2))
        assert threading.active_count() == before


def core_bounds_case():
    """A d = 1 run whose 16 twists take four blocks of core bounds."""
    idx = np.arange(0, 100, dtype=np.int64)
    vs = tsokanos_sequence().extended_values(idx)
    return (vs, idx, _xi_samples(16, 1, 3)), mock.patch.object(
        analysis, "SUD_BLOCK_CELLS", 4 * 100)


def min_gap_case():
    """300 shuffled points in five blocks of at most 2^6 rows."""
    pts = np.random.default_rng(4).random((300, 2))
    return (pts,), mock.patch.object(analysis, "MIN_GAP_BLOCK_ROWS", 2 ** 6)


class TestWorkerFaults:
    """The SUD core bounds and the minimum gap run on `parallel`'s threads
    as the CSV writer does: a failure reaches the caller, and no thread
    outlives the call."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_core_block_is_raised(self, workers):
        (vs, idx, xis), cells = core_bounds_case()
        twist = analysis._twist

        def failing(v, i, x, out=None, tmp=None):
            if out is not None and np.array_equal(x[0], xis[4]):
                raise ArithmeticError("second block")
            return twist(v, i, x, out, tmp)

        with cells, worker_threads(workers), \
                mock.patch.object(analysis, "_twist", failing):
            error = raised_within(5.0, analysis._core_bounds, vs, idx, xis)
        assert isinstance(error, ArithmeticError) and str(error) == "second block"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_gap_block_is_raised(self, workers):
        (pts,), block = min_gap_case()
        least = analysis._least_in_ranges

        def failing(pts, first, start, stop):
            if first == 2 ** 6:
                raise ArithmeticError("second block")
            return least(pts, first, start, stop)

        with block, worker_threads(workers), \
                mock.patch.object(analysis, "_least_in_ranges", failing):
            error = raised_within(5.0, _min_gap, pts)
        assert isinstance(error, ArithmeticError) and str(error) == "second block"

    @pytest.mark.parametrize("case, call", [
        (core_bounds_case, analysis._core_bounds), (min_gap_case, _min_gap)],
        ids=["sud-core-bounds", "min-gap"])
    def test_a_thread_that_cannot_start_ends_the_others(self, case, call):
        # The second of two helper threads fails to start; the first is
        # still joined.
        starts = itertools.count()

        class SecondStartFails(threading.Thread):
            def start(self):
                if next(starts) == 1:
                    raise RuntimeError("can't start new thread")
                super().start()

        args, blocks = case()
        before = threading.active_count()
        with blocks, mock.patch.object(parallel, "worker_count", return_value=3), \
                mock.patch.object(parallel.threading, "Thread", SecondStartFails), \
                pytest.raises(RuntimeError, match="can't start"):
            call(*args)
        assert threading.active_count() == before
        assert next(starts) == 2


def logged_run(workers, count, make_fails=None, consume_fails=None):
    """The error that `parallel.run_in_order` raised over `count` indices on
    `workers` threads, under `raised_within`, and its log of (event, index,
    thread) in the order they happened.  make(i) returns i after 0-4 ms and
    `worker_threads` switches threads every 10 us, so that the threads
    finish out of order; make(make_fails) and consume(consume_fails)
    raise."""
    log = []

    def make(i):
        log.append(("make", i, threading.get_ident()))
        time.sleep(0.002 * ((5 * i + 1) % 3))
        if i == make_fails:
            raise ArithmeticError(f"make {i}")
        return i

    def consume(i):
        log.append(("consume", i, threading.get_ident()))
        if i == consume_fails:
            time.sleep(0.01)
            raise OSError(f"consume {i}")
        log.append(("consumed", i, threading.get_ident()))

    with worker_threads(workers):
        error = raised_within(5.0, parallel.run_in_order, consume, make, count, workers)
    return error, log


RUNS = [(workers, count) for workers in (1, 2, 3) for count in range(10)]


class TestRunInOrder:
    """`parallel.run_in_order`'s contract on 1-3 workers and 0-9 indices:
    index order, make(i + W) only after consume(i), at most W = min(workers,
    count) results held, failures raised when due, and no thread left."""

    @pytest.mark.parametrize("workers, count", RUNS)
    def test_consumes_in_order_holding_at_most_w_results(self, workers, count):
        error, log = logged_run(workers, count)
        assert error is None
        w = max(1, min(workers, count))
        assert [i for event, i, _ in log if event == "consume"] == list(range(count))
        assert sorted(i for event, i, _ in log if event == "make") == list(range(count))
        position = {(event, i): k for k, (event, i, _) in enumerate(log)}
        for i in range(count - w):
            assert position["consumed", i] < position["make", i + w]
        held = 0
        for event, _, _ in log:
            held += (event == "make") - (event == "consumed")
            assert held <= w
        assert len({thread for event, _, thread in log if event == "make"}) <= w

    @pytest.mark.parametrize("workers, count", [r for r in RUNS if r[1]])
    def test_a_failed_make_is_raised_when_due(self, workers, count):
        for k in range(count):
            error, log = logged_run(workers, count, make_fails=k)
            assert isinstance(error, ArithmeticError) and str(error) == f"make {k}"
            assert [i for event, i, _ in log if event == "consume"] == list(range(k))

    @pytest.mark.parametrize("workers, count", [r for r in RUNS if r[1]])
    def test_a_failed_consume_stops_the_others(self, workers, count):
        # The other threads each finish at most the one make they hold.
        w = min(workers, count)
        for k in range(count):
            error, log = logged_run(workers, count, consume_fails=k)
            assert isinstance(error, OSError) and str(error) == f"consume {k}"
            assert [i for event, i, _ in log if event == "consume"] == list(range(k + 1))
            assert max(i for event, i, _ in log if event == "make") < k + w


def former_tsokanos_values(ns):
    """`_tsokanos_values` with its former three branches: fold and split for
    i <= 5, split without folding for i = 6, 7, and r = 0 above."""
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
            ebits = i * i + 2
            period = np.int64(1) << np.int64(2 * ebits)
            kf = (k_all[mask] - 1) % period + 1
            r, s = np.divmod(kf - 1, np.int64(1) << np.int64(ebits))
            s = s + 1
            v = (r * s).astype(float) * math.ldexp(1.0, -(2 * i * i + 4))
            v = v + np.where(r % 2 == 0, s.astype(float) * math.ldexp(1.0, -(i * i + 4)), 0.0)
        elif i <= 7:
            r, s = np.divmod(k_all[mask] - 1, np.int64(1) << np.int64(i * i + 2))
            s = s + 1
            v = (r * s).astype(float) * math.ldexp(1.0, -(2 * i * i + 4))
            v = v + np.where(r % 2 == 0, s.astype(float) * math.ldexp(1.0, -(i * i + 4)), 0.0)
        else:
            v = k_all[mask].astype(float) * math.ldexp(1.0, -(i * i + 4))
        v = np.where(k_all[mask] == 0, 1.0 - math.ldexp(1.0, -(i * i + 2)), v)
        out[mask] = v
    return out


def tsokanos_block_indices(i, ks):
    """The indices n = 2^(i-1) (2k + 1) - 2 of block i, for n >= 1."""
    ns = [((2 * int(k) + 1) << (i - 1)) - 2 for k in ks]
    return np.asarray([n for n in ns if n >= 1], dtype=np.int64)


class TestTsokanosOracle:
    def test_first_indices(self):
        ns = np.arange(1, 2 ** 16 + 1)
        assert_same_array(_tsokanos_values(ns), former_tsokanos_values(ns))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_block(self, seed):
        # Every i from 1 to 63 (the last whose block holds an int64 with
        # n + 2 in range), with k = 0, 1, the largest k and seeded draws.
        rng = np.random.default_rng(seed)
        blocks = []
        for i in range(1, 64):
            k_max = (((2 ** 63 - 1) >> (i - 1)) - 1) // 2
            ks = [0, min(1, k_max), k_max]
            ks += rng.integers(0, k_max, size=200, endpoint=True).tolist()
            blocks.append(tsokanos_block_indices(i, ks))
        ns = np.concatenate(blocks)
        assert np.unique(np.log2((ns + 2) & -(ns + 2))).size == 63
        assert_same_array(_tsokanos_values(ns), former_tsokanos_values(ns))

    def test_seeded_int64_indices(self):
        ns = np.random.default_rng(7).integers(1, 2 ** 63 - 2, size=2 ** 16)
        assert_same_array(_tsokanos_values(ns), former_tsokanos_values(ns))


def former_d2_nonneg_pairs(xmax, ymax):
    """`_d2_nonneg_pairs` as a bit reversal: x = b 2^lo, y = rev(b) 2^-hi."""
    if xmax < 0 or ymax < 0:
        return np.empty((0, 2))
    limit = generators.MAX_ENUMERATED_POINTS // 4
    if (np.floor(xmax) + 1.0) * (np.floor(ymax) + 1.0) > limit:
        raise ResourceLimitError("bit-reversal enumeration exceeds the point budget")
    lo = 1 - math.frexp(ymax)[1]
    hi = math.frexp(xmax)[1] - 1
    b = np.arange(math.floor(math.ldexp(xmax, -lo)) + 1, dtype=np.int64)
    rev = np.zeros_like(b)
    for i in range(hi - lo + 1):
        rev |= ((b >> i) & 1) << (hi - lo - i)
    y = np.ldexp(rev.astype(float), -hi)
    keep = y <= ymax
    return np.stack([np.ldexp(b[keep].astype(float), lo), y[keep]], axis=1)


# Exact powers of two and the float just below each, where the digit
# ranges of either construction change.
D2_POWERS = [math.ldexp(1.0, k) for k in range(-4, 9)]
D2_EDGES = D2_POWERS + [float(np.nextafter(p, 0.0)) for p in D2_POWERS]


class TestD2PairsOracle:
    @given(st.floats(0.0, 300.0), st.floats(0.0, 300.0))
    @settings(max_examples=150, deadline=None)
    def test_random_reach(self, xmax, ymax):
        assert_same_array(_d2_nonneg_pairs(xmax, ymax), former_d2_nonneg_pairs(xmax, ymax))

    @pytest.mark.parametrize("xmax", D2_EDGES)
    def test_powers_of_two(self, xmax):
        for ymax in D2_EDGES:
            assert_same_array(_d2_nonneg_pairs(xmax, ymax),
                              former_d2_nonneg_pairs(xmax, ymax))

    @pytest.mark.parametrize("xmax, ymax", [(1e4, 0.5), (0.5, 1e4)])
    def test_long_thin_reach(self, xmax, ymax):
        assert_same_array(_d2_nonneg_pairs(xmax, ymax), former_d2_nonneg_pairs(xmax, ymax))
