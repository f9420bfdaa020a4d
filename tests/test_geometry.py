import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import qmc

import denseforest.geometry as geometry
from denseforest.errors import ResourceLimitError
from denseforest.geometry import (AlignedBox, CellIndex, Point, Segment, Window,
                                  _stratified_directions, point_array, run_pairs,
                                  sample_probes,
                                  sample_segments)
from geometry_oracles import (point_at, supnorm_point_segment_distance,
                              tube_bounding_window)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def seg(base, direction, length):
    return Segment(np.asarray(base, float), np.asarray(direction, float),
                   float(length))


class TestTypes:
    def test_point_requires_finite(self):
        with pytest.raises(ValueError):
            Point([np.inf, 0.0])
        assert Point([1.0, 2.0]).dim == 2

    def test_segment_normalizes_direction(self):
        s = seg([0, 0], [3, 4], 2.0)
        assert np.linalg.norm(s.direction) == pytest.approx(1.0, abs=1e-12)
        assert s.length == 2.0
        with pytest.raises(ValueError):
            seg([0, 0], [0, 0], 1.0)
        with pytest.raises(ValueError):
            seg([0, 0], [1, 0], -1.0)

    def test_window_orders_bounds(self):
        with pytest.raises(ValueError):
            Window([0.0, 0.0], [1.0, 0.0])
        w = Window.cube(2.0, 3)
        assert np.allclose(w.extent, 4.0)
        assert w.contains(np.array([[0.0, 0.0, 0.0]]))[0]
        assert w.contains(np.array([[2.0, 0.0, 0.0]]))[0] == False  # noqa: E712  half-open

    def test_window_volume_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Window.cube(1e300, 2).volume == np.inf

    def test_point_array(self):
        assert point_array([0.5, 0.25]).shape == (2, 1)
        assert point_array([Point([0.1, 0.2]), (0.3, 0.4)]).tolist() == [[0.1, 0.2],
                                                                         [0.3, 0.4]]
        assert point_array([]).shape == (0, 1)
        with pytest.raises(ValueError, match=r"net points must form an \(N, d\)"):
            point_array(np.zeros((2, 2, 2)), "net points")
        with pytest.raises(ValueError, match="points must be finite"):
            point_array([[0.5, np.nan]])
        # The unit cube allows 1e-12 on either side, and no more.
        edge = [[-1e-12, 1.0 + 1e-12]]
        assert point_array(edge, unit_cube=True).tolist() == edge
        assert point_array([[-2e-12, 0.5]]).shape == (1, 2)
        for outside in ([[-2e-12, 0.5]], [[0.5, 1.0 + 2e-12]]):
            with pytest.raises(ValueError, match="must lie in the unit cube"):
                point_array(outside, unit_cube=True)

    def test_aligned_box_volume_and_containment(self):
        b = AlignedBox.from_bounds([0.0, 0.0], [0.5, 2.0])
        assert b.volume == pytest.approx(1.0)
        assert b.contains(np.array([[0.5, 2.0]]))[0]          # closed
        assert not b.contains(np.array([[0.50001, 1.0]]))[0]
        with pytest.raises(ValueError):
            AlignedBox.from_bounds([1.0], [0.0])


class TestDistance:
    def test_coincident_base(self):
        assert supnorm_point_segment_distance(
            Point([0.0, 0.0]), seg([0, 0], [1, 0], 10.0)) == pytest.approx(0.0, abs=1e-12)

    def test_axis_offset(self):
        assert supnorm_point_segment_distance(
            Point([5.0, 1.0]), seg([0, 0], [1, 0], 10.0)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_breakpoint(self):
        r2 = np.sqrt(2.0)
        d = supnorm_point_segment_distance(
            Point([1.0, 0.0]), seg([0, 0], [1 / r2, 1 / r2], 14.0))
        assert d == pytest.approx(0.5, abs=1e-12)
        # brute-force scan agrees up to the sample spacing
        ts = np.linspace(0.0, 14.0, 200001)
        pts = np.outer(ts, [1 / r2, 1 / r2])
        brute = np.abs(pts - [1.0, 0.0]).max(axis=1).min()
        assert d == pytest.approx(brute, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            supnorm_point_segment_distance(Point([0.0]), seg([0, 0], [1, 0], 1.0))

    @given(st.lists(finite, min_size=2, max_size=2),
           st.lists(finite, min_size=2, max_size=2),
           st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_translation_symmetry(self, p, c, d, length):
        if np.linalg.norm(d) < 1e-6:
            d = [1.0, 0.0]
        s = seg([0.3, -0.7], d, length)
        base = supnorm_point_segment_distance(Point(p), s)
        moved = supnorm_point_segment_distance(
            Point(np.asarray(p) + np.asarray(c)), s.translated(np.asarray(c)))
        assert moved == pytest.approx(base, abs=1e-9)

    @given(st.lists(finite, min_size=2, max_size=2),
           st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_between_line_and_endpoints(self, p, d, length):
        if np.linalg.norm(d) < 1e-6:
            d = [1.0, 0.0]
        s = seg([0.1, 0.2], d, length)
        dist = supnorm_point_segment_distance(Point(p), s)
        p_arr = np.asarray(p, float)
        end_a = np.abs(p_arr - s.base).max()
        end_b = np.abs(p_arr - point_at(s, s.length)).max()
        assert dist <= min(end_a, end_b) + 1e-9
        # distance to the full line, realized as a segment long enough to
        # cover every candidate foot point
        long = Segment(s.base - 1000.0 * s.direction, s.direction, 2000.0)
        line_dist = supnorm_point_segment_distance(Point(p), long)
        assert dist >= line_dist - 1e-9


class TestTubeWindow:
    def test_axis_tube(self):
        w = tube_bounding_window(seg([0, 0], [1, 0], 10.0), 0.5)
        assert np.allclose(w.lo, [-0.5, -0.5])
        assert np.allclose(w.hi, [10.5, 0.5])

    def test_degenerate_segment(self):
        w = tube_bounding_window(seg([1.0, 2.0], [1, 0], 0.0), 0.25)
        assert np.allclose(w.lo, [0.75, 1.75])
        assert np.allclose(w.hi, [1.25, 2.25])

    def test_diagonal(self):
        r2 = np.sqrt(2.0)
        w = tube_bounding_window(seg([0, 0], [1 / r2, 1 / r2], r2), 0.1)
        assert np.allclose(w.lo, [-0.1, -0.1])
        assert np.allclose(w.hi, [1.1, 1.1])

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_no_false_exclusions(self, d, length, eps):
        if np.linalg.norm(d) < 1e-6:
            d = [1.0, 0.0]
        s = seg([0.2, -0.4], d, length)
        w = tube_bounding_window(s, eps)
        grid = np.stack(np.meshgrid(np.linspace(-12, 12, 49),
                                    np.linspace(-12, 12, 49)), axis=-1).reshape(-1, 2)
        for p in grid:
            if supnorm_point_segment_distance(Point(p), s) < eps:
                assert np.all(p >= w.lo - 1e-12) and np.all(p <= w.hi + 1e-12)


def segment_sampler_reference(window, length, count, seed):
    """The per-Segment sampler that ``sample_probes`` reproduces as arrays."""
    dim = window.dim
    rng = np.random.default_rng(seed)
    n_strat = count // 2
    segments = []
    if n_strat:
        directions = _stratified_directions(dim)
        grid = qmc.Halton(d=dim, scramble=False).random(n_strat)
        bases = window.lo + grid * window.extent
        for i in range(n_strat):
            segments.append(Segment(bases[i], directions[i % len(directions)], length))
    for _ in range(count - n_strat):
        vec = rng.standard_normal(dim)
        while np.linalg.norm(vec) < 1e-9:
            vec = rng.standard_normal(dim)
        base = window.lo + rng.random(dim) * window.extent
        segments.append(Segment(base, vec, length))
    return segments


class TestSampleSegments:
    @pytest.mark.parametrize("window, count, seed", [
        (Window.cube(50.0, 2), 10000, 1),
        (Window([-3.0, 1.0], [5.0, 2.5]), 301, 7),
        (Window.cube(4.0, 3), 999, 2),
        (Window.cube(1.0, 3), 1, 0),
    ])
    def test_probe_arrays_equal_segments(self, window, count, seed):
        ref = segment_sampler_reference(window, 12.5, count, seed)
        bases, dirs, lengths = sample_probes(window, 12.5, count, seed)
        assert bases.tobytes() == np.asarray([s.base for s in ref]).tobytes()
        assert dirs.tobytes() == np.asarray([s.direction for s in ref]).tobytes()
        assert lengths.tobytes() == np.full(count, 12.5).tobytes()
        for a, b in zip(sample_segments(window, 12.5, count, seed), ref):
            assert a.base.tobytes() == b.base.tobytes()
            assert a.direction.tobytes() == b.direction.tobytes()
            assert a.length == b.length

    def test_probe_length_validation(self):
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                sample_probes(Window.cube(1.0, 2), bad, 4, seed=0)
            with pytest.raises(ValueError):
                sample_segments(Window.cube(1.0, 2), bad, 4, seed=0)

    def test_probe_budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_PROBES", 40)
        bases, _, _ = sample_probes(Window.cube(5.0, 2), 3.0, 40, seed=1)
        assert bases.shape == (40, 2)
        assert len(sample_segments(Window.cube(5.0, 2), 3.0, 40, seed=1)) == 40
        with pytest.raises(ResourceLimitError, match="41 probes"):
            sample_probes(Window.cube(5.0, 2), 3.0, 41, seed=1)
        with pytest.raises(ResourceLimitError, match="41 probes"):
            sample_segments(Window.cube(5.0, 2), 3.0, 41, seed=1)

    def test_probes_refused_before_any_allocation(self):
        # 10^9 probes would take 16 GB of bases and directions in 2-D.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                sample_probes(Window.cube(50.0, 2), 64.0, 10 ** 9, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_count_and_norms(self):
        segs = sample_segments(Window.cube(5.0, 2), 3.0, 1000, seed=9)
        assert len(segs) == 1000
        for s in segs:
            assert abs(np.linalg.norm(s.direction) - 1.0) <= 1e-12
            assert s.length == pytest.approx(3.0)

    def test_deterministic(self):
        a = sample_segments(Window.cube(5.0, 2), 3.0, 7, seed=3)
        b = sample_segments(Window.cube(5.0, 2), 3.0, 7, seed=3)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.base, sb.base)
            assert np.array_equal(sa.direction, sb.direction)

    def test_stratified_contains_axis_direction(self):
        segs = sample_segments(Window.cube(5.0, 2), 1.0, 400, seed=0)
        dirs = np.array([s.direction for s in segs])
        assert np.any(np.all(np.abs(dirs - [1.0, 0.0]) < 1e-12, axis=1))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_segments(Window.cube(1.0, 2), 1.0, 0, seed=0)


def pairs_oracle(start, stop):
    """Every (i, j) with start[i] <= j < stop[i], one at a time."""
    return [(i, j) for i in range(len(start)) for j in range(start[i], stop[i])]


class TestRunPairs:
    # A stop below its start is an empty run, like an equal one.
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 12)),
                    max_size=25),
           st.sampled_from([1, 3, 7]))
    @example([], 3)
    @example([(0, 0), (5, 2), (2, 2)], 1)
    @example([(0, 3), (4, 12), (1, 1), (9, 2)], 7)
    @settings(max_examples=150, deadline=None)
    def test_blocks_join_to_every_pair(self, runs, block):
        start = np.array([a for a, _ in runs], dtype=np.int64)
        stop = start + np.array([n for _, n in runs], dtype=np.int64)
        with mock.patch.object(geometry, "PAIR_BLOCK", block):
            blocks = list(run_pairs(start, stop))
        got = [(int(i), int(j)) for rows, cols in blocks
               for i, j in zip(rows, cols)]
        assert got == pairs_oracle(start.tolist(), stop.tolist())
        for rows, cols in blocks:
            assert rows.size == cols.size > 0
            # A block over PAIR_BLOCK pairs is one run alone.
            assert rows.size <= block or np.all(rows == rows[0])
        # Each block ends where adding the next row would overflow it.
        for (rows, _), (nxt, _) in zip(blocks, blocks[1:]):
            assert rows.size + np.count_nonzero(nxt == nxt[0]) > block


def cell_key_oracle(point, lo, scale, cells):
    """The padded row-major key of a point's cell, in Python floats and
    integers: floor((x - lo) * scale) clipped to [0, cells - 1] on each
    axis, plus one, numbered in a grid of cells + 2 an axis."""
    key = 0
    for x, low, count in zip(point, lo, cells):
        cell = min(max(math.floor((float(x) - float(low)) * float(scale)), 0), int(count) - 1)
        key = key * (int(count) + 2) + cell + 1
    return key


def cell_of_key(key, cells):
    """The cell, one integer an axis, that a padded key numbers."""
    out = []
    for count in reversed(cells):
        key, rest = divmod(key, int(count) + 2)
        out.append(rest - 1)
    return out[::-1]


@st.composite
def cell_index_cases(draw):
    """(points, lo, scale, cells) of the grids that use a CellIndex."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["faces", "unit", "coarse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "faces":
        # Points on the faces of cells of side 1 / scale, or halfway
        # between them: the grid of a minimum gap, from the points' least
        # coordinates.
        scale = draw(st.sampled_from([4.0, 10.0, 3.0, 0.5]))
        steps = rng.integers(0, 6, (n, d)) + 0.5 * rng.integers(0, 2, (n, d))
        points = rng.integers(-5, 6, d) * 0.3 + steps / scale
        lo = points.min(axis=0)
        cells = np.floor((points.max(axis=0) - lo) * scale).astype(np.int64) + 1
    elif kind == "unit":
        # The grid of a net: g cells an axis over [0, 1], with coordinates
        # 0, 1 and j / g, and uniform ones.
        g = draw(st.integers(1, 6))
        points = np.where(rng.random((n, d)) < 0.5, rng.integers(0, g + 1, (n, d)) / g,
                          rng.random((n, d)))
        points[0] = 1.0
        lo, scale, cells = np.zeros(d), float(g), np.full(d, g)
    else:
        # Cells coarsened so that the padded keys fit int64, as `_min_gap`
        # makes them for a wide set with a tiny gap; the corners make the
        # extent the same on every axis, so every axis has the most cells.
        per_axis = min(2 ** 20, int(2.0 ** (62.0 / d)) - 4)
        points = np.concatenate([np.zeros((1, d)), np.full((1, d), 1e6),
                                 rng.random((n, d)) * 1e6])
        lo = points.min(axis=0)
        extent = points.max(axis=0) - lo
        scale = 1.0 / (float(np.max(extent)) / per_axis)
        cells = np.floor(extent * scale).astype(np.int64) + 1
    repeats = rng.integers(0, points.shape[0], rng.integers(0, 4))
    return np.concatenate([points, points[repeats]]), lo, scale, cells


class TestCellIndex:
    @given(cell_index_cases())
    @example((np.array([[0.0], [0.25], [0.25], [0.5]]), np.zeros(1), 4.0, np.array([3])))
    @example((np.array([[1.0, 1.0], [0.0, 1.0], [2.0 / 3.0, 1.0 / 3.0]]),
              np.zeros(2), 3.0, np.array([3, 3])))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, case):
        points, lo, scale, cells = case
        index = CellIndex(points, lo, scale, cells)
        keys = [cell_key_oracle(p, lo, scale, cells) for p in points]
        assert max(keys) < 2 ** 63
        assert index.key(points).tolist() == keys
        # Sorted stably by key, with the same coordinates as columns.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        assert index.keys.tolist() == [keys[i] for i in order]
        assert index.points.tolist() == points[order].tolist()
        assert index.columns.flags.c_contiguous
        assert index.columns.tolist() == points[order].T.tolist()
        # Strides from the oracle's numbering: one cell along axis k.
        strides = [math.prod(int(c) + 2 for c in cells[k + 1:]) for k in range(len(cells))]
        assert index.strides.tolist() == strides
        # The key ranges of both stencils, and wider ones, from every key
        # that a point or one of its neighbours has: each run holds exactly
        # the points whose keys fall in its range, in sorted order.
        ranges = [(0, 1), (-1, 0), (1, 2), (0, 2), (-2, 3)]
        for stride in strides[:-1]:
            ranges += [(stride - 1, stride + 2), (-stride - 1, 2 - stride)]
        offsets = [end for bounds in ranges for end in bounds]
        needles = sorted({k + o for k in keys for o in (-1, 0, 1)})
        for batch in (needles, needles[len(needles) // 3:], needles[-1:]):
            rows = index.rows(np.array(batch, dtype=np.int64), offsets)
            assert rows.shape == (len(offsets), len(batch))
            for r, (first, last) in enumerate(ranges):
                for j, k in enumerate(batch):
                    want = [points[i].tolist() for i in order if k + first <= keys[i] < k + last]
                    assert index.points[rows[2 * r, j]:rows[2 * r + 1, j]].tolist() == want
        # Points less than 1 / scale apart on every axis, by the 1e-9
        # margin of the minimum gap, lie in the same or neighbouring cells.
        cell = [cell_of_key(k, cells) for k in keys]
        reach = (1.0 - 1e-9) / scale
        for i in range(len(keys)):
            for j in range(i):
                if np.max(np.abs(points[i] - points[j])) <= reach:
                    assert max(abs(a - b) for a, b in zip(cell[i], cell[j])) <= 1

    def test_unit_coordinate_one_is_in_the_last_cell(self):
        # 1.0 * 4 = 4 is clipped into cell 3, the last of 4.
        index = CellIndex(np.array([[1.0, 1.0], [0.0, 1.0], [0.5, 0.0]]),
                          (0.0, 0.0), 4.0, (4, 4))
        assert [cell_of_key(int(k), [4, 4]) for k in index.keys] == [[0, 3], [2, 0], [3, 3]]
        assert index.points.tolist() == [[0.0, 1.0], [0.5, 0.0], [1.0, 1.0]]
