import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import qmc

import denseforest.geometry as geometry
from denseforest.errors import ResourceLimitError
from denseforest.geometry import (AlignedBox, Point, Segment, Window,
                                  _stratified_directions, run_pairs,
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
