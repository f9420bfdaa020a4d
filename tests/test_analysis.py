import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseforest.analysis as analysis
from denseforest.analysis import (_line_gap_profile, _probe_first_hits,
                                  RotatedBox,
                                  check_visibility, density_profile,
                                  discrepancy, dispersion,
                                  estimate_visibility, find_empty_tube,
                                  heavy_box, min_gap, sud_estimate,
                                  udt_check, vacant_strip,
                                  visibility_from_segments)
from denseforest.errors import ResourceLimitError
from denseforest.generators import (D2, Grid, GridUnion, PeresForest,
                                    ThreeGrid, enumerate_points,
                                    concat_linear_sequence,
                                  golden_sequence, integer_lattice,
                                    quadratic_sequence, tsokanos_sequence)
from denseforest.geometry import (Point, Segment, Window, sample_probes,
                                  sample_segments)
from geometry_oracles import supnorm_point_segment_distance

PHI = (1.0 + math.sqrt(5.0)) / 2.0

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_discrepancy(pts: np.ndarray) -> float:
    """Exhaustive extreme discrepancy over closed and open critical boxes."""
    n, d = pts.shape
    crits = [np.unique(np.concatenate([pts[:, j], [0.0, 1.0]])) for j in range(d)]
    best = 0.0
    for lo in itertools.product(*crits):
        for hi in itertools.product(*crits):
            lo_a, hi_a = np.array(lo), np.array(hi)
            if np.any(hi_a < lo_a):
                continue
            vol = float(np.prod(hi_a - lo_a))
            closed = np.count_nonzero(
                np.all((pts >= lo_a) & (pts <= hi_a), axis=1))
            open_ = np.count_nonzero(
                np.all((pts > lo_a) & (pts < hi_a), axis=1))
            best = max(best, closed / n - vol, vol - open_ / n)
    return best


def brute_dispersion_1d(xs: np.ndarray) -> float:
    grid = np.linspace(0.0, 1.0, 20001)
    return float(np.max(np.min(np.abs(grid[:, None] - xs[None, :]), axis=1)))


class TestDispersion:
    def test_single_point(self):
        rep = dispersion([[0.5]])
        assert rep.exact and rep.N == 1
        assert rep.value == pytest.approx(0.5, abs=1e-12)

    def test_two_points(self):
        assert dispersion([[0.25], [0.75]]).value == pytest.approx(0.25, abs=1e-12)

    def test_endpoints(self):
        assert dispersion([[0.0], [1.0]]).value == pytest.approx(0.5, abs=1e-12)

    def test_grid_bound_2d(self):
        rep = dispersion([[0.5, 0.5]])
        assert not rep.exact
        assert rep.grid_resolution is not None
        assert 0.5 - rep.grid_resolution / 2.0 <= rep.value <= 0.5 + 1e-12

    def test_rejects_outside_unit_cube(self):
        with pytest.raises(ValueError):
            dispersion([[1.5]])
        with pytest.raises(ValueError):
            dispersion(np.empty((0, 1)))

    @given(st.lists(unit, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_1d(self, xs):
        rep = dispersion(np.asarray(xs)[:, None])
        assert rep.value == pytest.approx(brute_dispersion_1d(np.asarray(xs)),
                                          abs=1e-4)

    @given(st.lists(unit, min_size=1, max_size=10), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        a = dispersion(np.asarray(xs)[:, None]).value
        b = dispersion(np.asarray(shuffled)[:, None]).value
        assert a == b

    @given(st.lists(unit, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_packing_lower_bound(self, xs):
        rep = dispersion(np.asarray(xs)[:, None])
        assert rep.value >= 1.0 / (2.0 * (rep.N + 1)) - 1e-12


class TestDiscrepancy:
    def test_single_point_is_one(self):
        # the degenerate closed box at the point is maximally overfull
        assert discrepancy([[0.5]]) == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        assert discrepancy([[0.25], [0.75]]) == pytest.approx(0.5, abs=1e-12)

    def test_midpoint_grid(self):
        n = 8
        xs = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        val = discrepancy(xs[:, None])
        assert val == pytest.approx(brute_discrepancy(xs[:, None]), abs=1e-12)

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            discrepancy([[0.1, 0.2, 0.3]])

    def test_moderate_2d_set_within_budget(self):
        pts = np.random.default_rng(1).random((240, 2))
        assert 0.0 < discrepancy(pts) < 1.0

    def test_oversized_2d_set_raises(self):
        pts = np.random.default_rng(2).random((5000, 2))
        with pytest.raises(ResourceLimitError):
            discrepancy(pts)

    @given(st.lists(unit, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_1d(self, xs):
        pts = np.asarray(xs)[:, None]
        assert discrepancy(pts) == pytest.approx(brute_discrepancy(pts), abs=1e-12)

    @given(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_2d(self, pairs):
        pts = np.asarray(pairs, dtype=float)
        assert discrepancy(pts) == pytest.approx(brute_discrepancy(pts), abs=1e-12)

    def test_sequence_dispersion_below_half_discrepancy(self):
        # the two-sided bound specialized to the fractional-part sequences;
        # it is not universal (a single point at 0.9 violates the right side)
        for seq in (golden_sequence(), tsokanos_sequence(),
                    quadratic_sequence(PHI)):
            vals = np.mod(seq.values(np.arange(1, 257)), 1.0)
            disp = dispersion(vals).value
            disc = discrepancy(vals)
            assert disp >= 1.0 / (2.0 * (len(vals) + 1)) - 1e-12
            assert disp <= disc / 2.0 + 1e-12


class TestSUD:
    def test_constant_sequence(self):
        est = sud_estimate(quadratic_sequence(0.0), N=16, m_max=4,
                           xi_count=8, seed=1)
        assert est.value == pytest.approx(0.5, abs=1e-12)
        assert est.N == 16

    def test_monotone_in_samples(self):
        seq = golden_sequence()
        small = sud_estimate(seq, N=32, m_max=2, xi_count=4, seed=1).value
        large = sud_estimate(seq, N=32, m_max=16, xi_count=32, seed=1).value
        assert large >= small - 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            sud_estimate(golden_sequence(), N=0, m_max=1, xi_count=1, seed=0)
        with pytest.raises(ValueError):
            sud_estimate(golden_sequence(), N=1, m_max=-1, xi_count=1, seed=0)
        with pytest.raises(ValueError):
            sud_estimate(golden_sequence(), N=1, m_max=1, xi_count=0, seed=0)


SWEEP_SUD = [(tsokanos_sequence(), 16384, 64, 256),
             (concat_linear_sequence([[0.0, 0.0], [PHI - 1.0, math.sqrt(2.0) - 1.0]]),
              256, 8, 16)]


class TestSUDGuard:
    def test_work_budget(self, monkeypatch):
        # d = 1: 3 shifts x 4 twists x N = 16 are 192 units.
        seq = golden_sequence()
        monkeypatch.setattr(analysis, "MAX_SUD_WORK", 192)
        assert sud_estimate(seq, N=16, m_max=2, xi_count=4, seed=1).value > 0.0
        with pytest.raises(ResourceLimitError, match="256 work units"):
            sud_estimate(seq, N=16, m_max=3, xi_count=4, seed=1)

    def test_grid_work_budget(self, monkeypatch):
        # d = 2: each of 2 shifts x 3 twists counts SUD_GRID_UNITS per
        # element of its grid bound, 9 * 8 tiled points and 64^2 nodes.
        seq = SWEEP_SUD[1][0]
        units = 2 * 3 * analysis.SUD_GRID_UNITS * (9 * 8 + 64 ** 2)
        monkeypatch.setattr(analysis, "MAX_SUD_WORK", units)
        assert sud_estimate(seq, N=8, m_max=1, xi_count=3, seed=1).value > 0.0
        with pytest.raises(ResourceLimitError, match=f"{units * 4 // 3} work units"):
            sud_estimate(seq, N=8, m_max=1, xi_count=4, seed=1)

    def test_value_budget(self, monkeypatch):
        # d = 1: 5 twists and a span of 2 N = 32 hold 37 values.
        seq = golden_sequence()
        monkeypatch.setattr(analysis, "MAX_SUD_VALUES", 37)
        assert sud_estimate(seq, N=16, m_max=0, xi_count=5, seed=1).value > 0.0
        with pytest.raises(ResourceLimitError, match="38 values"):
            sud_estimate(seq, N=16, m_max=0, xi_count=6, seed=1)

    @pytest.mark.parametrize("seq, N, m_max, xi_count", SWEEP_SUD, ids=["d1", "d2"])
    def test_sweep_sizes_pass(self, seq, N, m_max, xi_count, monkeypatch):
        class Drawn(Exception):
            """The guard let the call through to the twist draw."""

        def drawn(*args):
            raise Drawn

        monkeypatch.setattr(analysis, "_xi_samples", drawn)
        with pytest.raises(Drawn):
            sud_estimate(seq, N, m_max, xi_count, seed=1)

    @pytest.mark.parametrize("N, xi_count", [(10 ** 9, 256), (16384, 10 ** 9)])
    def test_refused_before_any_allocation(self, N, xi_count):
        # Either size would take at least 8 GB of twists or of span values.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                sud_estimate(tsokanos_sequence(), N, 64, xi_count, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestVisibility:
    def test_explicit_miss_and_hit(self):
        spec = integer_lattice(2)
        miss = Segment(np.array([0.3, 0.5]), np.array([1.0, 0.0]), 40.0)
        rep = visibility_from_segments(spec, 0.3, [miss])
        assert rep.hit_fraction == 0.0
        assert rep.worst_segment is miss
        hit = Segment(np.array([0.3, 0.1]), np.array([1.0, 0.0]), 40.0)
        rep2 = visibility_from_segments(spec, 0.3, [hit, miss])
        assert rep2.hit_fraction == 0.5

    def test_monotone_in_epsilon_and_length(self):
        spec = PeresForest()
        w = Window.cube(10.0, 2)
        f_small = check_visibility(spec, 0.05, 4.0, 64, w, seed=5).hit_fraction
        f_eps = check_visibility(spec, 0.4, 4.0, 64, w, seed=5).hit_fraction
        f_len = check_visibility(spec, 0.05, 40.0, 64, w, seed=5).hit_fraction
        assert f_eps >= f_small
        assert f_len >= f_small

    def test_full_coverage_at_half(self):
        # every point of the plane is within sup-distance 1/2 of Z^2
        rep = check_visibility(integer_lattice(2), 0.51, 1.0, 128,
                               Window.cube(5.0, 2), seed=2)
        assert rep.hit_fraction == 1.0
        assert rep.worst_segment is None

    @pytest.mark.parametrize("spec", [integer_lattice(2), PeresForest(), D2()],
                             ids=["z2", "peres", "d2"])
    @pytest.mark.parametrize("eps, length", [(0.05, 24.0), (0.2, 3.0), (0.6, 1.0)])
    def test_report_equals_the_segment_report(self, spec, eps, length):
        window = Window.cube(20.0, 2)
        got = check_visibility(spec, eps, length, 301, window, seed=4)
        want = visibility_from_segments(spec, eps,
                                        sample_segments(window, length, 301, 4))
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        # Z^2 misses at eps 0.05 and 0.2, D2 at 0.05: a worst segment is built.
        assert (got.worst_segment is None) == (got.hit_fraction == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_visibility(integer_lattice(2), 0.0, 1.0, 4,
                             Window.cube(2.0, 2), seed=0)
        with pytest.raises(ValueError):
            visibility_from_segments(integer_lattice(2), 0.1, [])

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_is_refused(self, eps):
        spec = integer_lattice(2)
        w = Window.cube(2.0, 2)
        seg = Segment(np.array([0.3, 0.5]), np.array([1.0, 0.0]), 4.0)
        calls = [lambda: estimate_visibility(spec, eps, 8.0, 4, w, seed=0),
                 lambda: check_visibility(spec, eps, 1.0, 4, w, seed=0),
                 lambda: visibility_from_segments(spec, eps, [seg]),
                 lambda: find_empty_tube(spec, eps, w, [(1.0, 0.0)], 4)]
        for call in calls:
            with pytest.raises(ValueError, match="epsilon must be positive"):
                call()


class TestColumnWalkGuard:
    # One probe along +x from (0.3, 0.05) on Z^2 at eps 2.3: its column box
    # is floor(2 * 2.3) + 2 = 6 rows, and a widening far below one column
    # adds one column to the first round's two, 18 rows in all.
    BASE = np.array([[0.3, 0.05]])
    EAST = np.array([[1.0, 0.0]])

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_WALK_ROWS", 18)
        first = _probe_first_hits(integer_lattice(2), 2.3, self.BASE, self.EAST,
                                  np.array([4.0]))
        assert first[0] < 0.0
        monkeypatch.setattr(analysis, "MAX_WALK_ROWS", 17)
        with pytest.raises(ResourceLimitError, match="walk of 18 rows"):
            _probe_first_hits(integer_lattice(2), 2.3, self.BASE, self.EAST,
                              np.array([4.0]))

    def test_widening_counts(self, monkeypatch):
        # At a horizon of 1e10 the band widens by 10.0000000036 columns, so
        # the walk up to t = 0 adds 21 columns of 6 rows to the first round.
        monkeypatch.setattr(analysis, "MAX_WALK_ROWS", 138)
        _probe_first_hits(integer_lattice(2), 2.3, self.BASE, self.EAST,
                          np.array([1e10]))
        monkeypatch.setattr(analysis, "MAX_WALK_ROWS", 137)
        with pytest.raises(ResourceLimitError, match="walk of 138 rows"):
            _probe_first_hits(integer_lattice(2), 2.3, self.BASE, self.EAST,
                              np.array([1e10]))

    @pytest.mark.parametrize("spec, eps, L", [
        (integer_lattice(2), 1e7, 8.0), (PeresForest(), 0.1, 1e12)],
        ids=["wide-box", "wide-band"])
    def test_refused_before_the_first_round(self, spec, eps, L):
        bases, dirs, lengths = sample_probes(Window.cube(50.0, 2), L, 4, 0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                _probe_first_hits(spec, eps, bases, dirs, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    @pytest.mark.parametrize("spec, eps, L", [
        (integer_lattice(2), 1e4, 8.0), (PeresForest(), 0.1, 1e11)],
        ids=["eps-1e4", "l-max-1e11"])
    def test_inputs_below_the_budget_run(self, spec, eps, L):
        assert math.isfinite(estimate_visibility(spec, eps, L, 4,
                                                 Window.cube(50.0, 2), 0))


BAD_DIRECTIONS = [(math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf),
                  (0.0, 0.0), (1e200, 1e200), (1e-320, 0.0), (1.0, 0.0, 0.0)]


class TestEmptyTube:
    def test_lattice_axis_tube(self):
        w = Window.cube(5.0, 2)
        seg, length = find_empty_tube(integer_lattice(2), 0.3, w,
                                      [(1.0, 0.0), (1.0, 1.0)],
                                      offsets_per_direction=32)
        assert length == pytest.approx(10.0, abs=1e-6)
        pts = enumerate_points(integer_lattice(2), Window(w.lo - 0.4, w.hi + 0.4))
        d = min(supnorm_point_segment_distance(Point(p), seg) for p in pts)
        assert d >= 0.3 - 1e-9

    def test_returned_tube_is_always_empty(self):
        spec = ThreeGrid()
        w = Window.cube(8.0, 2)
        seg, length = find_empty_tube(spec, 0.05, w, [(1.0, 0.0), (2.0, 1.0)],
                                      offsets_per_direction=16)
        assert length > 0.0
        pts = enumerate_points(spec, Window(w.lo - 0.1, w.hi + 0.1))
        for p in pts:
            assert supnorm_point_segment_distance(Point(p), seg) >= 0.05 - 1e-9

    def test_gap_blocked_conservation(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4.0, 4.0, size=(40, 2))
        base = np.array([0.0, 0.1])
        direction = np.array([1.0, 0.0])
        gaps, blocked = _line_gap_profile(pts, base, direction, 0.2, -4.0, 4.0)
        total = sum(g[1] for g in gaps) + sum(b[1] - b[0] for b in blocked)
        assert total == pytest.approx(8.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_empty_tube(integer_lattice(2), 0.0, Window.cube(2.0, 2),
                            [(1.0, 0.0)], 4)
        with pytest.raises(ValueError):
            find_empty_tube(integer_lattice(2), 0.1, Window.cube(2.0, 2), [], 4)

    @pytest.mark.parametrize("bad", BAD_DIRECTIONS)
    def test_bad_direction_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite nonzero 2-vector"):
            find_empty_tube(integer_lattice(2), 0.1, Window.cube(2.0, 2),
                            [(1.0, 0.0), bad], 4)

    def test_lines_budget(self, monkeypatch):
        # Two directions of 6 offsets are 12 lines: just under a budget of
        # 12, and refused one offset per direction later.
        monkeypatch.setattr(analysis, "MAX_TUBE_LINES", 12)
        w = Window.cube(5.0, 2)
        _, length = find_empty_tube(integer_lattice(2), 0.3, w,
                                    [(1.0, 0.0), (0.0, 1.0)], 6)
        assert length == pytest.approx(10.0, abs=1e-6)
        with pytest.raises(ResourceLimitError, match="14 offset lines"):
            find_empty_tube(integer_lattice(2), 0.3, w,
                            [(1.0, 0.0), (0.0, 1.0)], 7)

    def test_lines_refused_before_any_allocation(self, monkeypatch):
        # 10^9 offsets would ask for 8 GB of offsets alone.  The refusal
        # comes before the enumeration, which must not run.
        def no_enumeration(*args):
            raise AssertionError("points were enumerated")

        monkeypatch.setattr(analysis, "enumerate_points", no_enumeration)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                find_empty_tube(integer_lattice(2), 0.1, Window.cube(200.0, 2),
                                [(1.0, 0.0), (0.0, 1.0)], 10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


def shortest_dual_width(basis: np.ndarray) -> float:
    inv = np.linalg.inv(basis)
    best = math.inf
    for a in range(-16, 17):
        for b in range(-16, 17):
            if a == b == 0 or math.gcd(abs(a), abs(b)) != 1:
                continue
            best = min(best, float(np.linalg.norm(np.array([a, b]) @ inv)))
    return 1.0 / best


class TestVacantStrip:
    def test_integer_lattice_width_one(self):
        rep = vacant_strip(integer_lattice(2), Window.cube(20.0, 2))
        assert rep.width == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(np.abs(rep.direction), [1.0, 0.0]) or \
            np.allclose(np.abs(rep.direction), [0.0, 1.0])

    @pytest.mark.parametrize("basis", [
        [[1.0, 1.0], [0.0, 1.0]],
        [[2.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [3.0, 1.0]],
        [[5.0, 2.0], [2.0, 1.0]],
    ])
    def test_single_grid_matches_shortest_dual(self, basis):
        b = np.asarray(basis)
        spec = GridUnion((Grid(b, np.zeros(2)),))
        rep = vacant_strip(spec, Window.cube(30.0, 2))
        assert rep.width == pytest.approx(shortest_dual_width(b), abs=1e-9)

    def test_two_grid_union(self):
        tg = ThreeGrid()
        second = np.array([[math.sqrt(3.0), math.sqrt(2.0)], [0.0, 1.0]])
        spec = GridUnion((Grid(np.eye(2), np.zeros(2)),
                          Grid(second, np.asarray(tg.x))))
        rep = vacant_strip(spec, Window.cube(30.0, 2))
        # y-projections are Z union (Z + 1/e): widest central gap 1 - 1/e
        assert rep.width == pytest.approx(1.0 - 1.0 / math.e, abs=1e-9)
        assert np.allclose(np.abs(rep.direction), [0.0, 1.0])

    def test_three_grid_narrower_than_two_grid(self):
        rep = vacant_strip(ThreeGrid(), Window.cube(30.0, 2))
        assert 0.0 < rep.width < 1.0 - 1.0 / math.e

    def test_three_grid_width_matches_integer_box_oracle(self):
        radius = 50.0
        rep = vacant_strip(ThreeGrid(), Window.cube(radius, 2))
        corners = np.array(list(itertools.product([-radius, radius],
                                                  repeat=2)))
        projections = []
        for sheet in ThreeGrid().sheets():
            pre = (corners - sheet.shift) @ np.linalg.inv(sheet.basis).T
            axes = [np.arange(math.floor(lo) - 1, math.ceil(hi) + 2)
                    for lo, hi in zip(pre.min(axis=0), pre.max(axis=0))]
            zs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            pts = zs.reshape(-1, 2) @ sheet.basis.T + sheet.shift
            inside = np.all((pts >= -radius) & (pts < radius), axis=1)
            projections.append(pts[inside] @ rep.direction)
        proj = np.sort(np.concatenate(projections))
        mids = (proj[:-1] + proj[1:]) / 2.0
        # strips passing within half the inradius of the window centre
        central = np.abs(mids) <= radius / 2.0
        oracle = float(np.max(np.diff(proj)[central]))
        assert rep.width == pytest.approx(oracle, abs=1e-12)

    def test_extra_directions_accepted(self):
        rep = vacant_strip(integer_lattice(2), Window.cube(10.0, 2),
                           candidate_directions=[(1.0, 2.0)])
        assert rep.width == pytest.approx(1.0, abs=1e-9)

    def test_needs_points(self):
        with pytest.raises(ValueError):
            vacant_strip(GridUnion(()), Window.cube(5.0, 2))

    @pytest.mark.parametrize("bad", BAD_DIRECTIONS)
    def test_bad_extra_direction_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite nonzero 2-vector"):
            vacant_strip(integer_lattice(2), Window.cube(10.0, 2),
                         candidate_directions=[(1.0, 2.0), bad])


class TestDensityAndGap:
    def test_lattice_density(self):
        prof = density_profile(integer_lattice(2), [10.0])
        assert prof == [(10.0, 317 / 100.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            density_profile(integer_lattice(2), [])
        with pytest.raises(ValueError):
            density_profile(integer_lattice(2), [2.0, 1.0])
        with pytest.raises(ValueError):
            density_profile(integer_lattice(2), [-1.0])

    def test_min_gap_lattice(self):
        assert min_gap(integer_lattice(2), Window.cube(4.5, 2)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_min_gap_needs_two_points(self):
        with pytest.raises(ValueError):
            min_gap(integer_lattice(2), Window.cube(0.4, 2))


class TestHeavyBox:
    def test_interval_cluster(self):
        pts = np.array([[0.0], [0.1], [0.2], [0.9]])
        box, count = heavy_box(pts, 0.25)
        assert count == 3
        assert box.volume >= 0.25

    def test_volume_reaches_eps_exactly_enough(self):
        pts = np.array([[0.5, 0.5]])
        box, count = heavy_box(pts, 0.01)
        assert count == 1
        assert box.volume >= 0.01
        assert box.volume <= 0.01 * (1.0 + 1e-9)

    def test_count_is_certified(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, size=(300, 2))
        box, count = heavy_box(pts, 0.05)
        assert count == int(np.count_nonzero(box.contains(pts)))
        assert box.volume >= 0.05

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_dominates_random_probes(self, probe_seed):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.0, 1.0, size=(200, 2))
        eps = 0.04
        _, count = heavy_box(pts, eps)
        probe_rng = np.random.default_rng(probe_seed)
        for _ in range(20):
            w = probe_rng.uniform(eps, 1.0)
            h = eps / w
            lo = probe_rng.uniform(0.0, 1.0, size=2)
            hi = lo + [w, h]
            inside = np.count_nonzero(np.all((pts >= lo) & (pts <= hi), axis=1))
            assert count >= inside

    def test_rotations_never_worse(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, size=(150, 2))
        _, aligned = heavy_box(pts, 0.03)
        rbox, rotated = heavy_box(pts, 0.03, rotation_samples=16, seed=5)
        assert rotated >= aligned
        assert rbox.volume >= 0.03
        cnt = int(np.count_nonzero(rbox.contains(pts)))
        assert cnt == rotated

    def test_rotated_box_membership(self):
        from denseforest.geometry import AlignedBox
        box = RotatedBox(angle=math.pi / 4.0,
                         box=AlignedBox.from_bounds([0.0, -0.1], [2.0, 0.1]))
        r2 = math.sqrt(2.0)
        assert box.contains([[1.0 / r2, 1.0 / r2]])[0]
        assert not box.contains([[1.0 / r2 + 0.5, 1.0 / r2 - 0.5]])[0]

    @pytest.mark.parametrize("eps", [1e-300])
    def test_eps_below_float_spacing_is_refused(self, eps):
        # The box's sides fall below the spacing of floats near the points,
        # so inflating cannot bring its volume up to eps.
        pts = np.random.default_rng(1).random((50, 2))
        with pytest.raises(ValueError, match="too small"):
            heavy_box(pts, eps)
        with pytest.raises(ValueError, match="too small"):
            heavy_box(pts, eps, rotation_samples=2)

    @pytest.mark.parametrize("eps", [1e-16, 1e-26])
    def test_eps_near_float_spacing_reaches_eps(self, eps):
        # At 1e-16 the best box's sides are 3.1e-10 and 3.2e-7, which three
        # growth steps leave about 1e-9 short of eps; its bounds then widen
        # by one float each.
        pts = np.random.default_rng(1).random((50, 2))
        for rotations in (0, 2):
            box, count = heavy_box(pts, eps, rotation_samples=rotations)
            assert box.volume >= eps
            assert count == np.count_nonzero(box.contains(pts)) >= 1

    def test_long_thin_box_reaches_eps(self):
        # The best box of these points is 1.7e-13 wide at x = 1; inflated to
        # volume 0.01 its width is 4.5e-8, and rounding its bounds near 1
        # took 2e-9 of the volume, which a second growth step restores.
        pts = np.array([[1.0000000000003366, -2.166059424021407e-13],
                        [1.000000000000507, 0.8571428571428571]])
        box, count = heavy_box(pts, 0.01)
        assert box.volume >= 0.01 and count == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_thin_boxes_near_an_edge_reach_eps(self, seed):
        # x on sevenths and y within 1e-12 above 1: the best box is about
        # 1e-12 tall, and 14 of these 40 cases used to round short of eps.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        pts = np.stack([np.round(rng.random(n) * 7) / 7,
                        1 + rng.random(n) * 1e-12], axis=1)
        for eps in (0.01, 0.2):
            box, count = heavy_box(pts, eps)
            assert box.volume >= eps
            assert count == np.count_nonzero(box.contains(pts))

    def test_small_eps_on_the_line_reaches_eps(self):
        # A side of 1e-7 near 0.5 is some 10^9 float spacings long.
        box, count = heavy_box([[0.5], [0.9]], 1e-7)
        assert box.volume >= 1e-7 and count == 1

    def test_rotation_budget(self, monkeypatch):
        # 5 rotations of 18 points count 5 * (18 + 32) = 250 units: just
        # under a budget of 250, refused at 249 before the first search.
        pts = np.random.default_rng(6).random((18, 2))
        monkeypatch.setattr(analysis, "MAX_HEAVY_ROTATION_WORK", 250)
        _, count = heavy_box(pts, 0.05, rotation_samples=5, seed=2)
        assert count >= 1
        monkeypatch.setattr(analysis, "MAX_HEAVY_ROTATION_WORK", 249)

        def no_search(*args):
            raise AssertionError("a box was searched")

        monkeypatch.setattr(analysis, "_witness_box", no_search)
        with pytest.raises(ResourceLimitError, match="5 rotations of 18"):
            heavy_box(pts, 0.05, rotation_samples=5, seed=2)
        # The budget binds rotations only.
        with pytest.raises(AssertionError, match="searched"):
            heavy_box(pts, 0.05)

    def test_negative_rotations_are_refused(self):
        with pytest.raises(ValueError, match="rotation_samples"):
            heavy_box([[0.2, 0.3], [0.5, 0.5]], 0.1, rotation_samples=-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            heavy_box(np.empty((0, 2)), 0.1)
        with pytest.raises(ValueError):
            heavy_box([[0.0, 0.0]], 0.0)
        with pytest.raises(ValueError):
            heavy_box([[0.0, 0.0, 0.0]], 0.1)


class TestUDT:
    def test_zero_theta_margin_zero(self):
        idx, margin = udt_check([0.0], xi=0.0, T=10)
        assert idx == 1 and margin == 0.0

    def test_golden_pair(self):
        idx, margin = udt_check([0.0, PHI], xi=0.0, T=10)
        assert idx == 2
        expected = min(abs(u * PHI - round(u * PHI)) for u in range(1, 11))
        assert margin == pytest.approx(expected, abs=1e-12)
        assert margin == pytest.approx(0.0557, abs=5e-4)

    def test_integer_shift_invariance(self):
        a = udt_check([0.0, PHI], xi=0.3, T=8)
        b = udt_check([0.0, PHI], xi=0.3 + 7.0, T=8)
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_pigeonhole_upper_bound(self, xi, T):
        _, margin = udt_check([0.0], xi=xi, T=T)
        assert margin <= 1.0 / (T + 1) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            udt_check([], xi=0.0, T=4)
        with pytest.raises(ValueError):
            udt_check([[0.0, 0.0]], xi=0.0, T=4)
        with pytest.raises(ValueError):
            udt_check([0.0], xi=0.0, T=0)
        with pytest.raises(ResourceLimitError):
            udt_check([0.0], xi=0.0, T=10 ** 9)

    @pytest.mark.parametrize("thetas, xi", [
        ([math.nan], 0.1), ([0.0, math.inf], 0.1), ([[0.0, -math.inf]], [0.1, 0.2]),
        ([0.1], math.nan), ([0.1], math.inf), ([[0.1, 0.2]], [0.3, -math.inf])])
    def test_non_finite_input_is_refused(self, thetas, xi):
        with pytest.raises(ValueError, match="finite"):
            udt_check(thetas, xi=xi, T=4)
