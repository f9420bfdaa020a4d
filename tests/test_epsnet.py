import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseforest.epsnet as epsnet
from denseforest.epsnet import (Net, d2_aligned_net, hw_net,
                                sample_aligned_box, sample_rotated_box,
                                slab_lower_bound, verify_net)
from denseforest.errors import ResourceLimitError
from denseforest.generators import D2_SCALE
from denseforest.geometry import AlignedBox, RotatedBox

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestNetType:
    def test_properties(self):
        net = Net(points=np.array([[0.1, 0.2], [0.3, 0.4]]), epsilon=0.5,
                  method="HausslerWelzl")
        assert net.size == 2 and net.dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Net(points=np.array([[1.5, 0.0]]), epsilon=0.5, method="HausslerWelzl")
        with pytest.raises(ValueError):
            Net(points=np.array([[0.5, 0.5]]), epsilon=0.0, method="HausslerWelzl")
        with pytest.raises(ValueError):
            Net(points=np.array([[0.5, 0.5]]), epsilon=0.5, method="Other")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_are_refused(self, bad):
        # min() and max() of an array holding NaN are NaN, which no range
        # test catches, so finiteness is tested first.
        with pytest.raises(ValueError, match="finite"):
            Net(points=np.array([[0.5, 0.5], [bad, 0.2]]), epsilon=0.5,
                method="HausslerWelzl")

    def test_caller_array_is_copied(self):
        # Writing the caller's array, or the base of a read-only view of
        # it, leaves the net as it was built.
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        view = pts[:]
        view.setflags(write=False)
        nets = [Net(points=p, epsilon=0.5, method="HausslerWelzl") for p in (pts, view)]
        pts[0] = [0.9, 0.9]
        for net in nets:
            assert net.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
            assert not net.points.flags.writeable


class TestHWNet:
    def test_size_formula(self):
        net = hw_net(0.5, d=2, C=2.0, seed=0)
        assert net.size == math.ceil(2.0 * 2.0 * math.log(2.0))  # = 3
        assert net.method == "HausslerWelzl"
        assert np.all((net.points >= 0.0) & (net.points <= 1.0))

    def test_deterministic(self):
        a = hw_net(0.01, d=2, C=4.0, seed=9)
        b = hw_net(0.01, d=2, C=4.0, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            hw_net(1e-8, d=2, C=16.0, seed=0)

    @pytest.mark.parametrize("eps, C", [(1e-310, 16.0), (0.1, 1e308)])
    def test_overflowing_size_is_a_resource_limit(self, eps, C):
        # C / eps overflows to inf, which math.ceil cannot take.
        with pytest.raises(ResourceLimitError):
            hw_net(eps, d=2, C=C, seed=0)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                hw_net(bad, d=2, C=1.0, seed=0)
        with pytest.raises(ValueError):
            hw_net(0.5, d=2, C=0.0, seed=0)
        with pytest.raises(ValueError):
            hw_net(0.5, d=0, C=1.0, seed=0)

    @pytest.mark.parametrize("C", [math.inf, -math.inf, math.nan])
    def test_non_finite_C_is_refused(self, C):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            hw_net(0.5, d=2, C=C, seed=0)

    # eps 0.1, C 10 gives ceil(100 ln 10) = 231 points.
    SIZE = 231

    def test_planar_budget_counts_points(self, monkeypatch):
        monkeypatch.setattr(epsnet, "MAX_NET_SIZE", self.SIZE)
        assert hw_net(0.1, d=2, C=10.0, seed=0).size == self.SIZE
        assert hw_net(0.1, d=1, C=10.0, seed=0).size == self.SIZE
        monkeypatch.setattr(epsnet, "MAX_NET_SIZE", self.SIZE - 1)
        with pytest.raises(ResourceLimitError):
            hw_net(0.1, d=2, C=10.0, seed=0)

    def test_budget_counts_coordinates(self, monkeypatch):
        # 231 points in dimension 200 are 46,200 coordinates: just under a
        # budget of 23,100 planar points, and refused one point lower.
        monkeypatch.setattr(epsnet, "MAX_NET_SIZE", self.SIZE * 100)
        assert hw_net(0.1, d=200, C=10.0, seed=0).points.shape == (self.SIZE, 200)
        monkeypatch.setattr(epsnet, "MAX_NET_SIZE", self.SIZE * 100 - 1)
        with pytest.raises(ResourceLimitError):
            hw_net(0.1, d=200, C=10.0, seed=0)

    def test_high_dimension_refused_before_the_draw(self, monkeypatch):
        # The draw would hold 231 x 10^5 floats (185 MB); nothing is drawn.
        monkeypatch.setattr(epsnet, "MAX_NET_SIZE", 10 ** 4)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                hw_net(0.1, d=10 ** 5, C=10.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_hw_net_holds_one_copy_of_its_points():
    # The drawn array becomes the net's: 921,035 points (14.7 MB) peak at
    # about the net's own bytes, not twice them.
    tracemalloc.start()
    try:
        net = hw_net(0.01, d=2, C=2000.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * net.points.nbytes


class TestD2Net:
    def test_contains_origin_and_scaled_points(self):
        net = d2_aligned_net(1.0)
        assert net.method == "D2Aligned"
        assert np.any(np.all(np.abs(net.points) < 1e-12, axis=1))
        assert np.all((net.points >= 0.0) & (net.points <= 1.0))

    def test_points_are_scaled_bit_reversals(self):
        eps = 0.04
        net = d2_aligned_net(eps)
        raw = net.points / (math.sqrt(eps) * D2_SCALE)
        for x, y in raw:
            m = int(round(x * 256.0))
            assert x == pytest.approx(m / 256.0, abs=1e-8)
            rev = sum(2.0 ** (8 - b) for b in range(m.bit_length()) if m >> b & 1)
            assert y == pytest.approx(rev, abs=1e-8)

    def test_size_grows_like_inverse_eps(self):
        small = d2_aligned_net(0.1).size
        smaller = d2_aligned_net(0.01).size
        assert smaller > small > 0

    def test_hits_every_aligned_box(self):
        net = d2_aligned_net(0.01)
        rep = verify_net(net, "aligned", volume=0.01, trials=300, seed=3)
        assert rep.hit_fraction == 1.0
        assert rep.worst_missed_box is None

    def test_validation(self):
        for bad in (0.0, 1.0001, -1.0):
            with pytest.raises(ValueError):
                d2_aligned_net(bad)


class TestBoxSamplers:
    def test_aligned_box_volume_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            box = sample_aligned_box(0.02, rng)
            assert box.volume == pytest.approx(0.02, rel=1e-9)
            assert np.all(box.lo >= -1e-12) and np.all(box.hi <= 1.0 + 1e-12)

    def test_rotated_box_volume_and_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            box = sample_rotated_box(0.02, rng)
            w, h = 2.0 * box.box.hi
            assert w * h == pytest.approx(0.02, rel=1e-9)
            assert box.contains([box.center])[0]
            c, s = math.cos(box.angle), math.sin(box.angle)
            rot = np.array([[c, -s], [s, c]])
            corners = box.center + np.array(
                [[sx * box.box.hi[0], sy * box.box.hi[1]]
                 for sx in (-1, 1) for sy in (-1, 1)]) @ rot.T
            assert np.all(corners >= -1e-9) and np.all(corners <= 1.0 + 1e-9)

    @pytest.mark.parametrize("sampler", [sample_aligned_box, sample_rotated_box])
    def test_generator_without_bit_generator_is_type_error(self, sampler):
        # The draw saves and restores rng.bit_generator.state, which a legacy
        # RandomState does not have.
        with pytest.raises(TypeError, match="numpy.random.Generator"):
            sampler(0.02, np.random.RandomState(1))


class TestVerifyNet:
    def test_unit_volume_always_hits_center(self):
        net = Net(points=np.array([[0.5, 0.5]]), epsilon=1.0,
                  method="HausslerWelzl")
        rep = verify_net(net, "aligned", volume=1.0, trials=10, seed=0)
        assert rep.hit_fraction == 1.0

    def test_empty_net_never_hits(self):
        net = Net(points=np.empty((0, 2)), epsilon=0.5, method="HausslerWelzl")
        rep = verify_net(net, "aligned", volume=0.25, trials=20, seed=0)
        assert rep.hit_fraction == 0.0
        assert rep.worst_missed_box is not None

    def test_sparse_net_misses_small_boxes(self):
        net = Net(points=np.array([[0.5, 0.5]]), epsilon=0.001,
                  method="HausslerWelzl")
        rep = verify_net(net, "aligned", volume=0.001, trials=100, seed=1)
        assert rep.hit_fraction < 1.0
        box = rep.worst_missed_box
        assert not np.any(box.contains(net.points))

    def test_rotated_missed_box_json_rebuilds_the_box(self):
        net = hw_net(0.05, d=2, C=0.5, seed=3)
        rep = verify_net(net, "rotated", volume=0.05, trials=200, seed=2)
        assert rep.hit_fraction < 1.0
        doc = json.loads(json.dumps(rep.to_json()))["worst_missed_box"]
        box = RotatedBox(doc["angle"], AlignedBox(doc["intervals"]), doc["center"])
        assert not np.any(box.contains(net.points))
        assert box.center.tobytes() == rep.worst_missed_box.center.tobytes()
        # The witness lies in the unit square, as every sampled box does.
        c, s = math.cos(box.angle), math.sin(box.angle)
        corners = box.center + np.array(
            [[sx * box.box.hi[0], sy * box.box.hi[1]]
             for sx in (-1, 1) for sy in (-1, 1)]) @ np.array([[c, -s], [s, c]]).T
        assert np.all(corners >= -1e-9) and np.all(corners <= 1.0 + 1e-9)

    def test_deterministic(self):
        net = hw_net(0.05, d=2, C=2.0, seed=0)
        a = verify_net(net, "rotated", volume=0.05, trials=200, seed=4)
        b = verify_net(net, "rotated", volume=0.05, trials=200, seed=4)
        assert a.hit_fraction == b.hit_fraction

    def test_validation(self):
        net = hw_net(0.5, d=2, C=1.0, seed=0)
        with pytest.raises(ValueError):
            verify_net(net, "aligned", volume=0.5, trials=0, seed=0)
        with pytest.raises(ValueError):
            verify_net(net, "aligned", volume=0.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            verify_net(net, "weird", volume=0.5, trials=5, seed=0)
        net1 = Net(points=np.array([[0.5]]), epsilon=0.5, method="HausslerWelzl")
        with pytest.raises(ValueError):
            verify_net(net1, "aligned", volume=0.5, trials=5, seed=0)

    def test_trials_budget(self, monkeypatch):
        # Just under the budget runs; one box over is refused before any
        # box is drawn.
        net = hw_net(0.05, d=2, C=2.0, seed=0)
        monkeypatch.setattr(epsnet, "MAX_VERIFY_TRIALS", 300)
        assert verify_net(net, "rotated", 0.05, 300, 4).boxes_tested == 300

        def no_draw(*args):
            raise AssertionError("a box was drawn")

        monkeypatch.setitem(epsnet._SAMPLERS, "rotated",
                            (no_draw, epsnet._rotated_box))
        with pytest.raises(ResourceLimitError, match="301 trials"):
            verify_net(net, "rotated", 0.05, 301, 4)


class TestSlabLowerBound:
    def test_empty_input_gives_unit_cube(self):
        box = slab_lower_bound([], dim=2)
        assert box.volume == pytest.approx(1.0)

    def test_requires_dim_for_empty(self):
        with pytest.raises(ValueError):
            slab_lower_bound([])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            slab_lower_bound([[0.5, 0.5]], dim=3)

    def test_non_finite_point_is_refused(self):
        # Sorted, the NaN once gave the slab [0, 1] x [0.5, 1].
        with pytest.raises(ValueError, match="points must be finite"):
            slab_lower_bound([[math.nan, 0.5], [0.2, 0.3]])

    def test_point_outside_the_cube_is_refused(self):
        # The point once stretched the slab to x in [0, 2], volume 2.
        with pytest.raises(ValueError, match="unit cube"):
            slab_lower_bound([[2.0, 0.5]])

    @given(st.lists(st.tuples(unit, unit), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pigeonhole_volume_and_emptiness(self, pairs):
        pts = np.asarray(pairs, dtype=float)
        box = slab_lower_bound(pts)
        assert box.volume >= 1.0 / (len(pts) + 1) - 1e-12
        strictly_inside = np.all((pts > box.lo + 1e-12) & (pts < box.hi - 1e-12),
                                 axis=1)
        assert not np.any(strictly_inside)

    @given(st.lists(unit, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_one_dimensional(self, xs):
        box = slab_lower_bound(np.asarray(xs)[:, None])
        assert box.volume >= 1.0 / (len(xs) + 1) - 1e-12
