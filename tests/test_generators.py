import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from denseforest.errors import ResourceLimitError
from denseforest.generators import (D2, D2_SCALE, CutAndProject,
                                    _d2_nonneg_pairs,
                                    GeneralizedPeres, Grid, GridUnion,
                                    PeresForest, SequenceSpec, ThreeGrid,
                                    canonicalize_points,
                                    concat_linear_sequence,
                                    default_cut_and_project, enumerate_points,
                                    golden_sequence, integer_lattice,
                                    load_spec, quadratic_sequence,
                                    read_points_csv, seq_eval, spec_from_json,
                                    spec_to_json, tsokanos_sequence,
                                    write_points_csv)
from denseforest.geometry import Window

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def contains(pts, target, tol=1e-9):
    return bool(np.abs(pts - np.asarray(target, float)).max(axis=1).min() <= tol)


def recursive_d2_pairs(xmax, ymax):
    """Reference bit-reversal walk: recursion over include/exclude choices."""
    if xmax < 0 or ymax < 0:
        return np.empty((0, 2))
    positions = []
    n = 0
    while n < 1024 and 2.0 ** n <= xmax:
        if 2.0 ** -n <= ymax:
            positions.append(n)
        n += 1
    n = -1
    while 2.0 ** -n <= ymax:
        if 2.0 ** n <= xmax:
            positions.append(n)
        n -= 1
    weights = [(2.0 ** p, 2.0 ** -p) for p in sorted(positions, reverse=True)]
    out = []

    def walk(idx, x, y):
        if idx == len(weights):
            out.append((x, y))
            return
        walk(idx + 1, x, y)
        wx, wy = weights[idx]
        if x + wx <= xmax and y + wy <= ymax:
            walk(idx + 1, x + wx, y + wy)

    walk(0, 0.0, 0.0)
    return np.asarray(out)


class TestSequences:
    def test_golden_values(self):
        g = golden_sequence()
        assert seq_eval(g, 2) == 0.0
        assert seq_eval(g, 4) == 0.0
        assert seq_eval(g, 1) == 0.0
        assert seq_eval(g, 3) == pytest.approx(PHI)
        assert seq_eval(g, 7) == pytest.approx(3.0 * PHI)

    def test_tsokanos_small_values(self):
        t = tsokanos_sequence()
        assert seq_eval(t, 1) == 1.0 / 32.0
        assert seq_eval(t, 17) == 1.0 / 64.0

    def test_tsokanos_block_top_values(self):
        # indices n with n + 2 an exact power of two sit at the top of their
        # dyadic block: v_n = 1 - 2^-(i^2 + 2)
        t = tsokanos_sequence()
        assert seq_eval(t, 30) == 1.0 - 2.0 ** -38
        assert seq_eval(t, 62) == 1.0 - 2.0 ** -51
        assert seq_eval(t, 126) == 1.0  # exact value rounds to 1 in binary64
        assert seq_eval(t, 2 ** 20 - 2) == 1.0

    def test_tsokanos_rejects_zero(self):
        with pytest.raises(ValueError):
            seq_eval(tsokanos_sequence(), 0)

    def test_tsokanos_range_is_finite_nonnegative(self):
        vals = tsokanos_sequence().values(np.arange(1, 5000))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_even_extension(self):
        for spec in (golden_sequence(), tsokanos_sequence(), quadratic_sequence(0.3)):
            ks = np.arange(1, 40)
            assert np.array_equal(spec.values(ks), spec.values(-ks))
            ext = spec.extended_values(np.arange(-5, 6))
            assert ext[5, 0] == 0.0

    def test_quadratic(self):
        q = quadratic_sequence(0.25)
        assert seq_eval(q, 4) == 4.0
        assert seq_eval(q, -4) == 4.0

    def test_concat_linear(self):
        c = concat_linear_sequence([[2.0], [10.0]])
        assert seq_eval(c, 1) == pytest.approx(1.0)    # 2 * (1/2)
        assert seq_eval(c, 2) == pytest.approx(10.0)   # 10 * (2/2)
        assert seq_eval(c, 3) == pytest.approx(3.0)    # 2 * (3/2)
        with pytest.raises(ValueError):
            seq_eval(c, 0)

    def test_concat_linear_vector(self):
        c = concat_linear_sequence([[1.0, 0.0], [0.0, 1.0]])
        assert c.dim == 2
        v = c.values([4])[0]
        assert np.allclose(v, [0.0, 2.0])

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            SequenceSpec("Unknown")
        with pytest.raises(ValueError):
            SequenceSpec("Quadratic", alpha=float("nan"))
        with pytest.raises(ValueError):
            SequenceSpec("ConcatLinear", thetas=())


class TestEnumeration:
    def test_integer_lattice_count(self):
        pts = enumerate_points(integer_lattice(2), Window.cube(2.5, 2))
        assert pts.shape == (25, 2)
        assert contains(pts, [0.0, 0.0]) and contains(pts, [-2.0, 2.0])
        assert not contains(pts, [2.5, 0.0])

    def test_half_open_boundary(self):
        pts = enumerate_points(integer_lattice(1),
                               Window([-2.0], [2.0]))
        assert sorted(pts.ravel().tolist()) == [-2.0, -1.0, 0.0, 1.0]

    def test_peres_contains_all_three_lattices(self):
        pts = enumerate_points(PeresForest(), Window.cube(5.0, 2))
        assert contains(pts, [1.0, 1.0])
        assert contains(pts, [1.0, PHI - 1.0])      # shear: (m, phi*m + l)
        assert contains(pts, [-PHI + 1.0, 1.0])     # rotated shear
        assert contains(pts, [2.0, 2.0 * PHI - 3.0])

    def test_three_grid_contains_translates(self):
        tg = ThreeGrid()
        pts = enumerate_points(tg, Window.cube(6.0, 2))
        assert contains(pts, [0.0, 0.0])
        assert contains(pts, list(tg.x))
        second = np.array([[math.sqrt(3.0), math.sqrt(2.0)], [0.0, 1.0]])
        assert contains(pts, second @ [1.0, -1.0] + np.asarray(tg.x))
        assert contains(pts, list(tg.y))

    def test_d2_membership(self):
        pts = enumerate_points(D2(), Window.cube(4.0, 2))
        for x, y in [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (3.0, 1.5),
                     (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]:
            assert contains(pts, [D2_SCALE * x, D2_SCALE * y])

    def test_d2_bit_reversal_property(self):
        pts = enumerate_points(D2(), Window.cube(8.0, 2))
        raw = np.abs(pts) / D2_SCALE
        assert len(raw) > 50
        for x, y in raw:
            # coordinates are dyadic with exponents in a narrow band at this
            # window size, so 6 binary places recover them exactly
            m = int(round(x * 64.0))
            assert x == pytest.approx(m / 64.0, abs=1e-9)
            rev = sum(2.0 ** (6 - b) for b in range(m.bit_length()) if m >> b & 1)
            assert y == pytest.approx(rev, abs=1e-9)

    def test_d2_walk_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the recursion limit is process-global")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert len(enumerate_points(D2(), Window.cube(8.0, 2))) > 50

    @pytest.mark.parametrize("xmax, ymax", [(-1.0, 2.0), (0.0, 0.0), (5.0, 5.0),
                                            (100.0, 0.01), (0.3, 40.0),
                                            (300.0, 300.0)])
    def test_d2_pairs_match_recursive_walk(self, xmax, ymax):
        assert np.array_equal(_d2_nonneg_pairs(xmax, ymax),
                              recursive_d2_pairs(xmax, ymax))

    def test_window_monotone(self):
        for spec in (PeresForest(), ThreeGrid(), D2(),
                     GeneralizedPeres(golden_sequence())):
            small = enumerate_points(spec, Window.cube(3.0, 2))
            large = enumerate_points(spec, Window.cube(6.0, 2))
            for p in small:
                assert contains(large, p)

    def test_generalized_peres_columns(self):
        gp = GeneralizedPeres(quadratic_sequence(0.0))
        pts = enumerate_points(gp, Window.cube(2.5, 2))
        # zero sequence collapses every rotated copy onto Z^2
        assert pts.shape == (25, 2)

    def test_generalized_peres_validation(self):
        with pytest.raises(ValueError):
            GeneralizedPeres(golden_sequence(), n=1)
        with pytest.raises(ValueError):
            GeneralizedPeres(golden_sequence(), n=3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_points(PeresForest(), Window.cube(1.0, 3))

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_points(integer_lattice(2), Window.cube(1e6, 2))

    def test_cut_and_project_default(self):
        cp = default_cut_and_project()
        assert cp.dim == 1
        pts = enumerate_points(cp, Window([-5.0], [5.0]))
        assert 10 <= len(pts) <= 40
        assert np.all(np.diff(pts.ravel()) > 0)

    def test_cut_and_project_half_open_window(self):
        # physical = x, internal = y: selects exactly the rows with y in [0, 1)
        cp = CutAndProject(Grid(np.eye(2), np.zeros(2)),
                           np.array([[1.0], [0.0]]),
                           np.array([[0.0], [1.0]]),
                           (0.0, 1.0))
        pts = enumerate_points(cp, Window([-3.5], [3.5]))
        assert sorted(pts.ravel().tolist()) == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            Grid(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            GridUnion((Grid(np.eye(2), np.zeros(2)), Grid(np.eye(3), np.zeros(3))))

    def test_canonicalize_merges_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 5e-11]])
        out = canonicalize_points(pts)
        assert out.shape == (2, 2)
        assert np.array_equal(out, np.array([[0.0, 0.0], [1.0, 0.0]]))

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_lattice_count_scales(self, r):
        pts = enumerate_points(integer_lattice(2), Window.cube(r + 0.5, 2))
        assert pts.shape[0] == (2 * r + 1) ** 2


class TestSerialization:
    SPECS = [PeresForest(), ThreeGrid(x=(0.1, 0.2), y=(0.3, 0.4)), D2(),
             GeneralizedPeres(quadratic_sequence(0.7)),
             GeneralizedPeres(tsokanos_sequence()),
             integer_lattice(2), default_cut_and_project()]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    def test_json_round_trip(self, spec):
        doc = spec_to_json(spec)
        clone = spec_from_json(json.loads(json.dumps(doc)))
        assert clone.variant == spec.variant
        w = Window.cube(3.0, spec.dim)
        assert np.allclose(enumerate_points(spec, w), enumerate_points(clone, w))

    def test_load_spec_from_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(ThreeGrid())))
        spec = load_spec(path)
        assert isinstance(spec, ThreeGrid)
        assert spec.x == ThreeGrid().x

    def test_load_spec_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            spec_from_json({"variant": "Nope", "params": {}})

    def test_csv_round_trip(self, tmp_path):
        pts = enumerate_points(PeresForest(), Window.cube(3.0, 2))
        path = tmp_path / "pts.csv"
        write_points_csv(path, pts)
        back = read_points_csv(path)
        assert np.array_equal(back, pts)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2"
