import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseforest.generators as generators
from denseforest.errors import ResourceLimitError
from denseforest.generators import (D2, D2_SCALE, CutAndProject,
                                    CutProjectSheet, D2Sheet,
                                    _d2_nonneg_pairs,
                                    GeneralizedPeres, Grid, GridUnion,
                                    PeresForest, SequenceSpec, ThreeGrid,
                                    canonicalize_points,
                                    concat_linear_sequence,
                                    default_cut_and_project, enumerate_points,
                                    golden_sequence, integer_lattice,
                                    load_spec, quadratic_sequence,
                                    read_points_csv, seq_eval, seq_from_json,
                                    spec_from_json,
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

    @pytest.mark.parametrize("thetas", [[[float("nan")], [0.3]],
                                        [[0.5, float("inf")]],
                                        [[-float("inf")]]])
    def test_concat_linear_refuses_non_finite_thetas(self, thetas):
        with pytest.raises(ValueError, match="finite"):
            concat_linear_sequence(thetas)
        with pytest.raises(ValueError, match="finite"):
            seq_from_json({"variant": "ConcatLinear", "thetas": thetas})


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

    # Exact powers of two and the floats just below them, where the digits
    # that fit under xmax and ymax change.
    POWERS = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (4.0, 4.0)]
    BELOW = [(float(np.nextafter(x, 0.0)) if lower_x else x,
              float(np.nextafter(y, 0.0)) if lower_y else y)
             for x, y in POWERS for lower_x, lower_y in ((1, 0), (0, 1), (1, 1))]

    @pytest.mark.parametrize("xmax, ymax", [(-1.0, 2.0), (0.0, 0.0), (5.0, 5.0),
                                            (100.0, 0.01), (0.3, 40.0),
                                            (300.0, 300.0), (0.7, 0.3),
                                            (1e4, 0.5), (0.5, 1e4)]
                             + POWERS + BELOW)
    def test_d2_pairs_match_recursive_walk(self, xmax, ymax):
        pairs = _d2_nonneg_pairs(xmax, ymax)
        assert np.array_equal(pairs, recursive_d2_pairs(xmax, ymax))
        # The budget check's bound on the number of pairs.
        assert len(pairs) <= (math.floor(xmax) + 1) * (math.floor(ymax) + 1)

    def test_d2_budget_refused_before_the_walk(self):
        # At (1e5, 1e5) the bound is 1e10 pairs; the walk used to hold 2.5e7
        # tuples (about 4 GB) before it raised.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                _d2_nonneg_pairs(1e5, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_d2_pairs_peak_memory(self):
        # The grid build peaks at about 41 bytes per pair; the bit reversal
        # it replaced peaked at 64.
        tracemalloc.start()
        try:
            n = _d2_nonneg_pairs(1590.0, 1590.0).shape[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n > 10 ** 6
        assert peak < 56 * n

    def test_d2_has_no_dimension_field(self):
        with pytest.raises(TypeError):
            D2Sheet(dim=3)
        assert D2Sheet().dim == 2

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

    def test_empty_axis_builds_no_integer_box(self):
        # The box is 6e12 integers wide along x and holds none along y; as
        # one axis empties it, nothing is built along x either.
        thin = GridUnion((Grid([[1e-12, 0.0], [0.0, 1e12]], [0.0, 5e11]),))
        assert enumerate_points(thin, Window.cube(3.0, 2)).shape == (0, 2)

    def test_budget_refuses_about_three_gigabytes(self):
        # An estimate of 3.2e7 points, about 3 GB at 97 bytes per point.
        with pytest.raises(ResourceLimitError):
            enumerate_points(integer_lattice(2), Window.cube(2600.0, 2))

    @staticmethod
    def union_estimate(spec, window):
        sheets = spec.sheets()
        estimates = [sheet.estimate(window) for sheet in sheets]
        return sum(estimates), max(estimates)

    def test_union_just_under_the_budget(self, monkeypatch):
        spec, window = ThreeGrid(), Window.cube(10.0, 2)
        total, _ = self.union_estimate(spec, window)
        monkeypatch.setattr(generators, "MAX_ENUMERATED_POINTS", total)
        assert enumerate_points(spec, window).shape[0] > 0

    def test_union_just_over_the_budget(self, monkeypatch):
        # Every sheet alone fits the budget; the three together do not, and
        # no sheet is enumerated before the refusal.
        spec, window = ThreeGrid(), Window.cube(10.0, 2)
        total, largest = self.union_estimate(spec, window)
        limit = np.nextafter(total, 0.0)
        assert largest < limit
        monkeypatch.setattr(generators, "MAX_ENUMERATED_POINTS", limit)
        calls = []
        monkeypatch.setattr(generators.LatticeSheet, "enumerate",
                            lambda *args: calls.append(args))
        with pytest.raises(ResourceLimitError):
            enumerate_points(spec, window)
        assert calls == []

    @pytest.mark.parametrize("spec, window", [
        (PeresForest(), Window.cube(6.0, 2)),
        (GeneralizedPeres(golden_sequence()), Window.cube(6.0, 2)),
        (D2(), Window.cube(6.0, 2)),
        (default_cut_and_project(), Window([-5.0], [5.0]))])
    def test_every_sheet_kind_is_counted(self, spec, window, monkeypatch):
        total, _ = self.union_estimate(spec, window)
        monkeypatch.setattr(generators, "MAX_ENUMERATED_POINTS", total)
        expected = enumerate_points(spec, window)
        monkeypatch.setattr(generators, "MAX_ENUMERATED_POINTS",
                            np.nextafter(total, 0.0))
        with pytest.raises(ResourceLimitError):
            enumerate_points(spec, window)
        assert expected.shape[0] <= total

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
        # Singular, but its determinant overflows to inf; and a subnormal
        # entry, whose determinant divides by zero.
        for basis in ([[1e308, 1e308], [1e308, 1e308]], [[0.0, 0.0], [5e-324, 2.0]]):
            with pytest.raises(ValueError, match="det"):
                Grid(basis, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lattice_input_is_refused(self, bad):
        basis = np.eye(2)
        basis[0, 1] = bad
        unit = Grid(np.eye(2), np.zeros(2))
        makers = [lambda: Grid(basis, np.zeros(2)),
                  lambda: Grid(np.eye(2), [0.0, bad]),
                  lambda: ThreeGrid(x=(bad, 0.1)),
                  lambda: CutAndProject(unit, [[1.0], [bad]], [[0.0], [1.0]], (0.0, 1.0)),
                  lambda: CutAndProject(unit, [[1.0], [0.0]], [[bad], [1.0]], (0.0, 1.0)),
                  lambda: spec_from_json(json.loads(json.dumps(
                      {"variant": "GridUnion",
                       "params": {"grids": [{"basis": basis.tolist(),
                                             "translation": [0.0, 0.0]}]}})))]
        for make in makers:
            with pytest.raises(ValueError, match="finite"):
                make()

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


class TestOnePointWindows:
    """A point enumerated alone has the same bits as in a large window.

    Alone, its lattice coordinates form a single row, and numpy's one-row
    product rounds differently from the product of many rows.
    """

    SPECS = {
        "three-grid": (ThreeGrid(), 6.0),
        "d3": (GridUnion((Grid([[math.sqrt(2.0), 0.3, 0.0],
                                [0.0, 1.0, math.sqrt(3.0)],
                                [math.pi / 4.0, 0.0, 1.0]],
                               [0.1, math.e / 10.0, 0.2]),)), 3.0),
        "cut-and-project": (CutAndProject(
            Grid([[math.sqrt(3.0), math.sqrt(2.0)], [0.0, 1.0]], [0.3, 0.1]),
            [[1.0], [1.0 / (2.0 * math.sqrt(3.0))]],
            [[-1.0 / (2.0 * math.sqrt(3.0))], [1.0]], (0.0, 0.05)), 600.0),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_alone_equals_batched(self, name):
        spec, radius = self.SPECS[name]
        pts = enumerate_points(spec, Window.cube(radius, spec.dim))
        assert pts.shape[0] > 20
        for p in pts:
            alone = enumerate_points(spec, Window(p - 1e-7, p + 1e-7))
            assert alone.tobytes() == p.tobytes()


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

    # The spec JSON of the one-sheet constructions, as written before they
    # became their own sheets.
    ONE_SHEET_JSON = {
        "D2": '{"params": {}, "variant": "D2"}',
        "CutAndProject": (
            '{"params": {"grid": {"basis": [[1.0, 0.0], [0.0, 1.0]], '
            '"translation": [0.0, 0.0]}, '
            '"int_basis": [[-0.27735009811261463], [0.9607689228305228]], '
            '"phys_basis": [[0.9607689228305228], [0.27735009811261463]], '
            '"window_interval": [-1.0, 1.0]}, "variant": "CutAndProject"}'),
    }

    @pytest.mark.parametrize("spec", [D2(), default_cut_and_project()],
                             ids=lambda s: s.variant)
    def test_one_sheet_spec_is_its_sheet(self, spec):
        assert spec.sheets() == (spec,)
        assert isinstance(spec, (D2Sheet, CutProjectSheet))
        text = json.dumps(spec_to_json(spec), sort_keys=True)
        assert text == self.ONE_SHEET_JSON[spec.variant]
        clone = spec_from_json(json.loads(text))
        assert json.dumps(spec_to_json(clone), sort_keys=True) == text

    def test_one_sheet_names_are_aliases(self):
        assert D2 is D2Sheet and CutAndProject is CutProjectSheet

    def test_load_spec_from_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(ThreeGrid())))
        spec = load_spec(path)
        assert isinstance(spec, ThreeGrid)
        assert spec.x == ThreeGrid().x

    def test_load_spec_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            spec_from_json({"variant": "Nope", "params": {}})

    @pytest.mark.parametrize("doc", [[], "x", None, 3.0])
    def test_spec_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            spec_from_json(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"variant": "CutAndProject", "params": {}}, "grid"),
        ({"variant": "GeneralizedPeres", "params": {}}, "sequence"),
        ({"variant": "GeneralizedPeres", "params": {"sequence": {}}}, "variant"),
        ({"variant": "GridUnion", "params": {"grids": [{"basis": [[1, 0], [0, 1]]}]}},
         "translation")])
    def test_missing_key_is_named(self, doc, key):
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            spec_from_json(doc)

    @pytest.mark.parametrize("variant, params", [
        ("GridUnion", {"grids": 5}), ("GridUnion", {"grids": ["x"]}),
        ("GeneralizedPeres", {"sequence": [1.0]}), ("ThreeGrid", {"x": 5.0}),
        ("ThreeGrid", "x"),
        ("GeneralizedPeres", {"sequence": {"variant": "Golden"}, "n": math.inf})])
    def test_value_of_the_wrong_type_is_refused(self, variant, params):
        with pytest.raises(ValueError, match="wrong type"):
            spec_from_json({"variant": variant, "params": params})

    def test_concat_linear_thetas_must_be_vectors(self):
        with pytest.raises(ValueError, match="list of vectors"):
            concat_linear_sequence([[[0.1, 0.2]]])

    def test_csv_round_trip(self, tmp_path):
        pts = enumerate_points(PeresForest(), Window.cube(3.0, 2))
        path = tmp_path / "pts.csv"
        write_points_csv(path, pts)
        back = read_points_csv(path)
        assert np.array_equal(back, pts)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2"

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("text", ["x1,x2,x3\n", "x1,x2,x3", "x1,x2,x3\n\n  \n"])
    def test_header_only_csv_keeps_its_columns(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        back = read_points_csv(path)
        assert back.shape == (0, 3) and back.dtype == float

    def test_rows_after_a_blank_line_are_read(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n\n0.5,1.5\n2,3\n")
        assert read_points_csv(path).tolist() == [[0.5, 1.5], [2.0, 3.0]]
