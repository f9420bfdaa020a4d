"""Differential tests of the sort-once reductions against sort-every-time oracles.

`sud_estimate` sorts each span of shifts once per block of twists and keeps
each shift's window by index; `vacant_strip` bounds every direction from the
sub-window around the centre and fully sorts only the directions whose bound
can still win.  The oracles below compute the same quantities the direct way:
one sort per (shift, twist) matrix and one full sort per direction.  The fast
paths promise the same floats, so every comparison is exact.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import denseforest.analysis as analysis
from denseforest.analysis import (_central_width, _central_width_bound,
                                  _dual_direction_candidates, _m_samples,
                                  _shift_groups, _toroidal_dispersion,
                                  _xi_samples, sud_estimate, vacant_strip)
from denseforest.generators import (Grid, GridUnion, ThreeGrid,
                                    concat_linear_sequence, enumerate_points,
                                    golden_sequence, integer_lattice,
                                    quadratic_sequence, tsokanos_sequence)
from denseforest.geometry import Window

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


def strip_oracle(spec, window, candidate_directions=()):
    """Full-scan strip: every candidate direction sorts every projection.

    Returns (width, direction); raises ValueError where `vacant_strip` must.
    """
    pts = enumerate_points(spec, window)
    if pts.shape[0] < 2:
        raise ValueError("at least two points are required")
    groups = _dual_direction_candidates(spec, window.dim)
    for extra in candidate_directions:
        extra = np.asarray(extra, dtype=float)
        groups.append((extra / np.linalg.norm(extra))[None, :])
    if not groups:
        raise ValueError("no candidate directions")
    cands = np.concatenate(groups)
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
        # 65 twists: a full block of 64 rows and a block of one row.
        seq = quadratic_sequence(PHI)
        assert sud_estimate(seq, 257, 70, 65, 9).value == \
            sud_oracle(seq, 257, 70, 65, 9)

    def test_sampled_shifts_keep_spans_short(self):
        N, m_max = 8, 10 ** 5
        groups = _shift_groups(_m_samples(m_max), N)
        assert [m for g in groups for m in g] == _m_samples(m_max)
        assert all(g[-1] - g[0] <= N for g in groups)
        seq = tsokanos_sequence()
        assert sud_estimate(seq, N, m_max, 5, 6).value == \
            sud_oracle(seq, N, m_max, 5, 6)

    @pytest.mark.parametrize("N, m_max", [(1, 3), (17, 5), (12, 90)])
    def test_two_dimensional_sequence(self, N, m_max):
        seq = concat_linear_sequence([[PHI - 1.0, math.sqrt(2.0) - 1.0],
                                      [math.sqrt(3.0) - 1.0, math.e - 2.0]])
        assert sud_estimate(seq, N, m_max, 3, 4).value == \
            sud_oracle(seq, N, m_max, 3, 4)


class TestStripOracle:
    @given(st.lists(st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
                              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=3),
           st.floats(-12.0, -3.0), st.floats(-12.0, -3.0),
           st.floats(3.0, 12.0), st.floats(3.0, 12.0))
    @settings(max_examples=25, deadline=None)
    def test_random_grid_unions(self, grids, lo_x, lo_y, hi_x, hi_y):
        sheets = []
        for entries, tx, ty in grids:
            basis = np.asarray(entries).reshape(2, 2)
            assume(abs(np.linalg.det(basis)) >= 0.3)
            sheets.append(Grid(basis, np.array([tx, ty])))
        assert_strip_matches(GridUnion(tuple(sheets)),
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

    def test_tied_widths_report_first_candidate(self):
        # (0, 1) and (1, 0) both have width 1; (0, 1) sorts first.
        rep = assert_strip_matches(integer_lattice(2), Window.cube(20.0, 2))
        assert rep.width == 1.0
        assert list(rep.direction) == [0.0, 1.0]
