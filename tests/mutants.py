"""Mutation check of the pruning bounds and fast paths.

A mutant is a copy of the program with one deliberate bug.  For each site
of ``SITES`` this script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, rewrites one occurrence of the site's source
pattern inside the named function, and runs the tests that own the site:

    python -m pytest OWNERS --hypothesis-seed=0 -x -q -p no:cacheprovider

A mutant is killed when a test fails or the run passes its timeout, and
survives when every owning test passes.  A survivor whose site records an
argument (``equivalent``) is reported as equivalent: the argument says why
no output of the program can change.  Every other survivor is a gap in the
tests.  The owning tests are first run once on the unchanged copy.

    python3 tests/mutants.py              # every site
    python3 tests/mutants.py --only NAME  # some sites, by name prefix

The script uses the standard library only; tier-1 does not collect it
(``tests/test_mutation_sites.py`` checks its table against the source).
The mutation kinds are those of DeMillo, Lipton and Sayward, "Hints on
Test Data Selection" (IEEE Computer, 1978): comparison flips, dropped
margin terms, reversed sort or heap orders, and +-1 on a stride, period or
run end.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANALYSIS = "src/denseforest/analysis.py"
EPSNET = "src/denseforest/epsnet.py"
GENERATORS = "src/denseforest/generators.py"
GEOMETRY = "src/denseforest/geometry.py"
ORACLES = "tests/test_reduction_oracles.py::"
TIMEOUT = 180


@dataclass(frozen=True)
class Site:
    """One mutant: in function ``func`` (a qualified name) of ``path``,
    occurrence ``nth`` of ``old``, which occurs ``count`` times there, becomes
    ``new``.  ``tests`` are the node IDs that own it; ``equivalent``, when
    given, argues why the mutant cannot change any output."""

    name: str
    path: str
    func: str
    old: str
    new: str
    tests: tuple
    count: int = 1
    nth: int = 0
    equivalent: str = ""


def owners(*classes):
    return tuple(c if "/" in c else ORACLES + c for c in classes)


DISCREPANCY = owners("TestDiscrepancyOracle")
SUD = owners("TestSUDOracle")
STRIP = owners("TestCentralRunOracle", "TestStripOracle", "TestStripCoarseTier",
               "TestStripSpacingTier")
WALK = owners("TestProbeFirstHits", "TestColumnSkip", "TestShrinkingWalkOracle",
              "TestLiveProbeWalk", "TestWalkWork", "TestCoordinateMajorWalk")
VERIFY = owners("TestVerifyNetOracle")
ENUMERATION = owners("TestLatticeEnumerationOracle")
HEAVY = owners("TestHeavyBoxOracle")
GRID = owners("TestGridBoundOracle")
MIN_GAP = owners("TestMinGapOracle")
CELLS = owners("tests/test_geometry.py::TestCellIndex", "TestMinGapOracle",
               "TestVerifyNetOracle")
PAIRS = owners("tests/test_geometry.py::TestRunPairs", "TestMinGapOracle",
               "TestVerifyNetOracle")

RUNS_MARGIN = ("the margin 8 (d + 3) u scale moves each quotient by more than the "
               "rounding of its numerator, about (d + 3) u scale, and of the division, "
               "u |q| with |q b| <= scale; so a row that the widening adds lies outside "
               "the window by the margin, and the window's own test drops its point")

SITES = [
    # -- discrepancy ---------------------------------------------------------
    Site("slabs-closed-end-1", ANALYSIS, "_Slabs.bounds",
         "total[b + 1] - total[a]", "total[b] - total[a]", DISCREPANCY),
    Site("slabs-open-start-1", ANALYSIS, "_Slabs.bounds",
         "total[np.maximum(b, a + 1)]", "total[np.maximum(b, a)]", DISCREPANCY,
         equivalent="it changes the open count O only for b = a, whose open slab "
         "is empty: it reads minus the points on level a, so O_U - O grows and the "
         "under bound only loosens, which sends more slabs to the exact scan"),
    Site("slabs-drop-width", ANALYSIS, "_Slabs.bounds",
         "(h * width - h_in)", "(h - h_in)", DISCREPANCY,
         equivalent="W = 1 + E with E <= 2e-12 by the input check, so the bound "
         "falls by h E <= 2e-12, far inside the 2^-30 margin of the pruning"),
    Site("slabs-inner-as-outer", ANALYSIS, "_Slabs.bounds",
         "i, j = self.ceil[a], self.floor[b]", "i, j = self.floor[a], self.ceil[b]",
         DISCREPANCY),
    Site("slabs-grid-start+1", ANALYSIS, "_Slabs.__init__",
         "np.arange(0, m - 1,", "np.arange(1, m - 1,", DISCREPANCY),
    Site("slabs-coarse-step+1", ANALYSIS, "_Slabs.__init__",
         "_coarse_step(m))", "_coarse_step(m) + 1)", DISCREPANCY),
    Site("disc-drop-margin", ANALYSIS, "_discrepancy_2d",
         " + 2.0 ** -30", "", DISCREPANCY),
    Site("disc-live-flip", ANALYSIS, "_discrepancy_2d",
         "rows = rows[bound[rows] > best]", "rows = rows[bound[rows] < best]",
         DISCREPANCY),
    Site("disc-ascending", ANALYSIS, "_discrepancy_2d",
         "np.argsort(-bound[live]", "np.argsort(bound[live]", DISCREPANCY),
    # -- SUD -----------------------------------------------------------------
    Site("core-block-end-1", ANALYSIS, "_core_bounds",
         "k = min(rows, count - b)", "k = min(rows, count - b - 1)", SUD, count=2, nth=1),
    Site("core-descending", ANALYSIS, "_core_bounds",
         "s.sort(axis=1)", "s[:] = -np.sort(-s, axis=1)", SUD),
    Site("core-twist-stride+1", ANALYSIS, "_core_bounds",
         "xis[b:b + k], w[:k], tmp[:k]", "xis[b + 1:b + k + 1], w[:k], tmp[:k]", SUD),
    Site("run-batch-ge", ANALYSIS, "_run_dispersion_max",
         "batch = batch[bound[batch] > best]", "batch = batch[bound[batch] >= best]",
         SUD),
    Site("run-loop-ge", ANALYSIS, "_run_dispersion_max",
         "bound[order[start]] > best", "bound[order[start]] >= best", SUD),
    Site("run-ascending", ANALYSIS, "_run_dispersion_max",
         "np.argsort(-bound,", "np.argsort(bound,", SUD),
    Site("run-batch-start+1", ANALYSIS, "_run_dispersion_max",
         "start, size = start + size,", "start, size = start + size + 1,", SUD),
    Site("run-core-end-1", ANALYSIS, "_run_dispersion_max",
         "_core_bounds(vs[span:N], idx[span:N], xis)",
         "_core_bounds(vs[span:N - 1], idx[span:N - 1], xis)", SUD),
    # -- strip ---------------------------------------------------------------
    Site("spacing-chord-margin", ANALYSIS, "_spacing_bounds",
         "chords >= step + 1.0", "chords >= step", STRIP),
    Site("spacing-drop-2e", ANALYSIS, "_spacing_bounds",
         "np.where(ok, s + 2.0 * err, math.inf)", "np.where(ok, s, math.inf)", STRIP),
    Site("spacing-reach-1", ANALYSIS, "_spacing_bounds",
         "float(np.max(np.abs(images))) + 1.0", "float(np.max(np.abs(images)))", STRIP,
         equivalent="|m| over the window is largest at a corner, so M falls short of "
         "it by the rounding of the corner images, a relative 1e-15; E's other "
         "terms, the 2e-9 merge term alone, cover that many times over"),
    Site("spacing-band-margin", ANALYSIS, "_spacing_bounds",
         "half = bulk + 2.0 * eps + s", "half = bulk + s", STRIP,
         equivalent="the level l_j lies within bulk + s/2 of c.u plus the midpoint's "
         "rounding, and the proof needs it s/4 inside the checked chords; at "
         "bulk + s that leaves s/2 less that rounding, since 4E < s is checked"),
    Site("spacing-err-flip", ANALYSIS, "_spacing_bounds",
         "4.0 * err < s", "4.0 * err > s", STRIP),
    Site("central-drop-2eps", ANALYSIS, "_central_width_bound",
         "np.diff(q[first:last + 1]))) + 2.0 * eps", "np.diff(q[first:last + 1])))",
         STRIP),
    Site("central-size-le", ANALYSIS, "_central_width_bound",
         "q.size < 2", "q.size <= 2", STRIP,
         equivalent="two projections past both ends of the band give the one gap "
         "that holds the band; reading inf there only sends the direction on to "
         "the next tier, whose bound or sort decides it"),
    Site("central-lo-gt", ANALYSIS, "_central_width_bound",
         "q[0] >= lo", "q[0] > lo", STRIP),
    Site("central-hi-lt", ANALYSIS, "_central_width_bound",
         "q[-1] <= hi", "q[-1] < hi", STRIP),
    Site("central-first+1", ANALYSIS, "_central_width_bound",
         "int(np.searchsorted(q, lo)) - 1", "int(np.searchsorted(q, lo))", STRIP),
    Site("central-last-1", ANALYSIS, "_central_width_bound",
         'int(np.searchsorted(q, hi, side="right"))',
         'int(np.searchsorted(q, hi, side="right")) - 1', STRIP),
    Site("heap-stop-le", ANALYSIS, "vacant_strip",
         "-top < best_width or", "-top <= best_width or", STRIP,
         equivalent="every bound in the heap is above its direction's own width: "
         "the subset bounds by 2 eps, the spacing bound by its margin 2E, each at "
         "least twice the rounding it covers; so a direction whose bound equals "
         "the best width cannot tie it, and stopping there drops no tie"),
    Site("heap-reversed", ANALYSIS, "vacant_strip",
         "heap = [(-b, k, 0)", "heap = [(b, k, 0)", STRIP),
    Site("heap-width-ge", ANALYSIS, "vacant_strip",
         "(width > best_width", "(width >= best_width", STRIP),
    # -- probe walk ----------------------------------------------------------
    Site("walk-drop-widening", ANALYSIS, "_ColumnWalk.__init__",
         "rp = r + 1e-9 * (", "rp = r + 0.0 * (", WALK),
    Site("skip-drop-left-margin", ANALYSIS, "_ColumnWalk.skip",
         "left = lo - m - self.margin", "left = lo - m", WALK),
    Site("skip-drop-right-margin", ANALYSIS, "_ColumnWalk.skip",
         "right = m + 1.0 - hi - self.margin", "right = m + 1.0 - hi", WALK),
    Site("skip-period+1", ANALYSIS, "_ColumnWalk.skip",
         "range(1, SKIP_MAX_PERIOD + 1)", "range(1, SKIP_MAX_PERIOD + 2)", WALK),
    Site("skip-dominant-flip", ANALYSIS, "_ColumnWalk.skip",
         "[:, None] != self.axis)", "[:, None] == self.axis)", WALK),
    Site("skip-drift-flip", ANALYSIS, "_ColumnWalk.skip",
         "np.where(delta > 0.0,", "np.where(delta < 0.0,", WALK),
    Site("skip-end+1", ANALYSIS, "_ColumnWalk.skip",
         "- self.start) + 1.0", "- self.start) + 2.0", WALK),
    Site("keep-flip", ANALYSIS, "_ColumnWalk.keep",
         "if not live.all():", "if live.all():", WALK),
    Site("keep-axis", ANALYSIS, "_ColumnWalk.keep",
         "axis=a.ndim - 1", "axis=0", WALK),
    Site("walk-drop-guard", ANALYSIS, "_walk_lattice_sheets",
         "guard = 1e-9 * (1.0 + horizons)", "guard = 0.0 * (1.0 + horizons)", WALK,
         equivalent="the widening of r_a already enters each column 1e-9 (1 + |y0| "
         "+ horizon |u|) / speed before any point of it can score, far above the "
         "rounding of either time, so a probe dropped without the guard has no "
         "point left that scores below min(first, horizon)"),
    Site("walk-entered-lt", ANALYSIS, "_walk_lattice_sheets",
         "walk.entry(walk.done) <= limit", "walk.entry(walk.done) < limit", WALK,
         equivalent="a column entered at exactly min(first, horizon) + guard holds "
         "no point that scores below min(first, horizon): the guard, 1e-9 of the "
         "horizon, is far above the rounding of the entry"),
    Site("walk-done+1", ANALYSIS, "_walk_lattice_sheets",
         "walk.done += columns", "walk.done += columns + 1", WALK),
    Site("walk-done-1", ANALYSIS, "_walk_lattice_sheets",
         "walk.done += columns", "walk.done += columns - 1", WALK),
    # -- net certificate -----------------------------------------------------
    Site("cert-drop-rotated-margin", EPSNET, "_certified_hits",
         "hw - ROTATED_HIT_MARGIN, hh - ROTATED_HIT_MARGIN", "hw, hh", VERIFY),
    Site("cert-face-strict", EPSNET, "_certified_hits",
         "(x <= x1)", "(x < x1)", VERIFY),
    Site("cert-open-flip", EPSNET, "_certified_hits",
         "boxes = boxes[~hits[boxes]]", "boxes = boxes[hits[boxes]]", VERIFY),
    Site("cert-outer-end-1", EPSNET, "_certified_hits",
         "row - 1, row + 2]", "row - 1, row + 1]", VERIFY,
         equivalent="a certificate's False decides nothing: a box that the "
         "dropped cell would certify goes to the full-net check"),
    Site("cert-descending", EPSNET, "_certified_hits",
         "boxes = np.argsort(keys)", "boxes = np.argsort(-keys)", VERIFY),
    # -- lattice enumeration -------------------------------------------------
    Site("runs-drop-margin", GENERATORS, "LatticeSheet._last_axis_runs",
         "margin = (d + 3) * 2.0 ** -50 * scale", "margin = 0.0 * scale", ENUMERATION),
    Site("runs-first-widen", GENERATORS, "LatticeSheet._last_axis_runs",
         "np.ceil(q_lo) - 1.0", "np.ceil(q_lo)", ENUMERATION, equivalent=RUNS_MARGIN),
    Site("runs-last-widen", GENERATORS, "LatticeSheet._last_axis_runs",
         "np.floor(q_hi) + 1.0", "np.floor(q_hi)", ENUMERATION, equivalent=RUNS_MARGIN),
    Site("runs-sign-flip", GENERATORS, "LatticeSheet._last_axis_runs",
         "if b < 0.0:", "if b > 0.0:", ENUMERATION),
    Site("runs-clip-end-1", GENERATORS, "LatticeSheet._last_axis_runs",
         "np.minimum(first, hi[-1] + 1.0)", "np.minimum(first, hi[-1])", ENUMERATION),
    # -- heavy box -----------------------------------------------------------
    Site("heavy-live-ge", ANALYSIS, "_best_aligned_box",
         "np.flatnonzero(i1 - i0 > best_cnt)", "np.flatnonzero(i1 - i0 >= best_cnt)",
         HEAVY, equivalent="it only lets more anchors through to the exact count, "
         "which keeps the best count and its box; it changes work, not any value"),
    Site("heavy-top-ge", ANALYSIS, "_best_aligned_box",
         "if top[r] > best_cnt:", "if top[r] >= best_cnt:", HEAVY),
    Site("heavy-next-block+1", ANALYSIS, "_best_aligned_box",
         "live = live[blk.size:]", "live = live[blk.size + 1:]", HEAVY),
    Site("heavy-slab-side", ANALYSIS, "_best_aligned_box",
         'np.searchsorted(primary, anchors + width, side="right")',
         'np.searchsorted(primary, anchors + width, side="left")', HEAVY),
    Site("heavy-stride+1", ANALYSIS, "_best_aligned_box",
         "stride = max(1, n // 256)", "stride = max(1, n // 256 + 1)", HEAVY),
    # -- dispersion grid bound -----------------------------------------------
    Site("grid-free-flip", ANALYSIS, "_grid_bound",
         "np.flatnonzero(~_covered(", "np.flatnonzero(_covered(", GRID),
    Site("grid-sample-start+1", ANALYSIS, "_grid_bound",
         "np.arange(0, m, -(-m // per_axis))", "np.arange(1, m, -(-m // per_axis))",
         GRID, equivalent="the loop ends only when no node is left uncovered, so "
         "the first sample changes the rounds, not the bound"),
    Site("covered-lo-strict", ANALYSIS, "_covered",
         "(p - v <= r)", "(p - v < r)", GRID),
    Site("covered-hi-ge", ANALYSIS, "_covered",
         "(v - p > r)", "(v - p >= r)", GRID),
    Site("covered-inside-le", ANALYSIS, "_covered",
         "i < m for i, m", "i <= m for i, m", GRID),
    Site("covered-sign-swap", ANALYSIS, "_covered",
         "np.subtract.at if sum(corner) % 2 else np.add.at",
         "np.add.at if sum(corner) % 2 else np.subtract.at", GRID),
    Site("covered-block-end-1", ANALYSIS, "_covered",
         "[start:start + step]", "[start:start + step - 1]", GRID),
    # -- min gap -------------------------------------------------------------
    Site("gap-drop-margin", ANALYSIS, "_min_gap",
         "math.sqrt(r2) * (1.0 + 1e-9)", "math.sqrt(r2)", MIN_GAP),
    Site("gap-row-end-1", ANALYSIS, "_min_gap",
         "(row - 1, row + 2)", "(row - 1, row + 1)", MIN_GAP),
    Site("gap-own-start+1", ANALYSIS, "_min_gap",
         "np.arange(first + 1, first + own.size + 1)",
         "np.arange(first + 2, first + own.size + 2)", MIN_GAP),
    Site("gap-forward-ge", ANALYSIS, "_min_gap",
         "if lead > (0,) * (d - 1)", "if lead >= (0,) * (d - 1)", MIN_GAP),
    # -- cell index and pair runs --------------------------------------------
    Site("cells-window-end-1", GEOMETRY, "CellIndex.rows",
         "keys[-1] + offsets.max()]", "keys[-1] + offsets.max() - 1]", CELLS),
    Site("cells-side-right", GEOMETRY, "CellIndex.rows",
         "keys + offsets[:, None])", 'keys + offsets[:, None], side="right")', CELLS),
    Site("pairs-block-side", GEOMETRY, "run_pairs",
         'done + PAIR_BLOCK], side="right")', 'done + PAIR_BLOCK], side="left")', PAIRS),
    Site("pairs-one-run-1", GEOMETRY, "run_pairs",
         "hi = max(hi, lo + 1)", "hi = max(hi, lo)", PAIRS),
    Site("pairs-cols+1", GEOMETRY, "run_pairs",
         "np.arange(done, upto)", "np.arange(done + 1, upto + 1)", PAIRS),
]


def function_span(source: str, qualname: str):
    """(first, last) line numbers, 1-based and inclusive, of the function
    ``qualname`` (``Class.method`` or ``function``) in ``source``."""
    body = ast.parse(source).body
    node = None
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == part),
            None)
        if node is None:
            raise LookupError(f"{qualname}: no {part}")
        body = node.body
    return node.lineno, node.end_lineno


def mutate(source: str, site: Site) -> str:
    """``source`` with the site's mutation applied; raises LookupError when
    the site's pattern does not occur ``site.count`` times in its function."""
    first, last = function_span(source, site.func)
    lines = source.splitlines(keepends=True)
    text = "".join(lines[first - 1:last])
    found = text.count(site.old)
    if found != site.count:
        raise LookupError(f"{site.name}: {site.old!r} occurs {found} times in "
                          f"{site.func}, not {site.count}")
    at = -1
    for _ in range(site.nth + 1):
        at = text.index(site.old, at + 1)
    text = text[:at] + site.new + text[at + len(site.old):]
    return "".join(lines[:first - 1]) + text + "".join(lines[last:])


def copy_tree(dest: str):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(tree: str, tests) -> tuple:
    """(outcome, seconds, first failing test) of the owning tests in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", *tests, "--hypothesis-seed=0", "-x", "-q",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", time.perf_counter() - start, f"timeout after {TIMEOUT} s"
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", seconds, ""
    failed = [line.split(" - ")[0].split("::", 1)[-1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode == 1 and failed:
        return "killed", seconds, failed[0]
    return "error", seconds, ((proc.stdout + proc.stderr).strip().splitlines() or [""])[-1]


def run_site(site: Site) -> tuple:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        copy_tree(tree)
        path = os.path.join(tree, site.path)
        with open(path) as f:
            source = f.read()
        with open(path, "w") as f:
            f.write(mutate(source, site))
        outcome, seconds, why = run_tests(tree, site.tests)
    if outcome == "survived" and site.equivalent:
        outcome, why = "equivalent", site.equivalent
    return outcome, seconds, why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="*", default=(), help="site name prefixes")
    args = parser.parse_args(argv)
    sites = [s for s in SITES if not args.only or s.name.startswith(tuple(args.only))]
    tests = sorted({t for s in sites for t in s.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        copy_tree(tree)
        outcome, seconds, why = run_tests(tree, tests)
    print(f"{'baseline':26} {outcome:10} {seconds:6.1f} s  {why}", flush=True)
    if outcome != "survived":
        return 2
    counts = {}
    start = time.perf_counter()
    for site in sites:
        outcome, seconds, why = run_site(site)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{site.name:26} {outcome:10} {seconds:6.1f} s  {why}", flush=True)
    total = time.perf_counter() - start
    print(", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
          + f" of {len(sites)} mutants in {total:.0f} s")
    return 1 if counts.get("survived") or counts.get("error") else 0


if __name__ == "__main__":
    sys.exit(main())
