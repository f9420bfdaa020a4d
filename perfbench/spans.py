"""Spans around denseforest's cross-module callables, and the per-layer metrics.

``Tracer.install`` wraps, from outside the program, the public callables
through which one module calls another: the sheet ``enumerate`` and
``candidates_near`` methods, ``enumerate_points``, ``SequenceSpec.values`` and
``extended_values``, the point CSV reader and writer, ``sample_segments``,
the ``analysis`` and ``epsnet`` entry points and the box samplers.  The
harness opens one root span per CLI command.

A span is ``[name, start, end, parent, command, post, counts]``.  ``post`` is
the time the wrapper spent counting after the span ended; it is charged to no
layer, so self times exclude the tracer's own counting.  Spans stay in
memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

NAME, START, END, PARENT, CMD, POST, COUNTS = range(7)

ANALYSIS_ENTRY_POINTS = (
    "dispersion", "discrepancy", "sud_estimate", "estimate_visibility",
    "check_visibility", "visibility_from_segments", "find_empty_tube",
    "vacant_strip", "density_profile", "min_gap", "heavy_box", "udt_check")
EPSNET_ENTRY_POINTS = ("hw_net", "d2_aligned_net", "verify_net", "slab_lower_bound",
                       "sample_aligned_box", "sample_rotated_box")
SHEET_CLASSES = ("LatticeSheet", "SequenceSheet", "D2Sheet", "CutProjectSheet")

# CLI subcommands the workloads run; each gets a cli.cmd.<name>_s metric.
SUBCOMMANDS = ("visibility", "sud", "generate", "strip", "mingap", "discrepancy",
               "net", "verify-net", "heavy-box", "dispersion")


# ---------------------------------------------------------------------------
# Counters taken at each boundary: (args, kwargs, result) -> dict
# ---------------------------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _written_rows(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return {"rows": int(np.atleast_2d(np.asarray(pts)).shape[0])}


def _candidates(args, kwargs, result):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    radius = args[2] if len(args) > 2 else kwargs["radius"]
    pts, rows = result
    diff = np.take(queries, rows, axis=0)
    np.subtract(pts, diff, out=diff)
    np.abs(diff, out=diff)
    far = diff[:, 0].copy()  # column-wise max: much faster than max(axis=1)
    for j in range(1, diff.shape[1]):
        np.maximum(far, diff[:, j], out=far)
    return {"queries": int(queries.shape[0]), "rows": int(pts.shape[0]),
            "within": int(np.count_nonzero(far <= radius))}


def _segments(args, kwargs, result):
    return {"rows": len(result)}


def _sud(args, kwargs, result):
    pairs = len(result.m_samples) * int(result.xi_samples)
    return {"pairs": pairs, "sorted": pairs * int(result.N)}


def _discrepancy_units(args, kwargs, result):
    """Work units as the program's guard counts them, from the input points."""
    pts = np.asarray(args[0] if args else kwargs["points"], dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if pts.shape[1] == 1:
        return {"units": int(np.unique(np.concatenate([pts[:, 0], [0.0, 1.0]])).size)}
    m = int(np.unique(np.concatenate([pts[:, 1], [0.0, 1.0]])).size)
    return {"units": m * (m + 1) // 2 * (n + 2)}


def _net(args, kwargs, result):
    return {"rows": int(result.size)}


def _verify(args, kwargs, result):
    return {"boxes": int(result.boxes_tested),
            "hits": int(round(result.hit_fraction * result.boxes_tested))}


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.command, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, count, args, kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            span[COUNTS] = count(args, kwargs, result)
            span[POST] = time.perf_counter() - span[END]
        return result

    def command_span(self, command: int, subcommand: str, fn, args, bytes_written):
        """Run ``fn(*args)`` as the root span ``cli.run`` of one CLI command.

        ``bytes_written()`` is called after the span ends, outside every layer.
        """
        self.command = command
        span = self._open("cli.run")
        span[COUNTS] = {"subcommand": subcommand}
        try:
            return fn(*args)
        finally:
            self._close(span)
            span[COUNTS]["bytes_written"] = bytes_written()
            span[POST] = time.perf_counter() - span[END]

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, count, args, kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, attr, name, count):
        """Replace ``module.attr`` in every denseforest module that imported it."""
        orig = getattr(module, attr)
        wrapped = self._wrap(name, orig, count)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "denseforest" or mod_name.startswith("denseforest.")) \
                    and getattr(mod, attr, None) is orig:
                self._patch(mod, attr, wrapped)

    def install(self):
        from denseforest import analysis, epsnet, generators, geometry
        for cls_name in SHEET_CLASSES:
            cls = getattr(generators, cls_name)
            if "enumerate" in cls.__dict__:
                self._patch(cls, "enumerate", self._wrap(
                    f"generators.{cls_name}.enumerate", cls.__dict__["enumerate"], _rows))
            if "candidates_near" in cls.__dict__:
                self._patch(cls, "candidates_near", self._wrap(
                    f"generators.{cls_name}.candidates_near",
                    cls.__dict__["candidates_near"], _candidates))
        for attr in ("values", "extended_values"):
            self._patch(generators.SequenceSpec, attr, self._wrap(
                f"generators.SequenceSpec.{attr}",
                generators.SequenceSpec.__dict__[attr], _rows))
        self._patch_function(generators, "enumerate_points",
                             "generators.enumerate_points", _rows)
        self._patch_function(generators, "write_points_csv",
                             "generators.write_points_csv", _written_rows)
        self._patch_function(generators, "read_points_csv",
                             "generators.read_points_csv", _rows)
        self._patch_function(geometry, "sample_segments", "geometry.sample_segments",
                             _segments)
        analysis_counts = {"sud_estimate": _sud, "discrepancy": _discrepancy_units}
        for attr in ANALYSIS_ENTRY_POINTS:
            self._patch_function(analysis, attr, f"analysis.{attr}",
                                 analysis_counts.get(attr))
        epsnet_counts = {"hw_net": _net, "d2_aligned_net": _net, "verify_net": _verify}
        for attr in EPSNET_ENTRY_POINTS:
            self._patch_function(epsnet, attr, f"epsnet.{attr}", epsnet_counts.get(attr))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "command": s[CMD], "post": s[POST],
                    "counts": s[COUNTS]}) + "\n")


RATIOS = ("generators.candidate_yield", "analysis.probe_steps_per_probe",
          "epsnet.box_hit_ratio")


def unit(metric: str) -> str:
    if metric in RATIOS:
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans of one pass
# ---------------------------------------------------------------------------

def _group(name: str) -> str:
    """The layer operation a span belongs to, for outermost-span totals."""
    if name.endswith(".enumerate") or name == "generators.enumerate_points":
        return "enumerate"
    if name.endswith(".candidates_near"):
        return "candidates"
    if name.startswith("generators.SequenceSpec."):
        return "seq_values"
    if name in ("epsnet.sample_aligned_box", "epsnet.sample_rotated_box"):
        return "sample"
    if name in ("epsnet.hw_net", "epsnet.d2_aligned_net"):
        return "build"
    return name


def layer_metrics(spans: list, indices: range) -> dict:
    """Per-layer times and counts over ``spans[indices]`` (one pass)."""
    first, n = indices.start, indices.stop
    child_cost = [0.0] * n   # duration + post of direct children
    inner_post = [0.0] * n   # post of all descendants
    for j in range(n - 1, first - 1, -1):
        p = spans[j][PARENT]
        if p >= first:
            child_cost[p] += spans[j][END] - spans[j][START] + spans[j][POST]
            inner_post[p] += inner_post[j] + spans[j][POST]

    total, self_time, calls, counts = {}, {}, {}, {}
    for j in range(first, n):
        s = spans[j]
        dur = s[END] - s[START]
        self_time[s[NAME]] = self_time.get(s[NAME], 0.0) + dur - child_cost[j]
        group = _group(s[NAME])
        p = s[PARENT]
        while p >= first and _group(spans[p][NAME]) != group:
            p = spans[p][PARENT]
        if p >= first:
            continue  # nested in a span of the same operation: counted there
        key = group if group != "cli.run" else f"cli.cmd.{s[COUNTS]['subcommand']}"
        total[key] = total.get(key, 0.0) + dur - inner_post[j]
        calls[key] = calls.get(key, 0) + 1
        for k, v in (s[COUNTS] or {}).items():
            if isinstance(v, int):
                counts[(key, k)] = counts.get((key, k), 0) + v

    def tot(key):
        return total.get(key, 0.0)

    def own(*names):
        return sum(self_time.get(name, 0.0) for name in names)

    def cnt(key, field):
        return counts.get((key, field), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    segments = cnt("geometry.sample_segments", "rows")
    probe_steps = cnt("candidates", "queries")
    units = cnt("analysis.discrepancy", "units")
    m = {
        "cli.self_s": own("cli.run"),
        "cli.bytes_written": sum(v for (k, f), v in counts.items() if f == "bytes_written"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.cmd.{sub}_s"] = tot(f"cli.cmd.{sub}")
    m.update({
        "generators.enumerate_s": tot("enumerate"),
        "generators.points_enumerated": cnt("enumerate", "rows"),
        "generators.candidates_s": tot("candidates"),
        "generators.candidate_calls": calls.get("candidates", 0),
        "generators.candidate_rows": cnt("candidates", "rows"),
        "generators.candidate_yield": ratio(cnt("candidates", "within"),
                                            cnt("candidates", "rows")),
        "generators.seq_values_s": tot("seq_values"),
        "generators.seq_values": cnt("seq_values", "rows"),
        "generators.csv_write_s": tot("generators.write_points_csv"),
        "generators.csv_read_s": tot("generators.read_points_csv"),
        "generators.csv_rows": cnt("generators.write_points_csv", "rows")
                               + cnt("generators.read_points_csv", "rows"),
        "geometry.sample_segments_s": tot("geometry.sample_segments"),
        "geometry.segments": segments,
        "analysis.visibility_self_s": own("analysis.estimate_visibility",
                                          "analysis.check_visibility",
                                          "analysis.visibility_from_segments"),
        "analysis.probe_steps": probe_steps,
        "analysis.probe_steps_per_probe": ratio(probe_steps, segments),
        "analysis.sud_self_s": own("analysis.sud_estimate"),
        "analysis.sud_pairs": cnt("analysis.sud_estimate", "pairs"),
        "analysis.sud_values_sorted": cnt("analysis.sud_estimate", "sorted"),
        "analysis.strip_self_s": own("analysis.vacant_strip"),
        "analysis.mingap_self_s": own("analysis.min_gap"),
        "analysis.discrepancy_s": tot("analysis.discrepancy"),
        "analysis.discrepancy_units": units,
        "analysis.discrepancy_units_per_s": ratio(units, tot("analysis.discrepancy")),
        "analysis.heavy_box_s": tot("analysis.heavy_box"),
        "analysis.dispersion_s": tot("analysis.dispersion"),
        "epsnet.build_s": tot("build"),
        "epsnet.net_points": cnt("build", "rows"),
        "epsnet.verify_self_s": own("epsnet.verify_net"),
        "epsnet.sample_s": tot("sample"),
        "epsnet.boxes_sampled": calls.get("sample", 0),
        "epsnet.box_hit_ratio": ratio(cnt("epsnet.verify_net", "hits"),
                                      cnt("epsnet.verify_net", "boxes")),
        "trace.spans": n - first,
    })
    return m
