"""Command-line interface with reproducible CSV/JSON output.

Every subcommand writes exactly one output document plus a `<out>.meta.json`
sidecar recording the tool version, the full parsed configuration, and the
seed, so each result can be regenerated byte-for-byte.  Exit codes: 0 on
success, 2 on argument errors, 3 when a resource limit is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import (density_profile, discrepancy, dispersion,
                       estimate_visibility, find_empty_tube, heavy_box,
                       min_gap, sud_estimate, udt_check, vacant_strip)
from .epsnet import Net, d2_aligned_net, hw_net, slab_lower_bound, verify_net
from .errors import ResourceLimitError
from .generators import (PeresForest, concat_linear_sequence,
                         default_cut_and_project, enumerate_points,
                         golden_sequence, integer_lattice, json_loads, load_spec,
                         quadratic_sequence, read_points_csv,
                         tsokanos_sequence, write_points_csv, D2, PHI,
                         ThreeGrid)
from .geometry import Window, box_json

SPEC_PRESETS = {
    "peres": PeresForest,
    "d2": D2,
    "three-grid": ThreeGrid,
    "z2": integer_lattice,
    "cut-and-project": default_cut_and_project,
}


def _parse_spec(text: str):
    maker = SPEC_PRESETS.get(text.strip().lower())
    if maker is not None:
        return maker()
    if not os.path.exists(text):
        presets = ", ".join(sorted(SPEC_PRESETS))
        raise ValueError(f"unknown spec {text!r}: expected a preset "
                         f"({presets}) or a path to a spec JSON file")
    return load_spec(text)


def _parse_seq(args):
    name = args.seq.strip().lower()
    if name == "golden":
        return golden_sequence()
    if name == "tsokanos":
        return tsokanos_sequence()
    if name == "quadratic":
        return quadratic_sequence(args.alpha)
    if name == "concat-linear":
        if not args.thetas:
            raise ValueError("concat-linear requires --thetas")
        return concat_linear_sequence(_json_numbers(args.thetas))
    raise ValueError(f"unknown sequence: {args.seq!r}")


def _json_numbers(text: str):
    """A JSON flag of numbers and lists of them, integers read as floats (inf
    past the float range); an object, string, true, false or null is refused."""
    doc = json_loads(text, parse_int=float)
    todo = [doc]
    while todo:
        value = todo.pop()
        if isinstance(value, list):
            todo.extend(value)
        elif not isinstance(value, float):
            raise ValueError(f"expected numbers and lists of them, got {value!r:.40}")
    return doc


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _write_json(path: str, doc):
    """Write doc as strict JSON: a NaN or infinity raises ValueError
    before the file is opened."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")


def _finite_or_none(value: float):
    """value, or None (JSON null) when it is infinite."""
    return value if math.isfinite(value) else None


def _write_meta(args, command: str):
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command")}
    _write_json(args.out + ".meta.json", {
        "tool": "denseforest",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "config": config,
    })


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_generate(args):
    spec = _parse_spec(args.spec)
    pts = enumerate_points(spec, Window.cube(args.radius, spec.dim))
    write_points_csv(args.out, pts)


def _cmd_dispersion(args):
    report = dispersion(read_points_csv(args.points))
    _write_json(args.out, report.to_json())


def _cmd_discrepancy(args):
    pts = read_points_csv(args.points)
    _write_json(args.out, {"N": int(pts.shape[0]), "value": discrepancy(pts)})


def _cmd_sud(args):
    seq = _parse_seq(args)
    rows = [(n, sud_estimate(seq, n, args.m_max, args.xi_count, args.seed).value)
            for n in _ints(args.n)]
    write_points_csv(args.out, np.reshape(rows, (-1, 2)), header=("N", "value"))


def _cmd_visibility(args):
    spec = _parse_spec(args.spec)
    window = Window.cube(args.radius, spec.dim)
    epsilons = _floats(args.eps)
    rows = list(zip(epsilons, estimate_visibility(spec, epsilons, args.l_max,
                                                  args.count, window, args.seed)))
    write_points_csv(args.out, np.reshape(rows, (-1, 2)),
                     header=("epsilon", "estimate"))


def _cmd_tube(args):
    spec = _parse_spec(args.spec)
    window = Window.cube(args.radius, spec.dim)
    directions = _json_numbers(args.directions)
    segment, length = find_empty_tube(spec, args.eps, window, directions,
                                      args.offsets)
    _write_json(args.out, {
        "base": list(segment.base),
        "direction": list(segment.direction),
        "length": length,
    })


def _cmd_strip(args):
    spec = _parse_spec(args.spec)
    window = Window.cube(args.radius, spec.dim)
    extras = _json_numbers(args.directions) if args.directions else []
    report = vacant_strip(spec, window, extras)
    _write_json(args.out, report.to_json())


def _cmd_density(args):
    spec = _parse_spec(args.spec)
    write_points_csv(args.out, density_profile(spec, _floats(args.radii)),
                     header=("T", "quotient"))


def _cmd_mingap(args):
    spec = _parse_spec(args.spec)
    window = Window.cube(args.radius, spec.dim)
    _write_json(args.out, {"min_gap": min_gap(spec, window)})


def _cmd_net(args):
    if args.method == "hw":
        net = hw_net(args.eps, args.d, args.C, args.seed)
    elif args.method == "d2":
        net = d2_aligned_net(args.eps)
    else:
        raise ValueError("net --method must be 'hw' or 'd2'")
    write_points_csv(args.out, net.points)


def _cmd_verify_net(args):
    pts = read_points_csv(args.net)
    if pts.shape[0] == 0:
        raise ValueError("the net CSV holds no points")
    net = Net(points=pts, epsilon=args.eps, method=args.method)
    report = verify_net(net, args.sampler, args.volume, args.trials, args.seed)
    doc = report.to_json()
    slab = slab_lower_bound(net.points, dim=net.dim)
    doc["slab_lower_bound"] = {"intervals": slab.intervals.tolist(),
                               "volume": slab.volume}
    _write_json(args.out, doc)


def _cmd_udt(args):
    thetas = _json_numbers(args.thetas)
    xi = _json_numbers(args.xi)
    best, margin = udt_check(thetas, xi, args.t)
    _write_json(args.out, {"best_index": best, "margin": margin, "T": args.t})


def _cmd_heavy_box(args):
    pts = read_points_csv(args.points)
    box, count = heavy_box(pts, args.eps, rotation_samples=args.rotations,
                           seed=args.seed)
    doc = box_json(box)
    doc["count"] = count
    doc["volume"] = box.volume
    _write_json(args.out, doc)


def _cmd_calibrate(args):
    spec = PeresForest()
    window = Window.cube(args.radius, 2)
    epsilons = _floats(args.eps)
    estimates = estimate_visibility(spec, epsilons, args.l_max, args.count,
                                    window, args.seed)
    doc = {
        "peres_visibility": {
            "epsilons": epsilons,
            "estimates": [_finite_or_none(v) for v in estimates],
            "check_lengths": [_finite_or_none(2.0 * v) for v in estimates],
            "count": args.count,
            "radius": args.radius,
            "l_max": args.l_max,
            "seed": args.seed,
        },
    }
    _write_json(args.out, doc)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The flags every subcommand takes, then each subcommand as name: (function,
# help, its own flags), in the order --help lists them.  A flag is (name,
# add_argument keywords).  Plain data: no parser is built at import.
COMMON_FLAGS = (
    ("--out", dict(required=True, help="output file path")),
    ("--threads", dict(type=int, default=1, help="accepted and ignored")),
    ("--seed", dict(type=int, default=0, help="RNG seed")),
)
SPEC_FLAG = ("--spec", dict(required=True))
RADIUS_FLAG = ("--radius", dict(type=float, default=50.0))
COMMANDS = {
    "generate": (_cmd_generate, "enumerate a point set over a window", (
        ("--spec", dict(required=True,
                        help="preset name or path to a spec JSON file")),
        ("--radius", dict(type=float, required=True)))),
    "dispersion": (_cmd_dispersion, "exact/grid dispersion of a CSV point set", (
        ("--points", dict(required=True, help="input CSV of points")),)),
    "discrepancy": (_cmd_discrepancy, "exact box discrepancy of a CSV point set", (
        ("--points", dict(required=True)),)),
    "sud": (_cmd_sud, "super-uniform dispersion estimates over N", (
        ("--seq", dict(required=True,
                       help="golden | tsokanos | quadratic | concat-linear")),
        ("--alpha", dict(type=float, default=PHI,
                         help="coefficient for the quadratic sequence")),
        ("--thetas", dict(help="JSON list of vectors for concat-linear")),
        ("--n", dict(required=True, help="comma-separated N values")),
        ("--m-max", dict(type=int, default=64)),
        ("--xi-count", dict(type=int, default=256)))),
    "visibility": (_cmd_visibility, "visibility estimates per epsilon", (
        SPEC_FLAG,
        ("--eps", dict(required=True, help="comma-separated epsilons")),
        ("--l-max", dict(type=float, default=4096.0)),
        ("--count", dict(type=int, default=10000)),
        RADIUS_FLAG)),
    "tube": (_cmd_tube, "longest segment avoiding all points by eps", (
        SPEC_FLAG,
        ("--eps", dict(type=float, required=True)),
        RADIUS_FLAG,
        ("--directions", dict(default="[[1,0],[0,1]]",
                              help="JSON list of direction vectors")),
        ("--offsets", dict(type=int, default=100)))),
    "strip": (_cmd_strip, "widest vacant strip over dual directions", (
        SPEC_FLAG, RADIUS_FLAG,
        ("--directions", dict(help="JSON list of extra directions")))),
    "density": (_cmd_density, "point counts over Euclidean balls", (
        SPEC_FLAG,
        ("--radii", dict(required=True, help="comma-separated radii")))),
    "mingap": (_cmd_mingap, "minimum pairwise distance in a window", (
        SPEC_FLAG, RADIUS_FLAG)),
    "net": (_cmd_net, "build an epsilon-net", (
        ("--method", dict(required=True, help="hw | d2")),
        ("--eps", dict(type=float, required=True)),
        ("--d", dict(type=int, default=2)),
        ("--C", dict(type=float, default=16.0)))),
    "verify-net": (_cmd_verify_net, "probe a net CSV with seeded boxes", (
        ("--net", dict(required=True, help="net CSV path")),
        ("--eps", dict(type=float, required=True, help="net epsilon tag")),
        ("--method", dict(default="HausslerWelzl",
                          help="HausslerWelzl | D2Aligned")),
        ("--sampler", dict(default="aligned", help="aligned | rotated")),
        ("--volume", dict(type=float, required=True)),
        ("--trials", dict(type=int, default=10000)))),
    "udt": (_cmd_udt, "uniformly Diophantine margin check", (
        ("--thetas", dict(required=True, help="JSON list of shifts")),
        ("--xi", dict(required=True, help="JSON vector")),
        ("--t", dict(type=int, required=True)))),
    "heavy-box": (_cmd_heavy_box, "densest small box over a CSV point set", (
        ("--points", dict(required=True)),
        ("--eps", dict(type=float, required=True)),
        ("--rotations", dict(type=int, default=0)))),
    "calibrate": (_cmd_calibrate,
                  "measure visibility scaling constants for the "
                  "Peres forest and store them for the test suite", (
        ("--eps", dict(default="0.2,0.1,0.05")),
        ("--l-max", dict(type=float, default=4096.0)),
        ("--count", dict(type=int, default=10000)),
        RADIUS_FLAG)),
}


def _build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the named subcommands (every one by default)."""
    parser = argparse.ArgumentParser(
        prog="denseforest",
        description="Construct explicit point sets and measure density, "
                    "dispersion, discrepancy, visibility, and net quality.")
    parser.add_argument("--version", action="version", version=__version__)
    # Usage lists every name even when fewer are built; the full parser keeps
    # argparse's default metavar, which its errors print as "command".
    every = None if len(names) == len(COMMANDS) else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        func, help, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag, keywords in COMMON_FLAGS + flags:
            p.add_argument(flag, **keywords)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Build only the invoked command; --help, --version, no command or an
    # unknown one get them all.
    parser = _build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
        _write_meta(args, args.command)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
