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
                         golden_sequence, integer_lattice, load_spec,
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
        return concat_linear_sequence(json.loads(args.thetas))
    raise ValueError(f"unknown sequence: {args.seq!r}")


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
    directions = json.loads(args.directions)
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
    extras = json.loads(args.directions) if args.directions else []
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
    thetas = json.loads(args.thetas)
    xi = json.loads(args.xi)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denseforest",
        description="Construct explicit point sets and measure density, "
                    "dispersion, discrepancy, visibility, and net quality.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--threads", type=int, default=1,
                       help="max internal parallelism (results are identical "
                            "for every value)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("generate", help="enumerate a point set over a window")
    p.add_argument("--spec", required=True,
                   help="preset name or path to a spec JSON file")
    p.add_argument("--radius", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dispersion", help="exact/grid dispersion of a CSV point set")
    p.add_argument("--points", required=True, help="input CSV of points")
    common(p)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("discrepancy", help="exact box discrepancy of a CSV point set")
    p.add_argument("--points", required=True)
    common(p)
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("sud", help="super-uniform dispersion estimates over N")
    p.add_argument("--seq", required=True,
                   help="golden | tsokanos | quadratic | concat-linear")
    p.add_argument("--alpha", type=float, default=PHI,
                   help="coefficient for the quadratic sequence")
    p.add_argument("--thetas", help="JSON list of vectors for concat-linear")
    p.add_argument("--n", required=True, help="comma-separated N values")
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument("--xi-count", type=int, default=256)
    common(p)
    p.set_defaults(func=_cmd_sud)

    p = sub.add_parser("visibility", help="visibility estimates per epsilon")
    p.add_argument("--spec", required=True)
    p.add_argument("--eps", required=True, help="comma-separated epsilons")
    p.add_argument("--l-max", type=float, default=4096.0)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--radius", type=float, default=50.0)
    common(p)
    p.set_defaults(func=_cmd_visibility)

    p = sub.add_parser("tube", help="longest segment avoiding all points by eps")
    p.add_argument("--spec", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--radius", type=float, default=50.0)
    p.add_argument("--directions", default="[[1,0],[0,1]]",
                   help="JSON list of direction vectors")
    p.add_argument("--offsets", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("strip", help="widest vacant strip over dual directions")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=float, default=50.0)
    p.add_argument("--directions", help="JSON list of extra directions")
    common(p)
    p.set_defaults(func=_cmd_strip)

    p = sub.add_parser("density", help="point counts over Euclidean balls")
    p.add_argument("--spec", required=True)
    p.add_argument("--radii", required=True, help="comma-separated radii")
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("mingap", help="minimum pairwise distance in a window")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=float, default=50.0)
    common(p)
    p.set_defaults(func=_cmd_mingap)

    p = sub.add_parser("net", help="build an epsilon-net")
    p.add_argument("--method", required=True, help="hw | d2")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--C", type=float, default=16.0)
    common(p)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("verify-net", help="probe a net CSV with seeded boxes")
    p.add_argument("--net", required=True, help="net CSV path")
    p.add_argument("--eps", type=float, required=True, help="net epsilon tag")
    p.add_argument("--method", default="HausslerWelzl",
                   help="HausslerWelzl | D2Aligned")
    p.add_argument("--sampler", default="aligned", help="aligned | rotated")
    p.add_argument("--volume", type=float, required=True)
    p.add_argument("--trials", type=int, default=10000)
    common(p)
    p.set_defaults(func=_cmd_verify_net)

    p = sub.add_parser("udt", help="uniformly Diophantine margin check")
    p.add_argument("--thetas", required=True, help="JSON list of shifts")
    p.add_argument("--xi", required=True, help="JSON vector")
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_udt)

    p = sub.add_parser("heavy-box", help="densest small box over a CSV point set")
    p.add_argument("--points", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rotations", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_heavy_box)

    p = sub.add_parser("calibrate",
                       help="measure visibility scaling constants for the "
                            "Peres forest and store them for the test suite")
    p.add_argument("--eps", default="0.2,0.1,0.05")
    p.add_argument("--l-max", type=float, default=4096.0)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--radius", type=float, default=50.0)
    common(p)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
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
