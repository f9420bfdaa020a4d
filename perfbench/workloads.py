"""The benchmark's workloads: the CLI commands each one runs, and their inputs.

A workload is a fixed list of ``denseforest`` subcommands run in order.  Every
input comes from the workload seed: seeded subcommands receive it as
``--seed``, and the ``unitcube`` point set is drawn from it.  Two scales
exist: ``full`` is the pinned size the benchmark measures, ``smoke`` is a tiny
size for the benchmark's own tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
WORK_DIR = ".perfbench"
UNITCUBE_POINTS = 200

# Irrational direction pair for the d = 2 concat-linear SUD (per-xi KD-tree path).
CONCAT_THETAS = "[[0.6180339887498949,0.41421356237309515],[0.7320508075688772,0.2360679774997898]]"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how its output is judged.

    ``kind`` names the output check in ``checks.py``; ``params`` holds the
    values that check needs (sizes, epsilons, input paths).  ``seeded`` is
    False when the output does not depend on the workload seed, so the
    seed-commit reference applies at every seed.
    """

    name: str
    argv: tuple
    kind: str
    seeded: bool
    params: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    @property
    def outputs(self) -> tuple:
        return (self.out, self.out + ".meta.json")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple


SIZES = {
    "full": {
        "vis_count": 10000, "vis_l_max": 4096.0, "vis_radius": 50.0,
        "sud_n": 16384, "sud_m_max": 64, "sud_xi": 256,
        "concat_n": 256, "concat_m_max": 8, "concat_xi": 16,
        "grid_radius": 200.0,
        "cube_points": UNITCUBE_POINTS, "trials": 10000, "rotations": 4,
    },
    "smoke": {
        "vis_count": 200, "vis_l_max": 64.0, "vis_radius": 20.0,
        "sud_n": 256, "sud_m_max": 4, "sud_xi": 8,
        "concat_n": 32, "concat_m_max": 2, "concat_xi": 4,
        "grid_radius": 20.0,
        "cube_points": 40, "trials": 200, "rotations": 1,
    },
}


def _fmt(value: float) -> str:
    return repr(float(value))


def _probe(seed: int, size: dict, wd: str) -> tuple:
    common = ("--count", str(size["vis_count"]), "--l-max", _fmt(size["vis_l_max"]),
              "--radius", _fmt(size["vis_radius"]), "--seed", str(seed))
    return (
        Command("z2", ("visibility", "--spec", "z2", "--eps", "0.1", *common,
                       "--out", f"{wd}/z2.csv"),
                # The seed-independent stratified half of the probes holds
                # axis-parallel misses, so the estimate is inf at every seed.
                "visibility", seeded=False,
                params={"eps": [0.1], "l_max": size["vis_l_max"]}),
        Command("peres", ("visibility", "--spec", "peres", "--eps", "0.2,0.1,0.05",
                          *common, "--out", f"{wd}/peres.csv"),
                "visibility", seeded=True,
                params={"eps": [0.2, 0.1, 0.05], "l_max": size["vis_l_max"]}),
    )


def _sweep(seed: int, size: dict, wd: str) -> tuple:
    radius = _fmt(size["grid_radius"])
    sud = ("--n", str(size["sud_n"]), "--m-max", str(size["sud_m_max"]),
           "--xi-count", str(size["sud_xi"]), "--seed", str(seed))
    return (
        Command("sud-tsokanos", ("sud", "--seq", "tsokanos", *sud,
                                 "--out", f"{wd}/sud-tsokanos.csv"),
                "sud", seeded=True, params={"n": [size["sud_n"]]}),
        Command("sud-quadratic", ("sud", "--seq", "quadratic", *sud,
                                  "--out", f"{wd}/sud-quadratic.csv"),
                "sud", seeded=True, params={"n": [size["sud_n"]]}),
        Command("sud-concat", ("sud", "--seq", "concat-linear", "--thetas", CONCAT_THETAS,
                               "--n", str(size["concat_n"]),
                               "--m-max", str(size["concat_m_max"]),
                               "--xi-count", str(size["concat_xi"]),
                               "--seed", str(seed), "--out", f"{wd}/sud-concat.csv"),
                "sud", seeded=True, params={"n": [size["concat_n"]]}),
        Command("generate", ("generate", "--spec", "three-grid", "--radius", radius,
                             "--out", f"{wd}/three-grid.csv"),
                "points", seeded=False, params={"radius": size["grid_radius"]}),
        Command("strip", ("strip", "--spec", "three-grid", "--radius", radius,
                          "--out", f"{wd}/strip.json"),
                "strip", seeded=False, params={"radius": size["grid_radius"]}),
        Command("mingap", ("mingap", "--spec", "three-grid", "--radius", radius,
                           "--out", f"{wd}/mingap.json"),
                "mingap", seeded=False),
    )


def _unitcube(seed: int, size: dict, wd: str) -> tuple:
    points = f"{wd}/points.csv"
    trials = str(size["trials"])
    n = size["cube_points"]
    return (
        Command("discrepancy", ("discrepancy", "--points", points,
                                "--out", f"{wd}/discrepancy.json"),
                "discrepancy", seeded=True, params={"points": points, "n": n}),
        Command("net-d2", ("net", "--method", "d2", "--eps", "0.01",
                           "--out", f"{wd}/net-d2.csv"),
                "net", seeded=False, params={"size": None}),
        Command("verify-d2", ("verify-net", "--net", f"{wd}/net-d2.csv", "--eps", "0.01",
                              "--method", "D2Aligned", "--sampler", "aligned",
                              "--volume", "0.01", "--trials", trials, "--seed", str(seed),
                              "--out", f"{wd}/verify-d2.json"),
                "verify", seeded=True,
                params={"trials": size["trials"], "net": f"{wd}/net-d2.csv",
                        "certified": True}),
        Command("net-hw", ("net", "--method", "hw", "--eps", "0.01", "--seed", str(seed),
                           "--out", f"{wd}/net-hw.csv"),
                "net", seeded=True,
                params={"size": math.ceil(16.0 * 100.0 * math.log(100.0))}),
        Command("verify-hw", ("verify-net", "--net", f"{wd}/net-hw.csv", "--eps", "0.01",
                              "--method", "HausslerWelzl", "--sampler", "rotated",
                              "--volume", "0.01", "--trials", trials, "--seed", str(seed),
                              "--out", f"{wd}/verify-hw.json"),
                "verify", seeded=True,
                params={"trials": size["trials"], "net": f"{wd}/net-hw.csv",
                        "certified": False}),
        Command("heavy-aligned", ("heavy-box", "--points", points, "--eps", "0.01",
                                  "--out", f"{wd}/heavy-aligned.json"),
                "heavy", seeded=True, params={"points": points, "eps": 0.01}),
        Command("heavy-rotated", ("heavy-box", "--points", points, "--eps", "0.01",
                                  "--rotations", str(size["rotations"]),
                                  "--seed", str(seed), "--out", f"{wd}/heavy-rotated.json"),
                "heavy", seeded=True, params={"points": points, "eps": 0.01}),
        Command("dispersion", ("dispersion", "--points", points,
                               "--out", f"{wd}/dispersion.json"),
                "dispersion", seeded=True, params={"n": n}),
    )


# Why each workload was chosen; BENCHMARK.json repeats these lines.
WHY = {
    "probe": "visibility probing: on Z2 the misses march to L_max=4096 (4103 candidates_near "
             "calls), Peres calibration probes all hit by 64; candidate generation and scoring dominate",
    "sweep": "sort-bound reductions without probing: SUD at N=2^14, a d=2 SUD, "
             "three-grid enumeration and 16 MB CSV write, strip and mingap at r=200",
    "unitcube": "small unit-cube inputs drawn from the seed: discrepancy slab loops, "
                "net build and verification, heavy-box and dispersion; CSV reads",
}

_BUILDERS = {"probe": _probe, "sweep": _sweep, "unitcube": _unitcube}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's commands, writing under ``.perfbench/<name>``."""
    wd = f"{WORK_DIR}/{name}"
    return Workload(name, _BUILDERS[name](seed, SIZES[scale], wd))


def prepare_inputs(workload: Workload, seed: int, root: Path, scale: str = "full"):
    """Create the work directory and the seed-derived input files."""
    wd = root / WORK_DIR / workload.name
    wd.mkdir(parents=True, exist_ok=True)
    if workload.name == "unitcube":
        pts = np.random.default_rng(seed).random((SIZES[scale]["cube_points"], 2))
        lines = ["x1,x2"] + [f"{x:.17g},{y:.17g}" for x, y in pts]
        (wd / "points.csv").write_text("\n".join(lines) + "\n")
