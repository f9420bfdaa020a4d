"""Output checks: every CSV/JSON a command writes, and its ``.meta.json``.

Three kinds of evidence decide whether a command's output is correct:

* References.  ``references.json`` holds the SHA-256 of every output and
  sidecar that the seed commit wrote at the default workload seed and full
  size.  They apply at the default seed, and at every seed for outputs that
  do not depend on it.  A sidecar must match its reference at every seed,
  with ``--seed`` substituted where the command takes one.  The
  references are the program's own earlier outputs, not targets from the
  paper.
* Invariants that hold at any seed and size: headers, row counts, value
  ranges, and witnesses recounted from the inputs (heavy-box counts,
  point-free slabs, the certified d2 net hitting every aligned box).
* Repetition: the caller compares digests across passes of one run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_outputs(cmd, root: Path):
    """(output bytes, sidecar bytes); None for a file that is missing."""
    return tuple((root / p).read_bytes() if (root / p).is_file() else None
                 for p in cmd.outputs)


def meta_bytes(meta: dict) -> bytes:
    """The sidecar serialization the CLI uses."""
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()


def with_seed(meta: dict, seed: int) -> dict:
    out = json.loads(json.dumps(meta))
    out["seed"] = seed
    out["config"]["seed"] = seed
    return out


def summary(cmd, out: bytes):
    """A small readable form of an output, stored beside its reference digest."""
    text = out.decode()
    if cmd.kind in ("points", "net"):
        return {"rows": text.count("\n") - 1}
    if text.lstrip().startswith("{"):
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


# ---------------------------------------------------------------------------
# Invariants per output kind
# ---------------------------------------------------------------------------

def _table(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _points(path: Path) -> np.ndarray:
    with open(path) as handle:
        if not handle.readline().startswith("x1"):
            raise ValueError(f"{path.name} has no x1,... header")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


def _check_visibility(cmd, text, root):
    rows = _table(text, "epsilon,estimate")
    eps, l_max = cmd.params["eps"], cmd.params["l_max"]
    if [float(r[0]) for r in rows] != eps:
        raise ValueError(f"epsilons {[r[0] for r in rows]} != {eps}")
    for _, est in rows:
        value = float(est)
        if math.isinf(value):
            continue
        j = round(math.log2(l_max / value))
        if not 0 <= j <= 60 or value != l_max * 2.0 ** -j:
            raise ValueError(f"estimate {est} is not on the grid L_max * 2^-j")


def _check_sud(cmd, text, root):
    rows = _table(text, "N,value")
    if [int(r[0]) for r in rows] != cmd.params["n"]:
        raise ValueError("N column does not match --n")
    for _, value in rows:
        if not 0.0 < float(value) <= 0.5:
            raise ValueError(f"SUD value {value} outside (0, 1/2]")


def _check_points(cmd, text, root):
    if not text.startswith("x1,x2\n") or text.count("\n") < 2:
        raise ValueError("point CSV needs an x1,x2 header and at least one row")


def _check_strip(cmd, text, root):
    doc = json.loads(text)
    if abs(math.hypot(*doc["direction"]) - 1.0) > 1e-9:
        raise ValueError("strip direction is not a unit vector")
    if not doc["width"] > 0.0 or doc["window_radius"] != cmd.params["radius"]:
        raise ValueError("strip width or window radius is wrong")


def _check_mingap(cmd, text, root):
    if not 0.0 < json.loads(text)["min_gap"] < math.inf:
        raise ValueError("min_gap is not positive and finite")


def _check_discrepancy(cmd, text, root):
    doc = json.loads(text)
    if doc["N"] != cmd.params["n"] or not 0.0 < doc["value"] <= 1.0:
        raise ValueError("discrepancy N or value out of range")


def _check_dispersion(cmd, text, root):
    doc = json.loads(text)
    if doc["N"] != cmd.params["n"] or not 0.0 < doc["value"] <= 1.0 \
            or doc["exact"] or not doc["grid_resolution"] > 0.0:
        raise ValueError("dispersion report out of range")


def _check_net(cmd, text, root):
    pts = _points(root / cmd.out)
    if pts.shape[0] < 1 or np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("net points must be nonempty and lie in the unit square")
    size = cmd.params["size"]
    if size is not None and pts.shape[0] != size:
        raise ValueError(f"net has {pts.shape[0]} points, expected {size}")


def _check_verify(cmd, text, root):
    doc = json.loads(text)
    if doc["boxes_tested"] != cmd.params["trials"] or not 0.0 <= doc["hit_fraction"] <= 1.0:
        raise ValueError("verify-net boxes_tested or hit_fraction out of range")
    if cmd.params["certified"] and (doc["hit_fraction"] != 1.0
                                    or doc["worst_missed_box"] is not None):
        raise ValueError("the d2 net must meet every aligned box of its volume")
    net = _points(root / cmd.params["net"])
    slab = np.asarray(doc["slab_lower_bound"]["intervals"])
    inside = np.all((net > slab[:, 0]) & (net < slab[:, 1]), axis=1)
    if np.any(inside) or doc["slab_lower_bound"]["volume"] < 1.0 / (net.shape[0] + 1) - 1e-12:
        raise ValueError("slab lower bound is not a point-free slab of volume >= 1/(k+1)")


def _check_heavy(cmd, text, root):
    doc = json.loads(text)
    pts = _points(root / cmd.params["points"])
    if "angle" in doc:
        c, s = math.cos(doc["angle"]), math.sin(doc["angle"])
        pts = pts @ np.array([[c, -s], [s, c]])
    box = np.asarray(doc["intervals"])
    count = int(np.count_nonzero(np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=1)))
    if count != doc["count"] or count < 1:
        raise ValueError(f"heavy box holds {count} points, report says {doc['count']}")
    if doc["volume"] < cmd.params["eps"] * (1.0 - 1e-9):
        raise ValueError("heavy box volume is below eps")


INVARIANTS = {
    "visibility": _check_visibility, "sud": _check_sud, "points": _check_points,
    "strip": _check_strip, "mingap": _check_mingap, "discrepancy": _check_discrepancy,
    "dispersion": _check_dispersion, "net": _check_net, "verify": _check_verify,
    "heavy": _check_heavy,
}


def _check_meta(cmd, meta: bytes, seed: int):
    doc = json.loads(meta)
    expected_seed = seed if "--seed" in cmd.argv else 0
    if doc.get("tool") != "denseforest" or doc.get("command") != cmd.subcommand \
            or doc.get("seed") != expected_seed or doc["config"].get("out") != cmd.out:
        raise ValueError("sidecar tool/command/seed/out do not match the invocation")


def check_command(cmd, outputs, seed: int, reference: dict | None, root: Path) -> list:
    """Problems found in one command's output and sidecar (empty when correct).

    ``reference`` is the command's entry in ``references.json`` when the run
    is at full size, else None.
    """
    out, meta = outputs
    if out is None or meta is None:
        return ["output or sidecar missing"]
    problems = []
    try:
        INVARIANTS[cmd.kind](cmd, out.decode(), root)
        _check_meta(cmd, meta, seed)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    if reference is None:
        return problems
    exact = seed == reference["seed"] or not cmd.seeded
    if exact and digest(out) != reference["out_sha256"]:
        problems.append(f"output differs from the seed-commit reference "
                        f"{json.dumps(reference['summary'])}")
    expected_meta = reference["meta"]
    if "--seed" in cmd.argv:
        expected_meta = with_seed(expected_meta, seed)
    if meta != meta_bytes(expected_meta):
        problems.append("sidecar differs from the seed-commit reference")
    return problems
