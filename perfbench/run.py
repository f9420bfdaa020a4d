#!/usr/bin/env python3
"""denseforest benchmark: CLI workloads timed end to end, with a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload probe --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One run drives ``denseforest.cli.run`` in this process, pass after pass over
the workload's commands, until ``--seconds`` have gone (at least one pass).
Every output is checked after each pass (see ``checks.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (commands that exited non-zero or wrote a wrong output) and
``metrics``.

``--trace 0`` reports the end-to-end metrics: median pass wall and CPU time
and the median set-up time of fresh interpreters, all scaled toward a
reference host speed (``speed.py``), and the process's peak RSS.
``--trace 1`` alternates untraced passes with traced passes, which have the
wrappers of ``spans.py`` installed, and reports the per-layer metrics of the
traced passes plus the tracing overhead (traced minus untraced pass wall
time, median over the pairs).
Spans are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

import os
import sys

# BLAS/OpenMP pools are pinned to one thread before numpy is imported, here
# and in every interpreter this benchmark starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# No bytecode caches are written, by this process or its children: writes stay
# inside the checkout, and set-up time does not depend on a warm cache.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = {"full": 3, "smoke": 1}

# A fresh interpreter imports denseforest and builds the CLI parser
# (``--version`` builds it and exits); it prints the time that took.
SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import denseforest.cli\n"
    "denseforest.cli.run(['--version'])\n"
    "print(time.perf_counter() - t0)\n"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no denseforest sources to benchmark."""


def load_program():
    """Import ``denseforest.cli`` from the checkout's ``src`` directory."""
    if not (SRC / "denseforest" / "cli.py").is_file():
        raise ProgramMissing(f"no src/denseforest/cli.py under {ROOT}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("denseforest.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ProgramMissing(f"denseforest was imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup(repeats: int, ref: speed.SpeedReference) -> list:
    """Seconds per fresh interpreter, with a speed sample before each and after all."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        ref.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    ref.sample()
    return times


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Ledger:
    """Counts commands attempted and failed, checking outputs after each pass."""

    def __init__(self, seed: int, references: dict):
        self.seed = seed
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = {}

    def check_pass(self, workload, codes):
        for cmd, code in zip(workload.commands, codes):
            outputs = checks.read_outputs(cmd, ROOT)
            found = [] if code == 0 else [f"exit code {code}"]
            found += checks.check_command(cmd, outputs, self.seed,
                                          self.references.get(cmd.name), ROOT)
            digest = tuple(None if o is None else checks.digest(o) for o in outputs)
            if self._first.setdefault(cmd.name, digest) != digest:
                found.append("output differs from this run's first pass")
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += [f"{workload.name}/{cmd.name}: {p}" for p in found]


def run_command(cli, index: int, cmd, tracer) -> int:
    argv = list(cmd.argv)
    try:
        if tracer is None:
            return cli.run(argv)
        return tracer.command_span(index, cmd.subcommand, cli.run, (argv,),
                                   lambda: sum((ROOT / p).stat().st_size
                                               for p in cmd.outputs if (ROOT / p).is_file()))
    except Exception:  # a crash is a failed command; the run goes on
        traceback.print_exc(file=sys.stderr)
        return -1


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    spans: range  # indices of this pass's spans in the tracer


def measure_pass(cli, workload, ledger: Ledger, ref: speed.SpeedReference,
                 tracer=None, after_pass=None) -> Pass:
    """One pass over the workload, with a speed sample before each command.

    Only the commands are timed. Outputs are removed before and checked
    after the pass.
    """
    for cmd in workload.commands:
        for path in cmd.outputs:
            (ROOT / path).unlink(missing_ok=True)
    first_span = len(tracer.spans) if tracer else 0
    codes, wall, cpu = [], 0.0, 0.0
    for i, cmd in enumerate(workload.commands):
        ref.sample()
        t0, c0 = time.perf_counter(), cpu_seconds()
        codes.append(run_command(cli, i, cmd, tracer))
        wall += time.perf_counter() - t0
        cpu += cpu_seconds() - c0
    ref.sample()
    if after_pass is not None:
        after_pass(workload)
    ledger.check_pass(workload, codes)
    return Pass(wall, cpu, range(first_span, len(tracer.spans) if tracer else 0))


def traced_pairs(cli, workload, seconds: float, ledger: Ledger, ref, tracer, after_pass):
    """Untraced then traced passes, in pairs, until ``2 * seconds`` have gone.

    Pairing adjacent passes keeps drift in machine speed out of the overhead.
    """
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < 2 * seconds:
        plain = measure_pass(cli, workload, ledger, ref, None, after_pass)
        tracer.install()
        try:
            traced = measure_pass(cli, workload, ledger, ref, tracer, after_pass)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
    return pairs


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", after_pass=None) -> dict:
    """One benchmark run; returns the result object and its diagnostics."""
    workload = workloads.build(name, seed, scale)
    workloads.prepare_inputs(workload, seed, ROOT, scale)
    references = {}
    if scale == "full":
        refs = checks.load_references()
        references = {k: dict(v, seed=refs["seed"])
                      for k, v in refs["workloads"][name].items()}
    ledger = Ledger(seed, references)
    ref = speed.SpeedReference()
    setup, raw = [], {}
    if trace:
        tracer = spans.Tracer()
        pairs = traced_pairs(cli, workload, seconds, ledger, ref, tracer, after_pass)
        tracer.write(ROOT / workloads.WORK_DIR / f"spans-{name}-seed{seed}.jsonl")
        plain = [p for p, _ in pairs]
        per_pass = [spans.layer_metrics(tracer.spans, t.spans) for _, t in pairs]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.wall_s"] = statistics.median(t.wall_s for _, t in pairs)
        values["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
    else:
        setup = measure_setup(SETUP_REPEATS[scale], ref)
        start = time.perf_counter()
        plain = [measure_pass(cli, workload, ledger, ref, None, after_pass)]
        # Peak RSS through the first pass, so it does not depend on the pass count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while time.perf_counter() - start < seconds:
            plain.append(measure_pass(cli, workload, ledger, ref, None, after_pass))
        raw = {"wall_s": statistics.median(p.wall_s for p in plain),
               "cpu_s": statistics.median(p.cpu_s for p in plain),
               "setup_s": statistics.median(setup)}
        values = {k: v * ref.factor() for k, v in raw.items()}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return {"result": result, "problems": ledger.problems, "raw": raw,
            "speed_factor": ref.factor(), "speed_samples": len(ref.samples),
            "pass_walls": [p.wall_s for p in plain], "setup_samples": setup}


def report(name: str, seed: int, trace: bool, outcome: dict):
    """Readable lines, the result file, then the result object as the last line."""
    result = outcome["result"]
    env = environment()
    for problem in outcome["problems"]:
        print(f"FAILED {problem}")
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{name} failed_frac = {frac:.6g} ({result['failed']}/{result['attempted']} commands)")
    if outcome["raw"]:
        for metric, value in outcome["raw"].items():
            print(f"{name} unscaled {metric} = {value:.6g} s")
        print(f"{name} host speed factor = {outcome['speed_factor']:.4f} "
              f"(median of {outcome['speed_samples']} kernel samples)")
    print(f"{name} untraced pass walls, unscaled (s): "
          + ", ".join(f"{w:.3f}" for w in outcome["pass_walls"]))
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = ROOT / workloads.WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "trace": trace, "env": env,
         "raw": outcome["raw"], "speed_factor": outcome["speed_factor"],
         "pass_walls": outcome["pass_walls"], "setup_samples": outcome["setup_samples"],
         "result": result}, indent=2) + "\n")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def record_references(cli) -> int:
    """Rewrite references.json from one full-size pass at the default seed.

    Only for a reviewed, intended change of the program's outputs.
    """
    seed = workloads.DEFAULT_SEED
    doc = {"seed": seed, "scale": "full", "workloads": {}}
    for name in workloads.NAMES:
        workload = workloads.build(name, seed)
        workloads.prepare_inputs(workload, seed, ROOT)
        entries = {}
        for i, cmd in enumerate(workload.commands):
            if run_command(cli, i, cmd, None) != 0:
                print(f"{name}/{cmd.name} failed", file=sys.stderr)
                return 1
            out, meta = checks.read_outputs(cmd, ROOT)
            entries[cmd.name] = {"out_sha256": checks.digest(out),
                                 "meta": json.loads(meta),
                                 "summary": checks.summary(cmd, out)}
        doc["workloads"][name] = entries
    checks.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="'smoke' is a tiny size for the benchmark's own tests")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from the current program")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references(cli)
    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(cli, args.workload, args.seed, args.seconds,
                           bool(args.trace), args.scale)
    report(args.workload, args.seed, bool(args.trace), outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
