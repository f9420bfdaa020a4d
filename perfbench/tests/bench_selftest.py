"""The benchmark's own tests, at a smoke size that runs in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/tests/bench_selftest.py

The file name keeps these tests out of the program's default pytest run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--scale", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{workload} {name} = " in proc.stdout


def test_corrupted_output_counts_as_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    cli = run.load_program()

    def corrupt(workload):
        path = ROOT / workloads.WORK_DIR / "unitcube" / "heavy-aligned.json"
        doc = json.loads(path.read_text())
        doc["count"] += 1
        path.write_text(json.dumps(doc))

    outcome = run.run_workload(cli, "unitcube", 5, 0.0, False, "smoke", after_pass=corrupt)
    result = outcome["result"]
    assert result["attempted"] == len(workloads.build("unitcube", 5, "smoke").commands)
    assert result["failed"] == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("heavy-aligned" in p for p in outcome["problems"])


def test_output_unlike_the_reference_fails():
    ref = checks.load_references()
    cmd = next(c for c in workloads.build("sweep", ref["seed"]).commands if c.name == "strip")
    entry = dict(ref["workloads"]["sweep"]["strip"], seed=ref["seed"])
    good = (json.dumps(entry["summary"], indent=2, sort_keys=True) + "\n").encode()
    meta = checks.meta_bytes(entry["meta"])
    assert checks.check_command(cmd, (good, meta), ref["seed"], entry, ROOT) == []
    bad = good.replace(b"0.14174290272305257", b"0.14174290272305258")
    assert checks.check_command(cmd, (bad, meta), ref["seed"], entry, ROOT)
    reseeded = checks.meta_bytes(checks.with_seed(entry["meta"], 99))
    assert checks.check_command(cmd, (good, reseeded), ref["seed"], entry, ROOT)


def test_references_hold_the_seed_commit_values():
    ref = checks.load_references()["workloads"]
    cal = json.loads((ROOT / "tests" / "fixtures" / "calibration.json").read_text())
    peres = [float(row[1]) for row in ref["probe"]["peres"]["summary"][1:]]
    assert peres == cal["peres_visibility"]["estimates"] == [8.0, 16.0, 64.0]
    assert ref["probe"]["z2"]["summary"][1][1] == "inf"
    assert ref["sweep"]["strip"]["summary"]["width"] == 0.14174290272305257


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_children_and_counting():
    # name, start, end, parent, command, post, counts
    recorded = [
        ["cli.run", 0.0, 10.0, -1, 0, 0.5, {"subcommand": "visibility", "bytes_written": 7}],
        ["analysis.estimate_visibility", 1.0, 9.0, 0, 0, 0.0, None],
        ["geometry.sample_segments", 1.0, 2.0, 1, 0, 0.25, {"rows": 4}],
        ["generators.LatticeSheet.candidates_near", 3.0, 4.0, 1, 0, 0.25,
         {"queries": 4, "rows": 36, "within": 9}],
    ]
    m = spans.layer_metrics(recorded, range(len(recorded)))
    assert m["cli.cmd.visibility_s"] == 10.0 - 0.5
    assert m["cli.self_s"] == 10.0 - 8.0
    assert m["analysis.visibility_self_s"] == 8.0 - (1.25 + 1.25)
    assert m["generators.candidates_s"] == 1.0
    assert m["generators.candidate_yield"] == 0.25
    assert m["analysis.probe_steps_per_probe"] == 1.0
    assert m["cli.bytes_written"] == 7


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert all(len(why) <= 200 for why in workloads.WHY.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
