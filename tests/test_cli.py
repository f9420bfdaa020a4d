import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseforest.analysis as analysis
import denseforest.epsnet as epsnet
import denseforest.geometry as geometry
from denseforest import __version__, cli, parallel
from denseforest.generators import read_points_csv, spec_to_json, ThreeGrid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return cli.run(list(argv))


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


def test_missing_subcommand_is_argument_error(capsys):
    assert run() == 2


def test_unknown_subcommand_is_argument_error(capsys):
    assert run("frobnicate", "--out", "x.json") == 2


def test_generate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "pts.csv"
    assert run("generate", "--spec", "z2", "--radius", "3.5",
               "--out", str(out)) == 0
    pts = read_points_csv(out)
    assert pts.shape == (49, 2)
    meta = json.loads((tmp_path / "pts.csv.meta.json").read_text())
    assert meta["tool"] == "denseforest"
    assert meta["version"] == __version__
    assert meta["command"] == "generate"
    assert meta["config"]["radius"] == 3.5
    assert meta["config"]["spec"] == "z2"


def test_generate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "pts.csv"
    args = ("generate", "--spec", "peres", "--radius", "4.0", "--out", str(out))
    assert run(*args) == 0
    first = out.read_bytes()
    first_meta = (tmp_path / "pts.csv.meta.json").read_bytes()
    assert run(*args) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "pts.csv.meta.json").read_bytes() == first_meta


def test_generate_accepts_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(ThreeGrid())))
    out = tmp_path / "tg.csv"
    assert run("generate", "--spec", str(spec_path), "--radius", "3.0",
               "--out", str(out)) == 0
    assert read_points_csv(out).shape[0] > 20


def test_generate_bad_spec_is_argument_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("generate", "--spec", str(bad), "--radius", "2.0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert run("generate", "--spec", "no-such-preset", "--radius", "2.0",
               "--out", str(tmp_path / "x.csv")) == 2


def test_generate_non_finite_spec_is_argument_error(tmp_path, capsys):
    # Python's json reads NaN; the lattice must refuse it, not enumerate nothing.
    spec_path = tmp_path / "nan.json"
    spec_path.write_text('{"variant": "GridUnion", "params": {"grids": '
                         '[{"basis": [[1.0, NaN], [0.0, 1.0]], '
                         '"translation": [0.0, 0.0]}]}}')
    assert run("generate", "--spec", str(spec_path), "--radius", "3.0",
               "--out", str(tmp_path / "x.csv")) == 2
    assert "finite" in capsys.readouterr().err


def test_generate_huge_radius_is_resource_error(tmp_path, capsys):
    assert run("generate", "--spec", "z2", "--radius", "100000",
               "--out", str(tmp_path / "x.csv")) == 3
    assert "resource" in capsys.readouterr().err.lower()


def test_dispersion_and_discrepancy_pipeline(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.25\n0.75\n")
    disp_out = tmp_path / "disp.json"
    assert run("dispersion", "--points", str(pts), "--out", str(disp_out)) == 0
    doc = json.loads(disp_out.read_text())
    assert doc["N"] == 2 and doc["exact"] is True
    assert doc["value"] == pytest.approx(0.25)
    disc_out = tmp_path / "disc.json"
    assert run("discrepancy", "--points", str(pts), "--out", str(disc_out)) == 0
    assert json.loads(disc_out.read_text())["value"] == pytest.approx(0.5)


def test_dispersion_rejects_points_outside_unit_cube(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n0.25\n1.75\n")
    assert run("dispersion", "--points", str(pts),
               "--out", str(tmp_path / "d.json")) == 2


def test_sud_writes_rows(tmp_path):
    out = tmp_path / "sud.csv"
    assert run("sud", "--seq", "golden", "--n", "8,16", "--m-max", "4",
               "--xi-count", "8", "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,value"
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == [8, 16]


def test_sud_concat_linear_requires_thetas(tmp_path):
    out = tmp_path / "sud.csv"
    assert run("sud", "--seq", "concat-linear", "--n", "8",
               "--out", str(out)) == 2
    assert run("sud", "--seq", "concat-linear", "--thetas", "[[0.5],[0.25]]",
               "--n", "8", "--m-max", "2", "--xi-count", "4",
               "--out", str(out)) == 0


@pytest.mark.parametrize("thetas", ["[[NaN],[0.3]]", "[[0.5],[Infinity]]",
                                    "[[-Infinity]]"])
def test_sud_non_finite_thetas_is_argument_error(tmp_path, capsys, thetas):
    # A NaN twist direction used to give a SUD value of 0, which bounds nothing.
    out = tmp_path / "sud.csv"
    assert run("sud", "--seq", "concat-linear", "--thetas", thetas, "--n", "64",
               "--m-max", "4", "--xi-count", "8", "--out", str(out)) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_non_finite_sequence_spec_is_argument_error(tmp_path, capsys):
    spec_path = tmp_path / "nan-seq.json"
    spec_path.write_text('{"variant": "GeneralizedPeres", "params": {"n": 2, '
                         '"sequence": {"variant": "ConcatLinear", '
                         '"thetas": [[NaN], [0.3]]}}}')
    out = tmp_path / "x.csv"
    assert run("generate", "--spec", str(spec_path), "--radius", "3.0",
               "--out", str(out)) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_visibility_rows(tmp_path):
    out = tmp_path / "vis.csv"
    assert run("visibility", "--spec", "z2", "--eps", "0.6,0.51",
               "--l-max", "8", "--count", "64", "--radius", "5",
               "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,estimate"
    assert len(lines) == 3


def test_visibility_on_a_one_dimensional_lattice(tmp_path):
    spec_path = tmp_path / "z1.json"
    spec_path.write_text(json.dumps({"variant": "GridUnion", "params": {
        "grids": [{"basis": [[1.0]], "translation": [0.0]}]}}))
    out = tmp_path / "vis.csv"
    assert run("visibility", "--spec", str(spec_path), "--eps", "0.1",
               "--count", "4", "--l-max", "4", "--radius", "5",
               "--out", str(out)) == 0
    # Every unit step of Z passes within 0.1 of an integer.
    assert out.read_text().splitlines()[1:] == ["0.10000000000000001,1"]


def test_visibility_d2_at_the_default_length(tmp_path):
    # The bit-reversal set lists its own candidates around each waypoint,
    # so the default --l-max of 4096 enumerates nothing up front.
    out = tmp_path / "vis.csv"
    assert run("visibility", "--spec", "d2", "--eps", "0.1", "--count", "200",
               "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("eps", ["0", "-0.3"])
def test_visibility_nonpositive_eps_is_argument_error(tmp_path, capsys, eps):
    out = tmp_path / "vis.csv"
    assert run("visibility", "--spec", "z2", "--eps", eps, "--l-max", "8",
               "--count", "16", "--radius", "5", "--out", str(out)) == 2
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "vis.csv.meta.json").exists()


@pytest.mark.parametrize("argv", [
    ("visibility", "--spec", "z2", "--eps", "nan", "--l-max", "8",
     "--count", "16", "--radius", "5"),
    ("visibility", "--spec", "z2", "--eps", "inf", "--l-max", "8",
     "--count", "16", "--radius", "5"),
    ("tube", "--spec", "z2", "--eps", "nan", "--radius", "5"),
    ("tube", "--spec", "z2", "--eps", "inf", "--radius", "5")])
def test_non_finite_eps_is_argument_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.meta.json").exists()


@pytest.mark.parametrize("command", [("strip",), ("tube", "--eps", "0.1")])
@pytest.mark.parametrize("directions", ["[[NaN,1]]", "[[1,Infinity]]",
                                        "[[0,0]]"])
def test_bad_directions_are_argument_errors(tmp_path, capsys, command,
                                            directions):
    out = tmp_path / "out.json"
    assert run(*command, "--spec", "z2", "--radius", "5", "--directions",
               directions, "--out", str(out)) == 2
    assert "finite nonzero 2-vector" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.json.meta.json").exists()


def test_tube_json(tmp_path):
    out = tmp_path / "tube.json"
    assert run("tube", "--spec", "z2", "--eps", "0.3", "--radius", "5",
               "--offsets", "16", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["length"] == pytest.approx(10.0, abs=1e-6)
    assert len(doc["base"]) == 2 and len(doc["direction"]) == 2


def test_strip_json(tmp_path):
    out = tmp_path / "strip.json"
    assert run("strip", "--spec", "z2", "--radius", "10",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["width"] == pytest.approx(1.0, abs=1e-9)
    assert doc["window_radius"] == pytest.approx(10.0)


def test_density_rows(tmp_path):
    out = tmp_path / "density.csv"
    assert run("density", "--spec", "z2", "--radii", "5,10",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,quotient"
    t, q = lines[2].split(",")
    assert float(t) == 10.0 and float(q) == 317 / 100.0


@pytest.mark.parametrize("radius", ["1e-300", "1e-160"])
def test_density_radius_whose_power_underflows_is_refused(tmp_path, capsys, radius):
    # 1e-300 squared underflows to 0, which the quotient would divide by;
    # 1e-160 squared is the subnormal 1e-320, and 1 / 1e-320 overflows to inf.
    out = tmp_path / "density.csv"
    assert run("density", "--spec", "z2", "--radii", f"{radius},5",
               "--out", str(out)) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()
    assert run("density", "--spec", "z2", "--radii", "1e-150,5",
               "--out", str(out)) == 0
    t, q = out.read_text().splitlines()[2].split(",")
    assert float(t) == 5.0 and float(q) == 81 / 25.0


def test_mingap_json(tmp_path):
    out = tmp_path / "gap.json"
    assert run("mingap", "--spec", "z2", "--radius", "4",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["min_gap"] == pytest.approx(1.0)


@pytest.mark.parametrize("C", ["inf", "nan", "-1"])
def test_net_bad_C_is_argument_error(tmp_path, capsys, C):
    assert run("net", "--method", "hw", "--eps", "0.1", "--C", C,
               "--out", str(tmp_path / "net.csv")) == 2
    assert "C must be positive" in capsys.readouterr().err


def test_generate_spec_help_names_what_it_takes(capsys):
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["generate", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "preset name or path to a spec JSON file" in out
    assert "JSON document" not in out


def _command_argv(name, every):
    """name with its required flags, or with every flag, given a valid value."""
    value = {int: "7", float: "0.5"}
    argv = [name]
    for flag, keywords in cli.COMMON_FLAGS + cli.COMMANDS[name][2]:
        if every or keywords.get("required"):
            argv += [flag, value.get(keywords.get("type"), "x")]
    return argv


@pytest.mark.parametrize("every", [False, True], ids=["defaults", "every-flag"])
@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_reads_the_config_of_the_full_one(name, every):
    # .meta.json dumps every parsed key, so the two parsers must agree on all.
    argv = _command_argv(name, every)
    one = vars(cli._build_parser([name]).parse_args(argv))
    full = vars(cli._build_parser().parse_args(argv))
    assert one == full
    assert one["func"] is full["func"] is cli.COMMANDS[name][0]


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return int(exc.value.code or 0), captured.out, captured.err


TEXT_CASES = ([["--help"], ["--version"], [], ["frobnicate", "--out", "x"],
               ["generate", "--spec", "z2", "--radius", "2", "--out", "x", "stray"]]
              + [[name, "--help"] for name in cli.COMMANDS]
              + [[name] for name in cli.COMMANDS])


@pytest.mark.parametrize("argv", TEXT_CASES, ids=" ".join)
def test_run_prints_what_the_full_parser_prints(argv, capsys):
    def via_run(argv):
        raise SystemExit(cli.run(argv))
    full = _parse_outcome(cli._build_parser().parse_args, argv, capsys)
    assert _parse_outcome(via_run, argv, capsys) == full
    printed = full[1] + full[2]
    if "usage: denseforest [-h]" in printed:
        assert "{%s}" % ",".join(cli.COMMANDS) in printed


def test_a_run_builds_only_its_own_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run("udt", "--thetas", "[0.1]", "--xi", "[0.3]", "--t", "4",
               "--out", str(tmp_path / "udt.json")) == 0
    assert built == ["denseforest", "denseforest udt"]
    for name in cli.COMMANDS:
        built.clear()
        assert run(name, "--help") == 0
        assert len(built) == 2
    built.clear()
    cli._build_parser()
    assert len(built) == 1 + len(cli.COMMANDS)


def test_readme_lists_the_command_table():
    section = README.read_text().split("## Command-line interface")[1]
    table = section.split("Examples:")[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert names == list(cli.COMMANDS)


def test_net_and_verify_net_pipeline(tmp_path):
    net_out = tmp_path / "net.csv"
    assert run("net", "--method", "d2", "--eps", "0.02",
               "--out", str(net_out)) == 0
    report_out = tmp_path / "report.json"
    assert run("verify-net", "--net", str(net_out), "--eps", "0.02",
               "--method", "D2Aligned", "--sampler", "aligned",
               "--volume", "0.02", "--trials", "200", "--seed", "2",
               "--out", str(report_out)) == 0
    doc = json.loads(report_out.read_text())
    assert doc["hit_fraction"] == 1.0
    assert doc["boxes_tested"] == 200
    assert doc["slab_lower_bound"]["volume"] > 0.0


@pytest.fixture
def d2_net_csv(tmp_path):
    net_out = tmp_path / "net.csv"
    assert run("net", "--method", "d2", "--eps", "0.02", "--out", str(net_out)) == 0
    return net_out


def verify_args(net_csv, out, *extra):
    return ("verify-net", "--net", str(net_csv), "--eps", "0.02",
            "--method", "D2Aligned", "--seed", "2", "--out", str(out)) + extra


def test_verify_net_rotated_unit_volume_is_argument_error(d2_net_csv, tmp_path, capsys):
    # A rotated unit square fits in the unit square only within rounding of
    # the angles 0, pi/2 and pi, so the first box fails all its attempts.
    out = tmp_path / "report.json"
    assert run(*verify_args(d2_net_csv, out, "--sampler", "rotated",
                            "--volume", "1.0", "--trials", "5")) == 2
    assert "could not fit a rotated box" in capsys.readouterr().err
    assert not out.exists()


def test_verify_net_trials_over_budget_exit_3(d2_net_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(epsnet, "MAX_VERIFY_TRIALS", 50)
    out = tmp_path / "report.json"
    assert run(*verify_args(d2_net_csv, out, "--sampler", "aligned",
                            "--volume", "0.02", "--trials", "50")) == 0
    assert json.loads(out.read_text())["boxes_tested"] == 50
    out.unlink()
    assert run(*verify_args(d2_net_csv, out, "--sampler", "aligned",
                            "--volume", "0.02", "--trials", "51")) == 3
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", ["nan,0.2", "0.3,inf"])
def test_verify_net_refuses_a_non_finite_net(tmp_path, capsys, row):
    net_csv = tmp_path / "net.csv"
    net_csv.write_text(f"x1,x2\n0.5,0.5\n{row}\n0.1,0.1\n")
    out = tmp_path / "report.json"
    assert run(*verify_args(net_csv, out, "--volume", "0.02", "--trials", "5")) == 2
    assert "net points must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::UserWarning")
def test_verify_net_refuses_an_empty_net(tmp_path, capsys):
    net_csv = tmp_path / "net.csv"
    net_csv.write_text("x1,x2\n")
    out = tmp_path / "report.json"
    assert run(*verify_args(net_csv, out, "--volume", "0.02", "--trials", "5")) == 2
    assert "the net CSV holds no points" in capsys.readouterr().err
    assert not out.exists()


def test_udt_json(tmp_path):
    out = tmp_path / "udt.json"
    assert run("udt", "--thetas", "[0.0, 1.618033988749895]", "--xi", "0.0",
               "--t", "10", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["best_index"] == 2
    assert doc["margin"] == pytest.approx(0.0557, abs=5e-4)


@pytest.mark.parametrize("thetas, xi", [("[NaN]", "[0.1]"),
                                        ("[0.1]", "[Infinity]"),
                                        ("[0.0, -Infinity]", "0.2")])
def test_udt_non_finite_input_is_argument_error(tmp_path, capsys, thetas, xi):
    out = tmp_path / "udt.json"
    assert run("udt", "--thetas", thetas, "--xi", xi, "--t", "4",
               "--out", str(out)) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "udt.json.meta.json").exists()


def test_heavy_box_json(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n" + "\n".join(
        f"{x},{y}" for x, y in np.random.default_rng(0).uniform(0, 1, (50, 2))))
    out = tmp_path / "box.json"
    assert run("heavy-box", "--points", str(pts), "--eps", "0.1",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] >= 1
    assert doc["volume"] >= 0.1
    assert len(doc["intervals"]) == 2


def test_heavy_box_eps_below_float_spacing_is_argument_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n" + "\n".join(
        f"{x},{y}" for x, y in np.random.default_rng(0).uniform(0, 1, (50, 2))))
    out = tmp_path / "box.json"
    assert run("heavy-box", "--points", str(pts), "--eps", "1e-300",
               "--out", str(out)) == 2
    assert "too small" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "box.json.meta.json").exists()


def test_heavy_box_negative_rotations_is_argument_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.2,0.3\n0.5,0.5\n")
    out = tmp_path / "box.json"
    assert run("heavy-box", "--points", str(pts), "--eps", "0.1",
               "--rotations", "-1", "--out", str(out)) == 2
    assert "rotation_samples" in capsys.readouterr().err
    assert not out.exists()


def test_heavy_box_rotations_over_budget_exit_3(tmp_path, monkeypatch):
    # 4 rotations of 50 points count 4 * (50 + 32) = 328 units.
    monkeypatch.setattr(analysis, "MAX_HEAVY_ROTATION_WORK", 328)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n" + "\n".join(
        f"{x},{y}" for x, y in np.random.default_rng(0).uniform(0, 1, (50, 2))))
    out = tmp_path / "box.json"
    assert run("heavy-box", "--points", str(pts), "--eps", "0.1",
               "--rotations", "4", "--out", str(out)) == 0
    out.unlink()
    assert run("heavy-box", "--points", str(pts), "--eps", "0.1",
               "--rotations", "5", "--out", str(out)) == 3
    assert not out.exists()


def test_tube_offsets_over_budget_exit_3(tmp_path, monkeypatch):
    # The default two directions of 16 offsets are 32 lines.
    monkeypatch.setattr(analysis, "MAX_TUBE_LINES", 32)
    out = tmp_path / "tube.json"
    assert run("tube", "--spec", "z2", "--eps", "0.3", "--radius", "5",
               "--offsets", "16", "--out", str(out)) == 0
    out.unlink()
    assert run("tube", "--spec", "z2", "--eps", "0.3", "--radius", "5",
               "--offsets", "17", "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("visibility", "--spec", "z2", "--eps", "0.6,0.51"),
    ("calibrate", "--eps", "0.6,0.3")])
def test_probe_count_over_budget_exit_3(tmp_path, monkeypatch, command):
    monkeypatch.setattr(geometry, "MAX_PROBES", 32)
    out = tmp_path / "out"
    common = ("--l-max", "8", "--radius", "5", "--out", str(out))
    assert run(*command, "--count", "32", *common) == 0
    out.unlink()
    assert run(*command, "--count", "33", *common) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("visibility", "--spec", "z2", "--eps", "0.1", "--count", "1000000000"),
    ("calibrate", "--count", "1000000000"),
    ("visibility", "--spec", "z2", "--eps", "1e7", "--l-max", "8", "--count", "4"),
    ("visibility", "--spec", "peres", "--eps", "0.1", "--count", "4",
     "--l-max", "1e12"),
    ("sud", "--seq", "tsokanos", "--n", "16384", "--xi-count", "1000000000"),
    ("sud", "--seq", "tsokanos", "--n", "1000000000")],
    ids=["visibility-count", "calibrate-count", "wide-box", "wide-band",
         "sud-xi-count", "sud-n"])
def test_work_sizes_near_1e9_exit_3(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 3
    assert "resource limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e308", "1e300"])
@pytest.mark.parametrize("spec", sorted(cli.SPEC_PRESETS))
def test_huge_eps_exits_3_with_one_line(tmp_path, spec, eps):
    # An eps near the float range overflows the walk's box (inf * 0 once
    # read NaN) and the cut-and-project stencil: the work reads inf, with
    # no RuntimeWarning, and the refusal is one line.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "denseforest.cli", "visibility", "--spec", spec, "--eps", eps,
                           "--count", "3", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert re.fullmatch(r"resource limit: inf [a-z ]+ exceed the limit of \d+\n",
                        proc.stderr), proc.stderr
    assert not out.exists()


def test_calibrate_json(tmp_path):
    out = tmp_path / "cal.json"
    assert run("calibrate", "--eps", "0.6", "--l-max", "16", "--count", "32",
               "--radius", "5", "--seed", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    cal = doc["peres_visibility"]
    assert cal["epsilons"] == [0.6]
    assert len(cal["estimates"]) == 1
    assert cal["check_lengths"][0] == pytest.approx(2.0 * cal["estimates"][0])


@given(st.integers(1, 16), st.floats(1.0, 20.0), st.floats(1.0, 32.0),
       st.integers(0, 2 ** 63 - 1))
@settings(max_examples=20, deadline=None)
def test_calibrate_echoes_the_parameters_it_used(count, radius, l_max, seed):
    used = []
    real = cli.estimate_visibility

    def spy(spec, epsilons, L_max, n, window, s):
        used.append((L_max, n, window, s))
        return real(spec, epsilons, L_max, n, window, s)

    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(cli, "estimate_visibility", spy):
        out = Path(root) / "cal.json"
        assert run("calibrate", "--eps", "0.6", "--count", str(count), "--radius",
                   repr(radius), "--l-max", repr(l_max), "--seed", str(seed),
                   "--out", str(out)) == 0
        cal = json.loads(out.read_text())["peres_visibility"]
    (L_max, n, window, s), = used
    assert cal["count"] == n == count
    assert cal["l_max"] == L_max == l_max
    assert cal["seed"] == s == seed
    assert cal["radius"] == radius
    assert window.lo.tolist() == [-radius] * 2 and window.hi.tolist() == [radius] * 2


def test_calibrate_infinite_estimate_is_null(tmp_path):
    # At eps = 1e-300 a probe of length 8 still misses, so the estimate
    # and its check length are infinite; strict JSON writes them as null.
    out = tmp_path / "cal.json"
    assert run("calibrate", "--eps", "1e-300", "--count", "10", "--l-max", "8",
               "--radius", "5", "--out", str(out)) == 0

    def no_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    json.loads((tmp_path / "cal.json.meta.json").read_text(),
               parse_constant=no_constant)
    cal = json.loads(out.read_text(), parse_constant=no_constant)["peres_visibility"]
    assert cal["estimates"] == cal["check_lengths"] == [None]


def test_threads_flag_does_not_change_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("mingap", "--spec", "peres", "--radius", "6", "--threads", "1",
               "--out", str(a)) == 0
    assert run("mingap", "--spec", "peres", "--radius", "6", "--threads", "4",
               "--out", str(b)) == 0
    assert json.loads(a.read_text())["min_gap"] == \
        json.loads(b.read_text())["min_gap"]


def test_benchmark_tracer_counts_csv_rows(tmp_path):
    # The benchmark's tracer wraps write_points_csv by name in every module
    # that imported it; the point and table outputs both pass through it.
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    writer = cli.write_points_csv
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.write_points_csv is not writer
        assert run("generate", "--spec", "z2", "--radius", "2",
                   "--out", str(tmp_path / "z2.csv")) == 0
        assert run("sud", "--seq", "golden", "--n", "8,16,32", "--m-max", "2",
                   "--xi-count", "4", "--out", str(tmp_path / "sud.csv")) == 0
    finally:
        tracer.uninstall()
    assert cli.write_points_csv is writer
    rows = [s[spans.COUNTS]["rows"] for s in tracer.spans
            if s[spans.NAME] == "generators.write_points_csv"]
    assert rows == [16, 3]
    for name, count in (("z2.csv", 16), ("sud.csv", 3)):
        assert len((tmp_path / name).read_text().splitlines()) == count + 1


# Runs every command of perfbench's workloads at their smoke size in one
# process, with scipy blocked when the first argument is "blocked", and
# prints the scipy modules that were loaded.
WITHOUT_SCIPY = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[2])
from pathlib import Path
import workloads
from denseforest.cli import run
for name in workloads.NAMES:
    load = workloads.build(name, 1, "smoke")
    workloads.prepare_inputs(load, 1, Path.cwd(), "smoke")
    for command in load.commands:
        code = run(list(command.argv))
        if code:
            raise SystemExit(f"{command.name} exited with {code}")
print(sorted(m for m, module in sys.modules.items()
             if m.startswith("scipy") and module is not None))
"""


def test_cli_import_loads_no_scipy_stats_or_spatial(tmp_path):
    # The runtime needs numpy alone: with scipy blocked, every subcommand
    # perfbench runs exits 0 and writes the bytes of an unblocked run.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    outputs = {}
    for mode in ("blocked", "open"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, mode,
                               str(SPANS.parent)], cwd=tmp_path / mode, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        outputs[mode] = {path.relative_to(tmp_path / mode): path.read_bytes()
                         for path in sorted((tmp_path / mode).rglob("*"))
                         if path.is_file()}
    assert len(outputs["blocked"]) > 20
    assert outputs["blocked"] == outputs["open"]
    for path in (src / "denseforest").glob("*.py"):
        assert "import scipy" not in path.read_text(), path.name
        assert "from scipy" not in path.read_text(), path.name


# Runs a threaded `sud`, `mingap` and `generate` at small sizes, on one CPU
# when the first argument is "pinned", and prints the worker count and how
# many CSV tables were built before the first write.  The pin comes before
# denseforest is imported.
ONE_CPU = """
import os
import sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from denseforest import generators, parallel
from denseforest.cli import run
print(parallel.worker_count(), generators._csv_tables.cache_info().currsize)
for argv in (["sud", "--seq", "tsokanos", "--n", "2048", "--m-max", "8",
              "--xi-count", "256", "--out", "sud.csv"],
             ["mingap", "--spec", "three-grid", "--radius", "50", "--out", "gap.json"],
             ["generate", "--spec", "three-grid", "--radius", "50",
              "--out", "three-grid.csv"]):
    code = run(argv)
    if code:
        raise SystemExit(f"{argv[0]} exited with {code}")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_writes_the_bytes_of_two(tmp_path):
    # The SUD core bounds (8 blocks), the minimum gap (3 blocks of 2^14
    # rows) and the CSV writer (5 chunks) run on one thread in a process
    # pinned to one CPU, with no mock, and write the same bytes as a
    # process that may use every CPU.  Neither builds the CSV tables at
    # import.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    outputs, counts = {}, {}
    for mode in ("pinned", "open"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", ONE_CPU, mode],
                              cwd=tmp_path / mode, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts[mode] = proc.stdout.split()
        outputs[mode] = {path.name: path.read_bytes()
                         for path in sorted((tmp_path / mode).iterdir())}
    assert counts["pinned"] == ["1", "0"]
    assert counts["open"] == [str(min(parallel.WORKERS, len(os.sched_getaffinity(0)))),
                              "0"]
    assert len(outputs["pinned"]) == 6
    assert outputs["pinned"] == outputs["open"]
