"""Every subcommand, driven in-process over extreme numeric inputs.

Each case must exit 0, 2 or 3 without an exception escaping ``cli.run``,
print no RuntimeWarning about an invalid cast, and write only strict JSON.
"""

import json
import warnings

import numpy as np
import pytest

from denseforest import cli
from denseforest.epsnet import hw_net
from denseforest.generators import (GeneralizedPeres, golden_sequence,
                                    spec_to_json, write_points_csv)

POINTS = "@points"
NET = "@net"
GOLDEN = "@golden"

# A small valid invocation of every subcommand; each numeric flag in it is
# swept over VALUES, one at a time.
COMMANDS = {
    "generate": ["--spec", "z2", "--radius", "3"],
    "dispersion": ["--points", POINTS],
    "discrepancy": ["--points", POINTS],
    "sud": ["--seq", "quadratic", "--alpha", "1.6", "--n", "16", "--m-max", "2",
            "--xi-count", "4"],
    "visibility": ["--spec", "z2", "--eps", "0.1", "--l-max", "16", "--count", "8",
                   "--radius", "5"],
    "tube": ["--spec", "z2", "--eps", "0.3", "--radius", "3", "--offsets", "4"],
    "strip": ["--spec", "z2", "--radius", "3"],
    "density": ["--spec", "z2", "--radii", "3"],
    "mingap": ["--spec", "z2", "--radius", "3"],
    "net": ["--method", "hw", "--eps", "0.2", "--d", "2", "--C", "2"],
    "verify-net": ["--net", NET, "--eps", "0.1", "--volume", "0.2", "--trials", "16"],
    "udt": ["--thetas", "[0.1]", "--xi", "[0.3]", "--t", "4"],
    "heavy-box": ["--points", POINTS, "--eps", "0.1", "--rotations", "2"],
    "calibrate": ["--eps", "0.2", "--l-max", "16", "--count", "8", "--radius", "5"],
}
NUMERIC = {"--radius", "--alpha", "--n", "--m-max", "--xi-count", "--eps",
           "--l-max", "--count", "--offsets", "--radii", "--d", "--C",
           "--volume", "--trials", "--t", "--rotations", "--seed", "--threads"}
VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e19", "1e300"]
CSV_OUTPUT = {"generate", "sud", "visibility", "density", "net"}


def _flag_cases():
    for command, argv in COMMANDS.items():
        flags = [f for f in argv if f in NUMERIC] + ["--seed", "--threads"]
        for flag in flags:
            for value in VALUES:
                yield pytest.param(command, flag, value,
                                   id=f"{command}{flag}={value}")


SPEC_COMMANDS = ["generate", "visibility", "tube", "strip", "density", "mingap"]
SPECS = sorted(cli.SPEC_PRESETS) + [GOLDEN]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep-inputs")
    paths = {POINTS: root / "points.csv", NET: root / "net.csv",
             GOLDEN: root / "golden.json"}
    write_points_csv(paths[POINTS], np.random.default_rng(3).random((12, 2)))
    write_points_csv(paths[NET], hw_net(0.1, 2, 2.0, seed=0).points)
    paths[GOLDEN].write_text(json.dumps(spec_to_json(GeneralizedPeres(golden_sequence()))))
    return {key: str(path) for key, path in paths.items()}


def _no_constants(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _run_clean(argv, tmp_path):
    """Run the CLI and check the exit code, the warnings and every JSON written."""
    out = tmp_path / ("out.csv" if argv[0] in CSV_OUTPUT else "out.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(argv + ["--out", str(out)])
    assert code in (0, 2, 3)
    casts = [str(w.message) for w in caught
             if issubclass(w.category, RuntimeWarning) and "cast" in str(w.message)]
    assert not casts
    written = [out.with_name(out.name + ".meta.json")]
    if out.suffix == ".json":
        written.append(out)
    for path in written:
        if path.exists():
            json.loads(path.read_text(), parse_constant=_no_constants)
    return code


@pytest.mark.parametrize("command, flag, value", list(_flag_cases()))
def test_numeric_flag(tmp_path, capsys, inputs, command, flag, value):
    argv = [inputs.get(token, token) for token in COMMANDS[command]]
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    # The = form passes values such as -inf, which argparse would read as a flag.
    _run_clean([command, *argv, f"{flag}={value}"], tmp_path)


@pytest.mark.parametrize("radius", ["1e19", "1e300"])
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_spec_at_a_huge_radius(tmp_path, capsys, inputs, command, spec, radius):
    argv = [inputs.get(token, token) for token in COMMANDS[command]]
    argv[argv.index("--spec") + 1] = inputs.get(spec, spec)
    flag = "--radii" if command == "density" else "--radius"
    argv[argv.index(flag) + 1] = radius
    assert _run_clean([command, *argv], tmp_path) in (2, 3)


SKEWED = {"variant": "GridUnion", "params": {"grids": [
    {"basis": [[1.0, 1e19], [0.0, 1.0]], "translation": [0.0, 0.0]}]}}


@pytest.mark.parametrize("argv", [
    ["generate", "--spec", "@skewed", "--radius", "10"],
    ["generate", "--spec", "cut-and-project", "--radius", "1e300"],
    ["density", "--spec", "cut-and-project", "--radii", "1e300"],
    ["visibility", "--spec", "d2", "--eps", "0.1", "--radius", "1e19",
     "--count", "20", "--l-max", "64"],
    ["visibility", "--spec", "cut-and-project", "--eps", "1e300", "--count", "20",
     "--l-max", "64"],
    ["visibility", "--spec", GOLDEN, "--eps", "0.1", "--radius", "1e19",
     "--count", "20", "--l-max", "64"],
    ["visibility", "--spec", GOLDEN, "--eps", "0.1", "--radius", "1e300",
     "--count", "20", "--l-max", "64"],
    ["generate", "--spec", "d2", "--radius", "1e308"]],
    ids=["skewed-grid", "cut-and-project", "cut-and-project-density",
         "d2-stencil", "cut-and-project-stencil", "golden-1e19", "golden-1e300",
         "d2-estimate"])
def test_sizes_past_the_number_range_hit_a_limit(tmp_path, capsys, inputs, argv):
    # Each case once cast a float past the int64 range, took the floor of an
    # infinite bound or built a 421 GiB stencil before any guard saw it.
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps(SKEWED))
    paths = dict(inputs, **{"@skewed": str(skewed)})
    assert _run_clean([paths.get(token, token) for token in argv], tmp_path) == 3
    assert "exceed the limit of" in capsys.readouterr().err
