"""Every subcommand, driven in-process over extreme numeric inputs, integer
literals past the int64 and float ranges, malformed point CSVs and JSON
values of the wrong shape.

Each case must exit 0, 2 or 3 without an exception escaping ``cli.run``,
print no RuntimeWarning, and write only strict JSON.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
# The flags that argparse reads as integers (--n as a comma-separated list),
# and integer literals past int64 and far past the float range.
INTEGER = {"--n", "--m-max", "--xi-count", "--count", "--offsets", "--d",
           "--trials", "--t", "--rotations", "--seed", "--threads"}
HUGE_INTEGERS = {"2**63": str(2 ** 63), "10**400": "1" + "0" * 400,
                 "-10**400": "-1" + "0" * 400}
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
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime
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


def _integer_cases():
    for command, argv in COMMANDS.items():
        flags = [f for f in argv if f in INTEGER] + ["--seed", "--threads"]
        for flag in flags:
            for name, value in HUGE_INTEGERS.items():
                yield pytest.param(command, flag, value, id=f"{command}{flag}={name}")


@pytest.mark.parametrize("command, flag, value", list(_integer_cases()))
def test_integer_flag_past_the_number_range(tmp_path, capsys, inputs, command,
                                            flag, value):
    argv = [inputs.get(token, token) for token in COMMANDS[command]]
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    _run_clean([command, *argv, f"{flag}={value}"], tmp_path)


# Malformed point CSVs for every command that reads one.  Each is refused
# with exit 2 unless EXIT_0 lists it: one column is a 1-D point set, and
# heavy-box takes points outside the unit cube.
BAD_CSVS = {"empty": "", "header-only": "x1,x2\n", "blank-lines": "\n\n\n",
            "nan-row": "x1,x2\n0.5,nan\n0.2,0.3\n",
            "inf-row": "x1,x2\ninf,0.5\n0.2,0.3\n",
            "one-column": "x1\n0.5\n0.2\n",
            "three-columns": "x1,x2,x3\n0.5,0.5,0.5\n0.2,0.3,0.4\n",
            "outside-cube": "x1,x2\n2.0,0.5\n0.2,0.3\n",
            "text-cell": "x1,x2\n0.5,abc\n0.2,0.3\n",
            "short-row": "x1,x2\n0.5,0.5\n0.2\n", "no-header": "0.5,0.5\n0.2,0.3\n"}
CSV_COMMANDS = {"dispersion": "--points", "discrepancy": "--points",
                "heavy-box": "--points", "verify-net": "--net"}
EXIT_0 = {("one-column", "dispersion"), ("one-column", "discrepancy"),
          ("one-column", "heavy-box"), ("three-columns", "dispersion"),
          ("outside-cube", "heavy-box")}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
@pytest.mark.parametrize("name", sorted(BAD_CSVS))
def test_malformed_points_csv(tmp_path, capsys, inputs, name, command):
    path = tmp_path / f"{name}.csv"
    path.write_text(BAD_CSVS[name])
    argv = [inputs.get(token, token) for token in COMMANDS[command]]
    argv[argv.index(CSV_COMMANDS[command]) + 1] = str(path)
    code = _run_clean([command, *argv], tmp_path)
    assert code == (0 if (name, command) in EXIT_0 else 2)
    if code:
        _one_error_line(capsys)


DIRECTION_VALUES = ["[]", "[[]]", "{}", '"x"', "[[1,0],[1]]", "[[NaN,1]]",
                    "[[Infinity,0]]", "[[1e308,1e308]]", "[[-1e308,1e308]]", "[[1,0,0]]"]
JSON_FLAGS = {
    ("tube", "--directions"): DIRECTION_VALUES,
    ("strip", "--directions"): DIRECTION_VALUES,
    ("sud", "--thetas"): ["[]", "[[]]", "{}", '"x"', "[[0.1],[0.2,0.3]]", "[[NaN]]",
                          "[[Infinity]]", "[[1e308]]", "[[-1e308]]", "[[0.1],[]]",
                          "[0.1,[0.2]]"],
    ("udt", "--thetas"): ["[]", "[[]]", "{}", '"x"', "[[0.1],[0.2,0.3]]", "[[NaN]]",
                          "[[Infinity]]", "[[1e308]]", "[[-1e308]]", "[[0.1,0.2]]",
                          "[[0.1],[]]", "[0.1,[0.2]]"],
    ("udt", "--xi"): ["[]", "[[]]", "{}", '"x"', "[[0.3],[0.3,0.4]]", "[NaN]",
                      "[Infinity]", "[1e308]", "[-1e308]", "[0.3,0.4]"],
}
SPEC_DOCUMENTS = ["[]", '"x"', "{}", '{"variant": "CutAndProject", "params": {}}']
JSON_COMMANDS = dict(COMMANDS, sud=["--seq", "concat-linear", "--thetas", "[[0.3]]",
                                    "--n", "8", "--m-max", "2", "--xi-count", "2"])


def _json_argv(command, flag, value, inputs, root):
    """The small invocation of ``command`` with ``flag`` set to ``value``; a
    spec document goes through a file."""
    argv = [inputs.get(token, token) for token in JSON_COMMANDS[command]]
    if flag == "--spec":
        path = Path(root) / "spec.json"
        path.write_text(value)
        value = str(path)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return [command, *argv, flag, value]


def _json_cases():
    for (command, flag), values in JSON_FLAGS.items():
        for value in values:
            yield pytest.param(command, flag, value, id=f"{command}{flag}={value}")
    for doc in SPEC_DOCUMENTS:
        yield pytest.param("generate", "--spec", doc, id=f"spec={doc}")


@pytest.mark.parametrize("command, flag, value", list(_json_cases()))
def test_json_value_of_the_wrong_shape(tmp_path, capsys, inputs, command, flag, value):
    # Every case is refused except an empty list of extra strip directions.
    code = _run_clean(_json_argv(command, flag, value, inputs, tmp_path), tmp_path)
    assert code == (0 if (command, value) == ("strip", "[]") else 2)
    if code:
        _one_error_line(capsys)


DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("command, flag", list(JSON_FLAGS) + [("generate", "--spec")],
                         ids=lambda v: v.lstrip("-"))
def test_json_nested_past_the_parser_limit(tmp_path, capsys, inputs, command, flag):
    # json.loads raises RecursionError about 1,000 levels down.
    assert _run_clean(_json_argv(command, flag, DEEP, inputs, tmp_path), tmp_path) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("thetas", ["[[]]", "[]"])
def test_zero_width_thetas_named(tmp_path, capsys, inputs, thetas):
    # Such thetas were refused only by halton's "d must be at least 1".
    assert _run_clean(_json_argv("sud", "--thetas", thetas, inputs, tmp_path),
                      tmp_path) == 2
    assert "thetas have width 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sud", "udt"])
@pytest.mark.parametrize("thetas", ["[[0.1],[0.2,0.3]]", "[[0.1],[]]", "[0.1,[0.2]]"])
def test_ragged_thetas_named(tmp_path, capsys, inputs, command, thetas):
    # numpy refused these with its "inhomogeneous shape" text.
    assert _run_clean(_json_argv(command, "--thetas", thetas, inputs, tmp_path),
                      tmp_path) == 2
    assert "thetas" in capsys.readouterr().err


def test_ragged_xi_named(tmp_path, capsys, inputs):
    assert _run_clean(_json_argv("udt", "--xi", "[[0.3],[0.3,0.4]]", inputs, tmp_path),
                      tmp_path) == 2
    assert "xi must match" in capsys.readouterr().err


# Spec documents whose determinant check printed numpy's divide-by-zero or
# overflow warning; the overflowing basis is singular and was accepted.
SINGULAR_SPECS = {
    "subnormal-grid": {"variant": "GridUnion", "params": {"grids": [
        {"basis": [[0.0, 0.0], [5e-324, 2.0]], "translation": [0.0, 0.0]}]}},
    "overflowing-grid": {"variant": "GridUnion", "params": {"grids": [
        {"basis": [[1e308, 1e308], [1e308, 1e308]], "translation": [0.0, 0.0]}]}},
    "subnormal-cut-and-project": {"variant": "CutAndProject", "params": {
        "grid": {"basis": [[1.0, 0.0], [0.0, 1.0]], "translation": [0.0, 0.0]},
        "phys_basis": [[0.0], [5e-324]], "int_basis": [[0.0], [2.0]],
        "window_interval": [0.0, 1.0]}},
}


@pytest.mark.parametrize("name", sorted(SINGULAR_SPECS))
@pytest.mark.parametrize("command", ["generate", "strip"])
def test_singular_basis_refused(tmp_path, capsys, inputs, command, name):
    doc = json.dumps(SINGULAR_SPECS[name])
    assert _run_clean(_json_argv(command, "--spec", doc, inputs, tmp_path), tmp_path) == 2
    _one_error_line(capsys)


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3)
    | st.sampled_from([1e308, -1e308, 2 ** 63, 10 ** 400, -(10 ** 400)]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
VARIANTS = ["PeresForest", "GeneralizedPeres", "ThreeGrid", "D2", "GridUnion",
            "CutAndProject"]
spec_documents = json_values | st.builds(
    lambda variant, params: {"variant": variant, "params": params},
    st.sampled_from(VARIANTS), json_values)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(JSON_FLAGS) + [("generate", "--spec")]).flatmap(
    lambda key: st.tuples(st.just(key), spec_documents if key[1] == "--spec"
                          else json_values)))
def test_drawn_json_values(inputs, case):
    (command, flag), value = case
    with tempfile.TemporaryDirectory() as root:
        _run_clean(_json_argv(command, flag, json.dumps(value), inputs, root), Path(root))


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
