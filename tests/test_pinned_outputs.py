"""`qoc solve`, `sweep` and `simulate` on the bundled instances reproduce pinned output values.

The ``solve`` files under ``data/pinned/<instance>/`` were written by

    qoc solve instances/<instance>.json [--horizon H] --out tests/data/pinned/<instance>

at commit 1df19c9 (``result_bundle.json`` dropped, since it records paths).
``sweep_q.csv`` and ``sweep_lambda.csv`` are the ``sweep.csv`` of

    qoc sweep instances/<instance>.json [--horizon H] --grid 0.1:0.9:5
    qoc sweep instances/<instance>.json [--horizon H] --parameter lambda --grid 0.5,1,2

at commit 55c6add.  ``simulate_trajectories.csv`` and ``simulate_envelope.csv`` are the
outputs of

    qoc simulate instances/<instance>.json [--horizon H] <solution.json of the solve above>
        --steps 3 --trajectories 20 --seed 1

at commit e8d080b, for the two kinds that simulate.  Arrays are compared at 1e-12 times
their largest magnitude (per column for a sweep or a simulation) rather than byte for
byte, because BLAS summation order differs between machines; a change that moves an
output by more than that must re-pin it and say why.
"""

import json
import os

import numpy as np
import pytest

from qoc.cli import main

HERE = os.path.dirname(__file__)
INSTANCES = os.path.join(HERE, "..", "instances")
PINNED = os.path.join(HERE, "data", "pinned")
REL_TOL = 1e-12

# instance -> (extra solve and sweep arguments, CSV file written beside solution.json)
CASES = {
    "qkl_ring4": (["--horizon", "20"], "controlled_matrices.csv"),
    "troc_small": ([], "policy.csv"),
    "qlqr_scalar": ([], "gains.csv"),
}


# pinned file -> sweep arguments
SWEEPS = {
    "sweep_q.csv": ["--grid", "0.1:0.9:5"],
    "sweep_lambda.csv": ["--parameter", "lambda", "--grid", "0.5,1,2"],
}


def assert_close(actual, expected, what, axis=None):
    """Equal within REL_TOL of the largest magnitude, of the whole array or along ``axis``."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    scale = np.max(np.abs(expected), axis=axis, initial=0.0)
    assert np.all(np.max(np.abs(actual - expected), axis=axis, initial=0.0) <= REL_TOL * scale), what


# simulate arguments, and instance -> the CSV files simulate writes
SIMULATE = ["--steps", "3", "--trajectories", "20", "--seed", "1"]
SIMULATED = {
    "qkl_ring4": ["trajectories.csv"],
    "qlqr_scalar": ["trajectories.csv", "envelope.csv"],
}


def read_csv(path):
    with open(path) as fh:
        header = fh.readline()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_csv_with_blanks(path):
    """Like ``read_csv``, but an empty cell reads as NaN."""
    with open(path) as fh:
        header = fh.readline()
    return header, np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_pinned_values(tmp_path, capsys, name):
    extra, csv_name = CASES[name]
    out = tmp_path / name
    assert main(["solve", os.path.join(INSTANCES, f"{name}.json"), *extra, "--out", str(out)]) == 0
    capsys.readouterr()
    pinned_dir = os.path.join(PINNED, name)
    with open(os.path.join(pinned_dir, "solution.json")) as fh:
        expected = json.load(fh)
    with open(out / "solution.json") as fh:
        actual = json.load(fh)
    assert sorted(actual) == sorted(expected)
    for key, value in expected.items():
        if isinstance(value, str):
            assert actual[key] == value
        else:
            assert_close(actual[key], value, f"{name}: solution.json {key}")
    header, table = read_csv(out / csv_name)
    pinned_header, pinned_table = read_csv(os.path.join(pinned_dir, csv_name))
    assert header == pinned_header
    assert_close(table, pinned_table, f"{name}: {csv_name}")


@pytest.mark.parametrize("pinned", sorted(SWEEPS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_pinned_values(tmp_path, capsys, name, pinned):
    extra, _ = CASES[name]
    out = tmp_path / name
    argv = ["sweep", os.path.join(INSTANCES, f"{name}.json"), *extra, *SWEEPS[pinned]]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    header, table = read_csv(out / "sweep.csv")
    pinned_header, pinned_table = read_csv(os.path.join(PINNED, name, pinned))
    assert header == pinned_header
    assert_close(table, pinned_table, f"{name}: {pinned}", axis=0)


@pytest.mark.parametrize("name", sorted(SIMULATED))
def test_simulate_matches_pinned_values(tmp_path, capsys, name):
    extra, _ = CASES[name]
    instance = os.path.join(INSTANCES, f"{name}.json")
    assert main(["solve", instance, *extra, "--out", str(tmp_path / "solve")]) == 0
    solution = str(tmp_path / "solve" / "solution.json")
    out = tmp_path / "simulate"
    assert main(["simulate", instance, *extra, solution, *SIMULATE, "--out", str(out)]) == 0
    capsys.readouterr()
    for csv_name in SIMULATED[name]:
        header, table = read_csv_with_blanks(out / csv_name)
        pinned_header, pinned_table = read_csv_with_blanks(
            os.path.join(PINNED, name, f"simulate_{csv_name}")
        )
        assert header == pinned_header
        # the last q-LQR stage has no input: its cells are empty in both files
        blank = np.isnan(pinned_table)
        assert np.array_equal(np.isnan(table), blank), f"{name}: {csv_name} blank cells"
        assert_close(
            np.where(blank, 0.0, table), np.where(blank, 0.0, pinned_table),
            f"{name}: {csv_name}", axis=0,
        )
