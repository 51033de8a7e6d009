"""The boundary formats: instance loading, the solution.json round trip and CSV output."""

import csv
import io
import json
import os

import numpy as np
import pytest

from qoc.io import (
    InstanceError,
    load_instance,
    solution_from_dict,
    solution_to_dict,
    write_csv,
    write_json,
)
from qoc.qkl import solve_qkl
from qoc.qlqr import solve_qlqr
from qoc.troc import solve_troc

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def instance_path(name):
    return os.path.join(INSTANCES, name)


@pytest.mark.parametrize(
    "name, key, value, overrides",
    [
        ("troc_small.json", None, None, {"lambda": float("nan")}),
        ("troc_small.json", None, None, {"lambda": float("inf")}),
        ("qkl_ring4.json", None, None, {"q": float("nan")}),
        ("qlqr_scalar.json", "a", float("nan"), None),
        ("qlqr_scalar.json", "initial_state", [float("-inf")], None),
        ("qkl_ring4.json", "state_cost", [0.0, float("inf"), 1.0, 2.0], None),
    ],
)
def test_load_instance_rejects_non_finite(tmp_path, name, key, value, overrides):
    path = instance_path(name)
    if key is not None:
        doc = json.load(open(path))
        doc[key] = value
        path = tmp_path / name
        path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError):
        load_instance(path, overrides)


SOLVERS = {"qkl": solve_qkl, "troc": solve_troc, "qlqr": solve_qlqr}


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
def test_solution_round_trip(tmp_path, name):
    kind, instance = load_instance(instance_path(name))
    sol = SOLVERS[kind](instance)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_json(first, solution_to_dict(kind, sol))
    back = solution_from_dict(json.load(open(first)), instance)
    assert type(back) is type(sol)
    for field, value in vars(sol).items():
        assert np.array_equal(getattr(back, field), value), field
    write_json(second, solution_to_dict(kind, back))
    assert first.read_bytes() == second.read_bytes()


def per_cell_csv(header, rows):
    """The CSV writer's reference: every numeric cell formatted on its own."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format(float(c), ".17g") if isinstance(c, (int, float, np.floating)) else c for c in row]
        )
    return buf.getvalue().encode()


EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1, 1.0 / 3.0, np.pi, -2.0 / 7.0,
               123456789.01234567, 2.0**53, 1e16, 1e-5]


def test_write_csv_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [EDGE_VALUES, rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)]
    ).reshape(-1, 2)
    stage = list(range(len(values)))  # Python ints in the reference, floats in the table
    rows = [[k, -k] + list(v) for k, v in zip(stage, values)]
    table = np.column_stack([stage, np.negative(stage), values])
    path = tmp_path / "t.csv"
    write_csv(path, ["stage", "neg", "a", "b"], table)
    assert path.read_bytes() == per_cell_csv(["stage", "neg", "a", "b"], rows)


def test_write_csv_pads_short_rows_and_joins_tables(tmp_path):
    header = ["stage", "x0", "u0", "u1"]
    full = np.array([[0, 1.5, -0.0, 1e-300], [1, 2.5, 1e300, 3.0]])
    short = np.array([[2, 0.1]])
    path = tmp_path / "t.csv"
    write_csv(path, header, full, short)
    expected = per_cell_csv(header, full.tolist() + [[2, 0.1, "", ""]])
    assert path.read_bytes() == expected
    assert path.read_text().splitlines()[-1] == "2,0.10000000000000001,,"


def test_write_csv_zero_rows_writes_the_header_only(tmp_path):
    path = tmp_path / "sweep.csv"
    write_csv(path, ["parameter", "cost"], np.empty((0, 2)))
    assert path.read_text() == "parameter,cost\n"
