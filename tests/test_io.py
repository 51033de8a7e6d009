"""The boundary formats: instance loading and the solution.json round trip."""

import json
import os

import numpy as np
import pytest

from qoc.io import InstanceError, load_instance, solution_from_dict, solution_to_dict, write_json
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
