"""The boundary formats: instance loading, the solution.json round trip and CSV output."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoc import io as qio
from qoc.io import (
    InstanceError,
    load_instance,
    solution_from_dict,
    solution_to_dict,
    validate_instance_dict,
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
    kind, instance, _ = load_instance(instance_path(name))
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


def test_write_csv_streams_blocks_that_join_to_the_per_cell_text(tmp_path):
    rng = np.random.default_rng(7)
    header = ["stage", "a", "b", "c", "d"]
    rows_per_block = qio.CSV_BLOCK_CELLS // len(header)
    wide = rng.standard_normal((3 * rows_per_block + 17, 5)) * 10.0 ** rng.integers(-300, 300, 5)
    narrow = rng.standard_normal((4, 3))
    path = tmp_path / "t.csv"
    digest = write_csv(path, header, wide, narrow, np.empty((0, 5)))
    expected = per_cell_csv(header, wide.tolist() + [row + ["", ""] for row in narrow.tolist()])
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()


def test_write_csv_memory_is_bounded_by_a_block(tmp_path):
    table = np.random.default_rng(8).standard_normal((12000, 18))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_csv(path, [f"c{j}" for j in range(18)], table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 4e6
    assert peak < size / 2, (peak, size)


def test_write_csv_failing_in_a_later_block_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    table = np.ones((3 * qio.CSV_BLOCK_CELLS, 2), dtype=object)
    table[-1, -1] = "not a number"
    with pytest.raises(TypeError):
        write_csv(path, ["a", "b"], table)
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_json_matches_json_dumps(tmp_path):
    rng = np.random.default_rng(6)
    spread = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
    payload = {
        "kind": "troc",
        "edges": np.array(EDGE_VALUES + [3.0, -7.0, 2.0**60]),
        "spread": spread.reshape(3, 4, 5),
        "four_d": rng.standard_normal((2, 3, 1, 2)),
        "cube": np.array([[[0.1 + 0.2]]]),
        "none": np.zeros(0),
        "no_rows": np.zeros((0, 3)),
        "no_columns": np.zeros((3, 0)),
        "counts": np.arange(4),
        "non_finite": np.array([[1.5, np.nan], [np.inf, -np.inf]]),
        "scalar": np.float64(1e-300),
        "nested": {"b": np.array([[-0.0, 5e-324]]), "a": "line\nbreak", "c": [np.ones(2)]},
        "empty": {},
        "seed": None,
    }
    path = tmp_path / "payload.json"
    digest = write_json(path, payload)
    expected = json.dumps(qio._jsonable(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()
    assert digest == hashlib.sha256(expected.encode()).hexdigest()


# --------------------------------------------------- the validation fast path

def reference_verdict(doc):
    """The full jsonschema walk's verdict: None or the InstanceError text."""
    error = jsonschema.exceptions.best_match(qio._validator().iter_errors(doc))
    return None if error is None else f"invalid instance at {error.json_path}: {error.message}"


BAD_LEAVES = [True, False, "1.5", None, {}, {"a": 1.0}, [], [0.5], -1.0, -1e-300, -0.0, -3,
              float("nan"), float("inf"), float("-inf"), 2**64, -(2**64), 10**309, 10**400]


def _matrix(draw, shape, cells):
    if len(shape) == 1:
        return [draw(cells) for _ in range(shape[0])]
    return [_matrix(draw, shape[1:], cells) for _ in range(shape[0])]


@st.composite
def instance_documents(draw):
    """A schema-valid document of a random kind, then a few random edits."""
    cells = st.one_of(st.floats(0.0, 3.0), st.integers(0, 5))
    kind = draw(st.sampled_from(["troc", "qkl", "qlqr"]))
    n, m, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {"kind": kind, "q": 0.4, "lambda": 0.7, "horizon": horizon}
    if kind == "troc":
        doc["kernel"] = _matrix(draw, (n, m, n), cells)
        cost_shape = draw(st.sampled_from([(n, m), (horizon, n, m)]))
        doc["stage_cost"] = _matrix(draw, cost_shape, cells)
        doc["terminal_cost"] = _matrix(draw, (n,), cells)
    elif kind == "qkl":
        doc["passive_matrix"] = _matrix(draw, (n, n), cells)
        doc["state_cost"] = _matrix(draw, (n,), cells)
        if draw(st.booleans()):
            doc["initial"] = _matrix(draw, (n,), cells)
    else:
        for key in ("a", "b", "q_cost", "s_cost", "r_cost", "terminal_cost"):
            doc[key] = draw(cells) if draw(st.booleans()) else _matrix(draw, (n, n), cells)
        if draw(st.booleans()):
            doc["initial_state"] = _matrix(draw, (n,), cells)
    for _ in range(draw(st.integers(0, 2))):
        arrays = sorted(k for k in doc if isinstance(doc[k], list))
        key = draw(st.sampled_from(sorted(doc) + 3 * arrays))  # mostly edit the arrays
        edit = draw(st.sampled_from(["leaf"] * 3 + ["part", "ragged", "wrap", "unwrap", "replace", "drop"]))
        if edit == "drop":
            del doc[key]
            continue
        if edit == "replace" or not isinstance(doc[key], list) or not doc[key]:
            doc[key] = draw(st.sampled_from(BAD_LEAVES + ["troc", "qkl", [[[]]]]))
            continue
        if edit == "wrap":
            doc[key] = [doc[key]]
            continue
        if edit == "unwrap":
            doc[key] = doc[key][0]
            continue
        parent, index = doc, key  # walk down to a leaf, or otherwise to any element
        while isinstance(parent[index], list) and parent[index] and (edit == "leaf" or draw(st.booleans())):
            parent, index = parent[index], draw(st.integers(0, len(parent[index]) - 1))
        if edit == "ragged" and isinstance(parent[index], list) and parent[index]:
            parent[index] = parent[index][:-1]
        else:
            parent[index] = draw(st.sampled_from(BAD_LEAVES))
    return doc


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance_documents())
def test_validation_agrees_with_the_full_schema_walk(doc):
    expected = reference_verdict(doc)
    try:
        arrays = validate_instance_dict(doc)
    except InstanceError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    for name, arr in arrays.items():
        assert np.array_equal(arr, np.asarray(doc[name], dtype=float), equal_nan=True)


SCALAR_EDITS = [("horizon", v) for v in (2.0, 1, 0, True)] + \
    [("q", v) for v in (0.999999, 1, -0.0, float("nan"), True, "0.5")] + \
    [("lambda", v) for v in (1e-300, 0, float("inf"), 10**400)] + \
    [("kind", v) for v in ("x", 1, None)]


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
@pytest.mark.parametrize("field, value", SCALAR_EDITS)
def test_scalar_fields_agree_with_the_full_schema_walk(name, field, value):
    doc = json.load(open(instance_path(name)))
    doc[field] = value
    expected = reference_verdict(doc)
    # the subset walk may be unsure (None), but a verdict it gives is jsonschema's
    assert qio._admits(qio._schema(), doc) in (None, expected is None)
    try:
        validate_instance_dict(doc)
    except InstanceError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@pytest.mark.parametrize("schema, value", [
    ({"type": "integer"}, 2.0),  # jsonschema's integer takes 2.0, but not 2.5
    ({"minimum": 0}, float("nan")),  # no comparison with a NaN fails
    ({"enum": [1, 2]}, 1),  # jsonschema's equality is not Python's (1 == True)
    ({"const": "a"}, 1),
    ({"type": "number"}, np.float64(1.0)),  # only the types json.loads produces are read
    ({"if": {"const": "a"}, "then": {"type": "string"}}, ["a"]),
    ({"oneOf": [{"type": "number"}]}, 1.0),  # a keyword the walk does not read
    ({"type": "number", "maximum": 1}, 2.0),
])
def test_the_walk_is_unsure_outside_its_subset(schema, value):
    assert qio._admits(schema, value) is None


def test_schema_is_valid_for_its_draft():
    schema = qio._schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


QLQR_MATRICES = ("a", "b", "q_cost", "s_cost", "r_cost", "terminal_cost")


def test_valid_documents_are_vouched_without_the_full_walk(monkeypatch):
    calls = []
    best_match = jsonschema.exceptions.best_match
    monkeypatch.setattr(jsonschema.exceptions, "best_match", lambda e: calls.append(1) or best_match(e))
    vouched = {"troc": {"kernel", "stage_cost", "terminal_cost"},
               "qkl": {"passive_matrix", "state_cost", "initial"},
               "qlqr": {"initial_state"}}
    for name in sorted(os.listdir(INSTANCES)):
        doc = json.load(open(instance_path(name)))
        assert set(validate_instance_dict(doc)) == vouched[doc["kind"]] & set(doc)
    varying = json.load(open(instance_path("troc_small.json")))
    varying["stage_cost"] = [varying["stage_cost"]] * varying["horizon"]
    assert validate_instance_dict(varying)["stage_cost"].shape == (4, 3, 3)
    matrices = json.load(open(instance_path("qlqr_scalar.json")))
    for key in QLQR_MATRICES:
        matrices[key] = [[matrices[key]]]
    assert set(validate_instance_dict(matrices)) == {*QLQR_MATRICES, "initial_state"}
    assert calls == []


def _has_array_type(schema):
    """Whether ``"type": "array"`` appears in ``schema`` or below it, following local $refs."""
    if isinstance(schema, list):
        return any(map(_has_array_type, schema))
    if not isinstance(schema, dict):
        return False
    if "$ref" in schema:  # "#/a/b" names root["a"]["b"]
        target = qio._validator().schema
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        return _has_array_type(target)
    return schema.get("type") == "array" or any(map(_has_array_type, schema.values()))


def test_every_array_field_has_the_fast_path():
    # a field the walker in io._array_shapes cannot read would be checked by jsonschema
    # one number at a time; a $ref, oneOf or new keyword must fail here instead
    for branch in qio._validator().schema["allOf"]:
        kind = branch["if"]["properties"]["kind"]["const"]
        for name, sub in branch["then"]["properties"].items():
            if _has_array_type(sub):
                assert name in qio._array_fields()[kind], (kind, name)
    # a kind or a solution field declared in one place only must fail here too
    kinds = [branch["if"]["properties"]["kind"]["const"] for branch in qio._validator().schema["allOf"]]
    assert sorted(kinds) == sorted(qio.KINDS)
    for kind, (instance_type, solution_type, *_) in qio.KINDS.items():
        attributes = {f.name for f in dataclasses.fields(instance_type)} | set(dir(instance_type))
        for field in dataclasses.fields(solution_type):
            _, *names = field.metadata["layout"]
            assert set(names) <= attributes, (kind, field.name, names)
