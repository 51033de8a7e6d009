"""Instance file loading, schema validation and deterministic output writing."""

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import tempfile
from importlib import resources

import jsonschema
import numpy as np

from .deformed import _check_distributions
from .qgaussian import _check_spd
from .qkl import QklInstance, QklSolution
from .qlqr import QlqrInstance, QlqrSolution
from .troc import FiniteTrocInstance, TrocSolution

__all__ = [
    "InstanceError",
    "load_instance",
    "read_instance",
    "validate_instance_dict",
    "solution_to_dict",
    "solution_from_dict",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "file_checksum",
]

OUTPUT_DIR_ENV = "QOC_OUT_DIR"


class InstanceError(ValueError):
    """Malformed or schema-invalid instance file."""


@functools.cache
def _validator():
    """The instance schema's validator, read and checked once per process."""
    with resources.files("qoc.schemas").joinpath("instance.schema.json").open() as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _array_shapes(schema, depth=0):
    """Each (depth, minimum) under which ``schema`` admits nested lists of numbers.

    Understands ``type: array`` with ``items``, ``anyOf`` and a ``number``
    leaf with an optional ``minimum``; returns None for any other keyword,
    so a schema this walk cannot read is always left to jsonschema.
    """
    if schema.keys() == {"anyOf"}:
        alternatives = [_array_shapes(s, depth) for s in schema["anyOf"]]
        return None if None in alternatives else [a for alt in alternatives for a in alt]
    if schema.keys() == {"type", "items"} and schema["type"] == "array":
        return _array_shapes(schema["items"], depth + 1)
    if schema.get("type") == "number" and schema.keys() <= {"type", "minimum"}:
        return [(depth, schema.get("minimum"))]
    return None


@functools.cache
def _array_fields():
    """kind -> {field: [(depth, minimum), ...]} for the array fields of each kind's branch."""
    table = {}
    for branch in _validator().schema["allOf"]:
        fields = {}
        for name, sub in branch["then"]["properties"].items():
            shapes = [(d, m) for d, m in _array_shapes(sub) or () if d > 0]  # arrays only
            if shapes:
                fields[name] = shapes
        table[branch["if"]["properties"]["kind"]["const"]] = fields
    return table


def _vouch(value, shapes):
    """``value`` as a float array when numpy alone shows it fits one of ``shapes``, else None.

    It must be lists nested to one of the ``shapes``' depths, with every
    leaf exactly an int or a float (not a bool, which numpy would take as
    a number), convertible to a regular float array, and at least that
    depth's minimum everywhere (so a NaN fails wherever a minimum is set).
    """
    if type(value) is not list:
        return None
    level, depth = [value], 1  # the lists holding the entries at ``depth``
    while (types := set(map(type, itertools.chain.from_iterable(level)))) == {list}:
        level, depth = list(itertools.chain.from_iterable(level)), depth + 1
    if not types or not types <= {int, float}:
        return None
    minimums = [minimum for d, minimum in shapes if d == depth]
    if not minimums:
        return None
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged rows, integers beyond float range
        return None
    if arr.ndim == depth and any(m is None or np.all(arr >= m) for m in minimums):
        return arr
    return None


def validate_instance_dict(doc):
    """Schema-check a parsed instance document; raises InstanceError.

    jsonschema is the only judge.  Array fields that numpy vouches for are
    replaced by ``[]``, which the schema admits for each of them, before
    jsonschema checks the rest; no rule ties fields together beyond
    ``kind``, so the verdict is the same.  A rejected document goes through
    jsonschema whole, so every message is its own.
    Returns the vouched arrays as float ndarrays, by field name.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    fields = _array_fields().get(kind, {}) if isinstance(kind, str) else {}
    arrays = {name: _vouch(doc[name], shapes) for name, shapes in fields.items() if name in doc}
    arrays = {name: arr for name, arr in arrays.items() if arr is not None}
    if not _validator().is_valid({**doc, **dict.fromkeys(arrays, [])} if arrays else doc):
        error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
        raise InstanceError(f"invalid instance at {error.json_path}: {error.message}") from error
    return arrays


INSTANCE_TYPES = {"qkl": QklInstance, "troc": FiniteTrocInstance, "qlqr": QlqrInstance}


def read_instance(path, what="instance"):
    """The JSON object at ``path``; raises InstanceError calling the file a ``what`` file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{what} file must contain a JSON object")
    return doc


def load_instance(path, overrides=None):
    """Read, validate and build the instance at ``path``; returns (kind, instance).

    ``overrides`` may set q, lambda, horizon; command-line values take
    precedence over the document's fields.  Every number must be finite.
    """
    doc = read_instance(path)
    for key in ("q", "lambda", "horizon"):
        if overrides and overrides.get(key) is not None:
            doc[key] = overrides[key]
    arrays = validate_instance_dict(doc)
    kind = doc["kind"]
    cls = INSTANCE_TYPES[kind]
    try:
        # instance fields are named as the document keys, except lam for "lambda"
        args = {"horizon": int(doc["horizon"]), "lam": float(doc["lambda"]), "q": float(doc["q"])}
        for f in dataclasses.fields(cls):
            if f.name in doc and f.name not in args:
                args[f.name] = np.asarray(arrays.get(f.name, doc[f.name]), dtype=float)
        for name, value in args.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        return kind, cls(**args)
    except (ValueError, OverflowError) as exc:
        raise InstanceError(f"invalid {kind} instance: {exc}") from exc


def solution_to_dict(kind, solution):
    """The ``solution.json`` payload: ``kind`` plus every array of the solution."""
    return {"kind": kind, **vars(solution)}


def _solution_layout(instance):
    """Solution type for ``instance`` and each array field's (extra stages, *dims).

    A field laid out as (e, d1, ...) has shape (T + e, d1, ...), where T is
    the horizon of the solution, not of the instance.
    """
    if isinstance(instance, QklInstance):
        n = instance.num_states
        return QklSolution, dict(values=(1, n), controlled_matrices=(0, n, n), normalizers=(0, n))
    if isinstance(instance, FiniteTrocInstance):
        n, m = instance.num_states, instance.num_actions
        shapes = dict(value=(1, n), q_values=(0, n, m), policy=(0, n, m), normalizers=(0, n))
        return TrocSolution, shapes
    n, m = instance.state_dim, instance.input_dim
    return QlqrSolution, dict(
        pi_matrices=(1, n, n), gains=(0, m, n), noise_covariances=(0, m, m),
        etas=(0,), support_radii=(0, m),
    )


def solution_from_dict(doc, instance):
    """Solution object from a parsed ``solution.json`` made for ``instance``.

    Every field must be present, a nested list of numbers as
    ``_vouch`` reads it, finite and shaped for the instance, with
    the horizon T fixed by the first field.  Controlled matrices must be
    column-stochastic and noise covariances symmetric positive definite.
    Otherwise InstanceError names the field.  The caller checks
    ``doc["kind"]`` against the instance.
    """
    cls, layout = _solution_layout(instance)
    fields = {}
    horizon = None
    for name, (extra, *dims) in layout.items():
        if name not in doc:
            raise InstanceError(f"solution is missing {name!r}")
        arr = _vouch(doc[name], [(1 + len(dims), None)])
        if arr is None:
            raise InstanceError(f"solution field {name!r} is not a {1 + len(dims)}-d array of numbers")
        if horizon is None:
            horizon = len(arr) - extra
        shape = (horizon + extra, *dims)
        if arr.shape != shape or not np.all(np.isfinite(arr)):
            raise InstanceError(f"solution field {name!r} must be finite with shape {shape}")
        try:
            if name == "controlled_matrices":
                _check_distributions(arr, -2, "every column")
            elif name == "noise_covariances":
                _check_spd(arr, "every covariance")
        except ValueError as exc:
            raise InstanceError(f"solution field {name!r}: {exc}") from exc
        fields[name] = arr
    return cls(**fields)


def atomic_write_text(path, *parts):
    """Write the parts, in order, via a temp file and rename, so partial files never appear."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, *tables):
    """Atomic CSV write of 2-d numeric tables, in order, below one header.

    Every cell is written with 17 significant digits (a lossless round
    trip); a table narrower than the header ends its rows in empty cells.
    """
    parts = [",".join(header) + "\n"]
    for table in tables:
        rows, cols = np.shape(table)
        line = ",".join(["%.17g"] * cols + [""] * (len(header) - cols)) + "\n"
        parts.append((line * rows) % tuple(np.ravel(table).tolist()))
    atomic_write_text(path, *parts)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _array_template(shape, level):
    """``%`` template printing a float array of ``shape`` as json.dumps(indent=2) does.

    ``level`` is the indent level the array opens at; ``%r`` is float repr,
    which is json's own float format.
    """
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def _json_chunks(obj, level=0):
    """json.dumps(obj, indent=2, sort_keys=True) opened at indent ``level``, in chunks.

    Finite float arrays, also inside dicts with string keys, are printed
    with one ``%`` operation each; everything else goes through json.dumps.
    """
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and np.all(np.isfinite(obj)):
        yield _array_template(obj.shape, level) % tuple(obj.ravel().tolist())
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        opening = "{"
        for key in sorted(obj):
            yield opening + "\n" + "  " * (level + 1) + json.dumps(key) + ": "
            yield from _json_chunks(obj[key], level + 1)
            opening = ","
        yield "\n" + "  " * level + "}"
    else:
        text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
        yield text.replace("\n", "\n" + "  " * level)  # json escapes newlines inside strings


def write_json(path, payload):
    """Atomic write of ``payload`` as json.dumps(indent=2, sort_keys=True) plus a newline."""
    atomic_write_text(path, *_json_chunks(payload), "\n")


def file_checksum(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
