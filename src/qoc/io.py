"""The kind table, instance file loading, schema validation and deterministic output writing."""

import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import os
import secrets
from importlib import resources

import numpy as np

from . import qkl, qlqr, troc
from .deformed import _check_distributions
from .qgaussian import _check_spd

__all__ = [
    "KINDS",
    "InstanceError",
    "load_instance",
    "read_instance",
    "validate_instance_dict",
    "solution_to_dict",
    "solution_from_dict",
    "atomic_write_text",
    "write_csv",
    "write_json",
]

OUTPUT_DIR_ENV = "QOC_OUT_DIR"


class InstanceError(ValueError):
    """Malformed or schema-invalid instance file."""


@functools.cache
def _schema():
    """The instance schema, read once per process."""
    with resources.files("qoc.schemas").joinpath("instance.schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _validator():
    """The instance schema's jsonschema validator, built for a document ``_admits`` cannot vouch for.

    jsonschema is imported here and nowhere else in the package, so a process
    that reads only valid documents never imports it; the schema's own
    conformance to its draft is checked by the test suite.
    """
    import jsonschema

    return jsonschema.validators.validator_for(_schema())(_schema())


# JSON types by exact Python type: a subclass (a numpy float, an enum) is left to jsonschema
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "int", float: "float",
               bool: "boolean", type(None): "null"}
_BOUNDS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}


def _every(verdicts):
    """All of ``verdicts`` hold: the first that is not True, else True."""
    return next((v for v in verdicts if v is not True), True)


def _admits(schema, value):
    """Whether ``schema`` admits ``value``: True, False, or None when this walk cannot tell.

    Reads only the keywords the instance schema uses: type, enum, const,
    minimum, exclusiveMinimum, exclusiveMaximum, required, properties,
    items, anyOf, allOf and if/then, skipping the annotations $schema, $id
    and title; any other keyword makes the answer None.  None is also the
    answer for a Python type JSON does not produce, a float ``integer``, a
    NaN against a bound, and an enum or const that is not string against
    string.  Every True and every False is jsonschema's own verdict, so
    None is always a safe answer and jsonschema judges every document
    this walk does not call valid.
    """
    t = _JSON_TYPES.get(type(value))
    if t is None:
        return None
    verdict = True
    for key, arg in schema.items():
        if key in ("$schema", "$id", "title", "then"):
            continue
        if key == "type":
            ok = {"object": t == "object", "array": t == "array", "string": t == "string",
                  "number": t in ("int", "float"),
                  "integer": True if t == "int" else None if t == "float" else False}.get(arg)
        elif key in ("enum", "const"):
            options = arg if key == "enum" else [arg]
            ok = value in options if t == "string" and all(type(o) is str for o in options) else None
        elif key in _BOUNDS:
            if t not in ("int", "float"):
                ok = True  # bounds apply to numbers only, and a bool is not one
            elif value != value or type(arg) not in (int, float):
                ok = None  # every comparison with a NaN is false
            else:
                ok = _BOUNDS[key](value, arg)
        elif key == "required":
            ok = t != "object" or all(name in value for name in arg)
        elif key == "properties":
            ok = t != "object" or _every(_admits(sub, value[k]) for k, sub in arg.items() if k in value)
        elif key == "items":
            ok = t != "array" or _every(_admits(arg, item) for item in value)
        elif key == "allOf":
            ok = _every(_admits(sub, value) for sub in arg)
        elif key == "anyOf":
            verdicts = [_admits(sub, value) for sub in arg]
            ok = True if True in verdicts else None if None in verdicts else False
        elif key == "if":
            condition = _admits(arg, value)  # an unsure condition leaves the answer unsure
            ok = True if condition is False else condition and _admits(schema.get("then", {}), value)
        else:
            return None
        if ok is False:
            return False
        if ok is None:
            verdict = None
    return verdict


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
    for branch in _schema()["allOf"]:
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

    Array fields that numpy vouches for are replaced by ``[]``, which the
    schema admits for each of them; no rule ties fields together beyond
    ``kind``, so the verdict is the same.  ``_admits`` then walks the rest.
    A document it does not call valid goes to jsonschema, which judges it
    and, on a rejection, walks it whole, so every message is its own.
    Returns the vouched arrays as float ndarrays, by field name.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    fields = _array_fields().get(kind, {}) if isinstance(kind, str) else {}
    arrays = {name: _vouch(doc[name], shapes) for name, shapes in fields.items() if name in doc}
    arrays = {name: arr for name, arr in arrays.items() if arr is not None}
    rest = {**doc, **dict.fromkeys(arrays, [])} if arrays else doc
    if _admits(_schema(), rest) is not True and not _validator().is_valid(rest):
        import jsonschema

        error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
        raise InstanceError(f"invalid instance at {error.json_path}: {error.message}") from error
    return arrays


def _simulate_qkl(instance, sol, steps, trajectories, seed):
    """trajectories.csv: the state of every rollout at every stage."""
    seeds = [(seed, t) for t in range(trajectories)]
    paths = qkl.rollout(instance, sol.controlled_matrices, steps, seeds)
    trajectory, stage = np.indices(paths.shape)
    table = np.column_stack([stage.ravel(), trajectory.ravel(), paths.ravel()])
    return {"trajectories.csv": (["stage", "trajectory", "state"], table)}


def _simulate_qlqr(instance, sol, steps, trajectories, seed):
    """envelope.csv, then trajectories.csv unless no trajectory is asked for."""
    n, m = instance.state_dim, instance.input_dim
    lower, upper = qlqr.support_envelope(instance, sol, steps)
    header = ["stage"] + [f"lower{i}" for i in range(n)] + [f"upper{i}" for i in range(n)]
    outputs = {"envelope.csv": (header, np.column_stack([np.arange(steps + 1), lower, upper]))}
    if trajectories > 0:
        states, inputs = qlqr.simulate_closed_loop(instance, sol, trajectories, steps, seed)
        header = ["stage", "trajectory"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
        index = np.indices(states.shape[:2]).reshape(2, -1).T
        table = np.hstack([index, states.reshape(-1, n)])
        # the last stage has no input, so its rows end in empty cells
        split = steps * trajectories
        rows = np.hstack([table[:split], inputs.reshape(split, m)])
        outputs["trajectories.csv"] = (header, rows, table[split:])
    return outputs


# kind -> (instance type, solution type, solver, solution field also written as
# <field>.csv, sweep metrics, simulation outputs or None).  The lambdas and the
# module-attribute calls look each function up at call time, so a rebound module
# attribute (bench/spans.py wraps several) is honoured.
KINDS = {
    "qkl": (qkl.QklInstance, qkl.QklSolution, lambda instance: qkl.solve_qkl(instance),
            "controlled_matrices", lambda instance, sol: qkl.sweep_metrics(instance, sol),
            _simulate_qkl),
    "troc": (troc.FiniteTrocInstance, troc.TrocSolution, lambda instance: troc.solve_troc(instance),
             "policy", lambda instance, sol: troc.sweep_metrics(instance, sol), None),
    "qlqr": (qlqr.QlqrInstance, qlqr.QlqrSolution, lambda instance: qlqr.solve_qlqr(instance),
             "gains", lambda instance, sol: qlqr.sweep_metrics(instance, sol, instance.horizon),
             _simulate_qlqr),
}


def read_instance(path, what="instance"):
    """The JSON object at ``path`` and the bytes it was parsed from.

    Raises InstanceError calling the file a ``what`` file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or text that is not UTF-8
        raise InstanceError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{what} file must contain a JSON object")
    return doc, data


def load_instance(path, overrides=None):
    """Read, validate and build the instance at ``path``; returns (kind, instance, sha256).

    ``sha256`` is the hex digest of the bytes that were parsed, so a file
    rewritten later is still recorded as it was read.  ``overrides`` may
    set q, lambda, horizon; command-line values take precedence over the
    document's fields.  Every number must be finite.
    """
    doc, data = read_instance(path)
    for key in ("q", "lambda", "horizon"):
        if overrides and overrides.get(key) is not None:
            doc[key] = overrides[key]
    arrays = validate_instance_dict(doc)
    kind = doc["kind"]
    cls = KINDS[kind][0]
    try:
        # instance fields are named as the document keys, except lam for "lambda"
        args = {"horizon": int(doc["horizon"]), "lam": float(doc["lambda"]), "q": float(doc["q"])}
        for f in dataclasses.fields(cls):
            if f.name in doc and f.name not in args:
                args[f.name] = np.asarray(arrays.get(f.name, doc[f.name]), dtype=float)
        for name, value in args.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        return kind, cls(**args), hashlib.sha256(data).hexdigest()
    except (ValueError, OverflowError) as exc:
        raise InstanceError(f"invalid {kind} instance: {exc}") from exc


def solution_to_dict(kind, solution):
    """The ``solution.json`` payload: ``kind`` plus every array of the solution."""
    return {"kind": kind, **vars(solution)}


def solution_from_dict(doc, instance):
    """Solution object from a parsed ``solution.json`` made for ``instance``.

    The solution type is ``KINDS[doc["kind"]]``'s; the caller checks
    ``doc["kind"]`` against the instance.  Every field of that type must be
    present, a nested list of numbers as ``_vouch`` reads it, finite and
    shaped by the field's ``layout`` metadata: (e, *names) is the shape
    (T + e, *dims), each dim the instance attribute of that name, with the
    solution's horizon T fixed by the first field.  Controlled matrices
    must be column-stochastic and noise covariances symmetric positive
    definite.  Otherwise InstanceError names the field.
    """
    cls = KINDS[doc["kind"]][1]
    fields = {}
    horizon = None
    for field in dataclasses.fields(cls):
        name, (extra, *names) = field.name, field.metadata["layout"]
        dims = [getattr(instance, dim) for dim in names]
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


def atomic_write_text(path, chunks):
    """Write the text ``chunks``, in order, as UTF-8 via a temp file and rename; returns the SHA-256.

    Each chunk is encoded, hashed and written before the next is taken, so
    the returned hex digest is that of the bytes on disk and no more than
    one chunk is held at a time.  Partial files never appear: on any
    error the temp file is removed and ``path`` is left as it was.  The
    temp file is created with mode 0o666, so the file's mode follows the
    process umask as ``open`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


# cells formatted per ``%`` operation in write_csv, which bounds a CSV write's memory
CSV_BLOCK_CELLS = 1 << 14


def _csv_chunks(header, tables):
    """The CSV text of ``write_csv``, one block of at most CSV_BLOCK_CELLS cells at a time."""
    yield ",".join(header) + "\n"
    for table in tables:
        table = np.asarray(table)
        rows, cols = table.shape
        line = ",".join(["%.17g"] * cols + [""] * (len(header) - cols)) + "\n"
        step = max(1, CSV_BLOCK_CELLS // max(cols, 1))
        for start in range(0, rows, step):
            block = table[start:start + step]
            yield (line * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header, *tables):
    """Atomic CSV write of 2-d numeric tables, in order, below one header; returns the SHA-256.

    Every cell is written with 17 significant digits (a lossless round
    trip); a table narrower than the header ends its rows in empty cells.
    Each block of rows up to CSV_BLOCK_CELLS cells is one ``%`` over a
    repeated ``%.17g`` row template, so a write holds one block at a time.
    """
    return atomic_write_text(path, _csv_chunks(header, tables))


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
    """Atomic write of ``payload`` as json.dumps(indent=2, sort_keys=True) plus a newline.

    The text goes to ``atomic_write_text`` in ``_json_chunks``' chunks, so
    the whole document is never held at once; returns its SHA-256.
    """
    return atomic_write_text(path, itertools.chain(_json_chunks(payload), ["\n"]))
