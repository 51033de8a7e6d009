"""Instance file loading, schema validation and deterministic output writing."""

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from importlib import resources

import jsonschema
import numpy as np

from .qkl import QklInstance, QklSolution
from .qlqr import QlqrInstance, QlqrSolution
from .troc import FiniteTrocInstance, TrocSolution

__all__ = [
    "InstanceError",
    "load_instance",
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


def validate_instance_dict(doc):
    """Schema-check a parsed instance document; raises InstanceError."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise InstanceError(f"invalid instance at {error.json_path}: {error.message}") from error


INSTANCE_TYPES = {"qkl": QklInstance, "troc": FiniteTrocInstance, "qlqr": QlqrInstance}


def load_instance(path, overrides=None):
    """Load, validate and build an instance; returns (kind, instance).

    ``overrides`` may set q, lambda, horizon; command-line values take
    precedence over the file's fields.  Every number must be finite.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance file must contain a JSON object")
    doc = dict(doc)
    for key in ("q", "lambda", "horizon"):
        if overrides and overrides.get(key) is not None:
            doc[key] = overrides[key]
    validate_instance_dict(doc)
    kind = doc["kind"]
    cls = INSTANCE_TYPES[kind]
    try:
        # instance fields are named as the document keys, except lam for "lambda"
        args = {"horizon": int(doc["horizon"]), "lam": float(doc["lambda"]), "q": float(doc["q"])}
        for f in dataclasses.fields(cls):
            if f.name in doc and f.name not in args:
                args[f.name] = np.asarray(doc[f.name], dtype=float)
        for name, value in args.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        return kind, cls(**args)
    except (ValueError, OverflowError) as exc:
        raise InstanceError(f"invalid {kind} instance: {exc}") from exc


def solution_to_dict(kind, solution):
    """The ``solution.json`` payload: ``kind`` plus every array of the solution."""
    arrays = {k: v for k, v in vars(solution).items() if k != "q"}  # q-LQR's q is the instance's
    return {"kind": kind, **arrays}


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


def _column_stochastic(stack):
    return bool(np.all(stack >= 0) and np.all(np.abs(stack.sum(axis=-2) - 1.0) <= 1e-9))


def _positive_definite(stack):
    if not np.allclose(stack, np.swapaxes(stack, -1, -2), atol=1e-12):
        return False
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


# what a finite, well-shaped field must also be: name -> (check, description)
_FIELD_CHECKS = {
    "controlled_matrices": (_column_stochastic, "non-negative with columns summing to 1"),
    "noise_covariances": (_positive_definite, "symmetric positive definite"),
}


def solution_from_dict(doc, instance):
    """Solution object from a parsed ``solution.json`` made for ``instance``.

    Every field must be present, finite and shaped for the instance, with
    the horizon T fixed by the first field.  Controlled matrices must be
    column-stochastic and noise covariances symmetric positive definite.
    Otherwise InstanceError names the field.  The caller checks
    ``doc["kind"]`` against the instance.
    """
    cls, layout = _solution_layout(instance)
    fields = {"q": instance.q} if cls is QlqrSolution else {}
    horizon = None
    for name, (extra, *dims) in layout.items():
        try:
            arr = np.asarray(doc[name], dtype=float)
        except KeyError:
            raise InstanceError(f"solution is missing {name!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"solution field {name!r} is not a numeric array") from exc
        if horizon is None:
            horizon = len(arr) - extra if arr.ndim else 0
        shape = (horizon + extra, *dims)
        if arr.shape != shape or not np.all(np.isfinite(arr)):
            raise InstanceError(f"solution field {name!r} must be finite with shape {shape}")
        check, description = _FIELD_CHECKS.get(name, (None, None))
        if check is not None and not check(arr):
            raise InstanceError(f"solution field {name!r} must be {description}")
        fields[name] = arr
    return cls(**fields)


def atomic_write_text(path, text):
    """Write via a temp file and rename, so partial files never appear."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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
    atomic_write_text(path, "".join(parts))


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


def write_json(path, payload):
    atomic_write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def file_checksum(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
