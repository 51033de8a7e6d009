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


# cells per CSV block; a CSV write holds one block's text and temporaries at a time
CSV_BLOCK_CELLS = 1 << 12

# An exact '%.17g' for a block of doubles, without a Python call per cell.
#
# A double with 1e-4 <= |x| < 2**51 is m * 2**(be - 1075), m < 2**53 and be its
# biased exponent, and its decimal exponent X is in -4..15, so '%.17g' writes
# it in fixed notation from the 17 significant digits
# D = round-half-even(m * 5**k / 2**(1075 - k - be)), k = 16 - X.  As 5**k < 2**47,
# m * 5**k < 2**100 is held in two 64-bit words made from 32-bit limbs; the
# shift 1075 - k - be stays in 1..46, so every dropped bit lies in the low
# word.  No such double rounds up to D = 10**17: the largest double below each
# power of ten from 1e-3 to 1e16 keeps 17 digits below it.  Every operand is an
# explicit uint64, so no promotion rule of any numpy version makes one a float.
#
# searchsorted on _CSV_EDGES classes a cell by |x|: 0 for zero, 1 for
# 0 < |x| < 1e-4, 2 + X in the kernel's range, 22 from 2**51 on and for NaN.
# Each 1eX literal is the smallest double >= 10**X, so |x| >= 10**X exactly when
# |x| reaches its edge.  Cells of classes 1 and 22 are formatted by '%' instead.
_CSV_EDGES = np.array([5e-324] + [float(f"1e{x}") for x in range(-4, 16)] + [2.0**51])
_CSV_OUTSIDE = np.zeros(23, bool)
_CSV_OUTSIDE[[1, 22]] = True
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)

# A cell is built in 40 bytes, '-0.000' d0 '.' d1 '.' ... '.' d16 ',', from five
# 8-byte words of _CSV_TEXT looked up by the digit groups d0, d1-d4, d5-d8,
# d9-d12 and d13-d16.  A layout row per (sign, X, significant digits) marks the
# bytes '%.17g' keeps, and one compress of the block keeps them.
_CELL = 40
_TEXT_BASE = np.array([0, 10, 10, 10, 10], _U64)
_SIGNIFICANT_BASE = np.array([[0], [10], [10 + 10**4], [10 + 2 * 10**4], [10 + 3 * 10**4]], _U64)


def _csv_class_tables():
    """Per class: 5**k in 32-bit halves, 1075 - k, and the class's first layout row."""
    x = [0, 0] + list(range(-4, 16)) + [0]  # zero and the outside classes as X = 0
    # zero, whose biased exponent is 0, has D = 0 under any shift in 1..46
    five = np.array([0] + [5 ** (16 - v) for v in x[1:]], _U64)
    shift = np.array([32] + [1059 + v for v in x[1:]], _U64)
    return five & _LOW32, five >> _U64(32), shift, np.array([(v + 4) * 18 for v in x])


def _csv_digit_tables():
    """The text words (d0 words, then d-d-d-d words) and, per group position, significant digits.

    The second table gives the significant digits up to a group's last
    nonzero digit, or 0 for a zero group, at _SIGNIFICANT_BASE offsets.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0 .. 9999
    word = np.full((10**4, 8), ord("."), np.uint8)
    word[:, ::2] = digits + ord("0")
    first = np.tile(np.frombuffer(b"-0.000d.", np.uint8), (10, 1))
    first[:, 6] = ord("0") + np.arange(10, dtype=np.uint8)
    last_nonzero = np.max((digits > 0) * np.arange(1, 5, dtype=np.uint8), axis=1)
    counts = [np.arange(10) > 0] + [np.where(last_nonzero > 0, last_nonzero + start, 0)
                                    for start in np.array([1, 5, 9, 13], np.uint8)]
    return np.concatenate([first, word]).view(_U64).ravel(), np.concatenate(counts).astype(np.uint8)


def _csv_layouts():
    """Kept-byte masks by (negative, X + 4, significant digits), then one for an empty cell."""
    negative = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 16)[:, None, None]
    significant = np.arange(18)[:, None]
    shown = np.where(x < 0, significant, np.maximum(significant, x + 1))  # digits written
    b = np.arange(_CELL)
    digit = (b - 6) // 2
    keep = (
        ((b == 0) & (negative == 1))
        | ((b >= 1) & (b <= 1 - x) & (x < 0))  # '0.' and -X - 1 zeros
        | ((b >= 6) & (b % 2 == 0) & (digit < shown))
        | ((b >= 7) & (b % 2 == 1) & (digit == x) & (shown > x + 1))  # the point after digit X
        | (b == _CELL - 1)
    )
    return np.concatenate([keep.reshape(-1, _CELL), [b == _CELL - 1]]).view(_U64)


_FIVE_LO, _FIVE_HI, _SHIFT, _CLASS_ROW = _csv_class_tables()
_CSV_TEXT, _CSV_SIGNIFICANT = _csv_digit_tables()
_CSV_LAYOUT = _csv_layouts()
_EMPTY_CELL = len(_CSV_LAYOUT) - 1


def _csv_template(block, width):
    """``block`` as CSV text by one '%' over a repeated '%.17g' row template."""
    rows, cols = block.shape
    line = ",".join(["%.17g"] * cols + [""] * (width - cols)) + "\n"
    return (line * rows) % tuple(block.ravel().tolist())


def _csv_digits(ax, cls):
    """D, the 17 significant digits of each |x| of class ``cls`` as a uint64 (0 for zero)."""
    bits = ax.view(_U64)
    shift = _SHIFT.take(cls)
    shift -= bits >> _U64(52)
    m_lo = bits & _U64((1 << 52) - 1)
    m_lo |= _U64(1 << 52)
    m_hi = m_lo >> _U64(32)
    m_lo &= _LOW32
    c_lo, c_hi = _FIVE_LO.take(cls), _FIVE_HI.take(cls)
    low = m_lo * c_lo
    middle = m_hi * c_lo
    middle += m_lo * c_hi
    middle += low >> _U64(32)
    high = m_hi * c_hi
    high += middle >> _U64(32)
    low &= _LOW32
    low |= middle << _U64(32)
    d = high << (_U64(64) - shift)
    d |= low >> shift
    low &= (_U64(1) << shift) - _U64(1)  # the dropped bits
    d += (low + (d & _U64(1))) > (_U64(1) << (shift - _U64(1)))  # half to even
    return d


def _csv_groups(d):
    """The digit groups of ``d``, one row per cell: d0, d1-d4, d5-d8, d9-d12, d13-d16."""
    groups = np.empty((len(d), 5), _U64)
    upper = d // _U64(10**8)
    lower = d - upper * _U64(10**8)
    np.floor_divide(upper, _U64(10**8), out=groups[:, 0])
    upper -= groups[:, 0] * _U64(10**8)
    np.floor_divide(upper, _U64(10**4), out=groups[:, 1])
    np.subtract(upper, groups[:, 1] * _U64(10**4), out=groups[:, 2])
    np.floor_divide(lower, _U64(10**4), out=groups[:, 3])
    np.subtract(lower, groups[:, 3] * _U64(10**4), out=groups[:, 4])
    return groups


def _csv_block(block, width):
    """``_csv_template(block, width)``, made by the kernel above where it applies.

    Cells outside the kernel's range are formatted by one '%' call and
    spliced in.  A block with at least half its cells outside, or not of a
    real dtype of at most 64 bits (an object block, say), is the template's.
    Integers are formatted as the doubles they convert to, as '%' does.
    """
    rows, cols = block.shape
    if block.dtype.kind not in "biuf" or block.dtype.itemsize > 8:
        return _csv_template(block, width)
    x = np.zeros((rows, width))
    x[:, :cols] = block
    x = x.ravel()
    ax = np.abs(x)
    cls = np.searchsorted(_CSV_EDGES, ax, "right")
    spliced = np.flatnonzero(_CSV_OUTSIDE.take(cls))
    if 2 * len(spliced) >= rows * cols:  # '%' formats most cells anyway; a kernel pass costs more
        return _csv_template(block, width)
    ax[spliced] = 1.0  # any in-range value; the text is overwritten
    groups = _csv_groups(_csv_digits(ax, cls))
    significant = _CSV_SIGNIFICANT.take((groups.T + _SIGNIFICANT_BASE).view(np.int64)).max(axis=0)
    groups += _TEXT_BASE
    text = _CSV_TEXT.take(groups.view(np.int64)).view(np.uint8).reshape(rows, width, _CELL)
    del groups
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    row = _CLASS_ROW.take(cls) + significant + np.signbit(x) * (20 * 18)
    row[spliced] = _EMPTY_CELL
    row.reshape(rows, width)[:, cols:] = _EMPTY_CELL
    keep = _CSV_LAYOUT.take(row, axis=0).view(np.bool_).reshape(rows, width, _CELL)
    if len(spliced):
        chars = ("%-24.17g" * len(spliced)) % tuple(x[spliced].tolist())  # none is longer
        chars = np.frombuffer(chars.encode(), np.uint8).reshape(-1, 24)
        text.reshape(-1, _CELL)[spliced, :24] = chars
        keep.reshape(-1, _CELL)[spliced, :24] = chars != ord(" ")
    return np.compress(keep.ravel(), text.ravel()).tobytes().decode()


def _csv_chunks(header, tables):
    """The CSV text of ``write_csv``, one block of at most CSV_BLOCK_CELLS cells at a time."""
    yield ",".join(header) + "\n"
    for table in tables:
        table = np.asarray(table)
        rows, cols = table.shape
        width = max(cols, len(header))
        step = max(1, CSV_BLOCK_CELLS // max(cols, 1))
        for start in range(0, rows, step):
            yield _csv_block(table[start:start + step], width)


def write_csv(path, header, *tables):
    """Atomic CSV write of 2-d numeric tables, in order, below one header; returns the SHA-256.

    Every cell is written as '%.17g' writes it (17 significant digits, a
    lossless round trip); a table narrower than the header ends its rows in
    empty cells.  The text is made a block of rows of up to CSV_BLOCK_CELLS
    cells at a time by ``_csv_block``, so a write holds one block at a time.
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
