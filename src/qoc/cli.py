"""Command-line front end: validate, solve, sweep, simulate.

Instances are JSON documents tagged with a ``kind`` field; solutions are
emitted as JSON plus per-stage CSV matrices, together with a result bundle
listing every emitted file and its checksum.  All output is deterministic;
``simulate``, the one command that draws random numbers, takes a seed.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io as qio

EXIT_BAD_INSTANCE = 1
EXIT_INFEASIBLE = 2


class UsageError(Exception):
    """A command-line value the command cannot use; exits like malformed input."""


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, like malformed input; 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INSTANCE, f"{self.prog}: error: {message}\n")


def _overrides(args):
    return {"q": args.q, "lambda": args.lam, "horizon": args.horizon}


def _emit(args, outputs, extra):
    """Write each output, then result_bundle.json listing them; returns the directory.

    ``outputs`` maps file name to content, written in order: a dict as
    JSON, a ``(header, *tables)`` tuple as CSV.  The bundle's manifest
    keeps that order; ``extra`` adds fields to the bundle.
    """
    out = args.out or os.environ.get(qio.OUTPUT_DIR_ENV) or "."
    try:
        os.makedirs(out, exist_ok=True)
        paths = [os.path.join(out, name) for name in outputs]
        for path, content in zip(paths, outputs.values()):
            if isinstance(content, dict):
                qio.write_json(path, content)
            else:
                qio.write_csv(path, *content)
        bundle = {
            "instance": os.path.abspath(args.instance),
            "instance_sha256": qio.file_checksum(args.instance),
            "overrides": {k: v for k, v in _overrides(args).items() if v is not None},
            "manifest": [
                {"path": os.path.abspath(p), "sha256": qio.file_checksum(p)} for p in paths
            ],
            **extra,
        }
        qio.write_json(os.path.join(out, "result_bundle.json"), bundle)
    except OSError as exc:
        raise UsageError(f"cannot write outputs to {out}: {exc.strerror or exc}") from None
    return out


def _stage_matrices(stack):
    """CSV header and table with (stage, row, columns...) per entry of a stage-indexed stack."""
    stages, rows, cols = stack.shape
    index = np.indices((stages, rows)).reshape(2, -1).T
    header = ["stage", "row"] + [f"c{j}" for j in range(cols)]
    return header, np.hstack([index, stack.reshape(-1, cols)])


def cmd_solve(args):
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    _, _, solve, csv_field, _, _ = qio.KINDS[kind]
    try:
        sol = solve(instance)
    except (ValueError, RuntimeError) as exc:
        print(f"solver infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    outputs = {
        "solution.json": qio.solution_to_dict(kind, sol),
        f"{csv_field}.csv": _stage_matrices(getattr(sol, csv_field)),
    }
    out = _emit(args, outputs, {"kind": kind})
    print(f"solved {kind} instance; outputs in {out}")
    return 0


def _grid_values(spec):
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            with np.errstate(invalid="ignore", over="ignore"):  # non-finite ends, checked below
                grid = np.linspace(float(start), float(stop), int(count))
        else:
            grid = np.asarray([float(v) for v in spec.split(",")])
    except ValueError:
        raise UsageError(f"--grid {spec!r} is not a comma list or start:stop:count") from None
    if grid.size == 0:
        raise UsageError(f"--grid {spec!r} has no points")
    if not np.all(np.isfinite(grid)):
        raise UsageError(f"--grid {spec!r} has a point that is not finite")
    return grid


def cmd_sweep(args):
    grid = _grid_values(args.grid)
    kind, base = qio.load_instance(args.instance, _overrides(args))
    _, _, solve, _, metrics, _ = qio.KINDS[kind]
    field = "q" if args.parameter == "q" else "lam"
    header = ["parameter", "cost", "entropy", "support_radius", "sparsity_count"]
    rows = []
    failures = 0
    for value in grid:
        try:
            # the instance's constructor judges the swept value
            instance = dataclasses.replace(base, **{field: float(value)})
            point = metrics(instance, solve(instance))
            rows.append([float(value)] + [point.get(name, 0) for name in header[1:]])
        except (ValueError, RuntimeError) as exc:
            failures += 1
            print(f"sweep point {value} failed: {exc}", file=sys.stderr)
    table = np.reshape(rows, (-1, len(header)))
    _emit(args, {"sweep.csv": (header, table)}, {"parameter": args.parameter})
    print(f"sweep over {args.parameter}: {len(rows)} points, {failures} failures")
    return 0 if failures == 0 else EXIT_INFEASIBLE


def cmd_simulate(args):
    for name in ("steps", "trajectories", "seed"):
        if getattr(args, name) < 0:
            raise UsageError(f"--{name} must be non-negative, got {getattr(args, name)}")
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    doc = qio.read_instance(args.solution, "solution")
    if doc.get("kind") != kind:
        print("instance/solution kind mismatch", file=sys.stderr)
        return EXIT_INFEASIBLE
    _, _, _, csv_field, _, simulate = qio.KINDS[kind]
    if simulate is None:
        print("simulate supports qkl and qlqr solutions", file=sys.stderr)
        return EXIT_INFEASIBLE
    sol = qio.solution_from_dict(doc, instance)
    # the per-stage CSV field has one entry per stage of the solution's horizon
    if len(getattr(sol, csv_field)) < args.steps:
        print("solution horizon shorter than requested steps", file=sys.stderr)
        return EXIT_INFEASIBLE
    # every result exists before any file is written, so a failed simulation writes nothing
    try:
        outputs = simulate(instance, sol, args.steps, args.trajectories, args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"simulation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out = _emit(args, outputs, {"kind": kind, "seed": args.seed})
    print(f"simulation outputs in {out}")
    return 0


def cmd_validate(args):
    qio.load_instance(args.instance, _overrides(args))
    print("instance is valid")
    return 0


def build_parser():
    parser = _Parser(prog="qoc", description="entropy-regularized control solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes=True):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--q", type=float, default=None, help="override deformation parameter")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="override regularization weight")
        p.add_argument("--horizon", type=int, default=None, help="override horizon")
        if writes:
            p.add_argument("--out", default=None,
                           help=f"output directory (default: ${qio.OUTPUT_DIR_ENV} or cwd)")

    p = sub.add_parser("solve", help="solve an instance and emit the solution")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve across a parameter grid")
    common(p)
    p.add_argument("--parameter", choices=["q", "lambda"], default="q")
    p.add_argument("--grid", required=True,
                   help="comma-separated values or start:stop:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="simulate a solved instance")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("solution", help="solution JSON emitted by solve")
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--steps", type=int, default=30)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "validate", help="schema-check an instance file and build it (distribution and SPD checks)"
    )
    common(p, writes=False)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (qio.InstanceError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
