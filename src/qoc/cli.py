"""Command-line front end: validate, solve, sweep, simulate.

Instances are JSON documents tagged with a ``kind`` field; solutions are
emitted as JSON plus per-stage CSV matrices, together with a result bundle
listing every emitted file and its checksum.  All output is deterministic
for a fixed seed.
"""

import argparse
import os
import sys

import numpy as np

from . import io as qio
from . import qkl, qlqr, troc

EXIT_BAD_INSTANCE = 1
EXIT_INFEASIBLE = 2


class UsageError(Exception):
    """A command-line value the command cannot use; exits like malformed input."""


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, like malformed input; 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INSTANCE, f"{self.prog}: error: {message}\n")


# kind -> (solver, solution field also written as <field>.csv, sweep metrics).
# The lambdas look each function up at call time, so a rebound module
# attribute is honoured.
SOLVERS = {
    "qkl": (lambda instance: qkl.solve_qkl(instance), "controlled_matrices",
            lambda instance, sol: qkl.sweep_metrics(instance, sol)),
    "troc": (lambda instance: troc.solve_troc(instance), "policy",
             lambda instance, sol: troc.sweep_metrics(instance, sol)),
    "qlqr": (lambda instance: qlqr.solve_qlqr(instance), "gains",
             lambda instance, sol: qlqr.sweep_metrics(instance, sol, instance.horizon)),
}


def _out_dir(args):
    out = args.out or os.environ.get(qio.OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _overrides(args):
    return {"q": args.q, "lambda": args.lam, "horizon": args.horizon}


def _bundle(args, instance_path, files, extra=None):
    meta = {
        "instance": os.path.abspath(instance_path),
        "instance_sha256": qio.file_checksum(instance_path),
        "overrides": {k: v for k, v in _overrides(args).items() if v is not None},
        "seed": args.seed,
        "manifest": [
            {"path": os.path.abspath(f), "sha256": qio.file_checksum(f)} for f in files
        ],
    }
    if extra:
        meta.update(extra)
    return meta


def _write_stage_matrices(path, stack):
    """One CSV with (stage, row, columns...) per entry of a stage-indexed stack."""
    stages, rows, cols = stack.shape
    index = np.indices((stages, rows)).reshape(2, -1).T
    header = ["stage", "row"] + [f"c{j}" for j in range(cols)]
    qio.write_csv(path, header, np.hstack([index, stack.reshape(-1, cols)]))


def cmd_solve(args):
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    solve, csv_field, _ = SOLVERS[kind]
    try:
        sol = solve(instance)
    except (ValueError, RuntimeError) as exc:
        print(f"solver infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    out = _out_dir(args)
    solution_path = os.path.join(out, "solution.json")
    qio.write_json(solution_path, qio.solution_to_dict(kind, sol))
    csv_path = os.path.join(out, f"{csv_field}.csv")
    _write_stage_matrices(csv_path, getattr(sol, csv_field))
    files = [solution_path, csv_path]
    bundle_path = os.path.join(out, "result_bundle.json")
    qio.write_json(bundle_path, _bundle(args, args.instance, files, {"kind": kind}))
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
    doc = qio.read_instance(args.instance)
    header = ["parameter", "cost", "entropy", "support_radius", "sparsity_count"]
    rows = []
    failures = 0
    for value in grid:
        overrides = _overrides(args)
        overrides["q" if args.parameter == "q" else "lambda"] = float(value)
        try:
            kind, instance = qio.build_instance(doc, overrides)
            solve, _, metrics = SOLVERS[kind]
            point = metrics(instance, solve(instance))
            rows.append([float(value)] + [point.get(name, 0) for name in header[1:]])
        except (qio.InstanceError, ValueError, RuntimeError) as exc:
            failures += 1
            print(f"sweep point {value} failed: {exc}", file=sys.stderr)
    if not rows:  # a document at fault fails every point: say so as malformed input
        qio.build_instance(doc, _overrides(args))
    out = _out_dir(args)
    csv_path = os.path.join(out, "sweep.csv")
    qio.write_csv(csv_path, header, np.reshape(rows, (-1, len(header))))
    bundle_path = os.path.join(out, "result_bundle.json")
    qio.write_json(
        bundle_path,
        _bundle(args, args.instance, [csv_path], {"parameter": args.parameter}),
    )
    print(f"sweep over {args.parameter}: {len(rows)} points, {failures} failures")
    return 0 if failures == 0 else EXIT_INFEASIBLE


def cmd_simulate(args):
    for name in ("steps", "trajectories"):
        if getattr(args, name) < 0:
            raise UsageError(f"--{name} must be non-negative, got {getattr(args, name)}")
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    doc = qio.read_instance(args.solution, "solution")
    if doc.get("kind") != kind:
        print("instance/solution kind mismatch", file=sys.stderr)
        return EXIT_INFEASIBLE
    if kind == "troc":
        print("simulate supports qkl and qlqr solutions", file=sys.stderr)
        return EXIT_INFEASIBLE
    sol = qio.solution_from_dict(doc, instance)
    # the per-stage CSV field has one entry per stage of the solution's horizon
    if len(getattr(sol, SOLVERS[kind][1])) < args.steps:
        print("solution horizon shorter than requested steps", file=sys.stderr)
        return EXIT_INFEASIBLE
    if kind == "qlqr":
        # both results exist before any file is written, so an overflow writes nothing
        try:
            lower, upper = qlqr.support_envelope(instance, sol, args.steps)
            if args.trajectories > 0:
                states, inputs = qlqr.simulate_closed_loop(
                    instance, sol, args.trajectories, args.steps, args.seed
                )
        except (ValueError, RuntimeError) as exc:
            print(f"simulation infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    out = _out_dir(args)
    files = []
    if kind == "qlqr":
        env_path = os.path.join(out, "envelope.csv")
        n = instance.state_dim
        header = ["stage"] + [f"lower{i}" for i in range(n)] + [f"upper{i}" for i in range(n)]
        qio.write_csv(env_path, header, np.column_stack([np.arange(args.steps + 1), lower, upper]))
        files.append(env_path)
        if args.trajectories > 0:
            traj_path = os.path.join(out, "trajectories.csv")
            header = (
                ["stage", "trajectory"]
                + [f"x{i}" for i in range(n)]
                + [f"u{i}" for i in range(instance.input_dim)]
            )
            index = np.indices(states.shape[:2]).reshape(2, -1).T
            table = np.hstack([index, states.reshape(-1, n)])
            # the last stage has no input, so its rows end in empty cells
            split = args.steps * args.trajectories
            inputs = inputs.reshape(split, instance.input_dim)
            qio.write_csv(traj_path, header, np.hstack([table[:split], inputs]), table[split:])
            files.append(traj_path)
    else:
        seeds = [(args.seed, t) for t in range(args.trajectories)]
        paths = qkl.rollout(instance, sol.controlled_matrices, args.steps, seeds)
        trajectory, stage = np.indices(paths.shape)
        traj_path = os.path.join(out, "trajectories.csv")
        qio.write_csv(
            traj_path,
            ["stage", "trajectory", "state"],
            np.column_stack([stage.ravel(), trajectory.ravel(), paths.ravel()]),
        )
        files.append(traj_path)
    bundle_path = os.path.join(out, "result_bundle.json")
    qio.write_json(bundle_path, _bundle(args, args.instance, files, {"kind": kind}))
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
            p.add_argument("--seed", type=int, default=0)

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
