"""Command-line front end: validate, solve, sweep, simulate.

Instances are JSON documents tagged with a ``kind`` field; solutions are
emitted as JSON plus per-stage CSV matrices, together with a result bundle
listing every emitted file and its checksum.  All output is deterministic
for a fixed seed.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as qio
from . import qkl, qlqr, troc
from .deformed import deformed_entropy

EXIT_BAD_INSTANCE = 1
EXIT_INFEASIBLE = 2

# kind -> (solver, solution field also written as <field>.csv).  The lambdas
# look the solver up at call time, so a rebound module attribute is honoured.
SOLVERS = {
    "qkl": (lambda instance: qkl.solve_qkl(instance), "controlled_matrices"),
    "troc": (lambda instance: troc.solve_troc(instance), "policy"),
    "qlqr": (lambda instance: qlqr.solve_qlqr(instance), "gains"),
}


def _out_dir(args):
    out = args.out or os.environ.get(qio.OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _overrides(args):
    return {"q": args.q, "lambda": getattr(args, "lam", None), "horizon": args.horizon}


def _bundle(args, instance_path, files, extra=None):
    meta = {
        "instance": os.path.abspath(instance_path),
        "instance_sha256": qio.file_checksum(instance_path),
        "overrides": {k: v for k, v in _overrides(args).items() if v is not None},
        "seed": getattr(args, "seed", None),
        "manifest": [
            {"path": os.path.abspath(f), "sha256": qio.file_checksum(f)} for f in files
        ],
    }
    if extra:
        meta.update(extra)
    return meta


def _write_stage_matrices(path, stack):
    """One CSV with (stage, row, columns...) per entry of a stage-indexed stack."""
    stack = np.asarray(stack)
    if stack.ndim == 2:
        stack = stack[:, :, None]
    header = ["stage", "row"] + [f"c{j}" for j in range(stack.shape[2])]
    rows = []
    for k in range(stack.shape[0]):
        for i in range(stack.shape[1]):
            rows.append([k, i] + list(stack[k, i]))
    qio.write_csv(path, header, rows)


def cmd_solve(args):
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    solve, csv_field = SOLVERS[kind]
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
    if ":" in spec:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.asarray([float(v) for v in spec.split(",")])


def _sweep_point(kind, instance):
    """Metric row (cost, entropy, support_radius, sparsity_count) for one solve."""
    sol = SOLVERS[kind][0](instance)
    if kind == "qkl":
        p = sol.controlled_matrices[0]
        cost = qkl.evaluate_cost(instance, sol.controlled_matrices)
        ent = float(instance.initial @ deformed_entropy(p.T, instance.q))
        sparsity = int(np.sum((p == 0) & (instance.passive_matrix > 0)))
        return cost, ent, 0.0, sparsity
    if kind == "troc":
        init = np.full(instance.num_states, 1.0 / instance.num_states)
        cost = float(init @ sol.value[0])
        ent = float(np.mean(deformed_entropy(sol.policy[0], instance.q)))
        return cost, ent, 0.0, int(np.sum(sol.policy == 0))
    metrics = qlqr.sweep_metrics(instance, sol, instance.horizon)
    return metrics["cost"], metrics["entropy"], metrics["support_radius"], 0


def cmd_sweep(args):
    grid = _grid_values(args.grid)
    rows = []
    failures = 0
    for value in grid:
        overrides = _overrides(args)
        overrides["q" if args.parameter == "q" else "lambda"] = float(value)
        try:
            kind, instance = qio.load_instance(args.instance, overrides)
            cost, ent, radius, sparsity = _sweep_point(kind, instance)
            rows.append([float(value), cost, ent, radius, sparsity])
        except (qio.InstanceError, ValueError, RuntimeError) as exc:
            failures += 1
            print(f"sweep point {value} failed: {exc}", file=sys.stderr)
    out = _out_dir(args)
    csv_path = os.path.join(out, "sweep.csv")
    qio.write_csv(
        csv_path,
        ["parameter", "cost", "entropy", "support_radius", "sparsity_count"],
        rows,
    )
    bundle_path = os.path.join(out, "result_bundle.json")
    qio.write_json(
        bundle_path,
        _bundle(args, args.instance, [csv_path], {"parameter": args.parameter}),
    )
    print(f"sweep over {args.parameter}: {len(rows)} points, {failures} failures")
    return 0 if failures == 0 else EXIT_INFEASIBLE


def _load_solution(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise qio.InstanceError(f"cannot read solution file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise qio.InstanceError("solution file must contain a JSON object")
    return doc


def cmd_simulate(args):
    kind, instance = qio.load_instance(args.instance, _overrides(args))
    doc = _load_solution(args.solution)
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
    out = _out_dir(args)
    files = []
    if kind == "qlqr":
        lower, upper = qlqr.support_envelope(instance, sol, args.steps)
        env_path = os.path.join(out, "envelope.csv")
        n = instance.state_dim
        header = ["stage"] + [f"lower{i}" for i in range(n)] + [f"upper{i}" for i in range(n)]
        qio.write_csv(
            env_path,
            header,
            [[k] + list(lower[k]) + list(upper[k]) for k in range(args.steps + 1)],
        )
        files.append(env_path)
        if args.trajectories > 0:
            states, inputs = qlqr.simulate_closed_loop(
                instance, sol, args.trajectories, args.steps, args.seed
            )
            traj_path = os.path.join(out, "trajectories.csv")
            header = (
                ["stage", "trajectory"]
                + [f"x{i}" for i in range(n)]
                + [f"u{i}" for i in range(instance.input_dim)]
            )
            rows = []
            for k in range(args.steps + 1):
                for t in range(args.trajectories):
                    u = list(inputs[k, t]) if k < args.steps else [""] * instance.input_dim
                    rows.append([k, t] + list(states[k, t]) + u)
            qio.write_csv(traj_path, header, rows)
            files.append(traj_path)
    else:
        rows = []
        for t in range(args.trajectories):
            path = qkl.rollout(instance, sol.controlled_matrices, args.steps, (args.seed, t))
            rows.extend([k, t, int(s)] for k, s in enumerate(path))
        traj_path = os.path.join(out, "trajectories.csv")
        qio.write_csv(traj_path, ["stage", "trajectory", "state"], rows)
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
    parser = argparse.ArgumentParser(
        prog="qoc", description="entropy-regularized control solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--q", type=float, default=None, help="override deformation parameter")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="override regularization weight")
        p.add_argument("--horizon", type=int, default=None, help="override horizon")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${qio.OUTPUT_DIR_ENV} or cwd)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="solve an instance and emit the solution")
    common(p, seed=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve across a parameter grid")
    common(p, seed=True)
    p.add_argument("--parameter", choices=["q", "lambda"], default="q")
    p.add_argument("--grid", required=True,
                   help="comma-separated values or start:stop:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="simulate a solved instance")
    common(p, seed=True)
    p.add_argument("solution", help="solution JSON emitted by solve")
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--steps", type=int, default=30)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="schema-check an instance file")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except qio.InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
