"""Seeded instance generators, job lists and output checks per workload.

A workload turns a seed into instance files and a fixed cycle of jobs.
A job is a short list of ``qoc`` command lines run in-process; the runner
times them and afterwards, untimed, calls the job's ``check`` on the
output directory.  A check raises ``CheckFailed`` when an output is wrong.

Checks never recompute the checked quantity the way the timed command did:
troc compares the forward policy evaluation with the backward value,
qkl compares the sweep's forward cost with a backward value, and qlqr
tests sampled states against the separately computed envelope.
"""

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

from qoc.qkl import QklInstance, solve_qkl
from qoc.troc import FiniteTrocInstance, evaluate_policy

# Absolute tolerance of the forward/backward agreement checks.
VALUE_TOL = 1e-9


class CheckFailed(Exception):
    """An output file is missing, malformed or wrong."""


@dataclass
class Job:
    """One unit of timed work: ``commands`` run back to back, then ``check``."""

    slot: str
    commands: list
    out: str
    rows: int = 0  # ent-max rows the commands solve
    samples: int = 0  # closed-loop trajectory steps the commands simulate
    check: object = None  # check(job, seq) raising CheckFailed
    digest: str = field(default=None, repr=False)


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _rng(seed, *stream):
    # SeedSequence takes non-negative entropy; negative seeds map to distinct values
    return np.random.default_rng([seed & (2**64 - 1), *stream])


def _read_csv(path):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CheckFailed(f"{path} is empty")
    return rows[0], rows[1:]


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc


def output_digest(out_dir):
    """SHA-256 over the output files, ignoring the bundle's wall time."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name == "result_bundle.json":
            doc = _read_json(path)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def check_repeatable(job):
    """The same job must write byte-identical outputs every time it runs."""
    digest = output_digest(job.out)
    if job.digest is None:
        job.digest = digest
    elif digest != job.digest:
        raise CheckFailed(f"{job.slot}: outputs differ from the job's first run")


# ---------------------------------------------------------------- troc-solve

TROC_STATES = 100
TROC_ACTIONS = 10
TROC_HORIZON = 16
TROC_LAMBDA = 0.5
TROC_QS = (0.2, 0.5, 0.8)


def troc_instance(rng, n, m, horizon, lam, q):
    return FiniteTrocInstance(
        rng.dirichlet(np.ones(n), size=(n, m)),
        rng.random((n, m)),
        rng.random(n),
        horizon,
        lam,
        q,
    )


def troc_document(inst):
    return {
        "kind": "troc",
        "q": float(inst.q),
        "lambda": inst.lam,
        "horizon": inst.horizon,
        "kernel": inst.kernel.tolist(),
        "stage_cost": inst.stage_cost.tolist(),
        "terminal_cost": inst.terminal_cost.tolist(),
    }


def check_troc(inst):
    def check(job, seq):
        doc = _read_json(os.path.join(job.out, "solution.json"))
        policy = np.asarray(doc["policy"], dtype=float)
        value = np.asarray(doc["value"], dtype=float)
        n, m, T = inst.num_states, inst.num_actions, inst.horizon
        if policy.shape != (T, n, m) or value.shape != (T + 1, n):
            raise CheckFailed(f"{job.slot}: solution has the wrong shape")
        if not np.all(np.isfinite(policy)) or np.any(policy < 0):
            raise CheckFailed(f"{job.slot}: policy has negative or non-finite entries")
        if np.max(np.abs(policy.sum(axis=2) - 1.0)) > VALUE_TOL:
            raise CheckFailed(f"{job.slot}: policy rows do not sum to 1")
        uniform = np.full(n, 1.0 / n)
        forward = evaluate_policy(inst, policy, uniform)
        backward = float(uniform @ value[0])
        if not abs(forward - backward) <= VALUE_TOL:
            raise CheckFailed(
                f"{job.slot}: forward cost {forward!r} != backward value {backward!r}"
            )

    return check


def troc_jobs(seed, root, sizes=None):
    n, m, horizon = sizes or (TROC_STATES, TROC_ACTIONS, TROC_HORIZON)
    jobs = []
    for i, q in enumerate(TROC_QS):
        inst = troc_instance(_rng(seed, 1, i), n, m, horizon, TROC_LAMBDA, q)
        path = os.path.join(root, f"troc_q{q}.json")
        _dump(path, troc_document(inst))
        out = os.path.join(root, "out", f"troc_q{q}")
        jobs.append(
            Job(f"q={q}", [["solve", path, "--out", out]], out,
                rows=n * horizon, check=check_troc(inst))
        )
    return jobs


# ---------------------------------------------------------------- qkl-sweep

QKL_STATES = 150
QKL_NEIGHBOURS = 6
QKL_HORIZON = 3
QKL_LAMBDA = 1.0
# Three neighbouring q per job, so a warm start across the grid would apply.
QKL_GRIDS = ("0.1:0.3:3", "0.4:0.6:3", "0.7:0.9:3")


def qkl_instance(rng, n, neighbours, horizon, lam):
    passive = np.zeros((n, n))
    for j in range(n):
        rows = rng.choice(n, size=neighbours, replace=False)
        passive[rows, j] = rng.dirichlet(np.ones(neighbours))
    return QklInstance(
        passive, 4.0 * rng.random(n), horizon, lam, 0.5,
        initial=rng.dirichlet(np.ones(n)),
    )


def qkl_document(inst):
    return {
        "kind": "qkl",
        "q": float(inst.q),
        "lambda": inst.lam,
        "horizon": inst.horizon,
        "passive_matrix": inst.passive_matrix.tolist(),
        "state_cost": inst.state_cost.tolist(),
        "initial": inst.initial.tolist(),
    }


def check_qkl(inst, grid, seed):
    def check(job, seq):
        header, rows = _read_csv(os.path.join(job.out, "sweep.csv"))
        if header[:3] != ["parameter", "cost", "entropy"] or len(rows) != len(grid):
            raise CheckFailed(f"{job.slot}: sweep.csv has the wrong layout")
        table = np.asarray(rows, dtype=float)
        if not np.all(np.isfinite(table)) or np.any(np.abs(table[:, 0] - grid) > 1e-12):
            raise CheckFailed(f"{job.slot}: sweep.csv grid or values are wrong")
        k = random.Random(seed * 1_000_003 + seq).randrange(len(grid))
        point = QklInstance(
            inst.passive_matrix, inst.state_cost, inst.horizon, inst.lam,
            table[k, 0], initial=inst.initial,
        )
        sol = solve_qkl(point)
        outside = (sol.controlled_matrices > 0) & (inst.passive_matrix == 0)
        if np.any(outside):
            raise CheckFailed(f"{job.slot}: a controlled column leaves the passive support")
        backward = float(inst.initial @ sol.values[0])
        if not abs(table[k, 1] - backward) <= VALUE_TOL:
            raise CheckFailed(
                f"{job.slot}: forward cost {table[k, 1]!r} at q={table[k, 0]!r} "
                f"!= backward value {backward!r}"
            )
        zeros = int(np.sum((sol.controlled_matrices[0] == 0) & (inst.passive_matrix > 0)))
        if zeros != table[k, 4]:
            raise CheckFailed(f"{job.slot}: sparsity count {table[k, 4]} != {zeros}")

    return check


def qkl_jobs(seed, root, sizes=None):
    n, horizon = sizes or (QKL_STATES, QKL_HORIZON)
    jobs = []
    for i, spec in enumerate(QKL_GRIDS):
        inst = qkl_instance(_rng(seed, 2, i), n, QKL_NEIGHBOURS, horizon, QKL_LAMBDA)
        path = os.path.join(root, f"qkl_{i}.json")
        _dump(path, qkl_document(inst))
        out = os.path.join(root, "out", f"qkl_{i}")
        start, stop, count = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        command = ["sweep", path, "--parameter", "q", "--grid", spec, "--out", out]
        jobs.append(
            Job(f"grid={spec}", [command], out,
                rows=len(grid) * horizon * n, check=check_qkl(inst, grid, seed))
        )
    return jobs


# ---------------------------------------------------------------- qlqr-simulate

QLQR_LAMBDA = 0.1
QLQR_STEPS = 30
# (input dimension m = state dimension, q, trajectories).  The rejection
# sampler accepts about 0.25 of its proposals at (4, 0.25) and under 0.005
# at (12, 0.75); trajectory counts balance sampling against CSV writing.
QLQR_CASES = ((4, 0.25, 600), (8, 0.5, 400), (12, 0.75, 250))


def qlqr_document(rng, n, m, q, horizon):
    a = rng.normal(size=(n, n))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    return {
        "kind": "qlqr",
        "q": q,
        "lambda": QLQR_LAMBDA,
        "horizon": horizon,
        "a": a.tolist(),
        "b": rng.normal(size=(n, m)).tolist(),
        "q_cost": np.eye(n).tolist(),
        "s_cost": np.zeros((n, m)).tolist(),
        "r_cost": np.eye(m).tolist(),
        "terminal_cost": np.eye(n).tolist(),
        "initial_state": rng.normal(size=n).tolist(),
    }


def check_qlqr(n, m, trajectories, steps):
    def check(job, seq):
        doc = _read_json(os.path.join(job.out, "solution.json"))
        if np.asarray(doc["gains"]).shape != (steps, m, n):
            raise CheckFailed(f"{job.slot}: solution gains have the wrong shape")
        _, env = _read_csv(os.path.join(job.out, "envelope.csv"))
        env = np.asarray(env, dtype=float)
        if env.shape != (steps + 1, 1 + 2 * n):
            raise CheckFailed(f"{job.slot}: envelope.csv has the wrong shape")
        lower, upper = env[:, 1 : 1 + n], env[:, 1 + n :]
        path = os.path.join(job.out, "trajectories.csv")
        try:
            states = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(2, 2 + n))
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{job.slot}: cannot read trajectories.csv: {exc}") from exc
        if states.shape != ((steps + 1) * trajectories, n):
            raise CheckFailed(f"{job.slot}: trajectories.csv has the wrong shape")
        states = states.reshape(steps + 1, trajectories, n)
        slack_lo = VALUE_TOL * (1.0 + np.abs(lower))[:, None, :]
        slack_hi = VALUE_TOL * (1.0 + np.abs(upper))[:, None, :]
        inside = (states >= lower[:, None, :] - slack_lo) & (states <= upper[:, None, :] + slack_hi)
        if not np.all(inside):
            raise CheckFailed(
                f"{job.slot}: {int(np.sum(~inside))} trajectory states leave the envelope"
            )

    return check


def qlqr_jobs(seed, root, sizes=None):
    cases, steps = sizes or (QLQR_CASES, QLQR_STEPS)
    jobs = []
    for i, (m, q, trajectories) in enumerate(cases):
        path = os.path.join(root, f"qlqr_m{m}.json")
        _dump(path, qlqr_document(_rng(seed, 3, i), m, m, q, steps))
        out = os.path.join(root, "out", f"qlqr_m{m}")
        solution = os.path.join(out, "solution.json")
        commands = [
            ["solve", path, "--out", out],
            ["simulate", path, solution, "--trajectories", str(trajectories),
             "--steps", str(steps), "--seed", str(i), "--out", out],
        ]
        jobs.append(
            Job(f"m={m},q={q}", commands, out, samples=trajectories * steps,
                check=check_qlqr(m, m, trajectories, steps))
        )
    return jobs


# name -> (function writing instances and making the job cycle, warm-up sizes)
WORKLOADS = {
    "troc-solve": (troc_jobs, (10, 4, 2)),
    "qkl-sweep": (qkl_jobs, (12, 2)),
    "qlqr-simulate": (qlqr_jobs, (((2, 0.5, 20),), 5)),
}


def build(workload, seed, root, warmup=False):
    """Write the workload's instances under ``root``; return its job cycle.

    With ``warmup`` the same code writes small instances instead, for the
    untimed job that loads lazy imports and fills caches before timing.
    """
    make, small = WORKLOADS[workload]
    os.makedirs(root, exist_ok=True)
    return make(seed, root, small if warmup else None)
