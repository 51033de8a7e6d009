"""Deformed-divergence control of Markov chains on networks.

The control input is the transition matrix itself; deviating from the
passive matrix P0 is penalized by the q-deformed relative entropy.  The
optimal controlled matrix has columns

    (P*_k)_{:j} = P0_{:j} * exp_q(-V(k+1)/lam + C_k(j)),

so the support of each column is contained in the passive support and can
be strictly sparser.
"""

from dataclasses import dataclass, field

import numpy as np

from .deformed import (
    DeformationParameter, _as_q, _check_distributions, deformed_entropy, qkl_divergence
)
# entmax_weighted is no longer called here, but bench/spans.py wraps qoc.qkl.entmax_weighted
from .entmax import _check_finite, _check_lam, _solver_stage, entmax_rows, entmax_weighted

__all__ = [
    "QklInstance",
    "QklSolution",
    "solve_qkl",
    "solve_qkl_stationary",
    "evaluate_cost",
    "sweep_metrics",
    "rollout",
]

# the stationary recursion stops once the relative values drift less than this
STATIONARY_TOL = 1e-10
STATIONARY_MAX_ITER = 10_000


@dataclass(frozen=True)
class QklInstance:
    """Network control problem: passive chain, state costs, horizon, weights.

    ``passive_matrix`` is column-stochastic: column j is the distribution of
    the next state given current state j.
    """

    passive_matrix: np.ndarray
    state_cost: np.ndarray
    horizon: int
    lam: float
    q: DeformationParameter
    initial: np.ndarray = None

    def __post_init__(self):
        p0 = np.asarray(self.passive_matrix, dtype=float)
        l = np.asarray(self.state_cost, dtype=float)
        object.__setattr__(self, "passive_matrix", p0)
        object.__setattr__(self, "state_cost", l)
        object.__setattr__(self, "q", _as_q(self.q))
        n = p0.shape[0]
        if p0.shape != (n, n):
            raise ValueError("passive_matrix must be square")
        _check_distributions(p0, 0, "every column of passive_matrix")
        if l.shape != (n,):
            raise ValueError("state_cost must have length n")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        _check_lam(self.lam)
        init = self.initial
        if init is None:
            init = np.full(n, 1.0 / n)
        init = np.asarray(init, dtype=float)
        if init.shape != (n,):
            raise ValueError("initial must have length n")
        _check_distributions(init, 0, "initial")
        object.__setattr__(self, "initial", init)

    @property
    def num_states(self):
        return self.passive_matrix.shape[0]


@dataclass(frozen=True)
class QklSolution:
    """Per-stage arrays; a field laid out as (e, *names) has shape (T + e, *instance.names)."""

    values: np.ndarray = field(metadata={"layout": (1, "num_states")})
    controlled_matrices: np.ndarray = field(metadata={"layout": (0, "num_states", "num_states")})  # column-stochastic
    normalizers: np.ndarray = field(metadata={"layout": (0, "num_states")})  # C_k(j) per column


def _support_layout(p0):
    """Columns of ``p0`` as padded rows (index, weight), each of width k_max.

    Row j lists the passive support of column j first, then zero-weight
    entries as padding, so a stage costs O(n k_max) instead of O(n^2).
    """
    order = np.argsort(p0.T <= 0, axis=1, kind="stable")
    k_max = int(np.max(np.sum(p0 > 0, axis=0)))
    index = order[:, :k_max]
    return index, np.take_along_axis(p0.T, index, axis=1)


def _backward_step(layout, value_next, l, lam, q):
    """One stage: every column's ent-max row from the packed passive support."""
    index, weights = layout
    probs, normalizers, objective = entmax_rows(value_next[index], weights, lam, q)
    p_star = np.zeros((index.shape[0], value_next.size))
    np.put_along_axis(p_star, index, probs, axis=1)
    value = l + objective
    _check_finite("values or normalizers", value, normalizers)
    return p_star.T, normalizers, value


def solve_qkl(instance):
    """Backward recursion over the full horizon of the instance."""
    n, T = instance.num_states, instance.horizon
    p0, l = instance.passive_matrix, instance.state_cost
    values = np.zeros((T + 1, n))
    matrices = np.zeros((T, n, n))
    normalizers = np.zeros((T, n))
    values[T] = l
    layout = _support_layout(p0)
    for k in range(T - 1, -1, -1):
        with _solver_stage(f"stage {k}"):
            matrices[k], normalizers[k], values[k] = _backward_step(
                layout, values[k + 1], l, instance.lam, instance.q
            )
    return QklSolution(values, matrices, normalizers)


def solve_qkl_stationary(instance):
    """Iterate the backward recursion until relative values stop changing.

    Absolute values grow linearly with the horizon, so convergence is
    measured on the value vector minus its first entry.  Returns the
    stationary controlled matrix, normalizers and the last value vector.
    """
    p0, l = instance.passive_matrix, instance.state_cost
    layout = _support_layout(p0)
    value = l.copy()
    for i in range(STATIONARY_MAX_ITER):
        with _solver_stage(f"iteration {i}"):
            p_star, normalizers, new_value = _backward_step(
                layout, value, l, instance.lam, instance.q
            )
        drift = np.max(np.abs((new_value - new_value[0]) - (value - value[0])))
        if drift < STATIONARY_TOL:
            # normalizers were computed from `value`, so return that vector:
            # z = C(j0) - value/lam is then the exact exp_q argument
            return p_star, normalizers, value
        value = new_value
    raise RuntimeError(
        f"stationary backward recursion did not converge in {STATIONARY_MAX_ITER} "
        f"iterations: last drift {drift:.3g}"
    )


def evaluate_cost(instance, matrices):
    """Forward evaluation of the control objective for given transition matrices.

    Accumulates state cost plus the columnwise divergence from the passive
    matrix weighted by the current state marginal; matrices may be a single
    stationary matrix or one per stage.
    """
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim == 2:
        matrices = np.broadcast_to(matrices, (instance.horizon,) + matrices.shape)
    if matrices.shape[0] < instance.horizon:
        raise ValueError("not enough controlled matrices for the horizon")
    p0 = instance.passive_matrix
    l = instance.state_cost
    phi = instance.initial.copy()
    total = 0.0
    for k in range(instance.horizon):
        pk = matrices[k]
        reached = phi > 0  # an unreached column adds nothing, even at infinite divergence
        div = qkl_divergence(pk.T[reached], p0.T[reached], instance.q)
        total += float(l @ phi) + instance.lam * float(phi[reached] @ div)
        phi = pk @ phi
    return total + float(l @ phi)


def sweep_metrics(instance, solution):
    """Sweep point: forward cost, stage-0 entropy and the zeros inside the passive support."""
    p = solution.controlled_matrices[0]
    return {
        "cost": evaluate_cost(instance, solution.controlled_matrices),
        "entropy": float(instance.initial @ deformed_entropy(p.T, instance.q)),
        "sparsity_count": int(np.sum((p == 0) & (instance.passive_matrix > 0))),
    }


def _choice_table(p):
    """Generator.choice's table for each row of ``p``: the cumulative sum over its last entry."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


def rollout(instance, matrices, steps, seeds):
    """Sample one trajectory of the controlled chain per seed; returns (len(seeds), steps + 1).

    Trajectory t draws default_rng(seeds[t]).random(steps + 1) up front and
    spends one uniform per draw, on the initial law and then on the column
    of its current state.  A draw counts the table entries <= u, as
    searchsorted(side="right") does in Generator.choice, so every path is
    the one that a ``choice`` call per draw would give.
    """
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim == 2:
        matrices = np.broadcast_to(matrices, (steps,) + matrices.shape)
    if matrices.shape[0] < steps:
        raise ValueError("not enough controlled matrices for the requested steps")
    draws = [np.random.default_rng(seed).random(steps + 1) for seed in seeds]
    uniforms = np.reshape(draws, (len(seeds), steps + 1))
    paths = np.zeros(uniforms.shape, dtype=int)
    paths[:, 0] = np.sum(_choice_table(instance.initial) <= uniforms[:, :1], axis=1)
    for k in range(steps):
        cols = np.ascontiguousarray(matrices[k].T)  # row j is column j
        sums = cols.sum(axis=1, keepdims=True)
        if not (np.all(cols >= 0) and np.all((sums > 0) & (sums < np.inf))):
            raise ValueError(f"controlled matrix {k} has a column that is not a distribution")
        table = _choice_table(cols / sums)[paths[:, k]]
        paths[:, k + 1] = np.sum(table <= uniforms[:, k + 1 : k + 2], axis=1)
    return paths
