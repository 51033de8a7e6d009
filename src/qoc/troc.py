"""Finite-horizon entropy-regularized control on finite state/action spaces.

Backward dynamic programming with an ent-max policy improvement step at
every (stage, state).  The value recursion is

    V(T, x) = l_T(x)
    Q_k(x, u) = l_k(x, u) + sum_{x'} p(x' | x, u) V(k+1, x')
    V(k, x) = (1-q)/(2-q) E_pi[Q_k(x, .)] + lam/(2-q) (C_k(x) - 1)

where pi is the ent-max distribution over actions and C_k(x) its
normalizer.
"""

from dataclasses import dataclass, field

import numpy as np

from .deformed import DeformationParameter, _as_q, _check_distributions, deformed_entropy
# entmax_discrete is no longer called here, but bench/spans.py wraps qoc.troc.entmax_discrete
from .entmax import _check_finite, _check_lam, _solver_stage, entmax_discrete, entmax_rows

__all__ = ["FiniteTrocInstance", "TrocSolution", "solve_troc", "evaluate_policy", "sweep_metrics"]


@dataclass(frozen=True)
class FiniteTrocInstance:
    """Finite MDP with entropy-regularized cost.

    kernel[x, u, x'] is the transition probability p(x' | x, u); stage_cost
    is either (T, n, m) or time-invariant (n, m); terminal_cost has length n.
    """

    kernel: np.ndarray
    stage_cost: np.ndarray
    terminal_cost: np.ndarray
    horizon: int
    lam: float
    q: DeformationParameter

    def __post_init__(self):
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=float))
        object.__setattr__(self, "stage_cost", np.asarray(self.stage_cost, dtype=float))
        object.__setattr__(self, "terminal_cost", np.asarray(self.terminal_cost, dtype=float))
        object.__setattr__(self, "q", _as_q(self.q))
        if self.kernel.ndim != 3 or self.kernel.shape[2] != self.num_states:
            raise ValueError("kernel must have shape (n, m, n)")
        n, m = self.num_states, self.num_actions
        _check_distributions(self.kernel, 2, "each kernel slice")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        _check_lam(self.lam)
        if self.stage_cost.shape not in ((n, m), (self.horizon, n, m)):
            raise ValueError("stage_cost must have shape (n, m) or (T, n, m)")
        if self.terminal_cost.shape != (n,):
            raise ValueError("terminal_cost must have length n")

    @property
    def num_states(self):
        return self.kernel.shape[0]

    @property
    def num_actions(self):
        return self.kernel.shape[1]

    def cost_at(self, k):
        """Stage-cost matrix l_k, broadcasting time-invariant costs."""
        return self.stage_cost if self.stage_cost.ndim == 2 else self.stage_cost[k]


@dataclass(frozen=True)
class TrocSolution:
    """Per-stage arrays; a field laid out as (e, *names) has shape (T + e, *instance.names)."""

    value: np.ndarray = field(metadata={"layout": (1, "num_states")})
    q_values: np.ndarray = field(metadata={"layout": (0, "num_states", "num_actions")})
    policy: np.ndarray = field(metadata={"layout": (0, "num_states", "num_actions")})  # rows are action distributions
    normalizers: np.ndarray = field(metadata={"layout": (0, "num_states")})


def solve_troc(instance):
    """Backward recursion returning values, Q-values, policy, normalizers."""
    n, m, T = instance.num_states, instance.num_actions, instance.horizon
    lam, q = instance.lam, instance.q
    value = np.zeros((T + 1, n))
    q_values = np.zeros((T, n, m))
    policy = np.zeros((T, n, m))
    normalizers = np.zeros((T, n))
    value[T] = instance.terminal_cost
    for k in range(T - 1, -1, -1):
        with _solver_stage(f"stage {k}"):
            q_values[k] = instance.cost_at(k) + instance.kernel @ value[k + 1]
            _check_finite("Q-values", q_values[k])
            policy[k], normalizers[k], value[k] = entmax_rows(q_values[k], None, lam, q)
            _check_finite("values or normalizers", value[k], normalizers[k])
    return TrocSolution(value, q_values, policy, normalizers)


def evaluate_policy(instance, policy, initial):
    """Exact expected regularized cost of a policy by forward propagation.

    ``policy`` has shape (T, n, m), or (B, T, n, m) for B policies at once,
    which gives B costs; ``initial`` is a distribution over states.  For
    the optimal policy the cost equals sum_x initial(x) V(0, x).
    """
    policy = np.asarray(policy, dtype=float)
    n, m, T = instance.num_states, instance.num_actions, instance.horizon
    if policy.shape[-3:] != (T, n, m) or policy.ndim not in (3, 4):
        raise ValueError("policy must have shape (T, n, m) or (B, T, n, m)")
    mu = np.asarray(initial, dtype=float)
    if mu.shape != (n,):
        raise ValueError("initial must be a distribution over the n states")
    lam, q = instance.lam, instance.q
    batch = policy.reshape(-1, T, n, m)
    mu = np.broadcast_to(mu, (len(batch), n))
    total = np.zeros(len(batch))
    for k in range(T):
        pk = batch[:, k]
        expected = np.sum(pk * instance.cost_at(k), axis=2)
        total += np.sum(mu * (expected - lam * deformed_entropy(pk, q)), axis=1)
        # joint over (x, u) pushed through the kernel
        mu = np.einsum("bx,bxu,xuy->by", mu, pk, instance.kernel)
    total += mu @ instance.terminal_cost
    return float(total[0]) if policy.ndim == 3 else total


def sweep_metrics(instance, solution):
    """Sweep point: mean V(0) and stage-0 policy entropy over states, zero policy entries."""
    n = instance.num_states
    return {
        "cost": float(np.full(n, 1.0 / n) @ solution.value[0]),
        "entropy": float(np.mean(deformed_entropy(solution.policy[0], instance.q))),
        "sparsity_count": int(np.sum(solution.policy == 0)),
    }
