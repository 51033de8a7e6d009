"""Row-wise forward evaluators against their per-row loop versions."""

import numpy as np
import pytest

from qoc.cli import _sweep_point
from qoc.deformed import deformed_entropy, qkl_divergence
from qoc.qkl import QklInstance, evaluate_cost, solve_qkl
from qoc.troc import FiniteTrocInstance, evaluate_policy, solve_troc

TOL = 1e-12


def loop_evaluate_policy(instance, policy, mu):
    total = 0.0
    for k in range(instance.horizon):
        costs = instance.cost_at(k)
        for x in range(instance.num_states):
            row = policy[k, x]
            total += mu[x] * (row @ costs[x] - instance.lam * deformed_entropy(row, instance.q))
        mu = np.einsum("x,xu,xuy->y", mu, policy[k], instance.kernel)
    return total + float(mu @ instance.terminal_cost)


def loop_evaluate_cost(instance, matrices):
    p0, l, phi = instance.passive_matrix, instance.state_cost, instance.initial.copy()
    total = 0.0
    for k in range(instance.horizon):
        pk = matrices[k]
        div = sum(
            phi[j] * qkl_divergence(pk[:, j], p0[:, j], instance.q)
            for j in range(instance.num_states)
            if phi[j] > 0
        )
        total += float(l @ phi) + instance.lam * div
        phi = pk @ phi
    return total + float(l @ phi)


def troc_instance(rng, q, n=6, m=4, horizon=5):
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    return FiniteTrocInstance(
        kernel=kernel,
        stage_cost=rng.random((horizon, n, m)) * 3,
        terminal_cost=rng.random(n),
        horizon=horizon,
        lam=0.4,
        q=q,
    )


def qkl_instance(rng, q, n=8, horizon=6):
    p0 = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    p0[np.arange(n), np.arange(n)] += 0.1
    p0 /= p0.sum(axis=0)
    initial = np.zeros(n)
    initial[:3] = 1.0 / 3.0  # unreached columns must add nothing
    return QklInstance(p0, rng.random(n) * 3, horizon, 0.5, q, initial)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.8])
def test_row_entropies_and_divergences_match_one_row_calls(q):
    rng = np.random.default_rng(1)
    phi = rng.random((5, 7)) * (rng.random((5, 7)) < 0.6)
    phi[:, 0] += 0.1
    phi /= phi.sum(axis=1, keepdims=True)
    psi = rng.random((5, 7)) + 0.01
    psi[1, phi[1] > 0] = 0.0  # support of row 1 not contained: infinite divergence
    psi /= psi.sum(axis=1, keepdims=True)
    ent = deformed_entropy(phi, q)
    div = qkl_divergence(phi, psi, q)
    for r in range(5):
        assert abs(ent[r] - deformed_entropy(phi[r], q)) <= TOL
        one = qkl_divergence(phi[r], psi[r], q)
        assert div[r] == one if np.isinf(one) else abs(div[r] - one) <= TOL
    assert np.isinf(div[1])


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_evaluate_policy_matches_loop(q):
    rng = np.random.default_rng(2)
    inst = troc_instance(rng, q)
    sol = solve_troc(inst)
    mu = rng.dirichlet(np.ones(inst.num_states))
    expected = loop_evaluate_policy(inst, sol.policy, mu)
    assert abs(evaluate_policy(inst, sol.policy, mu) - expected) <= TOL


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_evaluate_cost_matches_loop(q):
    inst = qkl_instance(np.random.default_rng(3), q)
    sol = solve_qkl(inst)
    matrices = sol.controlled_matrices
    assert abs(evaluate_cost(inst, matrices) - loop_evaluate_cost(inst, matrices)) <= TOL
    stationary = [matrices[0]] * inst.horizon
    assert abs(evaluate_cost(inst, matrices[0]) - loop_evaluate_cost(inst, stationary)) <= TOL


def test_sweep_entropies_match_loop():
    rng = np.random.default_rng(4)
    inst = qkl_instance(rng, 0.4)
    p = solve_qkl(inst).controlled_matrices[0]
    expected = sum(
        inst.initial[j] * deformed_entropy(p[:, j], inst.q) for j in range(inst.num_states)
    )
    assert abs(_sweep_point("qkl", inst)[1] - expected) <= TOL
    inst = troc_instance(rng, 0.4)
    policy = solve_troc(inst).policy[0]
    expected = np.mean([deformed_entropy(row, inst.q) for row in policy])
    assert abs(_sweep_point("troc", inst)[1] - expected) <= TOL
