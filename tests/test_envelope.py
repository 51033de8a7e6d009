"""Envelope identities: the slope of the optimal cost in lam comes from the optimal policy alone.

The optimal regularized cost J(lam) is a minimum, over policies, of functions
affine in lam, so (Milgrom & Segal 2002) dJ/dlam is the regularizer of the
optimal policy and J is concave in lam:

- troc: d(mean V_0)/dlam = -sum_k E_{mu_k}[H_q(pi_k)], with mu_0 uniform and
  mu pushed through pi and the kernel;
- qkl: d cost/dlam = sum_k E_{phi_k}[D_q(P*_k || P0)], with phi_0 = initial.

Each exact slope is compared with a central difference of two re-solves.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qoc.deformed import deformed_entropy, qkl_divergence
from qoc.qkl import QklInstance, evaluate_cost, solve_qkl
from qoc.troc import FiniteTrocInstance, solve_troc

SEEDS = st.integers(0, 2**32 - 1)
QS = st.floats(0.0, 0.9)
LAMS = st.floats(0.2, 5.0)
HORIZONS = st.integers(1, 4)
LAM_GRID = np.geomspace(0.1, 10.0, 9)


def at(instance, lam):
    return dataclasses.replace(instance, lam=lam)


def assert_slope(cost, lam, exact):
    """A central difference of ``cost`` at lam matches ``exact`` within 1e-6 relative.

    Dividing by 2h amplifies the rounding of the two costs, so that is allowed for too:
    a slope far below the cost itself is known only to about eps |cost| / h.
    """
    h = 1e-6 * lam
    numeric = (cost(lam + h) - cost(lam - h)) / (2.0 * h)
    rounding = 8.0 * np.finfo(float).eps * abs(cost(lam)) / h
    assert abs(numeric - exact) <= 1e-6 * abs(exact) + rounding, (numeric, exact)


def assert_concave(costs):
    """Chord slopes of J along LAM_GRID do not increase, up to rounding."""
    chords = np.diff(costs) / np.diff(LAM_GRID)
    assert np.all(np.diff(chords) <= 1e-9 * np.max(np.abs(chords))), chords


def troc_instance(seed, n, m, horizon, lam, q):
    rng = np.random.default_rng(seed)
    kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.6)
    kernel[np.arange(n)[:, None], np.arange(m), rng.integers(0, n, (n, m))] += 0.1
    kernel /= kernel.sum(axis=2, keepdims=True)
    return FiniteTrocInstance(
        kernel, rng.random((horizon, n, m)) * 3.0, rng.random(n), horizon, lam, q
    )


def troc_cost(instance):
    return float(np.mean(solve_troc(instance).value[0]))


def troc_slope(instance):
    policy = solve_troc(instance).policy
    mu = np.full(instance.num_states, 1.0 / instance.num_states)
    slope = 0.0
    for pk in policy:
        slope -= mu @ deformed_entropy(pk, instance.q)
        mu = np.einsum("x,xu,xuy->y", mu, pk, instance.kernel)
    return slope


def qkl_instance(seed, n, horizon, lam, q):
    rng = np.random.default_rng(seed)
    p0 = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    p0[rng.integers(0, n, n), np.arange(n)] += 0.1
    p0 /= p0.sum(axis=0, keepdims=True)
    initial = rng.random(n)
    return QklInstance(p0, rng.random(n) * 3.0, horizon, lam, q, initial / initial.sum())


def qkl_cost(instance):
    return evaluate_cost(instance, solve_qkl(instance).controlled_matrices)


def qkl_slope(instance):
    phi = instance.initial
    slope = 0.0
    for pk in solve_qkl(instance).controlled_matrices:
        reached = phi > 0
        slope += phi[reached] @ qkl_divergence(
            pk.T[reached], instance.passive_matrix.T[reached], instance.q
        )
        phi = pk @ phi
    return slope


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS, st.integers(1, 8), st.integers(1, 4), HORIZONS, LAMS, QS)
def test_troc_lam_slope_is_the_occupancy_weighted_entropy(seed, n, m, horizon, lam, q):
    instance = troc_instance(seed, n, m, horizon, lam, q)
    assert_slope(lambda x: troc_cost(at(instance, x)), lam, troc_slope(instance))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(SEEDS, st.integers(1, 8), st.integers(1, 4), HORIZONS, QS)
def test_troc_cost_is_concave_in_lam(seed, n, m, horizon, q):
    instance = troc_instance(seed, n, m, horizon, 1.0, q)
    assert_concave([troc_cost(at(instance, x)) for x in LAM_GRID])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS, st.integers(2, 8), HORIZONS, LAMS, QS)
def test_qkl_lam_slope_is_the_occupancy_weighted_divergence(seed, n, horizon, lam, q):
    instance = qkl_instance(seed, n, horizon, lam, q)
    assert_slope(lambda x: qkl_cost(at(instance, x)), lam, qkl_slope(instance))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(SEEDS, st.integers(2, 8), HORIZONS, QS)
def test_qkl_cost_is_concave_in_lam(seed, n, horizon, q):
    instance = qkl_instance(seed, n, horizon, 1.0, q)
    assert_concave([qkl_cost(at(instance, x)) for x in LAM_GRID])
