"""The batched ent-max row kernel against its one-row views and oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoc.deformed import exp_q, log_q
from qoc.entmax import (
    _normalization_root,
    entmax_discrete,
    entmax_rows,
    entmax_weighted,
    sparsemax,
)
from qoc.oracle import GridSpec, brute_force_entmax

LAMS = st.floats(0.1, 10.0)
QS = st.floats(0.0, 0.95)


@st.composite
def row_stacks(draw, max_rows=6, max_k=8, weighted=None):
    rows = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_k))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    costs = rng.normal(size=(rows, k)) * draw(st.floats(0.1, 5.0))
    if weighted is None:
        weighted = draw(st.booleans())
    if not weighted:
        return costs, None
    weights = rng.uniform(0.01, 1.0, size=(rows, k))
    weights[rng.random((rows, k)) < 0.3] = 0.0
    weights[np.arange(rows), rng.integers(0, k, size=rows)] = rng.uniform(0.01, 1.0, rows)
    weights /= weights.sum(axis=1, keepdims=True)
    # costs off the support are ignored, even when not finite
    costs[weights == 0] = np.inf
    return costs, weights


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row_stacks(), LAMS, QS)
def test_stack_matches_rows_alone_bitwise(stack, lam, q):
    costs, weights = stack
    probs, c, objective = entmax_rows(costs, weights, lam, q)
    for r in range(costs.shape[0]):
        w = None if weights is None else weights[r : r + 1]
        p1, c1, o1 = entmax_rows(costs[r : r + 1], w, lam, q)
        assert np.array_equal(p1[0], probs[r])
        assert c1[0] == c[r] and o1[0] == objective[r]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row_stacks(weighted=False), st.floats(0.1, 3.0))
def test_q0_is_sparsemax(stack, lam):
    costs, _ = stack
    probs, _, _ = entmax_rows(costs, None, lam, 0.0)
    for r in range(costs.shape[0]):
        assert np.max(np.abs(probs[r] - sparsemax(-costs[r] / lam))) < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(0.3, 3.0), st.floats(0.0, 0.9))
def test_small_rows_match_brute_force(seed, k, lam, q):
    costs = np.random.default_rng(seed).normal(size=(1, k)) * 2
    grid = GridSpec(0.01 if k <= 3 else 0.02)
    probs, _, objective = entmax_rows(costs, None, lam, q)
    grid_min, grid_obj = brute_force_entmax(costs[0], lam, q, grid)
    assert np.max(np.abs(probs[0] - grid_min)) <= 2 * grid.resolution
    assert objective[0] <= grid_obj + 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(row_stacks(), LAMS, QS)
def test_support_kkt_and_root_residual(stack, lam, q):
    costs, weights = stack
    probs, c, _ = entmax_rows(costs, weights, lam, q)
    w = np.ones_like(costs) if weights is None else weights
    assert np.all(probs[w == 0] == 0.0)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
    for r in range(costs.shape[0]):
        sup = w[r] > 0
        g = np.sum(w[r, sup] * exp_q(-costs[r, sup] / lam + c[r], q)) - 1.0
        assert abs(g) < 1e-12
        for i in np.flatnonzero(probs[r] > 0):
            # Q_i + lam log_q(phi_i / w_i) equals lam C on the support
            resid = costs[r, i] + lam * log_q(probs[r, i] / w[r, i], q) - lam * c[r]
            assert abs(resid) < 1e-8


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lam_is_rejected(lam):
    with pytest.raises(ValueError):
        entmax_discrete([1.0, 2.0], lam, 0.5)
    with pytest.raises(ValueError):
        entmax_weighted([1.0, 2.0], [0.5, 0.5], lam, 0.5)
    with pytest.raises(ValueError):
        entmax_rows(np.ones((2, 3)), None, lam, 0.5)


def test_normalization_root_checks_its_bracket():
    costs, ones = np.array([0.0, 0.1, 0.2, 0.3]), np.ones(4)
    lam, q = 0.6, 0.35
    c = _normalization_root(costs, ones, lam, q)
    assert abs(_normalization_root(costs, ones, lam, q, bracket=(c - 1e-3, c + 1e-3)) - c) < 1e-12
    with pytest.raises(ValueError, match="lower end"):
        _normalization_root(costs, ones, lam, q, bracket=(c + 0.1, c + 1.0))


@pytest.mark.parametrize("q", [0.9, 0.999])
def test_tiny_lambda_rows_raise_no_warning(q):
    lam = 1e-6
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = entmax_discrete([0.0, 1.0, 3.0], lam, q)
        assert res.distribution.weights[0] == 1.0
        res = entmax_weighted([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], lam, q)
        assert res.distribution.weights[0] == 1.0
        for _ in range(40):
            k = int(rng.integers(2, 12))
            costs = rng.normal(size=(8, k)) * rng.choice([1e-6, 1.0, 10.0])
            weights = rng.dirichlet(np.ones(k), size=8)
            for w in (None, weights):
                probs, c, objective = entmax_rows(costs, w, lam, q)
                assert np.all(np.isfinite(c)) and np.all(np.isfinite(objective))
                assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("tiny", [1e-50, 1e-300, 1e-310])
def test_tiny_weights_keep_a_short_bracket(q, tiny):
    # the argmin's own bound log_q(1/tiny) is huge; another entry's bound is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = entmax_weighted([0.0, 1.0], [tiny, 1.0], 1.0, q)
    assert res.distribution.weights[1] == pytest.approx(1.0, abs=1e-12)
    assert res.normalizer_c == pytest.approx(1.0, abs=1e-12)
