"""The batched ent-max row kernel against its one-row views and oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qoc.entmax
from qoc.deformed import exp_q, log_q
from qoc.entmax import entmax_discrete, entmax_quadratic, entmax_rows, entmax_weighted
from qoc.qgaussian import QGaussian

from oracle import GridSpec, brute_force_entmax, sparsemax

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
@given(row_stacks(max_rows=1), LAMS, QS)
def test_views_return_row_0_of_the_kernel(stack, lam, q):
    costs, weights = stack
    if weights is None:
        view = entmax_discrete(costs[0], lam, q)
    else:
        view = entmax_weighted(costs[0], weights[0], lam, q)
    probs, c, objective = entmax_rows(costs, weights, lam, q)
    assert [type(x) for x in view] == [np.ndarray, float, float]
    assert view[0].shape == probs[0].shape and np.array_equal(view[0], probs[0])
    assert view[1] == c[0] and view[2] == objective[0]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(row_stacks(max_rows=1, weighted=False), LAMS, QS)
def test_quadratic_returns_a_q_gaussian_and_eta(stack, lam, q):
    costs, _ = stack
    r_matrix = np.diag(1.0 + costs[0] ** 2)
    result = entmax_quadratic(r_matrix, np.zeros(costs.shape[1]), lam, q)
    assert [type(x) for x in result] == [QGaussian, float]


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


@pytest.mark.parametrize("q", [0.9, 0.999])
def test_tiny_lambda_rows_raise_no_warning(q):
    lam = 1e-6
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs, _, _ = entmax_discrete([0.0, 1.0, 3.0], lam, q)
        assert probs[0] == 1.0
        probs, _, _ = entmax_weighted([0.0, 1.0, 3.0], [0.2, 0.3, 0.5], lam, q)
        assert probs[0] == 1.0
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
        probs, c, _ = entmax_weighted([0.0, 1.0], [tiny, 1.0], 1.0, q)
    assert probs[1] == pytest.approx(1.0, abs=1e-12)
    assert c == pytest.approx(1.0, abs=1e-12)


@st.composite
def tiny_cheapest_rows(draw, max_rows=4, max_k=8):
    """Rows whose cheapest entry has a weight of 1e-12 to 1e-300, far below the rest.

    The cheapest entry sits up to 1e20 below the others in costs / lam, and
    at most halfway to where its own term alone would reach 1, so the mass
    stays on the other entries, and C - costs_cheapest / lam is as large as
    that spread.  Costs are scaled by lam (at most 1e6 in magnitude), so C
    and every cost the checks see stay representable at their tolerances.
    """
    rows = draw(st.integers(1, max_rows))
    k = draw(st.integers(2, max_k))
    q = draw(st.floats(0.0, 1.0 - 1e-12))
    tiny = 10.0 ** -draw(st.floats(12.0, 300.0))
    spread = 10.0 ** draw(st.floats(0.0, 20.0))
    lam = min(10.0 ** draw(st.floats(-1.0, 1.0)), 1e6 / spread)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(rows, k)) * draw(st.floats(0.1, 5.0))
    cheapest = np.argmin(base, axis=1)
    at = np.arange(rows), cheapest
    base[at] -= min(spread, 0.5 * log_q(1.0 / tiny, q))
    weights = rng.uniform(0.01, 1.0, size=(rows, k))
    weights[at] = tiny
    weights /= weights.sum(axis=1, keepdims=True)
    return (lam * base, weights), lam, q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tiny_cheapest_rows())
def test_tiny_cheapest_weight_rows(case):
    stack, lam, q = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        test_support_kkt_and_root_residual.hypothesis.inner_test(stack, lam, q)
        test_stack_matches_rows_alone_bitwise.hypothesis.inner_test(stack, lam, q)


def test_root_iteration_cap_names_the_row(monkeypatch):
    costs = np.array([[0.0, 0.5, 1.0], [0.0, 0.0, 0.0]])
    entmax_rows(costs, None, 1.0, 0.5)
    monkeypatch.setattr(qoc.entmax, "ROOT_MAX_ITER", 1)
    message = r"did not converge in row \d after 1 Newton steps: g \S+"
    with pytest.raises(RuntimeError, match=message):
        entmax_rows(costs, None, 1.0, 0.5)


def newton_families(seed, k, rows):
    """Seeded (costs, weights, lam, q) of width k; weights unit or Dirichlet.

    q is 0, U(0, 0.99) or 1 - 10^-U(1, 8).
    """
    rng = np.random.default_rng([seed, k])
    for weighted in (False, True):
        for q in (0.0, rng.uniform(0.0, 0.99), 1.0 - 10.0 ** -rng.uniform(1.0, 8.0)):
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            costs = rng.normal(size=(rows, k)) * rng.choice([0.1, 1.0, 10.0])
            weights = rng.dirichlet(np.ones(k), size=rows) if weighted else None
            yield costs, weights, lam, q


@pytest.mark.parametrize("k, rows, steps", [(50, 200, 10), (10_000, 4, 15)])
def test_newton_step_bound(monkeypatch, k, rows, steps):
    # the README's bound: every row converges within ``steps`` Newton steps, and some row needs all
    needing_all = 0
    for seed in range(40):
        for family in newton_families(seed, k, rows):
            monkeypatch.setattr(qoc.entmax, "ROOT_MAX_ITER", steps - 1)
            try:
                entmax_rows(*family)
            except RuntimeError:
                needing_all += 1
                monkeypatch.setattr(qoc.entmax, "ROOT_MAX_ITER", steps)
                entmax_rows(*family)
    assert needing_all > 0
