import numpy as np
import pytest

from qoc.qkl import (
    QklInstance,
    evaluate_cost,
    relative_values,
    rollout,
    solve_qkl,
    solve_qkl_stationary,
)

RING4 = np.array(
    [
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 1.0],
    ]
) / 3.0


def ring_instance(q=0.25, lam=1.0, horizon=200):
    return QklInstance(
        passive_matrix=RING4,
        state_cost=np.array([1.0, 2.0, 3.0, 4.0]),
        horizon=horizon,
        lam=lam,
        q=q,
    )


class TestInstance:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            ring_instance(lam=lam)

    def test_rejects_non_stochastic_columns(self):
        with pytest.raises(ValueError):
            QklInstance(
                passive_matrix=np.array([[0.5, 0.5], [0.4, 0.5]]),
                state_cost=np.zeros(2),
                horizon=5,
                lam=1.0,
                q=0.3,
            )

    def test_rejects_a_nan_passive_column(self):
        p0 = RING4.copy()
        p0[:, 2] = np.nan
        with pytest.raises(ValueError, match="every column of passive_matrix"):
            QklInstance(p0, np.zeros(4), 5, 1.0, 0.3)

    @pytest.mark.parametrize("initial", [[0.5] * 4, [1.5, -0.5, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]])
    def test_rejects_an_initial_law_that_is_not_a_distribution(self, initial):
        with pytest.raises(ValueError, match="initial must be non-negative and sum to 1"):
            QklInstance(RING4, np.zeros(4), 5, 1.0, 0.3, initial=initial)

    def test_default_initial_uniform(self):
        inst = ring_instance()
        assert np.allclose(inst.initial, 0.25)


class TestSolve:
    def test_columns_stochastic_and_support_contained(self):
        inst = ring_instance(horizon=10)
        sol = solve_qkl(inst)
        for k in range(inst.horizon):
            pk = sol.controlled_matrices[k]
            assert np.allclose(pk.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(pk[RING4 == 0.0] == 0.0)

    def test_terminal_values(self):
        inst = ring_instance(horizon=5)
        sol = solve_qkl(inst)
        assert np.array_equal(sol.values[-1], inst.state_cost)

    def test_optimality_against_column_perturbations(self):
        inst = ring_instance(horizon=6)
        sol = solve_qkl(inst)
        base = evaluate_cost(inst, sol.controlled_matrices)
        rng = np.random.default_rng(0)
        for _ in range(100):
            pert = sol.controlled_matrices * np.exp(
                0.2 * rng.normal(size=sol.controlled_matrices.shape)
            )
            pert *= RING4 > 0  # keep support feasible
            pert /= pert.sum(axis=1, keepdims=True)
            assert evaluate_cost(inst, pert) >= base - 1e-9

    def test_evaluate_cost_needs_a_matrix_per_stage(self):
        inst = ring_instance(horizon=6)
        matrices = solve_qkl(inst).controlled_matrices[:3]
        with pytest.raises(ValueError, match="not enough controlled matrices"):
            evaluate_cost(inst, matrices)

    def test_stationary_matches_long_horizon(self):
        inst = ring_instance(horizon=200)
        sol = solve_qkl(inst)
        p_star, normalizers, value = solve_qkl_stationary(inst)
        assert np.max(np.abs(p_star - sol.controlled_matrices[0])) < 1e-8
        z_stat = relative_values(value, normalizers, lam=inst.lam)
        z_full = relative_values(sol.values[1], sol.normalizers[0], 0, lam=inst.lam)
        assert np.max(np.abs(z_stat - z_full)) < 1e-8


class TestStationaryRing:
    """Fixed reference values for the 4-state ring at q = 0.25, lam = 1."""

    def test_relative_values(self):
        p_star, normalizers, value = solve_qkl_stationary(ring_instance())
        z = relative_values(value, normalizers, lam=1.0)
        assert np.allclose(z, [0.951, -0.049, -2.293, -2.345], atol=1e-3)

    def test_value_differences(self):
        _, _, value = solve_qkl_stationary(ring_instance())
        diffs = value - value[0]
        assert np.allclose(diffs, [0.0, 1.000, 3.244, 3.296], atol=1e-3)

    def test_sparsity_pattern(self):
        p_star, normalizers, value = solve_qkl_stationary(ring_instance())
        # structural zero inherited from the passive chain
        assert p_star[2, 0] == 0.0
        # induced zero: the clip point is crossed for the costliest state
        z = relative_values(value, normalizers, lam=1.0)
        assert 1.0 + 0.75 * z[3] < 0
        assert p_star[3, 0] == 0.0
        assert np.isclose(1.0 + 0.75 * z[3], -0.759, atol=1e-3)

    def test_dense_for_q_near_one(self):
        p_star, _, _ = solve_qkl_stationary(ring_instance(q=0.999))
        assert np.all(p_star[RING4 > 0] > 0)


class TestStationary:
    def test_periodic_chain_reports_its_drift(self):
        # the swap chain alternates the relative value of state 1 between 0 and 1
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = QklInstance(swap, np.array([0.0, 1.0]), 5, 1.0, 0.3)
        with pytest.raises(RuntimeError, match=r"10000 iterations: last drift 1$"):
            solve_qkl_stationary(inst)


class TestRollout:
    def test_determinism(self):
        inst = ring_instance(horizon=10)
        sol = solve_qkl(inst)
        a = rollout(inst, sol.controlled_matrices, 10, [5])[0]
        b = rollout(inst, sol.controlled_matrices, 10, [5])[0]
        assert np.array_equal(a, b)

    def test_respects_support(self):
        inst = ring_instance(horizon=50)
        p_star, _, _ = solve_qkl_stationary(inst)
        path = rollout(inst, p_star, 50, [7])[0]
        for a, b in zip(path[:-1], path[1:]):
            assert p_star[b, a] > 0

    def test_length_and_range(self):
        inst = ring_instance(horizon=20)
        p_star, _, _ = solve_qkl_stationary(inst)
        path = rollout(inst, p_star, 20, [3])[0]
        assert path.shape == (21,)
        assert np.all((path >= 0) & (path < 4))

    @staticmethod
    def _choice_paths(inst, matrices, steps, seeds):
        """Reference: one Generator.choice call per draw, trajectory by trajectory."""
        paths = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            path = [int(rng.choice(inst.num_states, p=inst.initial))]
            for k in range(steps):
                col = matrices[k][:, path[-1]]
                path.append(int(rng.choice(inst.num_states, p=col / col.sum())))
            paths.append(path)
        return np.asarray(paths)

    def test_matches_one_choice_call_per_draw_on_the_ring(self):
        inst = ring_instance(horizon=30)
        matrices = solve_qkl(inst).controlled_matrices
        seeds = [(7, t) for t in range(40)]
        expected = self._choice_paths(inst, matrices, 30, seeds)
        assert np.array_equal(rollout(inst, matrices, 30, seeds), expected)

    def test_matches_one_choice_call_per_draw_on_uneven_supports(self):
        rng = np.random.default_rng(11)
        n = 12
        p0 = rng.random((n, n)) * (rng.random((n, n)) < np.linspace(0.1, 0.9, n))
        p0[np.arange(n), np.arange(n)] += 0.05  # every column keeps some support
        p0 /= p0.sum(axis=0)
        inst = QklInstance(p0, rng.normal(size=n), 25, 0.7, 0.3, initial=rng.dirichlet(np.ones(n)))
        matrices = solve_qkl(inst).controlled_matrices
        seeds = [(3, t) for t in range(60)]
        expected = self._choice_paths(inst, matrices, 25, seeds)
        assert np.array_equal(rollout(inst, matrices, 25, seeds), expected)

    @pytest.mark.parametrize("entry", [-0.1, float("nan")])
    def test_rejects_a_column_choice_would_reject(self, entry):
        inst = ring_instance(horizon=5)
        matrices = solve_qkl(inst).controlled_matrices.copy()
        matrices[2][:, :] = entry
        with pytest.raises(ValueError, match="controlled matrix 2"):
            rollout(inst, matrices, 5, [1, 2])

    def test_rejects_a_zero_column(self):
        inst = ring_instance(horizon=5)
        matrices = solve_qkl(inst).controlled_matrices.copy()
        matrices[0][:, 3] = 0.0
        with pytest.raises(ValueError, match="controlled matrix 0"):
            rollout(inst, matrices, 5, [1])
