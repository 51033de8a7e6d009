import numpy as np
import pytest

from qoc.deformed import deformed_entropy
from qoc.troc import FiniteTrocInstance, evaluate_policy, solve_troc

from oracle import brute_force_policy_search


def random_instance(rng, n=3, m=3, horizon=4, lam=0.5, q=0.3, time_varying=False):
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    shape = (horizon, n, m) if time_varying else (n, m)
    return FiniteTrocInstance(
        kernel=kernel,
        stage_cost=rng.random(shape) * 3,
        terminal_cost=rng.random(n) * 2,
        horizon=horizon,
        lam=lam,
        q=q,
    )


class TestInstance:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            random_instance(np.random.default_rng(0), lam=lam)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            FiniteTrocInstance(
                kernel=np.ones((2, 2, 2)),
                stage_cost=np.zeros((2, 2)),
                terminal_cost=np.zeros(2),
                horizon=3,
                lam=1.0,
                q=0.3,
            )

    def test_rejects_a_nan_kernel_entry(self):
        kernel = np.full((2, 2, 2), 0.5)
        kernel[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="each kernel slice must be non-negative and sum to 1"):
            FiniteTrocInstance(kernel, np.zeros((2, 2)), np.zeros(2), 3, 1.0, 0.3)

    def test_rejects_bad_cost_shape(self):
        kernel = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            FiniteTrocInstance(
                kernel=kernel,
                stage_cost=np.zeros((3, 2)),
                terminal_cost=np.zeros(2),
                horizon=3,
                lam=1.0,
                q=0.3,
            )

    def test_time_varying_cost_accepted(self):
        kernel = np.full((2, 2, 2), 0.5)
        inst = FiniteTrocInstance(
            kernel=kernel,
            stage_cost=np.zeros((3, 2, 2)),
            terminal_cost=np.zeros(2),
            horizon=3,
            lam=1.0,
            q=0.3,
        )
        assert inst.cost_at(1).shape == (2, 2)


class TestSolve:
    def test_terminal_condition(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng)
        sol = solve_troc(inst)
        assert np.array_equal(sol.value[-1], inst.terminal_cost)

    def test_dp_consistency(self):
        # recomputing one backward step from the stored values reproduces
        # the stored Q-values and policy rows
        rng = np.random.default_rng(1)
        inst = random_instance(rng, time_varying=True)
        sol = solve_troc(inst)
        for k in range(inst.horizon):
            q_check = inst.cost_at(k) + inst.kernel @ sol.value[k + 1]
            assert np.max(np.abs(q_check - sol.q_values[k])) < 1e-12
            for x in range(inst.num_states):
                row = sol.policy[k, x]
                expected = row @ sol.q_values[k, x] - inst.lam * deformed_entropy(
                    row, inst.q
                )
                assert sol.value[k, x] == pytest.approx(expected, abs=1e-9)

    def test_value_matches_forward_evaluation(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, horizon=5)
        sol = solve_troc(inst)
        initial = np.array([0.2, 0.5, 0.3])
        cost = evaluate_policy(inst, sol.policy, initial)
        assert cost == pytest.approx(float(initial @ sol.value[0]), abs=1e-9)

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, horizon=3)
        sol = solve_troc(inst)
        initial = np.full(inst.num_states, 1.0 / inst.num_states)
        opt = evaluate_policy(inst, sol.policy, initial)
        for _ in range(200):
            pert = sol.policy * np.exp(0.3 * rng.normal(size=sol.policy.shape))
            pert /= pert.sum(axis=2, keepdims=True)
            assert evaluate_policy(inst, pert, initial) >= opt - 1e-9

    def test_optimality_against_brute_force(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=2, m=2, horizon=2, lam=0.8)
        sol = solve_troc(inst)
        initial = np.array([0.5, 0.5])
        opt = evaluate_policy(inst, sol.policy, initial)
        best_policy, best_cost = brute_force_policy_search(
            inst,
            initial,
            lambda policy, init: evaluate_policy(inst, policy, init),
            resolution=0.05,
        )
        assert opt <= best_cost + 1e-9

    def test_policy_sparser_for_smaller_q(self):
        rng = np.random.default_rng(5)
        kernel = rng.random((3, 4, 3)) + 0.05
        kernel /= kernel.sum(axis=2, keepdims=True)
        cost = rng.random((3, 4)) * 4
        counts = []
        for q in [0.05, 0.5, 0.9]:
            inst = FiniteTrocInstance(
                kernel=kernel,
                stage_cost=cost,
                terminal_cost=np.zeros(3),
                horizon=3,
                lam=0.3,
                q=q,
            )
            counts.append(int(np.sum(solve_troc(inst).policy > 0)))
        assert counts[0] <= counts[1] <= counts[2]

    def test_large_lam_approaches_uniform(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, lam=1e4)
        sol = solve_troc(inst)
        assert np.max(np.abs(sol.policy - 1.0 / inst.num_actions)) < 1e-3


class TestEvaluatePolicy:
    def test_rejects_bad_shape(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        with pytest.raises(ValueError):
            evaluate_policy(inst, np.zeros((2, 2, 2)), np.full(3, 1.0 / 3))
