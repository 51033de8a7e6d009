import numpy as np
import pytest

from qoc.deformed import deformed_entropy, exp_q, log_q
from qoc.entmax import entmax_discrete, entmax_quadratic, entmax_weighted

from oracle import GridSpec, brute_force_entmax, quadrature_normalization, sparsemax


def softmax(scores):
    z = np.exp(scores - scores.max())
    return z / z.sum()


class TestDiscrete:
    def test_symmetry(self):
        probs, _, _ = entmax_discrete([3.0, 3.0], 0.7, 0.4)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_result_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            costs = rng.normal(size=rng.integers(2, 8)) * 3
            lam = 10 ** rng.uniform(-1, 1)
            q = rng.random() * 0.95
            w, c, _ = entmax_discrete(costs, lam, q)
            assert abs(w.sum() - 1.0) < 1e-9
            # fixed-point form of the solution
            recon = exp_q(-np.asarray(costs) / lam + c, q)
            assert np.max(np.abs(w - recon)) < 1e-9

    def test_root_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            costs = rng.normal(size=4) * 2
            lam, q = 0.5, 0.3
            _, c, _ = entmax_discrete(costs, lam, q)
            g = np.sum(exp_q(-costs / lam + c, q)) - 1.0
            assert abs(g) < 1e-12

    def test_kkt_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            costs = rng.normal(size=5)
            lam, q = 0.8, 0.45
            w, c, _ = entmax_discrete(costs, lam, q)
            for i in np.flatnonzero(w > 0):
                # Q_i + lam log_q(w_i) must be constant (= lam C) on the support
                resid = costs[i] + lam * log_q(w[i], q) - lam * c
                assert abs(resid) < 1e-8

    def test_softmax_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            costs = rng.normal(size=6)
            lam = 0.9
            probs, _, _ = entmax_discrete(costs, lam, 0.999)
            assert np.max(np.abs(probs - softmax(-costs / lam))) < 1e-3

    def test_sparsemax_agreement_q0(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            costs = rng.normal(size=5) * 2
            lam = 10 ** rng.uniform(-1, 0.5)
            probs, _, _ = entmax_discrete(costs, lam, 0.0)
            assert np.max(np.abs(probs - sparsemax(-costs / lam))) < 1e-9

    def test_sparsity_monotone_in_q(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            costs = rng.normal(size=6) * 3
            lam = 0.5
            supports = [
                np.sum(entmax_discrete(costs, lam, q)[0] > 0)
                for q in [0.0, 0.25, 0.5, 0.75]
            ]
            assert np.all(np.diff(supports) >= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            entmax_discrete([], 1.0, 0.5)
        with pytest.raises(ValueError):
            entmax_discrete([1.0, np.inf], 1.0, 0.5)
        with pytest.raises(ValueError):
            entmax_discrete([1.0, 2.0], 0.0, 0.5)


class TestBruteForceEquivalence:
    def test_matches_grid_minimizer(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            res_grid = GridSpec(0.01 if n <= 3 else 0.02)
            costs = rng.normal(size=n) * 2
            lam = 10 ** rng.uniform(-0.5, 0.5)
            q = rng.random() * 0.9
            probs, _, objective = entmax_discrete(costs, lam, q)
            grid_min, grid_obj = brute_force_entmax(costs, lam, q, res_grid)
            assert np.max(np.abs(probs - grid_min)) <= 2 * res_grid.resolution
            assert objective <= grid_obj + 1e-12


class TestWeighted:
    def test_all_ones_reduces_to_discrete(self):
        costs = np.array([0.5, 1.5, -0.3])
        probs_a, c_a, _ = entmax_discrete(costs, 0.7, 0.3)
        probs_b, c_b, _ = entmax_weighted(costs, np.ones(3), 0.7, 0.3)
        assert np.allclose(probs_a, probs_b, atol=1e-12)
        assert abs(c_a - c_b) < 1e-10

    def test_zero_weight_stays_zero(self):
        probs, _, _ = entmax_weighted([1.0, 2.0, 0.1], [0.5, 0.0, 0.5], 1.0, 0.25)
        assert probs[1] == 0.0

    def test_support_clipping_can_zero_positive_weights(self):
        # a large cost on a supported index is clipped away entirely
        probs, _, _ = entmax_weighted([0.0, 50.0], [0.5, 0.5], 1.0, 0.25)
        assert probs[1] == 0.0
        assert probs[0] == 1.0

    def test_infeasible_all_zero_weights(self):
        with pytest.raises(ValueError):
            entmax_weighted([1.0, 2.0], [0.0, 0.0], 1.0, 0.25)

    def test_small_weights_bracket_expansion(self):
        probs, _, _ = entmax_weighted([0.0, 0.0], [1e-6, 1e-6], 1.0, 0.5)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-9)


class TestQuadratic:
    def test_density_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            r = 10 ** rng.uniform(-0.5, 0.5)
            lam = 10 ** rng.uniform(-1, 0.5)
            q = rng.random() * 0.9
            gaussian, _ = entmax_quadratic([[r]], [0.0], lam, q)
            assert quadrature_normalization(gaussian) == pytest.approx(1.0, abs=1e-8)

    def test_sigma_inverse_relation(self):
        gaussian, eta = entmax_quadratic([[2.0, 0.3], [0.3, 1.5]], [0.0, 0.0], 0.4, 0.3)
        n = 2
        lhs = np.linalg.inv(gaussian.sigma)
        rhs = ((n + 4) - (n + 2) * 0.3) / 0.4 * eta * np.array([[2.0, 0.3], [0.3, 1.5]])
        assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_shannon_limit_sigma(self):
        r, lam = 1.0, 1.0
        gaussian, _ = entmax_quadratic([[r]], [0.0], lam, 0.999)
        assert gaussian.sigma[0, 0] == pytest.approx(lam / (2 * r), rel=0.01)

    def test_minimality_over_discretized_densities(self):
        # objective: E[u^2 R] - lam H_q, evaluated on discretized densities
        r, lam, q = 1.3, 0.05, 0.3
        g, _ = entmax_quadratic([[r]], [0.0], lam, q)
        radius = g.support_radius([1.0]) * 1.5
        xs = np.linspace(-radius, radius, 401)
        h = xs[1] - xs[0]

        def objective(density):
            mass = density * h
            eq = float(np.sum(mass * xs**2 * r))
            pos = density > 0
            plogq = np.sum(
                mass[pos] * (density[pos] ** (1.0 - q) - 1.0) / (1.0 - q)
            )
            return eq + lam / (2.0 - q) * (plogq - 1.0)

        opt_density = np.array([g.density([x]) for x in xs])
        opt_obj = objective(opt_density)
        rng = np.random.default_rng(8)
        for _ in range(500):
            pert = opt_density * np.exp(0.3 * rng.normal(size=xs.size))
            pert /= np.sum(pert) * h
            assert objective(pert) >= opt_obj - 1e-6

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            entmax_quadratic([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], 1.0, 0.3)
