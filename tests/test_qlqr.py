import numpy as np
import pytest

from qoc.deformed import deformed_entropy, tsallis_entropy
from qoc.qgaussian import QGaussian
from qoc.qlqr import (
    QlqrInstance,
    expected_quadratic_cost,
    simulate_closed_loop,
    solve_qlqr,
    solve_qlqr_stationary,
    support_envelope,
)

from oracle import quadrature_moments

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_instance(q=0.25, lam=0.01, horizon=100, x0=1.0):
    return QlqrInstance(
        a=1.0,
        b=1.0,
        q_cost=1.0,
        s_cost=0.0,
        r_cost=1.0,
        terminal_cost=1.0,
        horizon=horizon,
        lam=lam,
        q=q,
        initial_state=[x0],
    )


def planar_instance(q=0.3, lam=0.05, horizon=30):
    return QlqrInstance(
        a=np.array([[0.8, 0.2], [0.0, 0.7]]),
        b=np.array([[0.0], [1.0]]),
        q_cost=np.eye(2),
        s_cost=np.zeros((2, 1)),
        r_cost=np.array([[0.5]]),
        terminal_cost=np.eye(2),
        horizon=horizon,
        lam=lam,
        q=q,
        initial_state=[1.0, 0.0],
    )


class TestInstance:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            scalar_instance(lam=lam)

    def test_scalar_coercion(self):
        inst = scalar_instance()
        assert inst.a.shape == (1, 1)
        assert inst.state_dim == 1 and inst.input_dim == 1

    def test_rejects_non_pd_r(self):
        with pytest.raises(ValueError):
            QlqrInstance(
                a=1.0,
                b=1.0,
                q_cost=1.0,
                s_cost=0.0,
                r_cost=0.0,
                terminal_cost=1.0,
                horizon=5,
                lam=0.1,
                q=0.3,
            )

    def test_rejects_an_asymmetric_r(self):
        # x'Rx reads only R's symmetric part; a triangle alone must not pass for it
        with pytest.raises(ValueError, match="r_cost must be symmetric positive definite"):
            QlqrInstance(
                a=np.eye(2),
                b=np.eye(2),
                q_cost=np.eye(2),
                s_cost=np.zeros((2, 2)),
                r_cost=[[1.0, 1.0], [0.0, 1.0]],
                terminal_cost=np.eye(2),
                horizon=5,
                lam=0.1,
                q=0.3,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QlqrInstance(
                a=np.eye(2),
                b=np.ones((2, 1)),
                q_cost=np.eye(3),
                s_cost=np.zeros((2, 1)),
                r_cost=np.eye(1),
                terminal_cost=np.eye(2),
                horizon=5,
                lam=0.1,
                q=0.3,
            )


class TestRiccati:
    def test_scalar_fixed_point(self):
        # a = b = q = r = 1: Pi solves Pi = 1 + Pi - Pi^2/(1+Pi), the
        # golden ratio, with gain K = -1/Pi
        sol = solve_qlqr_stationary(scalar_instance())
        assert sol.pi_matrices[0][0, 0] == pytest.approx(GOLDEN, abs=1e-9)
        assert sol.gains[0][0, 0] == pytest.approx(-1.0 / GOLDEN, abs=1e-9)

    def test_gain_independent_of_lam_and_q(self):
        a = solve_qlqr(scalar_instance(q=0.1, lam=0.01))
        b = solve_qlqr(scalar_instance(q=0.8, lam=1.0))
        assert np.allclose(a.gains, b.gains, atol=1e-12)
        assert np.allclose(a.pi_matrices, b.pi_matrices, atol=1e-12)

    def test_finite_horizon_converges_to_stationary(self):
        inst = scalar_instance(horizon=100)
        sol = solve_qlqr(inst)
        stat = solve_qlqr_stationary(inst)
        assert abs(sol.pi_matrices[0][0, 0] - stat.pi_matrices[0][0, 0]) < 1e-10
        assert abs(sol.gains[0][0, 0] - stat.gains[0][0, 0]) < 1e-10

    def test_matches_scipy_dare(self):
        from scipy.linalg import solve_discrete_are

        inst = planar_instance()
        stat = solve_qlqr_stationary(inst)
        ref = solve_discrete_are(inst.a, inst.b, inst.q_cost, inst.r_cost)
        assert np.allclose(stat.pi_matrices[0], ref, atol=1e-8)

    def test_value_matrix_psd(self):
        sol = solve_qlqr(planar_instance())
        for pi in sol.pi_matrices:
            assert np.min(np.linalg.eigvalsh(pi)) >= -1e-12


class TestNoise:
    def test_shannon_limit_covariance(self):
        # q -> 1 recovers Sigma = lam/2 * R_tilde^{-1}
        inst = scalar_instance(q=0.999, lam=0.01)
        sol = solve_qlqr_stationary(inst)
        r_t = 1.0 + sol.pi_matrices[0][0, 0]
        assert sol.noise_covariances[0][0, 0] == pytest.approx(
            0.01 / (2.0 * r_t), rel=0.01
        )

    def test_noise_scales_with_lam(self):
        # Sigma proportional to lam^{2/((m+2)-mq)}; scalar input, q=0.25
        s1 = solve_qlqr_stationary(scalar_instance(lam=0.01)).noise_covariances[0][0, 0]
        s2 = solve_qlqr_stationary(scalar_instance(lam=0.04)).noise_covariances[0][0, 0]
        assert s2 / s1 == pytest.approx(4.0 ** (2.0 / 2.75), rel=1e-9)

    def test_support_radius_consistent_with_distribution(self):
        inst = scalar_instance()
        sol = solve_qlqr_stationary(inst)
        g = QGaussian([0.0], sol.noise_covariances[0], inst.q)
        assert sol.support_radii[0][0] == pytest.approx(
            g.support_radius([1.0]), abs=1e-12
        )

    def test_unusable_noise_names_the_stage(self):
        # lam = 1e-320 makes the ent-max covariance underflow to a singular one
        with pytest.raises(ValueError, match="^stage 0: sigma must be symmetric positive definite"):
            solve_qlqr_stationary(scalar_instance(lam=1e-320))

    def test_noise_density_satisfies_stationarity(self):
        # log_q of the density plus u^2 R_tilde / lam must be constant on
        # the support (first-order condition of the quadratic ent-max)
        from qoc.deformed import log_q

        inst = scalar_instance(q=0.4, lam=0.02)
        sol = solve_qlqr_stationary(inst)
        g = QGaussian([0.0], sol.noise_covariances[0], inst.q)
        r_t = inst.r_cost[0, 0] + sol.pi_matrices[0][0, 0]
        r_support = g.support_radius([1.0])
        us = np.linspace(-0.9 * r_support, 0.9 * r_support, 9)
        vals = [
            log_q(g.density([u]), inst.q) + u**2 * r_t / inst.lam for u in us
        ]
        assert np.max(np.abs(np.diff(vals))) < 1e-8


class TestSimulation:
    def test_shapes_and_determinism(self):
        inst = scalar_instance()
        sol = solve_qlqr_stationary(inst)
        xs, us = simulate_closed_loop(inst, sol, 50, 20, seed=4)
        assert xs.shape == (21, 50, 1) and us.shape == (20, 50, 1)
        xs2, _ = simulate_closed_loop(inst, sol, 50, 20, seed=4)
        assert np.array_equal(xs, xs2)

    def test_trajectories_inside_envelope(self):
        inst = scalar_instance()
        sol = solve_qlqr_stationary(inst)
        xs, _ = simulate_closed_loop(inst, sol, 2000, 40, seed=5)
        lower, upper = support_envelope(inst, sol, 40)
        assert np.all(xs >= lower[:, None, :] - 1e-12)
        assert np.all(xs <= upper[:, None, :] + 1e-12)

    def test_planar_trajectories_inside_envelope(self):
        inst = planar_instance()
        sol = solve_qlqr_stationary(inst)
        xs, _ = simulate_closed_loop(inst, sol, 500, 30, seed=6)
        lower, upper = support_envelope(inst, sol, 30)
        assert np.all(xs >= lower[:, None, :] - 1e-9)
        assert np.all(xs <= upper[:, None, :] + 1e-9)

    def test_envelope_contracts_for_stable_loop(self):
        inst = scalar_instance()
        sol = solve_qlqr_stationary(inst)
        lower, upper = support_envelope(inst, sol, 200)
        width = (upper - lower)[:, 0]
        # closed loop is a contraction, so widths approach the fixed point
        # beta / (1 - |a + b k|) of the interval recursion
        assert abs(width[-1] - width[-2]) < 1e-9
        f = 1.0 + sol.gains[0][0, 0]
        beta = sol.support_radii[0][0]
        assert width[-1] / 2.0 == pytest.approx(beta / (1.0 - abs(f)), abs=1e-9)

    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, sol: simulate_closed_loop(inst, sol, 3, 5, seed=0),
            lambda inst, sol: support_envelope(inst, sol, 5),
        ],
        ids=["trajectories", "envelope"],
    )
    def test_overflow_names_the_stage(self, run):
        # zero costs give a zero gain, so x grows by a = 1e100 per stage
        inst = QlqrInstance(
            a=1e100,
            b=1.0,
            q_cost=0.0,
            s_cost=0.0,
            r_cost=1.0,
            terminal_cost=0.0,
            horizon=5,
            lam=0.01,
            q=0.25,
            initial_state=[1.0],
        )
        sol = solve_qlqr(inst)
        with pytest.raises(ValueError, match=r"^stage \d: .* overflowed float64"):
            run(inst, sol)

    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, sol: simulate_closed_loop(inst, sol, 3, 6, seed=0),
            lambda inst, sol: support_envelope(inst, sol, 6),
            lambda inst, sol: expected_quadratic_cost(inst, sol, 6),
        ],
        ids=["trajectories", "envelope", "cost"],
    )
    def test_short_finite_solution_raises(self, run):
        inst = scalar_instance(horizon=5)
        sol = solve_qlqr(inst)
        with pytest.raises(ValueError, match="a 5-stage solution has no stage 5"):
            run(inst, sol)
        # the stationary solution's one stage serves every step
        run(inst, solve_qlqr_stationary(inst))


def interval_envelope(inst, sol, steps):
    """Scalar reference: centre f c and radius |f| r + |b| beta from the point x0."""
    a, b = inst.a[0, 0], inst.b[0, 0]
    center, radius = inst.initial_state[0], 0.0
    bounds = [(center, center)]
    for k in range(steps):
        stage = min(k, len(sol.gains) - 1)
        f = a + b * sol.gains[stage][0, 0]
        center = f * center
        radius = abs(f) * radius + abs(b) * sol.support_radii[stage][0]
        bounds.append((center - radius, center + radius))
    return np.array(bounds)


class TestScalarEnvelope:
    def test_matches_interval_recursion(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            inst = QlqrInstance(
                a=rng.uniform(-1.5, 1.5),
                b=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0),
                q_cost=rng.uniform(0.1, 2.0),
                s_cost=rng.uniform(-0.2, 0.2),
                r_cost=rng.uniform(0.5, 2.0),
                terminal_cost=rng.uniform(0.1, 2.0),
                horizon=31,
                lam=rng.uniform(0.01, 1.0),
                q=rng.uniform(0.0, 0.95),
                initial_state=[0.0 if trial == 0 else rng.normal(0.0, 3.0)],
            )
            sols = [solve_qlqr(inst)]
            if trial % 10 == 0:
                sols.append(solve_qlqr_stationary(inst))
            for sol in sols:
                lower, upper = support_envelope(inst, sol, 31)
                ref = interval_envelope(inst, sol, 31)
                scale = np.max(np.abs(ref), axis=1)
                assert np.all(np.abs(lower[:, 0] - ref[:, 0]) <= 1e-12 * scale)
                assert np.all(np.abs(upper[:, 0] - ref[:, 1]) <= 1e-12 * scale)


class TestMetrics:
    def test_policy_entropy_matches_discretization(self):
        sigma, q = 0.03, 0.3
        g = QGaussian([0.0], [[sigma]], q)
        r = g.support_radius([1.0])
        xs = np.linspace(-r * 0.99999, r * 0.99999, 20001)
        h = xs[1] - xs[0]
        dens = np.array([g.density([x]) for x in xs])
        plogq = np.sum(h * dens * (dens ** (1.0 - q) - 1.0) / (1.0 - q))
        expected = -(plogq - 1.0) / (2.0 - q)
        assert QGaussian([0.0], [[sigma]], q).deformed_entropy() == pytest.approx(expected, rel=1e-5)

    def test_policy_tsallis_matches_discretization(self):
        sigma, q = 0.03, 0.3
        g = QGaussian([0.0], [[sigma]], q)
        r = g.support_radius([1.0])
        xs = np.linspace(-r * 0.99999, r * 0.99999, 20001)
        h = xs[1] - xs[0]
        dens = np.array([g.density([x]) for x in xs])
        plogq = np.sum(h * dens**q * (dens ** (1.0 - q) - 1.0) / (1.0 - q))
        expected = -(plogq - 1.0) / q
        assert QGaussian([0.0], [[sigma]], q).tsallis_entropy() == pytest.approx(expected, rel=1e-4)

    def test_entropies_agree_in_shannon_limit(self):
        sigma = 0.05
        a = QGaussian([0.0], [[sigma]], 0.999).deformed_entropy()
        b = QGaussian([0.0], [[sigma]], 0.999).tsallis_entropy()
        differential = 0.5 * np.log(2.0 * np.pi * np.e * sigma)
        assert a == pytest.approx(differential + 1.0, abs=2e-3)
        assert b == pytest.approx(differential + 1.0, abs=2e-3)

    def test_expected_cost_matches_monte_carlo(self):
        inst = scalar_instance(horizon=20)
        sol = solve_qlqr(inst)
        exact = expected_quadratic_cost(inst, sol, 20)
        xs, us = simulate_closed_loop(inst, sol, 200_000, 20, seed=8)
        mc = float(
            np.mean(np.sum(xs[:-1, :, 0] ** 2 + us[:, :, 0] ** 2, axis=0))
            + np.mean(xs[-1, :, 0] ** 2)
        )
        assert mc == pytest.approx(exact, rel=0.01)
