import numpy as np
import pytest

from qoc.deformed import (
    DeformationParameter,
    DiscreteDistribution,
    deformed_entropy,
    exp_q,
    log_q,
    qkl_divergence,
    tsallis_entropy,
)

Q_GRID = [0.0, 0.25, 0.5, 0.9]


def random_distribution(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


class TestDeformationParameter:
    def test_accepts_half_open_interval(self):
        assert float(DeformationParameter(0.0)) == 0.0
        assert float(DeformationParameter(0.999)) == 0.999

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, np.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DeformationParameter(bad)


class TestDiscreteDistribution:
    def test_support(self):
        d = DiscreteDistribution([0.5, 0.0, 0.5])
        assert list(d.support) == [0, 2]

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="weights must be non-negative and sum to 1"):
            DiscreteDistribution([np.nan, 1.0])


class TestExpLog:
    def test_exp_q_at_zero(self):
        assert exp_q(0.0, 0.5) == 1.0

    def test_exp_q_clips(self):
        assert exp_q(-2.0, 0.0) == 0.0

    def test_exp_q_keeps_nan(self):
        assert np.isnan(exp_q(np.nan, 0.5))
        out = exp_q([np.nan, -10.0, 0.0], 0.5)
        assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 1.0

    def test_exp_q_value(self):
        assert exp_q(1.0, 0.5) == pytest.approx(2.25, abs=1e-14)

    def test_log_q_at_one(self):
        assert log_q(1.0, 0.3) == 0.0

    def test_log_q_q0(self):
        assert log_q(4.0, 0.0) == pytest.approx(3.0, abs=1e-14)

    def test_log_q_domain(self):
        with pytest.raises(ValueError):
            log_q(0.0, 0.5)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_round_trip(self, q):
        xs = np.linspace(0.1, 10.0, 100)
        assert np.max(np.abs(exp_q(log_q(xs, q), q) - xs)) < 1e-12
        ys = np.linspace(-1.0 / (1.0 - q) + 1e-3, 5.0, 100)
        assert np.max(np.abs(log_q(exp_q(ys, q), q) - ys)) < 1e-12

    @pytest.mark.parametrize("q", Q_GRID)
    def test_exp_q_nondecreasing_continuous(self, q):
        xs = np.linspace(-20.0, 5.0, 5000)
        vals = exp_q(xs, q)
        assert np.all(np.diff(vals) >= 0)
        # no jump at the clipping point: values stay small just above it
        below = xs <= 0.0
        assert np.max(np.abs(np.diff(vals[below]))) < 0.02


class TestEntropies:
    def test_point_mass_deformed(self):
        # the constant term makes even a degenerate distribution carry 1/(2-q)
        assert deformed_entropy([1.0, 0.0], 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_deformed(self):
        assert deformed_entropy([0.5, 0.5], 0.0) == pytest.approx(0.75, abs=1e-14)

    def test_shannon_limit(self):
        q = 0.999
        for phi in ([0.5, 0.5], [0.4, 0.3, 0.3], [0.25] * 4, [0.6, 0.2, 0.2]):
            phi = np.asarray(phi)
            shannon = -float(np.sum(phi * np.log(phi)))
            assert deformed_entropy(phi, q) == pytest.approx(
                (shannon + 1.0) / (2.0 - q), abs=1e-3
            )

    def test_tsallis_uniform4(self):
        # hand evaluation: each term (1/4)^0.5 * log_{1/2}(1/4) = 0.5 * (-1)
        assert tsallis_entropy([0.25] * 4, 0.5) == pytest.approx(6.0, abs=1e-12)

    def test_tsallis_point_mass(self):
        # the additive-duality convention gives 1/q for a degenerate
        # distribution (consistent with H_q(point) = 1/(2-q))
        for q in [0.25, 0.5, 0.9]:
            assert tsallis_entropy([1.0, 0.0], q) == pytest.approx(1.0 / q, abs=1e-12)

    def test_tsallis_requires_positive_q(self):
        with pytest.raises(ValueError):
            tsallis_entropy([0.5, 0.5], 0.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_tsallis_of_rows(self, q):
        # a 2-d phi gives one entropy per row, as deformed_entropy does
        phi = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        rows = tsallis_entropy(phi, q)
        assert rows.shape == (3,)
        for row, value in zip(phi, rows):
            assert value == pytest.approx(tsallis_entropy(row, q), abs=1e-14)

    @pytest.mark.parametrize("q", [0.25, 0.5])
    def test_additive_duality(self, q):
        rng = np.random.default_rng(11)
        for _ in range(50):
            phi = random_distribution(rng, rng.integers(2, 7))
            assert tsallis_entropy(phi, 2.0 - q) == pytest.approx(
                deformed_entropy(phi, q), abs=1e-12
            )


class TestQklDivergence:
    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(3)
        for q in Q_GRID:
            phi = random_distribution(rng, 6)
            assert qkl_divergence(phi, phi, q) == pytest.approx(0.0, abs=1e-12)

    def test_support_violation_is_infinite(self):
        assert qkl_divergence([1.0, 0.0], [0.0, 1.0], 0.5) == float("inf")

    def test_zero_numerator_convention(self):
        # 0 * log_q(0 / psi) contributes nothing
        assert qkl_divergence([1.0, 0.0], [0.5, 0.5], 0.0) < float("inf")

    @pytest.mark.parametrize("q", Q_GRID)
    def test_non_negativity(self, q):
        rng = np.random.default_rng(int(q * 100))
        for _ in range(1000):
            n = rng.integers(2, 6)
            phi, psi = random_distribution(rng, n), random_distribution(rng, n)
            assert qkl_divergence(phi, psi, q) >= -1e-13
