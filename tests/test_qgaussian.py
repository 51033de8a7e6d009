import numpy as np
import pytest
from scipy import integrate, stats

from qoc.qgaussian import QGaussian

from oracle import quadrature_moments, quadrature_normalization


class TestConstruction:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError):
            QGaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], 0.3)

    def test_symmetry_has_no_relative_tolerance(self):
        with pytest.raises(ValueError, match="sigma must be symmetric positive definite"):
            QGaussian([0.0, 0.0], [[1.0, 0.5], [0.500001, 1.0]], 0.3)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError):
            QGaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 0.3)


class TestDensity:
    def test_zero_outside_support(self):
        g = QGaussian([0.0], [[1.0]], 0.25)
        r = g.support_radius([1.0])
        assert g.density([r * 1.01]) == 0.0
        assert g.density([r * 0.99]) > 0.0

    def test_quadrature_normalization_1d(self):
        g = QGaussian([0.3], [[0.7]], 0.25)
        assert quadrature_normalization(g) == pytest.approx(1.0, abs=1e-8)

    def test_quadrature_normalization_2d(self):
        g = QGaussian([0.0, 0.5], [[1.0, 0.3], [0.3, 0.8]], 0.4)
        assert quadrature_normalization(g) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_moments(self):
        g = QGaussian([0.2], [[1.3]], 0.5)
        mean, var = quadrature_moments(g)
        assert mean == pytest.approx(0.2, abs=1e-8)
        assert var == pytest.approx(1.3, abs=1e-6)

    def test_normal_limit(self):
        g = QGaussian([0.0], [[1.0]], 0.999)
        xs = np.linspace(-3.0, 3.0, 61)
        normal = np.exp(-(xs**2) / 2.0) / np.sqrt(2.0 * np.pi)
        dens = np.array([g.density([x]) for x in xs])
        assert np.max(np.abs(dens - normal)) < 1e-2

    def test_normalizer_high_dimension(self):
        # det(0.01 I) = 1e-400 underflows to 0; Z scales as det(sigma)^{1/2}
        m = 200
        small = QGaussian(np.zeros(m), 0.01 * np.eye(m), 0.5)
        unit = QGaussian(np.zeros(m), np.eye(m), 0.5)
        assert np.log(small.normalizer()) == pytest.approx(
            np.log(unit.normalizer()) + (m / 2.0) * np.log(0.01), rel=1e-12
        )
        assert np.isfinite(small.density(np.zeros(m)))


class TestClosedFormEntropies:
    """n = 2 closed forms against a quadrature of powers of the density."""

    @staticmethod
    def integral_of_power(g, power):
        # whitened polar coordinates x = mu + L (r cos t, r sin t) map the support onto a disk
        chol = np.linalg.cholesky(g.sigma)

        def f(r, t):
            return g.density(g.mu + chol @ [r * np.cos(t), r * np.sin(t)]) ** power * r

        radius = np.sqrt(g.support_threshold)
        val, _ = integrate.dblquad(f, 0.0, 2.0 * np.pi, 0.0, radius, epsrel=1e-8)
        return val * np.linalg.det(chol)

    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_correlated_2d(self, q):
        g = QGaussian([0.2, -0.1], [[0.8, 0.3], [0.3, 0.5]], q)
        # int phi log_q phi = (int phi^{2-q} - 1)/(1-q); int phi^q log_q phi = (1 - int phi^q)/(1-q)
        plogq = (self.integral_of_power(g, 2.0 - q) - 1.0) / (1.0 - q)
        assert g.deformed_entropy() == pytest.approx(-(plogq - 1.0) / (2.0 - q), rel=1e-4)
        plogq = (1.0 - self.integral_of_power(g, q)) / (1.0 - q)
        assert g.tsallis_entropy() == pytest.approx(-(plogq - 1.0) / q, rel=1e-4)

    def test_tsallis_requires_positive_q(self):
        with pytest.raises(ValueError, match="requires q > 0"):
            QGaussian([0.0], [[1.0]], 0.0).tsallis_entropy()

    @pytest.mark.parametrize(
        "sigma",
        [[[0.7]], [[0.8, 0.3], [0.3, 0.5]], [[1.0, 0.2, 0.1], [0.2, 0.6, 0.0], [0.1, 0.0, 0.3]]],
        ids=["n=1", "n=2", "n=3"],
    )
    def test_deformed_entropy_tends_to_the_gaussian_limit(self, sigma):
        # as q -> 1 the deformed entropy tends to the Gaussian differential entropy plus 1,
        # with a gap of order 1 - q all the way down to q = 1 - 1e-15
        sigma = np.asarray(sigma)
        n = len(sigma)
        limit = 0.5 * np.linalg.slogdet(2.0 * np.pi * np.e * sigma)[1] + 1.0
        for k in range(1, 16):
            q = 1.0 - 10.0**-k
            gap = abs(QGaussian(np.zeros(n), sigma, q).deformed_entropy() - limit)
            assert gap <= 5.0 * n * (1.0 - q) + 1e-13, (k, gap)

    @pytest.mark.parametrize(
        "sigma",
        [[[0.7]], [[0.7, 0.1], [0.1, 0.3]], np.diag([0.5, 1.2, 2.0])],
        ids=["n=1", "n=2", "n=3"],
    )
    def test_tsallis_entropy_tends_to_the_gaussian_limit(self, sigma):
        # the Tsallis entropy tends to the same limit, with a gap of order 1 - q down to 1e-15
        sigma = np.asarray(sigma)
        n = len(sigma)
        limit = 0.5 * np.linalg.slogdet(2.0 * np.pi * np.e * sigma)[1] + 1.0
        for k in range(1, 16):
            q = 1.0 - 10.0**-k
            gap = abs(QGaussian(np.zeros(n), sigma, q).tsallis_entropy() - limit)
            assert gap <= 10.0 * n * (1.0 - q) + 1e-13, (k, gap)


class TestSupportRadius:
    def test_scalar_q0(self):
        g = QGaussian([0.0], [[1.0]], 0.0)
        assert g.support_radius([1.0]) == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_monotone_in_q(self):
        r1 = QGaussian([0.0], [[1.0]], 0.1).support_radius([1.0])
        r2 = QGaussian([0.0], [[1.0]], 0.5).support_radius([1.0])
        assert r2 > r1

    def test_2d_formula(self):
        g = QGaussian([0.0, 0.0], np.eye(2), 0.25)
        expected = np.sqrt((6.0 - 4.0 * 0.25) / 0.75)
        d = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert g.support_radius(d) == pytest.approx(expected, abs=1e-12)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            QGaussian([0.0], [[1.0]], 0.2).support_radius([2.0])


class TestSampling:
    def test_containment_hard(self):
        g = QGaussian([0.0], [[1.0]], 0.25)
        x = g.sample(100_000, seed=1)
        assert np.all(x**2 < (5.0 - 3.0 * 0.25) / 0.75)

    def test_determinism(self):
        g = QGaussian([1.0], [[2.0]], 0.5)
        assert np.array_equal(g.sample(500, seed=9), g.sample(500, seed=9))

    def test_moments(self):
        g = QGaussian([0.0], [[1.0]], 0.25)
        x = g.sample(1_000_000, seed=2)[:, 0]
        assert abs(x.mean()) < 4.0 * np.sqrt(1.0 / x.size)
        assert abs(x.var() - 1.0) < 0.05

    def test_2d_moments(self):
        sigma = np.array([[1.0, 0.4], [0.4, 0.9]])
        g = QGaussian([0.5, -0.5], sigma, 0.3)
        x = g.sample(200_000, seed=3)
        assert np.allclose(x.mean(axis=0), [0.5, -0.5], atol=0.02)
        assert np.allclose(np.cov(x.T), sigma, rtol=0.05)


class TestSamplerLaw:
    """The direct sampler against the q-Gaussian's radial law and moments."""

    @pytest.mark.parametrize("m, q", [(1, 0.25), (4, 0.5), (32, 0.75)])
    def test_radial_law_is_beta(self, m, q):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m))
        g = QGaussian(rng.normal(size=m), a @ a.T + m * np.eye(m), q)
        t = g.mahalanobis_sq(g.sample(20_000, seed=11)) / g.support_threshold
        law = stats.beta(m / 2.0, (2.0 - q) / (1.0 - q))
        assert stats.kstest(t, law.cdf).pvalue > 1e-3

    def test_covariance_4d(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T + np.eye(4)
        x = QGaussian(np.zeros(4), sigma, 0.5).sample(200_000, seed=12)
        assert np.allclose(np.cov(x.T), sigma, atol=0.02 * np.max(np.diag(sigma)))

    def test_moments_match_quadrature_1d(self):
        g = QGaussian([0.3], [[0.7]], 0.5)
        mean, var = quadrature_moments(g)
        x = g.sample(1_000_000, seed=13)[:, 0]
        assert abs(x.mean() - mean) < 4.0 * np.sqrt(var / x.size)
        assert x.var() == pytest.approx(var, rel=0.01)

    def test_high_dimension_inside_support(self):
        g = QGaussian(np.zeros(32), np.eye(32), 0.75)
        x = g.sample(10_000, seed=14)
        assert x.shape == (10_000, 32)
        assert np.all(g.mahalanobis_sq(x) < g.support_threshold)
