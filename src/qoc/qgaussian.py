"""Multivariate q-Gaussian distribution with bounded elliptical support."""

from functools import cached_property
from math import lgamma

import numpy as np

from .deformed import _as_q, exp_q

__all__ = ["QGaussian"]


def _deformation_scale(n, q):
    """Denominator (n+4) - (n+2) q appearing in the density exponent."""
    return (n + 4.0) - (n + 2.0) * q


def _support_threshold(n, q):
    """Squared Mahalanobis radius ((n+4) - (n+2) q) / (1 - q) of the support."""
    return _deformation_scale(n, q) / (1.0 - q)


def _log_ball_integral(half_logdet, n, pi_scale, a):
    """log of the integral of [1 - x^T S^{-1} x / t]_+^(a-1) over R^n.

    That is det(S)^{1/2} (pi t)^{n/2} Gamma(a) / Gamma(a + n/2), given
    half_logdet = log det(S) / 2 and pi_scale = pi t.  Z_q, the Tsallis
    entropy and the eta of the quadratic ent-max are all this integral.
    Every argument is a scalar.
    """
    # a = (2-q)/(1-q) is unbounded as q -> 1, where two lgammas of it would cancel.  So
    # log Gamma(a) / Gamma(a + n/2) sums whole steps -log(a + (n % 2)/2 + i) and, for odd n,
    # a half step lgamma(a) - lgamma(a + 1/2): direct below a = 1e4, above it the series
    # 1/(8a) - 1/(192a^3) - log(a)/2 + ... (DLMF 5.11.13)
    log_ratio = -np.sum(np.log(a + n % 2 / 2.0 + np.arange(n // 2)))
    if n % 2:
        log_ratio += (lgamma(a) - lgamma(a + 0.5) if a < 1e4
                      else 1 / (8 * a) - 1 / (192 * a**3) - np.log(a) / 2)
    return half_logdet + (n / 2.0) * np.log(pi_scale) + log_ratio


def _check_spd(matrix, what):
    """Cholesky factor of ``matrix``, or of each matrix in a stack.

    Raises ValueError unless every matrix is symmetric, each entry within
    1e-12 of its mirror with no relative tolerance, and positive definite.
    Symmetry is checked first because the factorization reads only the
    lower triangle.
    """
    if np.all(np.abs(matrix - np.swapaxes(matrix, -1, -2)) <= 1e-12):
        try:
            return np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            pass
    raise ValueError(f"{what} must be symmetric positive definite")


class QGaussian:
    """q-Gaussian N_q(mu, sigma) for deformation parameter q in [0, 1).

    The density is proportional to exp_q of a negative quadratic form, so
    its support is the open ellipsoid

        (x - mu)^T sigma^{-1} (x - mu) < ((n+4) - (n+2) q) / (1 - q).

    The mean is mu and the covariance is sigma for every admissible q.
    """

    def __init__(self, mu, sigma, q):
        self.q = _as_q(q)
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        if sigma.shape != (self.mu.size, self.mu.size):
            raise ValueError("sigma shape does not match mu")
        self._chol = _check_spd(sigma, "sigma")
        self.sigma = sigma

    @property
    def dim(self):
        return self.mu.size

    @property
    def support_threshold(self):
        """Right-hand side of the support inequality in Mahalanobis units."""
        return _support_threshold(self.dim, self.q)

    def _log_z(self):
        """log Z_q, a ball integral summed in log space so that det(sigma) cannot underflow."""
        return _log_ball_integral(
            0.5 * np.linalg.slogdet(self.sigma)[1], self.dim, np.pi * self.support_threshold,
            (2.0 - self.q) / (1.0 - self.q),
        )

    def normalizer(self):
        """Normalization constant Z_q."""
        return np.exp(self._log_z())

    def deformed_entropy(self):
        """Closed-form deformed q-entropy: int phi^{2-q} = Z^{q-1} (1 - n(1-q)/((n+4)-(n+2)q))."""
        q, n = self.q, self.dim
        d = _deformation_scale(n, q)
        # that integral minus 1, by expm1 and log1p, keeps its digits as q -> 1
        plogq = np.expm1((q - 1.0) * self._log_z() + np.log1p(-n * (1.0 - q) / d)) / (1.0 - q)
        return -(plogq - 1.0) / (2.0 - q)

    def tsallis_entropy(self):
        """Closed-form Tsallis entropy (q > 0): int phi^q = Z^{1-q} (1 + n(1-q)/2)."""
        q, n = self.q, self.dim
        if q == 0.0:
            raise ValueError("Tsallis entropy requires q > 0")
        # Z^q int phi^q is the ball integral one Gamma step below Z; expm1 and log1p keep q -> 1
        plogq = -np.expm1((1.0 - q) * self._log_z() + np.log1p(n * (1.0 - q) / 2.0)) / (1.0 - q)
        return -(plogq - 1.0) / q

    @cached_property
    def _sigma_inv(self):  # only the support geometry reads it, and no CLI path
        return np.linalg.inv(self.sigma)

    def mahalanobis_sq(self, x):
        """(x - mu)^T sigma^{-1} (x - mu), vectorized over rows of x."""
        d = np.atleast_2d(np.asarray(x, dtype=float)) - self.mu
        return np.einsum("ki,ij,kj->k", d, self._sigma_inv, d)

    def density(self, x):
        """Density at x; exactly zero outside the support ellipsoid."""
        scalar = np.ndim(x) <= 1
        s = self.mahalanobis_sq(x)
        val = exp_q(-s / _deformation_scale(self.dim, self.q), self.q) / self.normalizer()
        return float(val[0]) if scalar else val

    def support_radius(self, direction):
        """Distance from mu to the support boundary along a unit vector."""
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("direction must have unit norm")
        return float(np.sqrt(self.support_threshold / (d @ self._sigma_inv @ d)))

    def sample(self, count, seed):
        """Draw ``count`` samples, deterministically for a given seed.

        Direct draw from the elliptical law: a uniform direction on the
        sphere scaled so that the squared Mahalanobis radius over the support
        threshold is Beta(n/2, (2-q)/(1-q)) (a Pearson type II law; Fang,
        Kotz & Ng 1990).  Every draw lies inside the support and is exact.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        t = rng.beta(self.dim / 2.0, (2.0 - self.q) / (1.0 - self.q), size=count)
        return self.mu + (z * np.sqrt(self.support_threshold * t)[:, None]) @ self._chol.T
