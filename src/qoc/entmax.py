"""Entropy-regularized minimization over probability distributions (ent-max).

Given costs Q and a regularization weight lambda, the minimizer of
E_phi[Q] - lambda * H_q(phi) over the simplex is

    phi_i = w_i * exp_q(-Q_i / lambda + C),

with C fixed by normalization.  Because exp_q clips to zero, the solution
can be exactly sparse for q < 1.  The quadratic-cost analogue has a
closed-form q-Gaussian minimizer.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .deformed import (
    DeformationParameter,
    DiscreteDistribution,
    _as_q,
    deformed_entropy,
    exp_q,
    log_q,
    qkl_divergence,
)
from .qgaussian import QGaussian, _deformation_scale

__all__ = [
    "EntmaxResult",
    "QuadraticEntmaxResult",
    "entmax_discrete",
    "entmax_weighted",
    "entmax_quadratic",
    "deformation_eta",
]

ROOT_TOL = 1e-12


@dataclass(frozen=True)
class EntmaxResult:
    distribution: DiscreteDistribution
    normalizer_c: float
    objective_value: float


@dataclass(frozen=True)
class QuadraticEntmaxResult:
    gaussian: QGaussian
    eta: float


def _normalization_root(costs, weights, lam, q, bracket=None):
    """Solve sum_i w_i exp_q(-costs_i/lam + C) = 1 for C by bisection.

    The left-hand side is continuous and nondecreasing in C, so bisection
    on a sign-changing bracket converges unconditionally.
    """
    scaled = costs / lam

    def g(c):
        return float(np.sum(weights * exp_q(-scaled + c, q))) - 1.0

    if bracket is None:
        lo = float(np.min(scaled)) - 1.0 / (1.0 - q) - 1.0
        hi = float(np.max(scaled)) + 1.0
    else:
        lo, hi = bracket
        if g(lo) > 0.0:
            raise ValueError("bracket lower end does not undershoot")
    step = max(1.0, hi - lo)
    while g(hi) < 0.0:  # small weights can push the root above the default bracket
        hi += step
        step *= 2.0
    # g(lo) = -1 by construction: every exp_q argument is below the clip point
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * (1.0 + abs(mid)):
            break
    c = 0.5 * (lo + hi)
    residual = g(c)
    if not abs(residual) < 1e-9:
        raise RuntimeError(f"normalization root did not converge: residual {residual:.3g}")
    return c


def entmax_discrete(costs, lam, q):
    """Unique minimizer of E_phi[costs] - lam * H_q(phi) over the simplex."""
    q = _as_q(q)
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0 or not np.all(np.isfinite(costs)):
        raise ValueError("costs must be non-empty and finite")
    if lam <= 0:
        raise ValueError("lam must be positive")
    c = _normalization_root(costs, np.ones_like(costs), lam, q)
    probs = exp_q(-costs / lam + c, q)
    probs = probs / probs.sum()
    dist = DiscreteDistribution(probs)
    objective = float(probs @ costs) - lam * deformed_entropy(dist, q)
    return EntmaxResult(dist, c, objective)


def entmax_weighted(costs, weights, lam, q):
    """Minimizer of <costs, phi> + lam * D_q(phi || weights) over the simplex.

    The solution satisfies phi_i = weights_i * exp_q(-costs_i/lam + C) and
    inherits the support of ``weights``: zero-weight indices stay exactly
    zero, so only transitions already possible without control are used.
    """
    q = _as_q(q)
    costs = np.asarray(costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if costs.shape != weights.shape:
        raise ValueError("costs and weights must have matching shapes")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(weights > 0):
        raise ValueError("at least one weight must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    sup = weights > 0
    if not np.all(np.isfinite(costs[sup])):
        raise ValueError("costs must be finite on the support of weights")
    c = _normalization_root(costs[sup], weights[sup], lam, q)
    probs = np.zeros_like(weights)
    probs[sup] = weights[sup] * exp_q(-costs[sup] / lam + c, q)
    probs[probs > 0] /= probs.sum()
    dist = DiscreteDistribution(probs)
    objective = float(probs @ np.where(sup, costs, 0.0)) + lam * qkl_divergence(
        probs, weights, q
    )
    return EntmaxResult(dist, c, objective)


def deformation_eta(r_matrix, lam, q):
    """Scale factor eta of the quadratic-cost closed form.

    eta = { det(R)^{-1/2} (pi lam / (1-q))^{n/2}
            Gamma(a) / Gamma(a + n/2) }^{2(1-q)/((n+2)-n q)}

    with a = (2-q)/(1-q) and n the dimension of R.
    """
    q = _as_q(q)
    r_matrix = np.atleast_2d(np.asarray(r_matrix, dtype=float))
    n = r_matrix.shape[0]
    a = (2.0 - q) / (1.0 - q)
    log_inner = (
        -0.5 * np.linalg.slogdet(r_matrix)[1]
        + (n / 2.0) * np.log(np.pi * lam / (1.0 - q))
        + gammaln(a)
        - gammaln(a + n / 2.0)
    )
    exponent = 2.0 * (1.0 - q) / ((n + 2.0) - n * q)
    return float(np.exp(exponent * log_inner))


def entmax_quadratic(r_matrix, mean, lam, q):
    """Closed-form minimizer for a quadratic cost (u-mean)^T R (u-mean).

    The minimizer of the regularized objective is the q-Gaussian
    N_q(mean, Sigma) with Sigma^{-1} = ((n+4)-(n+2)q)/lam * eta * R.
    """
    q = _as_q(q)
    r_matrix = np.atleast_2d(np.asarray(r_matrix, dtype=float))
    if not np.allclose(r_matrix, r_matrix.T, atol=1e-12):
        raise ValueError("r_matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(r_matrix) <= 0):
        raise ValueError("r_matrix must be positive definite")
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = r_matrix.shape[0]
    eta = deformation_eta(r_matrix, lam, q)
    sigma_inv = _deformation_scale(n, q) / lam * eta * r_matrix
    sigma = np.linalg.inv(sigma_inv)
    sigma = 0.5 * (sigma + sigma.T)
    return QuadraticEntmaxResult(QGaussian(mean, sigma, q), eta)


def sparsemax(scores):
    """Sorted-threshold projection onto the simplex (cross-check for q = 0).

    Returns the Euclidean projection of ``scores`` onto the probability
    simplex: p_i = [scores_i - tau]_+ with tau fixed by normalization.
    """
    z = np.sort(np.asarray(scores, dtype=float))[::-1]
    css = np.cumsum(z)
    ks = np.arange(1, z.size + 1)
    valid = 1.0 + ks * z > css
    k = ks[valid][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(np.asarray(scores, dtype=float) - tau, 0.0)
