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
    "entmax_rows",
    "entmax_discrete",
    "entmax_weighted",
    "entmax_quadratic",
    "deformation_eta",
]


@dataclass(frozen=True)
class EntmaxResult:
    distribution: DiscreteDistribution
    normalizer_c: float
    objective_value: float


@dataclass(frozen=True)
class QuadraticEntmaxResult:
    gaussian: QGaussian
    eta: float


def _check_lam(lam):
    if not (lam > 0) or not np.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam}")


def entmax_rows(costs, weights, lam, q, *, _bracket=None):
    """Ent-max of every row of ``costs`` at once; returns (probs, C, objective).

    Row r solves phi_i = w_i * exp_q(-costs_i / lam + C_r) with sum_i phi_i = 1.
    ``weights=None`` means w = 1 and the objective E_phi[costs] - lam * H_q(phi);
    otherwise the objective is <costs, phi> + lam * D_q(phi || w), zero
    weights stay exactly zero and costs there are ignored.

    The root is bracketed in closed form.  With s = costs / lam on the
    support, s* = min s and W = sum w, the shifted normalizer c' = C - s*
    lies in [log_q(1/W), min_i (s_i - s* + log_q(1/w_i))]: at the lower
    end every term is at most w_i / W, and at the upper end one term alone
    is w_i exp_q(log_q(1/w_i)) = 1.  The upper end is at most log_q(1/w*),
    w* the weight at the argmin of s, and no exp_q argument exceeds it, so
    nothing overflows.  All rows bisect together; each stops once
    hi - lo < 1e-15 (1 + |mid|).
    """
    q = _as_q(q)
    _check_lam(lam)
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.size == 0:
        raise ValueError("costs must be a non-empty (rows, K) array")
    if weights is None:
        w = np.ones_like(costs)
        sup = np.ones(costs.shape, dtype=bool)
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be non-empty and finite")
    else:
        w = np.asarray(weights, dtype=float)
        if costs.shape != w.shape:
            raise ValueError("costs and weights must have matching shapes")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        sup = w > 0
        if not np.all(np.any(sup, axis=1)):
            raise ValueError("at least one weight must be positive")
        if not np.all(np.isfinite(costs[sup])):
            raise ValueError("costs must be finite on the support of weights")
    masked = np.where(sup, costs, np.inf)
    c_min = masked.min(axis=1)
    s_min = c_min / lam
    diff = masked - c_min[:, None]  # +inf off the support, so exp_q gives 0 there
    gap = diff / lam  # s - s*, without rounding s = costs / lam first
    lo = log_q(1.0 / np.sum(w, axis=1), q)
    # term i alone reaches 1 at c' = gap_i + log_q(1/w_i); a subnormal w_i
    # may overflow to an infinite end, which the minimum passes over
    with np.errstate(over="ignore"):
        ends = np.where(sup, gap + log_q(1.0 / np.where(sup, w, 1.0), q), np.inf)
    hi = np.min(ends, axis=1)

    def g(c):
        return np.sum(w * exp_q(c[:, None] - gap, q), axis=1) - 1.0

    if _bracket is not None:  # _normalization_root's override, kept inside the closed form
        lo, hi = (np.clip(np.asarray(b, dtype=float) - s_min, lo, hi) for b in _bracket)
        if np.any(g(lo) > 0.0):
            raise ValueError("bracket lower end does not undershoot")
    active = np.ones(costs.shape[0], dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = g(mid) < 0.0
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active &= ~(hi - lo < 1e-15 * (1.0 + np.abs(mid)))
        if not active.any():
            break
    c = 0.5 * (lo + hi)
    residual = g(c)
    bad = np.flatnonzero(~(np.abs(residual) < 1e-9))
    if bad.size:
        r = bad[0]
        raise RuntimeError(
            f"normalization root did not converge in row {r}: residual {residual[r]:.3g}"
        )
    probs = w * exp_q(c[:, None] - gap, q)
    probs /= probs.sum(axis=1, keepdims=True)
    # shifted by the smallest cost, so a sum of probs off 1 by rounding barely moves it
    expected = c_min + np.sum(probs * np.where(sup, diff, 0.0), axis=1)
    if weights is None:
        objective = expected - lam * deformed_entropy(probs, q)
    else:
        objective = expected + lam * qkl_divergence(probs, w, q)
    return probs, c + s_min, objective


def _normalization_root(costs, weights, lam, q, bracket=None):
    """C solving sum_i w_i exp_q(-costs_i/lam + C) = 1: one row of ``entmax_rows``."""
    costs = np.asarray(costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float(entmax_rows(costs[None], weights[None], lam, q, _bracket=bracket)[1][0])


def _one_row(costs, weights, lam, q):
    probs, c, objective = entmax_rows(costs[None], weights, lam, q)
    return EntmaxResult(DiscreteDistribution(probs[0]), float(c[0]), float(objective[0]))


def entmax_discrete(costs, lam, q):
    """Unique minimizer of E_phi[costs] - lam * H_q(phi) over the simplex."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1:
        raise ValueError("costs must be a 1-d vector")
    return _one_row(costs, None, lam, q)


def entmax_weighted(costs, weights, lam, q):
    """Minimizer of <costs, phi> + lam * D_q(phi || weights) over the simplex.

    The solution satisfies phi_i = weights_i * exp_q(-costs_i/lam + C) and
    inherits the support of ``weights``: zero-weight indices stay exactly
    zero, so only transitions already possible without control are used.
    """
    costs = np.asarray(costs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if costs.ndim != 1 or costs.shape != weights.shape:
        raise ValueError("costs and weights must be 1-d vectors of matching shapes")
    return _one_row(costs, weights[None], lam, q)


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
    _check_lam(lam)
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
