"""Entropy-regularized minimization over probability distributions (ent-max).

Given costs Q and a regularization weight lambda, the minimizer of
E_phi[Q] - lambda * H_q(phi) over the simplex is

    phi_i = w_i * exp_q(-Q_i / lambda + C),

with C fixed by normalization.  Because exp_q clips to zero, the solution
can be exactly sparse for q < 1.  The quadratic-cost analogue has a
closed-form q-Gaussian minimizer.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# exp_q is not called here, but bench/spans.py wraps qoc.entmax.exp_q
from .deformed import (
    DiscreteDistribution,
    _as_q,
    _exp_q_scaled,
    deformed_entropy,
    exp_q,
    log_q,
    qkl_divergence,
)
from .qgaussian import QGaussian, _check_spd, _deformation_scale, _log_ball_integral

__all__ = [
    "EntmaxResult",
    "QuadraticEntmaxResult",
    "entmax_rows",
    "entmax_discrete",
    "entmax_weighted",
    "entmax_quadratic",
    "deformation_eta",
]

ROOT_MAX_ITER = 100  # Newton steps per row; well-posed rows take at most about 10


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


@contextmanager
def _solver_stage(label):
    """One solver stage: overflow gives inf or NaN quietly, and an error is prefixed by ``label``.

    Each stage then checks its own results with ``_check_finite``.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def _check_finite(what, *arrays):
    """Raise ValueError unless every entry of ``arrays`` is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(f"{what} overflowed float64")


def entmax_rows(costs, weights, lam, q):
    """Ent-max of every row of ``costs`` at once; returns (probs, C, objective).

    Row r solves phi_i = w_i * exp_q(-costs_i / lam + C_r) with sum_i phi_i = 1.
    ``weights=None`` means w = 1 and the objective E_phi[costs] - lam * H_q(phi);
    otherwise the objective is <costs, phi> + lam * D_q(phi || w), zero
    weights stay exactly zero and costs there are ignored.

    Term i alone reaches 1 at C = costs_i / lam + log_q(1/w_i); j is the row's
    smallest such end.  Newton on d = C - costs_j / lam for g(d) = sum_i w_i
    exp_q(d - (costs_i - costs_j) / lam) - 1, increasing and convex for q < 1,
    starts at exactly log_q(1/w_j), where g >= 0 and no term exceeds 1 (so
    nothing overflows), and decreases monotonically to the root; at q = 0 it
    is the active-set sparsemax.  A row stops once g <= 0 or a step no longer
    lowers d; one still moving after ``ROOT_MAX_ITER`` steps, or left with
    |g| >= 1e-9, raises RuntimeError naming the row.
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
    with np.errstate(over="ignore"):  # a subnormal w_i gives an infinite end, never the argmin
        bound = log_q(1.0 / np.where(sup, w, 1.0), q)
    j = np.argmin((masked - masked.min(axis=1, keepdims=True)) / lam + bound, axis=1)[:, None]
    c_j = np.take_along_axis(masked, j, axis=1)
    diff = masked - c_j  # +inf off the support, so the terms are 0 there
    rel = diff / lam
    d = np.take_along_axis(bound, j, axis=1)
    # terms are w * exp_q(d - rel), 0 off the support
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(ROOT_MAX_ITER + 1):
            a = (1.0 - q) * (d - rel)
            terms = w * _exp_q_scaled(a, q)
            total = terms.sum(axis=1, keepdims=True)
            g = total - 1.0
            # exp_q' = exp_q / (1 + a) is 0 off the support; base**(q/(1-q)) would give 0**0 = 1
            slope = (terms / np.maximum(1.0 + a, 1e-300)).sum(axis=1, keepdims=True)
            new = d - np.maximum(g, 0.0) / slope
            moving = new < d  # a row that stops has new == d, so d = new leaves it alone
            if not moving.any() or step == ROOT_MAX_ITER:
                break
            d = new
    bad = np.flatnonzero(moving | ~(np.abs(g) < 1e-9))
    if bad.size:
        r = bad[0]
        raise RuntimeError(
            f"normalization root did not converge in row {r} after {step} Newton steps: "
            f"g {g[r, 0]:.3g}"
        )
    probs = terms / total
    # shifted by a cost on the support, so a sum of probs off 1 by rounding barely moves it
    expected = c_j[:, 0] + np.sum(probs * np.where(sup, diff, 0.0), axis=1)
    if weights is None:
        objective = expected - lam * deformed_entropy(probs, q)
    else:
        objective = expected + lam * qkl_divergence(probs, w, q)
    return probs, (d + c_j / lam)[:, 0], objective


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
    log_inner = _log_ball_integral(
        -0.5 * np.linalg.slogdet(r_matrix)[1], n, np.pi * lam / (1.0 - q), (2.0 - q) / (1.0 - q)
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
    _check_spd(r_matrix, "r_matrix")
    _check_lam(lam)
    n = r_matrix.shape[0]
    eta = deformation_eta(r_matrix, lam, q)
    sigma_inv = _deformation_scale(n, q) / lam * eta * r_matrix
    sigma = np.linalg.inv(sigma_inv)
    sigma = 0.5 * (sigma + sigma.T)
    return QuadraticEntmaxResult(QGaussian(mean, sigma, q), eta)
