"""Independent brute-force verifiers for the closed-form solvers.

Everything here deliberately re-derives its own objective, entropy and
density formulas from scratch instead of importing the solver code, so a
bug in a solver cannot hide in its own verifier.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "GridSpec",
    "simplex_grid",
    "brute_force_entmax",
    "sparsemax",
    "brute_force_policy_search",
    "quadrature_normalization",
    "quadrature_moments",
]

GRID_POINT_CAP = 10_000_000
POLICY_CHUNK = 8192  # candidate policies per evaluate call


@dataclass(frozen=True)
class GridSpec:
    resolution: float = 0.01
    max_dimension: int = 4

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")


def simplex_grid(dim, resolution):
    """All probability vectors with entries on a uniform grid of given step."""
    steps = int(round(1.0 / resolution))
    count = _composition_count(steps, dim)
    if count > GRID_POINT_CAP:
        raise ValueError(f"simplex grid of {count} points exceeds the cap")
    grid = np.empty((count, dim))
    for row, parts in enumerate(_compositions(steps, dim)):
        grid[row] = parts
    return grid / steps


def _composition_count(total, parts):
    from math import comb

    return comb(total + parts - 1, parts - 1)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _grid_entropy(points, q):
    """Deformed entropy of each grid row, written out from the definition."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogq = np.where(points > 0, points * (points ** (1.0 - q) - 1.0) / (1.0 - q), 0.0)
    return -(plogq.sum(axis=1) - 1.0) / (2.0 - q)


def brute_force_entmax(costs, lam, q, grid=GridSpec()):
    """Exhaustive minimizer of <costs, phi> - lam * H_q(phi) on a simplex grid."""
    costs = np.asarray(costs, dtype=float)
    if costs.size > grid.max_dimension:
        raise ValueError("dimension exceeds the grid spec bound")
    points = simplex_grid(costs.size, grid.resolution)
    objective = points @ costs - lam * _grid_entropy(points, q)
    best = int(np.argmin(objective))
    return points[best], float(objective[best])


def sparsemax(scores):
    """Sorted-threshold projection onto the simplex (cross-check for q = 0).

    Returns the Euclidean projection of ``scores`` onto the probability
    simplex: p_i = [scores_i - tau]_+ with tau fixed by normalization
    (Martins & Astudillo 2016).
    """
    z = np.sort(np.asarray(scores, dtype=float))[::-1]
    css = np.cumsum(z)
    ks = np.arange(1, z.size + 1)
    valid = 1.0 + ks * z > css
    k = ks[valid][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(np.asarray(scores, dtype=float) - tau, 0.0)


def brute_force_policy_search(instance, initial, evaluate, resolution=0.2):
    """Exhaustive search over per-(stage, state) action grids.

    ``evaluate`` is the exact policy-evaluation function (policies,
    initial) -> costs, taking a (B, T, n, m) stack of policies.  Feasible
    only for tiny instances: the number of decision slots T * n must stay
    small.  Ties go to the first policy in itertools.product order.
    """
    n, m, T = instance.num_states, instance.num_actions, instance.horizon
    slots = T * n
    rows = simplex_grid(m, resolution)
    count = rows.shape[0] ** slots
    if count > GRID_POINT_CAP:
        raise ValueError("policy grid exceeds the cap")
    best_policy, best_value = None, np.inf
    for start in range(0, count, POLICY_CHUNK):
        # row-major unravelling enumerates choices in itertools.product order
        index = np.arange(start, min(start + POLICY_CHUNK, count))
        choice = np.stack(np.unravel_index(index, (rows.shape[0],) * slots), axis=1)
        policies = rows[choice].reshape(-1, T, n, m)
        values = np.asarray(evaluate(policies, initial))
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_policy, best_value = policies[i], float(values[i])
    return best_policy, best_value


def _raw_density(x, mu, sigma_inv, zq, scale, q):
    """q-Gaussian density written out from the definition (no library calls)."""
    d = np.atleast_1d(x) - mu
    s = float(d @ sigma_inv @ d)
    base = 1.0 - (1.0 - q) * s / scale
    return base ** (1.0 / (1.0 - q)) / zq if base > 0 else 0.0


def _density_parts(g):
    n = g.dim
    scale = (n + 4.0) - (n + 2.0) * g.q
    from math import gamma, pi, sqrt

    a = (2.0 - g.q) / (1.0 - g.q)
    zq = (
        sqrt(np.linalg.det(g.sigma))
        * (pi * scale / (1.0 - g.q)) ** (n / 2.0)
        * gamma(a)
        / gamma(a + n / 2.0)
    )
    return np.linalg.inv(g.sigma), zq, scale


def quadrature_normalization(g):
    """Integral of the density over its bounded support (n = 1 or 2)."""
    sigma_inv, zq, scale = _density_parts(g)
    if g.dim == 1:
        r = np.sqrt(scale / (1.0 - g.q) * g.sigma[0, 0])
        val, _ = integrate.quad(
            lambda x: _raw_density(x, g.mu, sigma_inv, zq, scale, g.q),
            g.mu[0] - r,
            g.mu[0] + r,
            epsabs=1e-10,
            limit=200,
        )
        return val
    if g.dim == 2:
        r = np.sqrt(scale / (1.0 - g.q) * np.max(np.linalg.eigvalsh(g.sigma)))
        val, _ = integrate.dblquad(
            lambda y, x: _raw_density(np.array([x, y]), g.mu, sigma_inv, zq, scale, g.q),
            g.mu[0] - r,
            g.mu[0] + r,
            g.mu[1] - r,
            g.mu[1] + r,
            epsabs=1e-9,
        )
        return val
    raise ValueError("quadrature oracle supports n in {1, 2} only")


def quadrature_moments(g):
    """Mean and variance of a one-dimensional density by quadrature."""
    if g.dim != 1:
        raise ValueError("moment quadrature supports n = 1 only")
    sigma_inv, zq, scale = _density_parts(g)
    r = np.sqrt(scale / (1.0 - g.q) * g.sigma[0, 0])
    lo, hi = g.mu[0] - r, g.mu[0] + r

    def moment(power, center=0.0):
        val, _ = integrate.quad(
            lambda x: (x - center) ** power
            * _raw_density(x, g.mu, sigma_inv, zq, scale, g.q),
            lo,
            hi,
            epsabs=1e-10,
            limit=200,
        )
        return val

    mean = moment(1)
    var = moment(2, center=mean)
    return mean, var
