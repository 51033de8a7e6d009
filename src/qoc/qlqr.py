"""Entropy-regularized LQR: Riccati recursion with q-Gaussian input noise.

The optimal policy is the usual linear feedback u = K_k x plus additive
noise w_k ~ N_q(0, Sigma_k).  The gain is identical to the unregularized
LQR gain; only the injected noise depends on lam and q.  Because the
q-Gaussian has bounded support, the reachable state set stays bounded and
can be enclosed stage by stage.
"""

from dataclasses import dataclass, field

import numpy as np

from .deformed import DeformationParameter, _as_q
from .entmax import _check_finite, _check_lam, _solver_stage, entmax_quadratic
from .qgaussian import QGaussian, _check_spd, _support_threshold

__all__ = [
    "QlqrInstance",
    "QlqrSolution",
    "solve_qlqr",
    "solve_qlqr_stationary",
    "simulate_closed_loop",
    "support_envelope",
    "expected_quadratic_cost",
    "sweep_metrics",
]

# the stationary Riccati iteration stops once no entry of Pi moves by this much
RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000


def _mat(x):
    a = np.asarray(x, dtype=float)
    return a.reshape(1, 1) if a.ndim == 0 else np.atleast_2d(a)


@dataclass(frozen=True)
class QlqrInstance:
    """Linear dynamics x+ = A x + B u with quadratic stage cost.

    Stage cost x^T Q x + 2 x^T S u + u^T R u and terminal cost x^T Q_T x.
    """

    a: np.ndarray
    b: np.ndarray
    q_cost: np.ndarray
    s_cost: np.ndarray
    r_cost: np.ndarray
    terminal_cost: np.ndarray
    horizon: int
    lam: float
    q: DeformationParameter
    initial_state: np.ndarray = None

    def __post_init__(self):
        for name in ("a", "b", "q_cost", "s_cost", "r_cost", "terminal_cost"):
            object.__setattr__(self, name, _mat(getattr(self, name)))
        object.__setattr__(self, "q", _as_q(self.q))
        n, m = self.a.shape[0], self.b.shape[1]
        if self.a.shape != (n, n) or self.b.shape != (n, m):
            raise ValueError("inconsistent A/B shapes")
        if self.q_cost.shape != (n, n) or self.terminal_cost.shape != (n, n):
            raise ValueError("Q and Q_T must be n x n")
        if self.s_cost.shape != (n, m) or self.r_cost.shape != (m, m):
            raise ValueError("S must be n x m and R must be m x m")
        _check_spd(self.r_cost, "r_cost")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        _check_lam(self.lam)
        x0 = self.initial_state
        x0 = np.zeros(n) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (n,):
            raise ValueError("initial_state must have length n")
        object.__setattr__(self, "initial_state", x0)

    @property
    def state_dim(self):
        return self.a.shape[0]

    @property
    def input_dim(self):
        return self.b.shape[1]


@dataclass(frozen=True)
class QlqrSolution:
    """Per-stage arrays; a field laid out as (e, *names) has shape (T + e, *instance.names)."""

    pi_matrices: np.ndarray = field(metadata={"layout": (1, "state_dim", "state_dim")})  # value-function matrices
    gains: np.ndarray = field(metadata={"layout": (0, "input_dim", "state_dim")})
    noise_covariances: np.ndarray = field(metadata={"layout": (0, "input_dim", "input_dim")})
    etas: np.ndarray = field(metadata={"layout": (0,)})
    support_radii: np.ndarray = field(metadata={"layout": (0, "input_dim")})  # noise support bound per principal axis


def _riccati_step(pi_next, a, b, q_cost, s_cost, r_cost):
    r_t = r_cost + b.T @ pi_next @ b
    s_t = s_cost + a.T @ pi_next @ b
    q_t = q_cost + a.T @ pi_next @ a
    r_sym = 0.5 * (r_t + r_t.T)
    _check_finite("Riccati matrices", r_sym, s_t, q_t)
    if np.any(np.linalg.eigvalsh(r_sym) <= 0):
        raise ValueError("effective input cost lost positive definiteness")
    gain = -np.linalg.solve(r_t, s_t.T)
    pi = q_t + s_t @ gain
    pi = 0.5 * (pi + pi.T)
    _check_finite("Riccati matrices", gain, pi)
    return pi, gain, r_sym


def _package(instance, pis, gains, effective_costs):
    """Solution whose stage-k noise is the ent-max of the effective input cost."""
    sigmas, etas, radii = [], [], []
    for k, r_t in enumerate(effective_costs):
        with _solver_stage(f"stage {k}"):
            noise = entmax_quadratic(r_t, np.zeros(r_t.shape[0]), instance.lam, instance.q)
            gaussian = noise.gaussian
            sigmas.append(gaussian.sigma)
            etas.append(noise.eta)
            radii.append(np.sqrt(np.linalg.eigvalsh(gaussian.sigma) * gaussian.support_threshold))
    return QlqrSolution(
        np.asarray(pis),
        np.asarray(gains),
        np.asarray(sigmas),
        np.asarray(etas),
        np.asarray(radii),
    )


def solve_qlqr(instance):
    """Finite-horizon backward Riccati recursion."""
    T = instance.horizon
    pis = [None] * (T + 1)
    gains = [None] * T
    effective = [None] * T
    pis[T] = instance.terminal_cost
    for k in range(T - 1, -1, -1):
        with _solver_stage(f"stage {k}"):
            pis[k], gains[k], effective[k] = _riccati_step(
                pis[k + 1],
                instance.a,
                instance.b,
                instance.q_cost,
                instance.s_cost,
                instance.r_cost,
            )
    return _package(instance, pis, gains, effective)


def solve_qlqr_stationary(instance):
    """Iterate the Riccati recursion to its fixed point.

    Returns a single-stage solution whose matrices are the stationary
    limits; use it with any horizon by reusing stage 0.
    """
    pi = instance.terminal_cost
    for i in range(RICCATI_MAX_ITER):
        with _solver_stage(f"iteration {i}"):
            pi_new, gain, r_t = _riccati_step(
                pi, instance.a, instance.b, instance.q_cost, instance.s_cost, instance.r_cost
            )
        change = np.max(np.abs(pi_new - pi))
        if change < RICCATI_TOL:
            return _package(instance, [pi_new, pi_new], [gain], [r_t])
        pi = pi_new
    raise RuntimeError(
        f"Riccati recursion did not reach a fixed point in {RICCATI_MAX_ITER} "
        f"iterations: last max |dPi| {change:.3g}"
    )


def _stage(arr, k):
    """Stage k of a per-stage array; a stationary solution's one stage serves every k."""
    if arr.shape[0] == 1:
        return arr[0]
    if k >= arr.shape[0]:
        raise ValueError(f"a {arr.shape[0]}-stage solution has no stage {k}")
    return arr[k]


def _noise(instance, solution, k):
    """Input noise law N_q(0, Sigma_k) of stage k."""
    sigma = _stage(solution.noise_covariances, k)
    return QGaussian(np.zeros(instance.input_dim), sigma, instance.q)


def simulate_closed_loop(instance, solution, num_trajectories, steps, seed):
    """Sample closed-loop trajectories x+ = (A + B K) x + B w.

    Noise is drawn per stage with child seeds spawned from ``seed`` (one
    child sequence per stage), so results are reproducible and independent
    across stages.  Returns (states, inputs) with shapes
    (steps+1, num_trajectories, n) and (steps, num_trajectories, m).
    A stage whose states or inputs overflow float64 raises ValueError.
    """
    n, m = instance.state_dim, instance.input_dim
    states = np.zeros((steps + 1, num_trajectories, n))
    inputs = np.zeros((steps, num_trajectories, m))
    states[0] = instance.initial_state
    children = np.random.SeedSequence(seed).spawn(steps)
    for k in range(steps):
        with _solver_stage(f"stage {k}"):
            gain = _stage(solution.gains, k)
            noise = _noise(instance, solution, k).sample(num_trajectories, children[k])
            u = states[k] @ gain.T + noise
            inputs[k] = u
            states[k + 1] = states[k] @ instance.a.T + u @ instance.b.T
            _check_finite("states or inputs", u, states[k + 1])
    return states, inputs


def support_envelope(instance, solution, steps):
    """Outer bounds on the reachable state set, stage by stage.

    The set starts at the initial state and is tracked as an ellipsoid,
    combining the mapped set with the noise ellipsoid via the
    minimum-trace outer approximation of the Minkowski sum.  For n = 1,
    intervals of squared half-widths m1 and m2 sum to (sqrt(m1) + sqrt(m2))^2,
    so the bounds are the exact interval recursion.  Returns (lower, upper)
    arrays of shape (steps+1, n); a stage whose bounds overflow float64
    raises ValueError.
    """
    n = instance.state_dim
    lower = np.zeros((steps + 1, n))
    upper = np.zeros((steps + 1, n))
    center = instance.initial_state.copy()
    shape = np.zeros((n, n))
    lower[0] = upper[0] = center
    thresh = _support_threshold(instance.input_dim, instance.q)
    for k in range(steps):
        with _solver_stage(f"stage {k}"):
            f = instance.a + instance.b @ _stage(solution.gains, k)
            center = f @ center
            mapped = f @ shape @ f.T
            noise_shape = thresh * instance.b @ _stage(solution.noise_covariances, k) @ instance.b.T
            shape = _ellipsoid_sum(mapped, noise_shape)
            half = np.sqrt(np.maximum(np.diag(shape), 0.0))
            lower[k + 1] = center - half
            upper[k + 1] = center + half
            _check_finite("envelope", shape, lower[k + 1], upper[k + 1])
    return lower, upper


def _ellipsoid_sum(m1, m2):
    """Minimum-trace outer ellipsoid of the Minkowski sum of two ellipsoids."""
    t1, t2 = np.trace(m1), np.trace(m2)
    if t1 <= 0:
        return m2
    if t2 <= 0:
        return m1
    # trace of (1 + 1/t) m1 + (1 + t) m2 is minimized at t = sqrt(tr m1 / tr m2)
    t = np.sqrt(t1 / t2)
    return (1.0 + 1.0 / t) * m1 + (1.0 + t) * m2


def expected_quadratic_cost(instance, solution, steps):
    """Exact closed-loop expected quadratic cost by second-moment recursion.

    Accumulates E[x^T Q x + 2 x^T S u + u^T R u] over ``steps`` stages plus
    the terminal term, with u = K x + w and w ~ N_q(0, Sigma_k).
    """
    x0 = instance.initial_state
    second = np.outer(x0, x0)
    total = 0.0
    for k in range(steps):
        gain = _stage(solution.gains, k)
        sigma = _stage(solution.noise_covariances, k)
        uu = gain @ second @ gain.T + sigma
        xu = second @ gain.T
        total += (
            np.trace(instance.q_cost @ second)
            + 2.0 * np.trace(instance.s_cost.T @ xu)
            + np.trace(instance.r_cost @ uu)
        )
        f = instance.a + instance.b @ gain
        second = f @ second @ f.T + instance.b @ sigma @ instance.b.T
    total += np.trace(instance.terminal_cost @ second)
    return float(total)


def sweep_metrics(instance, solution, steps):
    """Sweep point: expected cost over ``steps`` stages, stage-0 noise entropy and radius."""
    return {
        "cost": expected_quadratic_cost(instance, solution, steps),
        "entropy": _noise(instance, solution, 0).deformed_entropy(),
        "support_radius": float(np.max(solution.support_radii[0])),
    }

