"""q-deformed exponential/logarithm, Tsallis-type entropies and divergences.

All functions take the deformation parameter q in [0, 1).  In the limit
q -> 1 they reduce to the usual exp/log, Shannon entropy and KL divergence.
"""

import numpy as np

__all__ = [
    "DeformationParameter",
    "exp_q",
    "log_q",
    "deformed_entropy",
    "tsallis_entropy",
    "qkl_divergence",
]

PROB_SUM_TOL = 1e-9


class DeformationParameter(float):
    """Deformation parameter q, restricted to the half-open interval [0, 1)."""

    def __new__(cls, q):
        q = float(q)
        if not (0.0 <= q < 1.0):
            raise ValueError(f"deformation parameter must satisfy 0 <= q < 1, got {q}")
        return super().__new__(cls, q)


def _as_q(q):
    return q if isinstance(q, DeformationParameter) else DeformationParameter(q)


def _check_distributions(p, axis, what):
    """Raise ValueError unless ``p`` is non-negative and sums to 1 along ``axis``.

    Both tests are written so that a NaN fails them: the minimum and the
    largest deviation of a sum from 1 are NaN then, and compare false.  A
    sum along either of the last two axes is a product with a ones vector,
    which is faster than ``np.sum`` on the arrays the solvers check.
    """
    axis %= max(p.ndim, 1)
    if p.ndim - axis == 1:
        sums = p @ np.ones(p.shape[-1])
    elif p.ndim - axis == 2:
        sums = np.ones(p.shape[-2]) @ p
    else:
        sums = np.sum(p, axis=axis)
    deviation = np.abs(sums - 1.0)
    if not ((p.size == 0 or p.min() >= 0)
            and (deviation.size == 0 or deviation.max() <= PROB_SUM_TOL)):
        raise ValueError(f"{what} must be non-negative and sum to 1")


def _exp_q_scaled(a, q):
    """exp_q(x) from a = (1-q) x; log1p keeps the q -> 1 limit accurate.

    a <= -1 gives 0 through log1p(-1) = -inf, a division by zero; it sets no error state.
    """
    return np.exp(np.log1p(np.maximum(a, -1.0)) / (1.0 - q))


def exp_q(x, q):
    """Deformed exponential [1 + (1-q) x]_+^(1/(1-q)).

    Total function: returns exactly 0 wherever 1 + (1-q) x <= 0, and NaN
    at NaN.  Accepts scalars or arrays.
    """
    q = _as_q(q)
    with np.errstate(divide="ignore"):
        out = _exp_q_scaled((1.0 - q) * np.asarray(x, dtype=float), q)
    return out if out.ndim else float(out)


def log_q(x, q):
    """Deformed logarithm (x^(1-q) - 1)/(1-q), defined for x > 0."""
    q = _as_q(q)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_q requires strictly positive arguments")
    out = np.expm1((1.0 - q) * np.log(x)) / (1.0 - q)
    return out if out.ndim else float(out)


def _plogq(p, q, ref=None):
    """Sum over the last axis of p_i * log_q(p_i / ref_i); ref defaults to 1.

    Terms with p_i = 0 are 0.  A row with p_i > 0 where ref_i <= 0 sums to
    +inf.  Returns a float for a 1-d ``p`` and one value per row otherwise.
    The terms are formed in place, in one buffer.
    """
    p = np.asarray(p, dtype=float)
    pos = p > 0
    if ref is None:
        terms = np.log(np.where(pos, p, 1.0))  # 0 off the support
    else:
        ref = np.asarray(ref, dtype=float)
        ok = pos & (ref > 0)
        terms = np.log(np.divide(p, ref, out=np.ones_like(p), where=ok))  # 0 off ``ok``
    terms *= 1.0 - q
    np.expm1(terms, out=terms)
    terms *= p
    terms /= 1.0 - q
    total = terms.sum(axis=-1)
    if ref is not None:
        total = np.where(np.any(pos & ~ok, axis=-1), np.inf, total)
    return float(total) if total.ndim == 0 else total


def _deformed_entropy(phi, q):
    """H_q of each row of ``phi``, unchecked: the ent-max kernel's rows sum to 1 by construction."""
    return -(_plogq(phi, q) - 1.0) / (2.0 - q)


def deformed_entropy(phi, q):
    """Deformed q-entropy H_q(phi) = -(1/(2-q)) (sum_i phi_i log_q(phi_i) - 1).

    Satisfies the additive duality H_q(phi) = T_{2-q}(phi) with the Tsallis
    entropy, and tends to the Shannon entropy plus a constant as q -> 1.
    A 2-d ``phi`` gives one entropy per row.  Raises ValueError unless
    each row is a distribution.
    """
    q = _as_q(q)
    phi = np.asarray(phi, dtype=float)
    _check_distributions(phi, -1, "phi")
    return _deformed_entropy(phi, q)


def tsallis_entropy(phi, q):
    """Tsallis entropy T_q(phi) = -(1/q) (sum_i phi_i^q log_q(phi_i) - 1).

    Requires 0 < q < 2.  Computed as the deformed entropy H_{2-q}(phi) = T_q(phi),
    so a 2-d ``phi`` gives one entropy per row.  Raises ValueError unless
    each row is a distribution.
    """
    q = float(q)
    if q <= 0:
        raise ValueError("tsallis_entropy requires q > 0")
    if q >= 2:
        raise ValueError("tsallis_entropy requires q < 2")
    w = np.asarray(phi, dtype=float)
    _check_distributions(w, -1, "phi")
    if abs(q - 1.0) < 1e-12:
        s = np.sum(w * np.log(np.where(w > 0, w, 1.0)), axis=-1)
    else:
        s = _plogq(w, 2.0 - q)  # phi^q log_q(phi) = phi log_{2-q}(phi)
    return -(s - 1.0) / q


def _qkl_divergence(p, s, q):
    """D_q(p || s) of each row, unchecked: the ent-max kernel's weights need not sum to 1."""
    return _plogq(p, q, s) / (2.0 - q)


def qkl_divergence(phi, psi, q):
    """q-deformed relative entropy between discrete distributions.

    Normalized so that the divergence vanishes at phi == psi:

        D_q(phi || psi) = (1/(2-q)) sum_i phi_i log_q(phi_i / psi_i)

    Returns +inf when the support of phi is not contained in the support
    of psi.  Always non-negative.  2-d arguments give one divergence per
    row.  Raises ValueError unless each row of both is a distribution.
    """
    q = _as_q(q)
    p, s = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
    if p.shape != s.shape:
        raise ValueError("distributions must have the same length")
    _check_distributions(p, -1, "phi")
    _check_distributions(s, -1, "psi")
    return _qkl_divergence(p, s, q)
