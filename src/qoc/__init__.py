"""Tsallis-entropy-regularized optimal control toolkit.

Deformed exponential-family primitives, the sparse ent-max distribution,
finite-horizon regularized dynamic programming, deformed-divergence
control of Markov chains, and the entropy-regularized LQR with q-Gaussian
input noise.
"""

from .deformed import (
    DeformationParameter,
    deformed_entropy,
    exp_q,
    log_q,
    qkl_divergence,
    tsallis_entropy,
)
from .entmax import (
    entmax_discrete,
    entmax_quadratic,
    entmax_rows,
    entmax_weighted,
)
from .qgaussian import QGaussian
from .qkl import QklInstance, QklSolution, rollout, solve_qkl, solve_qkl_stationary
from .qlqr import (
    QlqrInstance,
    QlqrSolution,
    simulate_closed_loop,
    solve_qlqr,
    solve_qlqr_stationary,
    support_envelope,
)
from .troc import FiniteTrocInstance, TrocSolution, evaluate_policy, solve_troc

__version__ = "0.1.0"
