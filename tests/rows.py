"""Test-side views of solver output that no CLI path needs.

Unlike ``oracle.py`` these read the solvers' own results, so they hold
no independent formula.
"""

import numpy as np

__all__ = ["relative_values"]


def relative_values(value, normalizers, reference_state=0, *, lam):
    """Argument of exp_q for the given reference column: z = C(j0) - V/lam.

    These differences are horizon-independent in the stationary regime and
    determine the sparsity pattern of the controlled column: an entry is
    exactly zero iff 1 + (1-q) z_i <= 0.  ``lam`` is the instance's
    regularization weight; it has no default, since z depends on it.
    """
    value = np.asarray(value, dtype=float)
    return normalizers[reference_state] - value / lam
