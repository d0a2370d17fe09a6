"""The spectral log-det that turns an EMA Fisher block into its curvature
dimension, and the error a failed eigensolve raises.

A pure function on small dense arrays (layer blocks, their Grams or
diagonals), so it is thread-safe.
"""

import numpy as np


class NumericalError(RuntimeError):
    """Eigendecomposition failed to converge."""


def _solve(solver, m):
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc


def logdet_plus(m, s):
    """log det(I + s * m^{1/2}) for PSD m and s >= 0; a 1-D m is a diagonal.

    Evaluated through the spectrum as sum_i log(1 + s * sqrt(lambda_i)) over
    the eigenvalues in non-increasing order, which is exact for the PSD
    square root and always non-negative. Zero eigenvalues add log1p(0) = 0,
    so any PSD matrix with the same nonzero spectrum gives the same value.

    `m` is taken as finite and exactly symmetric, as every EMA Fisher block
    and its Gram are by construction; it is not checked again here.
    """
    if s < 0 or not np.isfinite(s):
        raise ValueError(f"scale must be finite and >= 0, got {s}")
    m = np.asarray(m, dtype=float)
    w = m if m.ndim == 1 else _solve(np.linalg.eigvalsh, m)[::-1]
    return float(np.sum(np.log1p(s * np.sqrt(np.maximum(w, 0.0)))))
