"""The spectral log-det that turns an EMA Fisher block into its curvature
dimension, and the error a failed eigensolve raises.

A pure function on small dense arrays (layer blocks, their Grams or
diagonals, stacked over seeds on leading axes), so it is thread-safe.
"""

import numpy as np


class NumericalError(RuntimeError):
    """Eigendecomposition failed to converge."""


def logdet_plus(m, s, diagonal=False):
    """log det(I + s * m^{1/2}) for PSD m and s >= 0, one per matrix on the
    last two axes of `m`, or with `diagonal` per diagonal on the last axis.

    Evaluated through the spectrum as sum_i log(1 + s * sqrt(lambda_i)) over
    the eigenvalues in non-increasing order, which is exact for the PSD
    square root and always non-negative. Zero eigenvalues add log1p(0) = 0,
    so any PSD matrix with the same nonzero spectrum gives the same value.

    Neither input is checked here: `m` is finite and exactly symmetric (a
    diagonal >= +0, so it takes no max), as every EMA Fisher block and its
    Gram are by construction, and `s` is the run's finite curvature scale.
    """
    try:  # from the roots on, in place on a new array: `m` is never written
        w = m if diagonal else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    w = np.sqrt(w) if diagonal else np.sqrt(np.maximum(w, 0.0, out=w), out=w)
    np.log1p(np.multiply(w, s, out=w), out=w)  # on contiguous rows, reversed to sum
    return (w if diagonal else w[..., ::-1]).sum(axis=-1)
