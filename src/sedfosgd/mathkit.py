"""The spectral log-det that turns an EMA Fisher block into its curvature
dimension, and the error a failed eigensolve raises.

A pure function on small dense arrays (layer blocks, their Grams or
diagonals, stacked over seeds on leading axes), so it is thread-safe.
"""

import math

import numpy as np


class NumericalError(RuntimeError):
    """Eigendecomposition failed to converge."""


def logdet_plus(m, s, diagonal=False):
    """log det(I + s * m^{1/2}) for PSD m and s >= 0, one per matrix on the
    last two axes of `m`, or with `diagonal` (or a 1-D m) per diagonal.

    Evaluated through the spectrum as sum_i log(1 + s * sqrt(lambda_i)) over
    the eigenvalues in non-increasing order, which is exact for the PSD
    square root and always non-negative. Zero eigenvalues add log1p(0) = 0,
    so any PSD matrix with the same nonzero spectrum gives the same value.

    `m` is taken as finite and exactly symmetric, as every EMA Fisher block
    and its Gram are by construction; it is not checked again here.
    """
    if s < 0 or not math.isfinite(s):
        raise ValueError(f"scale must be finite and >= 0, got {s}")
    m = np.asarray(m, dtype=float)
    try:
        w = m if diagonal or m.ndim == 1 else np.linalg.eigvalsh(m)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    out = np.log1p(s * np.sqrt(np.maximum(w, 0.0))).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
