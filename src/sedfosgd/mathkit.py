"""Dense symmetric-matrix primitives shared by the Fisher and dimension code.

Everything here is a pure function on small dense arrays (layer blocks or
diagonals), so all operations are thread-safe.
"""

import math
from dataclasses import dataclass

import numpy as np

# Eigenvalues inside this band (relative to ||m||_F) are treated as exact
# zeros of a PSD matrix; anything further below signals a caller bug.
PSD_CLAMP_BAND = 1e-12
PSD_VIOLATION_TOL = 1e-8


class NumericalError(RuntimeError):
    """Eigendecomposition failed to converge; carries the residual norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PsdViolationError(ValueError):
    """Input claimed PSD has an eigenvalue well below zero."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def gamma(x):
    """Gamma function on the positive reals.

    Only (0.9, 2.0] is exercised by the optimizer (2 - alpha with
    alpha in (0, 1]), but any x > 0 is accepted.
    """
    if x <= 0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _as_symmetric(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(m, m.T):
        # tolerate rounding asymmetry but nothing structural
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, _fro(m))):
            raise ValueError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
    return m


def _fro(m):
    return float(np.linalg.norm(m, "fro"))


def _solve(solver, m):
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}",
                             residual=_fro(m)) from exc


def eig_sym(m):
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues come back sorted non-increasing. For inputs that are PSD up
    to the clamp band, tiny negative eigenvalues are snapped to zero.
    """
    m = _as_symmetric(m)
    w, v = _solve(np.linalg.eigh, m)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    band = PSD_CLAMP_BAND * _fro(m)
    if w.size and w[-1] >= -band:
        w = np.maximum(w, 0.0)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def sqrt_psd(m):
    """Symmetric PSD square root R with R @ R == m (up to roundoff)."""
    m = _as_symmetric(m)
    spec = eig_sym(m)
    w = spec.eigenvalues
    if w.size and w[-1] < -PSD_VIOLATION_TOL * max(_fro(m), 1e-300):
        raise PsdViolationError(
            f"matrix is not PSD: min eigenvalue {w[-1]:g}")
    w = np.maximum(w, 0.0)
    v = spec.eigenvectors
    r = (v * np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)


def logdet_plus(m, s):
    """log det(I + s * m^{1/2}) for PSD m and s >= 0; a 1-D m is a diagonal.

    Evaluated through the spectrum as sum_i log(1 + s * sqrt(lambda_i)) over
    the eigenvalues in non-increasing order, which is exact for the PSD
    square root and always non-negative. Zero eigenvalues add log1p(0) = 0,
    so any PSD matrix with the same nonzero spectrum gives the same value.
    """
    if s < 0 or not np.isfinite(s):
        raise ValueError(f"scale must be finite and >= 0, got {s}")
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        if not np.all(np.isfinite(m)):
            raise ValueError("diagonal entries must be finite")
        w = m
    else:
        w = _solve(np.linalg.eigvalsh, _as_symmetric(m))[::-1]
    return float(np.sum(np.log1p(s * np.sqrt(np.maximum(w, 0.0)))))
