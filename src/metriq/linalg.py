"""Dense complex-matrix kernels for small dimensions (n <= 9).

Matrices are numpy arrays in row-major order; a "ComplexMatrix" throughout the
package is simply a finite 2-D ndarray. Every eigendecomposition and norm in
the package goes through LAPACK (numpy's eigh and SVD), except the sampled
(1->1) oracle's closed-form 3x3 trace norm, tomography._herm3_trace_norm;
results are deterministic on one machine and agree across platforms to
roundoff, not bit for bit. hermitian_eig fixes the conventions LAPACK leaves
open: eigenvalues come out ascending and every eigenvector is rescaled so its
first component above 1e-12 in magnitude is real and positive.
HermitianEigensystem.map forms every spectral function V f(Lambda) V^dagger
in the package, on one matrix or on a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetriqError, NotHermitianError, NotPsdError, NotSquareError

_HERM_TOL = 1e-10
_PHASE_FLOOR = 1e-12


def as_matrix(value) -> np.ndarray:
    """Coerce to a complex 2-D ndarray, rejecting non-finite entries."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise MetriqError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise MetriqError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")


@dataclass(frozen=True, eq=False)
class HermitianEigensystem:
    """Ascending eigenvalues and an orthonormal eigenvector matrix, or a stack of them.

    eigenvectors[..., :, k] belongs to eigenvalues[..., k], as np.linalg.eigh
    returns them; V satisfies V^dagger V = I and M V = V diag(eigenvalues)
    to machine precision.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def map(self, f) -> np.ndarray:
        """V f(Lambda) V^dagger for each system; f maps the eigenvalue array elementwise."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    if vectors.size == 0:
        return vectors.copy()
    pivot = vectors[np.argmax(np.abs(vectors) > _PHASE_FLOOR, axis=0), np.arange(vectors.shape[1])]
    # np.hypot rounds as the scalar abs() does; np.abs of a complex array need not
    return vectors * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def hermitian_eig(matrix) -> HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotSquareError / NotHermitianError; the Hermiticity gate is
    ||M - M^dagger||_op <= 1e-10 * max(1, ||M||_op).
    """
    m = as_matrix(matrix)
    _require_square(m)
    # ||M||_op <= n max|M_ij| < 2^k max|M_ij|, so the gate's norms of M 2^-k
    # stay finite; a power-of-two scaling is exact, so no verdict changes
    shrink = 0.5 ** m.shape[0].bit_length()
    small = m * shrink
    defect = float(np.linalg.norm(small - small.conj().T, 2))
    # the gate floor is 1e-10, so the matrix norm only matters past that
    if defect > _HERM_TOL * shrink and defect > _HERM_TOL * max(shrink, float(np.linalg.norm(small, 2))):
        raise NotHermitianError(
            f"Hermiticity defect {defect / shrink:.3e} exceeds tolerance for shape {m.shape}"
        )
    # halving first keeps entries near the float maximum from overflowing
    values, vectors = np.linalg.eigh(m / 2.0 + m.conj().T / 2.0)
    return HermitianEigensystem(values, _fix_phases(vectors))


def operator_norm(matrix) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input."""
    return float(np.linalg.norm(as_matrix(matrix), 2))


def trace_norm(matrix) -> float:
    """Sum of singular values of a square matrix."""
    m = as_matrix(matrix)
    _require_square(m)
    return float(np.linalg.norm(m, "nuc"))


def psd_sqrt(matrix) -> np.ndarray:
    """Positive-semidefinite square root.

    Eigenvalues in (-1e-10, 0) are treated as roundoff and clipped to zero;
    anything below -1e-10 raises NotPsdError.
    """
    eig = hermitian_eig(matrix)
    if eig.eigenvalues.size and eig.eigenvalues[0] < -1e-10:
        raise NotPsdError(f"minimum eigenvalue {eig.eigenvalues[0]:.3e} is negative")
    out = eig.map(lambda lam: np.sqrt(np.clip(lam, 0.0, None)))
    return (out + out.conj().T) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product (thin wrapper so call sites stay validated)."""
    return np.kron(as_matrix(a), as_matrix(b))


def matrix_exp_hermitian_generator(h, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via the spectral decomposition."""
    t = float(t)
    if not math.isfinite(t):
        raise MetriqError("time must be finite")
    return hermitian_eig(h).map(lambda lam: np.exp(-1j * lam * t))
