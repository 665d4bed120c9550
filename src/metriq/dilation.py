"""Qutrit unitary dilations of the metric channel, and postselection.

A norm-1 metric eta on the qubit space has eta^{1/2} with spectrum {r, 1},
r = sqrt(lambda_min). Completing eta^{1/2} to a 3x3 unitary

    U = [[ eta^{1/2}        u ]
         [ -e^{i theta} conj(u)^T   e^{i theta} r ]]

with u the lambda_min eigenvector scaled to norm sqrt(1 - r^2) gives the
dilation: projecting U (rho + 0) U^dagger back onto the qubit block returns
eta^{1/2} rho eta^{1/2} exactly, with the block trace as the postselection
probability. theta and the phase of u are free; both default to the
convention of the reference matrices, which the construction reproduces
to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NotNormalizedError
from .hilbert import MetricOperator, validate_density
from .linalg import HermitianEigensystem, as_matrix

_DEGENERATE_GAP = 1e-12


@dataclass(frozen=True, eq=False)
class DilationUnitary:
    matrix: np.ndarray
    eta_tilde: MetricOperator
    theta: float
    r_small: float


def normalize_metric(eta: MetricOperator) -> tuple[MetricOperator, float]:
    """Split eta into (eta/||eta||, ||eta||); the first factor has norm 1."""
    scale = eta.norm
    values = eta.eig.eigenvalues / scale
    eig = HermitianEigensystem(values, eta.eig.eigenvectors)
    scaled = MetricOperator(
        matrix=eta.matrix / scale,
        eig=eig,
        norm=float(values[-1]),
        subidentity=True,
    )
    return scaled, scale


def build_dilation(
    eta_tilde: MetricOperator, theta: float = 0.0, u_phase: float = 0.0
) -> DilationUnitary:
    """Construct the qutrit dilation unitary of a norm-1 qubit metric.

    u-phase convention: the spectral eigenvector already carries a fixed
    phase (first component exceeding 1e-12 in magnitude is real positive);
    u_phase multiplies e^{i u_phase} on top for callers that want the other
    gauge.
    """
    if eta_tilde.dim != 2:
        raise DimMismatchError(f"dilation needs a 2x2 metric, got dim {eta_tilde.dim}")
    if abs(eta_tilde.norm - 1.0) > 1e-10:
        raise NotNormalizedError(
            f"metric norm {eta_tilde.norm:.12g} != 1; call normalize_metric first"
        )
    lam_min = float(eta_tilde.eig.eigenvalues[0])
    r = math.sqrt(lam_min)

    u = np.zeros(2, dtype=complex)
    if r < 1.0 - _DEGENERATE_GAP:
        v = eta_tilde.eig.eigenvectors[:, 0]
        u = math.sqrt(1.0 - lam_min) * np.exp(1j * u_phase) * v

    phase = np.exp(1j * theta)
    matrix = np.zeros((3, 3), dtype=complex)
    matrix[:2, :2] = eta_tilde.sqrt()
    matrix[:2, 2] = u
    matrix[2, :2] = -phase * u.conj()
    matrix[2, 2] = phase * r
    return DilationUnitary(
        matrix=matrix, eta_tilde=eta_tilde, theta=float(theta), r_small=r
    )


def embed(rho) -> np.ndarray:
    """rho + 0: place a 2x2 block in the upper-left of a 3x3 zero matrix."""
    m = as_matrix(rho)
    if m.shape != (2, 2):
        raise DimMismatchError(f"embed expects a 2x2 matrix, got {m.shape}")
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = m
    return out


def postselect(dil: DilationUnitary, sigma) -> tuple[np.ndarray, float]:
    """Apply the dilation unitary and project onto the qubit block.

    Returns the unnormalized block (equal to eta^{1/2} rho eta^{1/2} when
    sigma = rho + 0) and its trace, the postselection probability.
    """
    return _project(dil, validate_density(sigma, dim=3))


def _project(dil: DilationUnitary, sigma: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """postselect on a qutrit state, or a (..., 3, 3) stack, its caller has already validated."""
    u = dil.matrix
    block = (u @ sigma @ u.conj().T)[..., :2, :2]
    return block, np.trace(block, axis1=-2, axis2=-1).real
