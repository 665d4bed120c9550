"""Metric operators and the geometry they induce.

A metric operator eta is Hermitian and positive definite; it defines the
inner product <phi|psi>_eta = <phi|eta|psi>, the adjoint
M^# = eta^{-1} M^dagger eta, and the similarity R(M) = eta^{-1/2} M eta^{1/2}
that moves operators between the Euclidean and eta representations. The
rank-1 lifts |psi><psi| and |psi><psi|eta connect vectors to (sub)normalized
density operators in the two pictures.

Spectral data is computed once at validation and cached on the
MetricOperator, since almost every consumer needs eta^{+-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidDensityOperatorError,
    MetricExceedsIdentityError,
    MetriqError,
    NotPositiveDefiniteError,
    SupernormalizedError,
)
from .linalg import HermitianEigensystem, as_matrix, hermitian_eig

_BALL_TOL = 1e-12
_PD_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Validated metric with cached spectral data.

    norm is the operator norm (largest eigenvalue); subidentity records
    whether eta <= I within 1e-12, which is the precondition for realizing
    the associated channel without rescaling.
    """

    matrix: np.ndarray
    eig: HermitianEigensystem
    norm: float
    subidentity: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sqrt(self) -> np.ndarray:
        return self.eig.map(np.sqrt)

    def inv_sqrt(self) -> np.ndarray:
        return self.eig.map(lambda lam: 1.0 / np.sqrt(lam))

    def inv(self) -> np.ndarray:
        return self.eig.map(lambda lam: 1.0 / lam)


class StateVector:
    """A ket as a plain complex vector; amplitudes are copied and frozen."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex, copy=True).reshape(-1)
        if amps.size == 0:
            raise MetriqError("state vector needs at least one amplitude")
        if not np.all(np.isfinite(amps.view(float))):
            raise MetriqError("state amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amplitudes, precision=6)})"


def validate_metric(matrix) -> MetricOperator:
    """Check Hermiticity and positive definiteness, cache the spectrum.

    Eigenvalues at or below 1e-12 count as singular, not merely small:
    the package needs eta^{-1/2} everywhere, so a numerically singular
    metric is rejected up front. So is a spectrum that is not finite, which
    entries near the float maximum can give.
    """
    m = as_matrix(matrix)
    if m.size == 0:
        raise NotPositiveDefiniteError(f"metric is empty, shape {m.shape}")
    eig = hermitian_eig(m)
    if not np.isfinite(eig.eigenvalues).all():
        raise MetriqError(f"metric spectrum {eig.eigenvalues.tolist()} is not finite")
    if eig.eigenvalues[0] <= _PD_CUTOFF:
        raise NotPositiveDefiniteError(
            f"metric eigenvalue {eig.eigenvalues[0]:.3e} is not above the singularity cutoff {_PD_CUTOFF:g}"
        )
    norm = float(eig.eigenvalues[-1])
    return MetricOperator(
        matrix=m,
        eig=eig,
        norm=norm,
        subidentity=bool(norm <= 1.0 + _BALL_TOL),
    )


def _require_dim(eta: MetricOperator, dim: int) -> None:
    if eta.dim != dim:
        raise DimMismatchError(f"metric dim {eta.dim} does not match operand dim {dim}")


def _require_subidentity(eta: MetricOperator) -> None:
    if not eta.subidentity:
        raise MetricExceedsIdentityError(
            f"metric norm {eta.norm:.12g} > 1 cannot be realized as a channel; "
            "rescale via scaled_metric first"
        )


def eta_inner(eta: MetricOperator, phi: StateVector, psi: StateVector) -> complex:
    """<phi|eta|psi>; conjugate symmetric in (phi, psi)."""
    if phi.dim != psi.dim:
        raise DimMismatchError(f"state dims differ: {phi.dim} vs {psi.dim}")
    _require_dim(eta, psi.dim)
    return complex(np.vdot(phi.amplitudes, eta.matrix @ psi.amplitudes))


def eta_adjoint(eta: MetricOperator, matrix) -> np.ndarray:
    """eta^{-1} M^dagger eta, the adjoint for the eta inner product."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError("eta adjoint needs a square matrix")
    _require_dim(eta, m.shape[0])
    return eta.inv() @ m.conj().T @ eta.matrix


def representation_change(eta: MetricOperator, matrix) -> np.ndarray:
    """eta^{-1/2} M eta^{1/2}; a similarity, so the spectrum is unchanged."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError("representation change needs a square matrix")
    _require_dim(eta, m.shape[0])
    return eta.inv_sqrt() @ m @ eta.sqrt()


def lift(psi: StateVector) -> np.ndarray:
    """|psi><psi| for states in the closed Euclidean unit ball."""
    if psi.norm() > 1.0 + _BALL_TOL:
        raise SupernormalizedError(f"state norm {psi.norm():.12g} exceeds 1")
    a = psi.amplitudes
    return np.outer(a, a.conj())


def lift_eta(eta: MetricOperator, psi: StateVector) -> np.ndarray:
    """|psi><psi| eta; trace equals <psi|eta|psi>."""
    _require_dim(eta, psi.dim)
    weight = eta_inner(eta, psi, psi).real
    if weight > 1.0 + _BALL_TOL:
        raise SupernormalizedError(f"eta-norm^2 {weight:.12g} exceeds 1")
    a = psi.amplitudes
    return np.outer(a, a.conj()) @ eta.matrix


def validate_density(rho, dim: int | None = None, min_trace: float = 0.0) -> np.ndarray:
    """Check that rho is PSD with trace at most 1; return it as a complex array.

    Subnormalized states are legitimate inputs throughout (postselection
    branches carry trace < 1), so only an upper trace bound is enforced by
    default. Callers that normalize by the trace pass min_trace to reject
    states too close to zero for that to be meaningful.
    """
    m = as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise InvalidDensityOperatorError(f"density operator must be square, got {m.shape}")
    if m.size == 0:
        raise InvalidDensityOperatorError(f"density operator is empty, shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise InvalidDensityOperatorError(f"density operator dim {m.shape[0]} != expected {dim}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * scale:
        raise InvalidDensityOperatorError("density operator is not Hermitian")
    low = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
    if low < -1e-10 * scale:
        raise InvalidDensityOperatorError(f"density operator has negative eigenvalue {low:.3e}")
    tr = float(np.trace(m).real)
    if tr > 1.0 + 1e-10:
        raise InvalidDensityOperatorError(f"density operator trace {tr:.12g} exceeds 1")
    if tr < min_trace:
        raise InvalidDensityOperatorError(
            f"density operator trace {tr:.3e} is below the usable minimum {min_trace:.3e}"
        )
    return m

