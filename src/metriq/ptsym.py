"""The two-level PT-symmetric family and its analytic dynamics.

H = [[r e^{i phi}, s], [s, r e^{-i phi}]] with s > r sin(phi) >= 0 has a real
spectrum r cos(phi) +- Delta, Delta = sqrt(s^2 - r^2 sin^2 phi), and admits
the closed-form metric

    eta2 = 1/(s + r sin phi) * [[s, -i r sin phi], [i r sin phi, s]]

with eigenvalues {kappa, 1}, kappa = (s - r sin phi)/(s + r sin phi). The
Hermitian equivalent h = eta2^{1/2} H eta2^{-1/2} is real symmetric with the
same spectrum. Everything here is exact 2x2 algebra; no iterative solver
touches the non-Hermitian H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BrokenPtRegimeError, MetriqError, NegativeParameterError
from .hilbert import MetricOperator, validate_density, validate_metric
from .linalg import operator_norm


@dataclass(frozen=True)
class PtHamiltonian:
    """Parameters (r, s, phi) of the PT family, restricted to the unbroken region.

    The boundary s == r sin(phi) is the exceptional point where the metric
    diverges; it is rejected, not special-cased.
    """

    r: float
    s: float
    phi: float

    def __post_init__(self):
        r = float(self.r)
        s = float(self.s)
        phi = float(self.phi)
        if not (math.isfinite(r) and math.isfinite(s) and math.isfinite(phi)):
            raise NegativeParameterError("PT parameters must be finite")
        if r < 0.0:
            raise NegativeParameterError(f"r = {r:.6g} must be nonnegative")
        if s <= 0.0:
            raise NegativeParameterError(f"s = {s:.6g} must be positive")
        rsin = r * math.sin(phi)
        if rsin < 0.0:
            raise BrokenPtRegimeError(
                f"r sin(phi) = {rsin:.6g} is negative; outside the covered region"
            )
        if s <= rsin:
            raise BrokenPtRegimeError(
                f"s = {s:.6g} <= r sin(phi) = {rsin:.6g}: PT symmetry broken"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phi", phi)

    @property
    def r_sin_phi(self) -> float:
        return self.r * math.sin(self.phi)

    @property
    def gap_parameter(self) -> float:
        """Delta = sqrt(s^2 - (r sin phi)^2), half the spectral gap."""
        return math.sqrt(self.s**2 - self.r_sin_phi**2)


@dataclass(frozen=True, eq=False)
class PtSystem:
    hamiltonian: PtHamiltonian
    h_matrix: np.ndarray
    eta2: MetricOperator
    eta2_inv: MetricOperator
    kappa: float
    h_pt_hermitian: np.ndarray


def build_pt_system(p: PtHamiltonian) -> PtSystem:
    """Assemble H, the closed-form metric pair, kappa and the Hermitian equivalent."""
    r, s, phi = p.r, p.s, p.phi
    rsin = p.r_sin_phi
    h = np.array(
        [[r * np.exp(1j * phi), s], [s, r * np.exp(-1j * phi)]], dtype=complex
    )
    eta2_mat = np.array([[s, -1j * rsin], [1j * rsin, s]], dtype=complex) / (s + rsin)
    eta2_inv_mat = np.array([[s, 1j * rsin], [-1j * rsin, s]], dtype=complex) / (s - rsin)
    kappa = (s - rsin) / (s + rsin)
    delta = p.gap_parameter
    c = r * math.cos(phi)
    h_herm = np.array([[c, delta], [delta, c]], dtype=complex)

    # closed forms are exact; the residual only picks up float rounding
    residual = operator_norm(eta2_mat @ h - h.conj().T @ eta2_mat)
    if residual > 1e-10 * max(1.0, s + r):
        raise MetriqError(f"quasi-Hermiticity residual {residual:.3e} out of bounds")

    return PtSystem(
        hamiltonian=p,
        h_matrix=h,
        eta2=validate_metric(eta2_mat),
        eta2_inv=validate_metric(eta2_inv_mat),
        kappa=kappa,
        h_pt_hermitian=h_herm,
    )


def u_pt(sys: PtSystem, t: float) -> np.ndarray:
    """e^{-iHt} in closed form; generally non-unitary.

    H = c I + W with c = r cos(phi) and traceless W satisfying
    W^2 = Delta^2 I, so the exponential is e^{-ict}(cos(Delta t) I
    - i sin(Delta t) W / Delta). Delta > 0 everywhere in the unbroken
    region, which build_pt_system enforces.
    """
    t = float(t)
    if not math.isfinite(t):
        raise MetriqError("time must be finite")
    p = sys.hamiltonian
    c = p.r * math.cos(p.phi)
    delta = p.gap_parameter
    w = sys.h_matrix - c * np.eye(2)
    phase = np.exp(-1j * c * t)
    return phase * (math.cos(delta * t) * np.eye(2) - 1j * math.sin(delta * t) / delta * w)


def analytic_pt_evolution(sys: PtSystem, rho, t: float) -> tuple[np.ndarray, float]:
    """Closed-form PT evolution: normalized U rho U^dagger and its success weight.

    Returns (state, prob) with state = U rho U^dag / tr(U rho U^dag) and
    prob = kappa * tr(U rho U^dag), the per-copy probability of the
    simulation procedure producing this state.
    """
    m = validate_density(rho, dim=2, min_trace=1e-12)
    u = u_pt(sys, t)
    raw = u @ m @ u.conj().T
    weight = float(np.trace(raw).real)
    return raw / weight, sys.kappa * weight

