"""Kraus channels for inner-product changes, and their certificates.

The central objects are the rank-1 channel G_eta with Kraus operator
eta^{1/2} (realizable whenever eta <= I) and its scaled reversal with Kraus
sqrt(kappa) * eta^{-1/2}, kappa = 1/||eta^{-1}||. Composing the two gives
kappa times the identity, which is the "reversal with probability kappa"
property. The map E_eta: M -> M eta is exposed as a plain matrix map, not a
KrausChannel: its output lives in the changed-inner-product representation,
and only the factorized form (representation change after G_eta) is a
completely positive map with respect to the Euclidean adjoint.

Complete positivity is certified through the Choi matrix
C = sum_ij |i><j| (x) Phi(|i><j|), which is positive semidefinite exactly
for completely positive Phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, MetricExceedsIdentityError, MetriqError
from .dilation import normalize_metric
from .hilbert import MetricOperator
from .linalg import as_matrix


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A list of Kraus operators, each of shape dim_out x dim_in.

    The constructor checks shapes and finiteness only; every factory in this
    module produces trace-nonincreasing channels, and
    is_trace_nonincreasing() certifies the property for arbitrary operator
    lists (including deliberately unphysical ones built in tests).
    """

    kraus_ops: tuple
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.kraus_ops)
        if min(self.dim_out, self.dim_in) < 1:
            raise DimMismatchError(f"Kraus operator shape ({self.dim_out}, {self.dim_in}) is empty")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimMismatchError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus_ops", ops)


def kraus_channel(ops) -> KrausChannel:
    """Build a KrausChannel, reading dimensions off the first operator."""
    mats = [as_matrix(k) for k in ops]
    if not mats:
        raise MetriqError("a channel needs at least one Kraus operator")
    dim_out, dim_in = mats[0].shape
    return KrausChannel(tuple(mats), dim_in=dim_in, dim_out=dim_out)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    matrix: np.ndarray
    dim_in: int
    dim_out: int


def g_eta(eta: MetricOperator) -> KrausChannel:
    """The metric channel M -> eta^{1/2} M eta^{1/2} (single Kraus operator)."""
    if not eta.subidentity:
        raise MetricExceedsIdentityError(
            f"metric norm {eta.norm:.12g} > 1; rescale via scaled_metric first"
        )
    root = eta.sqrt()
    return KrausChannel((root,), dim_in=eta.dim, dim_out=eta.dim)


def apply_e_eta(eta: MetricOperator, matrix) -> np.ndarray:
    """The inner-product-change map M -> M eta.

    Equals the representation change applied to the G_eta output, which is
    how the non-CP-looking right multiplication is physically realized.
    """
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError("E_eta needs a square matrix")
    if m.shape[0] != eta.dim:
        raise DimMismatchError(f"matrix dim {m.shape[0]} != metric dim {eta.dim}")
    if not eta.subidentity:
        raise MetricExceedsIdentityError(f"metric norm {eta.norm:.12g} > 1")
    return m @ eta.matrix


def scaled_metric(eta: MetricOperator) -> tuple[float, MetricOperator]:
    """(kappa, kappa * eta) with kappa = min(1, 1/||eta||).

    Already-subidentity metrics pass through with kappa exactly 1; the
    others are rescaled by normalize_metric, which reuses the cached
    eigenvectors.
    """
    if eta.subidentity:
        return 1.0, eta
    scaled, norm = normalize_metric(eta)
    return 1.0 / norm, scaled


def g_kappa_eta_inv(eta: MetricOperator) -> tuple[float, KrausChannel]:
    """Scaled reversal channel: Kraus sqrt(kappa) * eta^{-1/2}, kappa = 1/||eta^{-1}||.

    kappa equals the smallest eigenvalue of eta, so the Kraus operator has
    unit norm and the channel is trace nonincreasing with equality on the
    bottom eigenvector.
    """
    kappa = float(eta.eig.eigenvalues[0])
    k = np.sqrt(kappa) * eta.inv_sqrt()
    return kappa, KrausChannel((k,), dim_in=eta.dim, dim_out=eta.dim)


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """sum_k K rho K^dagger."""
    r = as_matrix(rho)
    if r.shape != (ch.dim_in, ch.dim_in):
        raise DimMismatchError(f"state shape {r.shape} != ({ch.dim_in}, {ch.dim_in})")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ r @ k.conj().T
    return out


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Sequential composition; keeps the full pairwise Kraus set."""
    if inner.dim_out != outer.dim_in:
        raise DimMismatchError(
            f"inner output dim {inner.dim_out} != outer input dim {outer.dim_in}"
        )
    ops = tuple(a @ b for a in outer.kraus_ops for b in inner.kraus_ops)
    return KrausChannel(ops, dim_in=inner.dim_in, dim_out=outer.dim_out)


def superoperator(ch: KrausChannel) -> np.ndarray:
    """Dense matrix acting on row-major vec: vec(K rho K^dag) = (K (x) conj K) vec(rho)."""
    out = np.zeros((ch.dim_out**2, ch.dim_in**2), dtype=complex)
    for k in ch.kraus_ops:
        out += np.kron(k, k.conj())
    return out


def _choi_reshuffle(superop: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """C[(i,a),(j,b)] = S[(a,b),(i,j)]: the Choi matrix of a row-major-vec superoperator S."""
    s = superop.reshape(dim_out, dim_out, dim_in, dim_in)
    return s.transpose(2, 0, 3, 1).reshape(dim_in * dim_out, -1)


def choi(ch: KrausChannel) -> ChoiMatrix:
    """C = sum_ij |i><j| (x) Phi(|i><j|), reshuffled from the superoperator."""
    c = _choi_reshuffle(superoperator(ch), ch.dim_in, ch.dim_out)
    return ChoiMatrix(matrix=c, dim_in=ch.dim_in, dim_out=ch.dim_out)


def is_trace_nonincreasing(ch: KrausChannel) -> bool:
    """True iff I - sum K^dagger K >= -1e-10 on the spectrum."""
    s = np.zeros((ch.dim_in, ch.dim_in), dtype=complex)
    for k in ch.kraus_ops:
        s += k.conj().T @ k
    return bool(np.linalg.eigvalsh(np.eye(ch.dim_in) - s)[0] >= -1e-10)
