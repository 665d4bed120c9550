"""The verification game between a verifier and a metric-channel prover.

The verifier hands the prover a fixed informationally complete set of nine
qutrit pure states, collects per-input success ratios and returned states,
reconstructs the prover's process by linear inversion, and accepts exactly
when the reconstruction is within D_th = (lambda_1 - lambda_2)/3 of the
target channel rho -> (eta^{1/2} + 0) rho (eta^{1/2} + 0) in the induced
(1->1) norm. An honest prover realizes the target through the dilation
procedure; the modeled dishonest prover mixes embedded qubit unitaries
(U + 1) and discards copies, and always lands at least D_th away. Each
prover answers an input with branches (per-copy success probability, output
state): an exact game returns their expectation, the infinite-shot limit of
a sampled game, whose draws montecarlo makes.

The (1->1) norm of a Hermiticity-preserving map is attained on pure states,
and for a fixed input the trace norm is linear in the dual observable; the
estimator below alternates between the optimal observable for the current
state and the optimal state for the current observable, with extrapolated
steps from a few deterministic starting points, finishes with saddle-free
Newton steps on the sphere of states where that alternation crawls, and
never returns less than the analytic floor ||Phi(I/d)||_tr. Its value is
attained, so it bounds the norm from below; the Choi-matrix bound bounds it
from above and certifies an accept.
"""

from __future__ import annotations

import functools
import math
import warnings
# Nothing here calls it: perfbench/tracer.py rebinds this name to a traced pool,
# and the import goes when ROADMAP item 1 removes that TracedPool swap.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, KrausChannel, _choi_reshuffle, kraus_channel, superoperator
from .dilation import _project, build_dilation, embed, normalize_metric
from .errors import (
    DegenerateMetricError,
    DimMismatchError,
    IterationCapWarning,
    MetriqError,
    SingularDesignError,
    UncertifiedAcceptWarning,
)
from .hilbert import MetricOperator, _require_subidentity, validate_density
from .linalg import HermitianEigensystem, as_matrix, hermitian_eig, trace_norm
from .montecarlo import _draw, _require_shot_count
from .rng import RngStream

_ZERO_BLOCK_CUTOFF = 1e-12
_NORM_STARTS = 8
_NORM_STEPS = np.array([1.0, 2.0, 4.0])
_NORM_SEED = 0x315A7C0FFEE
_NORM_TOL = 1e-8
_NORM_MAX_ITERS = 150
_NORM_NEWTON_AFTER = 15
_NORM_NEWTON_DAMPING = np.array([1.0, 0.25, 0.0625])


# ---------------------------------------------------------------------------
# input design
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TomographyDesign:
    """Qutrit input states, kept as one read-only (k, 3, 3) stack.

    Each state is checked once, here: one that is not a 3x3 density operator
    raises InvalidDensityOperatorError when the design is built.
    """

    input_states: np.ndarray
    description: str

    def __post_init__(self):
        stack = np.stack([validate_density(s, dim=3) for s in self.input_states])
        stack.flags.writeable = False
        object.__setattr__(self, "input_states", stack)


@functools.cache
def default_design() -> TomographyDesign:
    """Nine pure qutrit states spanning the full operator space.

    Order: the three basis states |0>, |1>, |2>; the three equal
    superpositions (|j> + |k>)/sqrt2 for j < k; the three phased ones
    (|j> + i|k>)/sqrt2 for j < k. Every call returns the same design, built
    on the first call; its states are read-only.
    """
    kets = []
    basis = np.eye(3, dtype=complex)
    for j in range(3):
        kets.append(basis[j])
    pairs = [(0, 1), (0, 2), (1, 2)]
    for j, k in pairs:
        kets.append((basis[j] + basis[k]) / math.sqrt(2.0))
    for j, k in pairs:
        kets.append((basis[j] + 1j * basis[k]) / math.sqrt(2.0))
    states = tuple(np.outer(v, v.conj()) for v in kets)
    return TomographyDesign(
        input_states=states,
        description="basis states plus pairwise equal and i-phased superpositions",
    )


# ---------------------------------------------------------------------------
# prover models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProverModel:
    kind: str
    unitaries: tuple
    probs: tuple


def honest_prover() -> ProverModel:
    return ProverModel(kind="honest", unitaries=(), probs=())


def dishonest_prover(unitaries, probs) -> ProverModel:
    """A mixture of embedded qubit unitaries with a discard probability.

    The channel is sigma -> sum_j p_j (U_j + 1)^dagger sigma (U_j + 1),
    applied with probability sum p_j per copy and discarding otherwise.
    """
    mats = tuple(as_matrix(u) for u in unitaries)
    ps = tuple(float(p) for p in probs)
    if len(mats) != len(ps) or not mats:
        raise MetriqError("need one probability per unitary, at least one of each")
    for u in mats:
        if u.shape != (2, 2):
            raise DimMismatchError(f"dishonest unitaries act on the qubit block, got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
            raise MetriqError("dishonest prover operators must be unitary")
    for p in ps:
        if not (math.isfinite(p) and p >= 0.0):
            raise MetriqError(f"mixture probability {p:.6g} is not a finite nonnegative number")
    total = sum(ps)
    if total <= 1e-12:
        raise MetriqError("mixture probabilities sum to zero; the prover never responds")
    if total > 1.0 + 1e-12:
        raise MetriqError(f"mixture probabilities sum to {total:.12g} > 1")
    return ProverModel(kind="dishonest", unitaries=mats, probs=ps)


def run_prover(
    model: ProverModel,
    eta: MetricOperator,
    design: TomographyDesign,
    n: int,
    rng: RngStream,
    exact: bool = False,
) -> list:
    """Collect (success_ratio, returned_state) for every design input.

    Branch j of input i succeeds with per-copy probability q[i, j] and
    returns branches[i, j]; one dilation projects every honest input, and
    one product forms every dishonest branch. Exact: (s * sum q, sum_j q_j
    branches[j] / sum q); sampled: (s * n / copies, sum_j counts_j
    branches[j] / n), with s the prover's ratio scale. Input i draws from
    its own stream rng.derive(i), so its draws depend only on the seed and i.
    """
    if eta.dim != 2:
        raise DimMismatchError(f"the game is played over a qubit metric, got dim {eta.dim}")
    _require_subidentity(eta)
    if not exact:
        n = _require_shot_count(n)
    sigma = design.input_states
    if model.kind == "honest":
        # the metric channel annihilates inputs outside the qubit block
        live = np.trace(sigma[:, :2, :2], axis1=1, axis2=2).real >= _ZERO_BLOCK_CUTOFF
        eta_tilde, scale = normalize_metric(eta)
        states = np.zeros_like(sigma)
        states[:, :2, :2] = sigma[:, :2, :2]
        block, prob = _project(build_dilation(eta_tilde), states)
        states[live, :2, :2] = block[live] / prob[live, None, None]
        q, branches = prob[:, None], states[:, None]
    else:
        live, scale = np.ones(len(sigma), dtype=bool), 1
        w = np.tile(np.eye(3, dtype=complex), (len(model.unitaries), 1, 1))
        w[:, :2, :2] = model.unitaries
        q = np.broadcast_to(model.probs, (len(sigma), len(model.probs)))
        branches = w.conj().swapaxes(1, 2) @ sigma[:, None] @ w
    responses = []
    for i in range(len(sigma)):
        if not live[i]:
            responses.append((0.0, np.zeros((3, 3), dtype=complex)))
        elif exact:
            p = float(q[i].sum())
            responses.append((scale * p, np.tensordot(q[i] / p, branches[i], axes=1)))
        else:
            _, ratio, counts = _draw(rng.derive(i), q[i], n, scale)
            responses.append((ratio, np.tensordot(counts / float(n), branches[i], axes=1)))
    return responses


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReconstructedChannel:
    linear_map: np.ndarray
    shots_per_input: int

    @functools.cached_property
    def choi(self) -> ChoiMatrix:
        """Eigenvalue-clipped PSD Choi matrix, computed on first read."""
        d = _superop_dim(self.linear_map)
        choi_h = _hermitian_choi(self.linear_map, d)
        eig = hermitian_eig(choi_h)
        if eig.eigenvalues[0] < -1e-8:
            choi_h = eig.map(lambda lam: np.clip(lam, 0.0, None))
        return ChoiMatrix(matrix=choi_h, dim_in=d, dim_out=d)


def reconstruct(responses, design: TomographyDesign, shots_per_input: int = 0) -> ReconstructedChannel:
    """Linear inversion of the prover's responses.

    The unnormalized outputs ratio_i * state_i are fitted by least squares
    to a single linear map on vectorized operators. The raw linear map is
    what the distance uses, where clipping would bias the verdict; the
    eigenvalue-clipped PSD Choi matrix, for consumers that need complete
    positivity, is built only when first read.
    """
    inputs = design.input_states
    if len(responses) != len(inputs):
        raise MetriqError(f"got {len(responses)} responses for {len(inputs)} inputs")
    a = inputs.reshape(len(inputs), -1)
    b = np.stack(
        [float(r) * np.asarray(s, dtype=complex).reshape(-1) for r, s in responses]
    )
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise SingularDesignError(
            f"design spans rank {rank} < {a.shape[1]}; cannot invert"
        )
    return ReconstructedChannel(linear_map=solution.T, shots_per_input=int(shots_per_input))


# ---------------------------------------------------------------------------
# the (1->1) distance and the decision
# ---------------------------------------------------------------------------

def _superop_dim(superop: np.ndarray) -> int:
    if superop.shape[0] != superop.shape[1]:
        raise DimMismatchError(f"superoperator must be square, got {superop.shape}")
    d = math.isqrt(superop.shape[0])
    if d == 0 or d * d != superop.shape[0]:
        raise DimMismatchError(f"superoperator side {superop.shape[0]} is not a positive square")
    return d


def _hermitian_choi(lmap: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix C[(i,a),(j,b)] of the Hermitian part of the map, input index first."""
    choi = _choi_reshuffle(lmap, d, d)
    return (choi + choi.conj().T) / 2.0


def _hermitian_image(lmap: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hermitian part of the map applied to each matrix of the batch x."""
    k, d, _ = x.shape
    y = (lmap @ x.reshape(k, d * d).T).T.reshape(k, d, d)
    return (y + y.conj().transpose(0, 2, 1)) / 2.0


def _second_order_model(lmap, psi, lam, vec, m):
    """Gradient and Hessian of each start's objective in real tangent coordinates.

    At psi the objective is f = sum |lambda| of A = H(Phi(psi psi*)) = V diag(lambda) V*,
    with S = V sign(lambda) V* and M = H(Phi^dagger(S)). The coordinates c are
    taken along xi_k, the n = 2(d - 1) vectors q_j and i q_j for q_j an
    orthonormal basis of psi's complement, and the state moves by the
    retraction psi(c) = (psi + sum c_k xi_k) / ||...||. To second order,
    f(psi(c)) = f + g.c + c.H c / 2, with

        g_k  = 2 Re(psi* M xi_k),
        H_kl = 2 Re(xi_l* M xi_k) + sum_{i != j} w_ij Re(E_k,ij conj(E_l,ij)) - 2 f delta_kl,

    E_k = V* H(Phi(xi_k psi* + psi xi_k*)) V and w_ij = (s_i - s_j) / (lambda_i - lambda_j),
    0 where the signs s agree: the second derivative of the trace norm
    (the divided differences of sign, Bhatia, Matrix Analysis, 1997, ch. V).
    Returns xi (k, d, n), g (k, n) and H (k, n, n).
    """
    k, d = psi.shape
    # eigenvalue 0 for psi, 1 for its complement
    q = np.linalg.eigh(np.eye(d) - psi[:, :, None] * psi.conj()[:, None, :])[1][:, :, 1:]
    xi = np.concatenate([q, 1j * q], axis=2)
    n = xi.shape[2]
    cross = xi.transpose(0, 2, 1)[:, :, :, None] * psi.conj()[:, None, None, :]
    e = _hermitian_image(lmap, (cross + cross.conj().transpose(0, 1, 3, 2)).reshape(k * n, d, d))
    e = vec.conj().transpose(0, 2, 1)[:, None] @ e.reshape(k, n, d, d) @ vec[:, None]
    s = np.sign(lam)
    gap = lam[:, :, None] - lam[:, None, :]
    jump = s[:, :, None] - s[:, None, :]
    w = np.divide(jump, gap, out=np.zeros_like(gap), where=jump != 0)
    g = 2.0 * np.einsum("kan,kab,kb->kn", xi.conj(), m, psi).real
    hess = (
        2.0 * np.einsum("kan,kab,kbl->knl", xi.conj(), m, xi).real
        + np.einsum("knij,kij,klij->knl", e, w, e.conj()).real
        - 2.0 * np.abs(lam).sum(axis=1)[:, None, None] * np.eye(n)
    )
    return xi, g, hess


def one_to_one_norm(superop) -> float:
    """max over pure states of ||Phi(|psi><psi|)||_tr for Hermiticity-preserving Phi.

    Extrapolated alternating maximization from 8 deterministic Haar starts,
    finished by saddle-free Newton steps. Each round picks the optimal
    trace-norm observable S = sign(Phi(psi psi*)) and then psi', the best
    state for S, which is the top eigenvector of the pulled-back observable.
    With psi' phased so that <psi|psi'> >= 0, the ascent step is the best of
    psi + beta (psi' - psi), normalized, over beta in {1, 2, 4}; beta = 1 is
    the plain alternating step, so the objective is nondecreasing, and the
    longer steps cut the rounds the plain step needs where it converges
    slowly. The ascent alone still converges sublinearly on some maps, so
    from round _NORM_NEWTON_AFTER = 15 on each start also takes Riemannian
    Newton candidates (Absil, Mahony & Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008, ch. 6) from the second-order model of
    _second_order_model. The Hessian's eigenvalues are replaced by their
    absolute values, floored at 1e-3 of the largest, so that the step
    ascends and is not drawn to saddle points (saddle-free Newton, Dauphin
    et al., arXiv:1406.2572). The candidates are 1, 1/4 and 1/16 times that
    step, since the model can hold only close to psi where the objective is
    a near-constant plus a small eigenvalue. A start takes its best Newton
    candidate if the objective rises there and the ascent step otherwise,
    so the objective stays nondecreasing. Iteration stops when the start
    with the largest objective is first-order stationary within 1e-8,
    whether or not the others are. The returned value is the largest
    objective over all starts at the last iterate, floored at
    ||Phi(I/d)||_tr, which the maximum always dominates. Reaching the
    150-round cap first (both kinds of round count) keeps the objective at
    the last iterate and issues an IterationCapWarning naming the best
    start's stationarity residual, so the warning means that start itself
    did not converge.

    The value is attained by a state, so it is a lower bound on the norm:
    a distance above a threshold is a sound reject. verify certifies an
    accept with the upper bound of _choi_bound.
    """
    lmap = as_matrix(superop)
    d = _superop_dim(lmap)

    eye_vec = (np.eye(d, dtype=complex) / d).reshape(-1)
    floor = trace_norm((lmap @ eye_vec).reshape(d, d))

    rng = RngStream(seed=_NORM_SEED)
    psi = rng.haar_states(_NORM_STARTS, d)
    starts = np.arange(len(psi))
    adjoint = lmap.conj().T
    lam, vec = np.linalg.eigh(_hermitian_image(lmap, psi[:, :, None] * psi.conj()[:, None, :]))

    for rounds in range(_NORM_MAX_ITERS):
        m = _hermitian_image(adjoint, HermitianEigensystem(lam, vec).map(np.sign))

        grad = np.einsum("kab,kb->ka", m, psi)
        rayleigh = np.einsum("ka,ka->k", psi.conj(), grad).real
        resid = np.linalg.norm(grad - rayleigh[:, None] * psi, axis=1)
        value = np.abs(lam).sum(axis=1)
        best = np.argmax(value)
        if resid[best] <= _NORM_TOL:
            break
        top = np.linalg.eigh(m)[1][:, :, -1]
        top *= np.exp(-1j * np.angle(np.einsum("ka,ka->k", psi.conj(), top)))[:, None]
        # (start, beta) candidates; each has norm >= 1, as <psi|psi'> >= 0
        cand = psi[:, None, :] + _NORM_STEPS[:, None] * (top - psi)[:, None, :]
        newton = rounds >= _NORM_NEWTON_AFTER
        if newton:
            xi, g, hess = _second_order_model(lmap, psi, lam, vec, m)
            h, u = np.linalg.eigh(hess)
            # |H|^-1 g; a start whose H is 0 (its image is 0, so g = 0 too) stays put
            scale = np.maximum(np.abs(h), 1e-3 * np.abs(h).max(axis=1, keepdims=True))
            proj = np.einsum("knl,kn->kl", u, g)
            proj = np.divide(proj, scale, out=np.zeros_like(proj), where=scale > 0)
            move = np.einsum("kan,knl,kl->ka", xi, u, proj)[:, None, :]
            # then the (start, damping) Newton candidates, also of norm >= 1
            cand = np.concatenate([cand, psi[:, None, :] + _NORM_NEWTON_DAMPING[:, None] * move], axis=1)
        cand = (cand / np.linalg.norm(cand, axis=2, keepdims=True)).reshape(-1, d)
        lam_c, vec_c = np.linalg.eigh(_hermitian_image(lmap, cand[:, :, None] * cand.conj()[:, None, :]))
        value_c = np.abs(lam_c).sum(axis=1).reshape(len(psi), -1)
        pick = np.argmax(value_c[:, : len(_NORM_STEPS)], axis=1)
        if newton:
            # a start takes its best Newton candidate if the objective rises there
            damped = len(_NORM_STEPS) + np.argmax(value_c[:, len(_NORM_STEPS) :], axis=1)
            pick = np.where(value_c[starts, damped] > value, damped, pick)
        pick += starts * value_c.shape[1]
        psi, lam, vec = cand[pick], lam_c[pick], vec_c[pick]
    else:
        # iteration cap: only the objective at the last iterate is left
        warnings.warn(
            f"one_to_one_norm hit its {_NORM_MAX_ITERS}-iteration cap; best start's stationarity "
            f"residual {resid[best]:.3g} > {_NORM_TOL:g}", IterationCapWarning, stacklevel=2)

    values = np.abs(lam).sum(axis=1)
    return float(max(values.max(), floor))


def _choi_bound(superop) -> float:
    """U = lambda_max(Tr_out |J|) >= ||Phi||_{1->1}, J the Choi matrix of Phi's Hermitian part.

    With J = P - N split into positive and negative parts, Phi's Hermitian
    part is the difference of two completely positive maps, so for a state
    rho ||Phi(rho)||_tr <= tr(rho^T Tr_out(P + N)) <= U: the Choi-matrix
    bound on the completely bounded trace norm (Watrous, The Theory of
    Quantum Information, 2018, ch. 3). J puts the input index first, so
    the output trace is the einsum "iaja->ij"; tracing out the input
    instead gives no bound.
    """
    lmap = as_matrix(superop)
    d = _superop_dim(lmap)
    absolute = HermitianEigensystem(*np.linalg.eigh(_hermitian_choi(lmap, d))).map(np.abs)
    return float(np.linalg.eigvalsh(np.einsum("iaja->ij", absolute.reshape(d, d, d, d)))[-1])


def _herm_coords(a: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian d x d matrices, shape (..., d*d).

    The diagonal, then the real parts and then the imaginary parts of the
    upper triangle in row-major order.
    """
    d = a.shape[-1]
    j, k = np.triu_indices(d, 1)
    diag = np.arange(d)
    return np.concatenate([a[..., diag, diag].real, a[..., j, k].real, a[..., j, k].imag], axis=-1)


def _herm_from_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of _herm_coords: (..., d*d) real coordinates to matrices."""
    j, k = np.triu_indices(d, 1)
    diag = np.arange(d)
    upper = x[..., d : d + len(j)] + 1j * x[..., d + len(j) :]
    a = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    a[..., diag, diag] = x[..., :d]
    a[..., j, k] = upper
    a[..., k, j] = upper.conj()
    return a


def _herm3_trace_norm(x: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| of Hermitian 3x3 matrices given as (9, n) coordinates.

    Trigonometric solution of the characteristic cubic of the traceless
    part B = A - qI (Smith, CACM 4(4) 1961; Kopp, arXiv:physics/0610206),
    with B's eigenvalues q-shifted to 2p cos(phi + 2 pi k / 3). The angle
    is taken as atan2(sin 3phi, cos 3phi) rather than arccos(cos 3phi):
    near a double eigenvalue arccos loses half the digits, which for a
    pair straddling zero (rank-1 inputs) is an error of about 1e-8 in the
    trace norm. sin 3phi comes from C = B^2 - (tr B^2 / 3) I - (3 det B /
    tr B^2) B, the part of B^2 orthogonal to I and B, formed entry by entry:
    ||C||_F |B|_F / 3 = 2p^3 sin 3phi, with no cancellation near degeneracy.
    The sum is the best of the four monotone sign patterns of the sorted
    eigenvalues, so only the largest and the smallest are formed.
    """
    d0, d1, d2, r01, r02, r12, i01, i02, i12 = x
    q = (d0 + d1 + d2) / 3.0
    a0 = d0 - q
    a1 = d1 - q
    a2 = d2 - q
    n01 = r01 * r01 + i01 * i01
    n02 = r02 * r02 + i02 * i02
    n12 = r12 * r12 + i12 * i12
    # diagonal of B^2 and its trace, 6 p^2
    s00 = a0 * a0 + n01 + n02
    s11 = a1 * a1 + n01 + n12
    s22 = a2 * a2 + n02 + n12
    s2 = s00 + s11 + s22
    det = (
        a0 * a1 * a2
        + 2.0 * ((r01 * r12 - i01 * i12) * r02 + (r01 * i12 + i01 * r12) * i02)
        - a0 * n12
        - a1 * n02
        - a2 * n01
    )
    # the floor only reaches rows whose det has underflowed to 0, where k = 0
    k = 3.0 * det / np.maximum(s2, np.finfo(float).tiny)
    m = s2 / 3.0
    # off-diagonal of B^2 uses a_i + a_j = -a_l
    c2 = (
        (s00 - m - k * a0) ** 2
        + (s11 - m - k * a1) ** 2
        + (s22 - m - k * a2) ** 2
        + 2.0
        * (
            (r02 * r12 + i02 * i12 - (a2 + k) * r01) ** 2
            + (i02 * r12 - r02 * i12 - (a2 + k) * i01) ** 2
            + (r01 * r12 - i01 * i12 - (a1 + k) * r02) ** 2
            + (r01 * i12 + i01 * r12 - (a1 + k) * i02) ** 2
            + (r01 * r02 + i01 * i02 - (a0 + k) * r12) ** 2
            + (r01 * i02 - i01 * r02 - (a0 + k) * i12) ** 2
        )
    )
    phi = np.arctan2(np.sqrt(s2 * c2) / 3.0, det) / 3.0
    two_p = np.sqrt(s2 * (2.0 / 3.0))
    top = two_p * np.cos(phi)
    bottom = two_p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.maximum(np.abs(3.0 * q), np.maximum(2.0 * top - q, q - 2.0 * bottom))


_ORACLE_SEED = 0xB07E57A7E5
_ORACLE_CHUNK = 1 << 14
# one map: about 7 s at 0.22 us per d = 3 identity probe, with the kernel on
# every probe (2-core x86 VM, numpy 2.4.6, one BLAS thread). The limit was set
# at 20 s for 0.63 us per probe, and it stays, so no request changes whether
# it is accepted
_ORACLE_MAX_SAMPLES = 31 * 10**6
# a request's cost in evaluations of one d = 3 map on one probe (a matmul
# column, a bound and a trace norm, about 0.11 us): drawing a probe and
# forming its coordinates costs about 0.9 (0.10 us) and is still charged 3, so
# no request changes whether it is accepted, and setting up a map costs about
# 1000
_ORACLE_DRAW_COST = 3
_ORACLE_MAP_COST = 1000


def _oracle_cost(samples: int, maps: int, d: int) -> int:
    # a padded qubit probe costs less than a qutrit one (0.14-0.15 against
    # 0.22 us per identity probe, draw included). d > 3 has no closed form:
    # the batched eigvalsh took at most 0.2 d^2 us per probe for 4 <= d <= 16
    # (identity maps, so no probe skipped it; one BLAS thread), charged with a
    # 1.5x margin as 2 d^2 evaluations, and d^3 / 4 takes over past d = 8 for
    # eigvalsh's O(d^3)
    per_eval = 1 if d <= 3 else max(2 * d * d, d**3 // 4)
    return samples * (maps * per_eval + _ORACLE_DRAW_COST) + maps * _ORACLE_MAP_COST


def _herm_trace_norm(x: np.ndarray, d: int) -> np.ndarray:
    """Sum of |eigenvalues| of Hermitian d x d matrices given as (d*d, n) coordinates."""
    if d < 3:
        # A is the qutrit matrix A + 0 (direct sum), whose added eigenvalues are
        # 0; its diagonal and (0, 1) entry fill qutrit coordinates 0, 1, 3 and 6
        padded = [0.0] * 9
        for slot, row in zip((0, 1, 3, 6), x):
            padded[slot] = row
        x = padded
    if d <= 3:
        return _herm3_trace_norm(x)
    return np.abs(np.linalg.eigvalsh(_herm_from_coords(x.T, d))).sum(axis=1)


def _probe_coords(planes: tuple[np.ndarray, np.ndarray], probes: np.ndarray, scratch: np.ndarray) -> None:
    """Write the coordinates of |psi><psi| into probes, one probe per column.

    planes are psi's real and imaginary parts, each (d, n) as haar_rays
    returns them, and probes and scratch are (d*d, n); scratch's rows are
    clobbered. Each coordinate is one product of real and imaginary parts
    plus or minus another, rounded in that order (see _herm_coords).
    """
    re, im = planes
    d = len(re)
    np.multiply(re, re, out=probes[:d])
    np.multiply(im, im, out=scratch[:d])
    probes[:d] += scratch[:d]
    # the pairs (j, j+1..d-1) are consecutive in the upper triangle's row-major order
    row, half = d, d * (d - 1) // 2
    for j in range(d - 1):
        width = d - 1 - j
        real, imag, tmp = probes[row : row + width], probes[row + half : row + half + width], scratch[:width]
        np.multiply(re[j], re[j + 1 :], out=real)
        np.multiply(im[j], im[j + 1 :], out=tmp)
        real += tmp
        np.multiply(im[j], re[j + 1 :], out=imag)
        np.multiply(re[j], im[j + 1 :], out=tmp)
        imag -= tmp
        row += width


def _map_stack(superop) -> np.ndarray:
    """superop as a finite complex array: one 2-D map, or a nonempty stack of maps of one shape."""
    try:
        maps = np.asarray(superop, dtype=complex)
    except ValueError as exc:
        raise DimMismatchError(f"maps do not stack into one array: {exc}") from None
    if maps.ndim not in (2, 3) or maps.size == 0:
        raise DimMismatchError(
            f"expected a d^2 x d^2 map or a nonempty (k, d^2, d^2) stack, got shape {maps.shape}"
        )
    if not np.all(np.isfinite(maps)):
        raise MetriqError("matrix entries must be finite")
    return maps


def sampled_one_to_one(
    superop, samples: int = 1_000_000, seed: int = _ORACLE_SEED
) -> float | np.ndarray:
    """Brute-force statistical lower estimate of the (1->1) norm.

    Takes the max of ||Phi(|psi><psi|)||_tr over the Haar-random rays
    RngStream(seed).haar_rays(samples, d); a ray is all the norm needs, not
    psi's global phase. Converges to the true norm from below as samples
    grow; used to cross-validate the iterative estimator, not to replace it.

    superop is one d^2 x d^2 map, which returns a float, or a (k, d^2, d^2)
    stack of maps, which returns an array of k maxima, each equal to the
    value of its map alone (np.linalg's stacking convention). Every map sees
    the same probes, and each chunk of them is drawn once for the stack.

    The trace norm only sees the Hermitian part of Phi(|psi><psi|), which is
    real-linear in |psi><psi|. So the work is done in real arithmetic on
    d*d coordinates (see _herm_coords): Phi, followed by taking the
    Hermitian part, becomes one real d^2 x d^2 matrix per map, each chunk of
    probes is one real matmul per map, and for d <= 3 the trace norm comes
    from the qutrit closed form on the coordinates. A chunk holds
    min(_ORACLE_CHUNK, 9 _ORACLE_CHUNK / d^2) probes, so each buffer stays
    near 1 MB at every d. haar_rays returns each chunk as contiguous real
    and imaginary planes, and the coordinates and the matmul go into two
    (d^2, chunk) buffers allocated once per call; each value is rounded as
    in the expression form. A ray's slots do not depend on the chunk, so
    neither do the maxima. A probe whose bound
    sqrt(d) ||A||_F on the trace norm cannot beat its map's running maximum
    skips the trace-norm kernel, which leaves every maximum as it would be
    with the kernel run on every probe.

    A request may cost no more than one d = 3 map with _ORACLE_MAX_SAMPLES
    = 3.1e7 probes (see _oracle_cost), at most about 10 s whatever k and d
    are; criterion 8's 120 maps at 1e6 probes fit. For d > 3 each probe on
    each map costs more, so fewer are accepted. A larger request raises
    MetriqError before any probe is drawn.
    """
    maps = _map_stack(superop)
    stack = maps.reshape((-1,) + maps.shape[-2:])
    d = _superop_dim(stack[0])
    samples = _require_shot_count(samples, "samples")
    cost, budget = _oracle_cost(samples, len(stack), d), _oracle_cost(_ORACLE_MAX_SAMPLES, 1, 3)
    if cost > budget:
        raise MetriqError(
            f"{samples} samples on {len(stack)} maps exceed the budget: they cost {cost} map "
            f"evaluations, over the {budget} of {_ORACLE_MAX_SAMPLES} samples on one map"
        )
    basis = _herm_from_coords(np.eye(d * d), d)
    # row i holds the coordinates of the Hermitian part of Phi(basis_i)
    herm_maps = [_herm_coords(_hermitian_image(lmap, basis)) for lmap in stack]
    rng = RngStream(seed=seed)
    chunk = min(_ORACLE_CHUNK, 9 * _ORACLE_CHUNK // (d * d))
    # one set of buffers per call: fresh ones per chunk would page-fault
    probe_buf, out_buf = np.empty((2, d * d * chunk))
    best = np.zeros(len(stack))
    done = 0
    while done < samples:
        count = min(chunk, samples - done)
        planes = rng.haar_rays(count, d, start=(2 * d - 1) * done)
        # contiguous (d*d, count) views, as a fresh array of that shape would be
        probes = probe_buf[: d * d * count].reshape(d * d, count)
        out = out_buf[: d * d * count].reshape(d * d, count)
        _probe_coords(planes, probes, out)
        for i, herm_map in enumerate(herm_maps):
            np.matmul(herm_map.T, probes, out=out)
            # ||A||_tr <= sqrt(d) ||A||_F, where off-diagonal coordinates count
            # twice; the margin is far above the kernels' relative rounding of
            # about 1e-12, so no skipped probe could win
            diag, off = out[:d], out[d:]
            frob2 = np.einsum("ij,ij->j", diag, diag) + 2.0 * np.einsum("ij,ij->j", off, off)
            live = np.flatnonzero(np.sqrt(d * frob2) * (1.0 + 1e-9) >= best[i])
            if len(live):
                # no copy when every probe is live, as in the first chunk
                live_out = out[:, live] if len(live) < count else out
                best[i] = max(best[i], _herm_trace_norm(live_out, d).max())
        done += count
    return float(best[0]) if maps.ndim == 2 else best


def threshold(eta: MetricOperator) -> float:
    """(lambda_1 - lambda_2)/3 for a qubit metric with distinct eigenvalues."""
    if eta.dim != 2:
        raise DimMismatchError(f"threshold is defined for qubit metrics, got dim {eta.dim}")
    lam = eta.eig.eigenvalues
    gap = float(lam[-1] - lam[0])
    if gap <= 1e-10:
        raise DegenerateMetricError(
            f"metric eigenvalue gap {gap:.3e} too small; the game is undecidable"
        )
    return gap / 3.0


def embedded_metric_channel(eta: MetricOperator) -> KrausChannel:
    """The verification target: Kraus operator eta^{1/2} + 0 on the qutrit."""
    if eta.dim != 2:
        raise DimMismatchError(f"expected a qubit metric, got dim {eta.dim}")
    _require_subidentity(eta)
    return kraus_channel([embed(eta.sqrt())])


@dataclass(frozen=True, eq=False)
class VerificationReport:
    distance: float
    threshold: float
    verdict: str
    eta_eigenvalues: tuple


def verify(eta: MetricOperator, recon: ReconstructedChannel) -> VerificationReport:
    """Compare the reconstruction to the target channel and decide.

    The distance is one_to_one_norm's lower estimate, so a reject is sound.
    An accept is certified when the Choi bound, an upper bound on the
    norm, is within the threshold too; an accept it does not certify stays
    an accept and issues an UncertifiedAcceptWarning.
    """
    th = threshold(eta)
    target = superoperator(embedded_metric_channel(eta))
    if recon.linear_map.shape != target.shape:
        raise DimMismatchError(
            f"reconstruction shape {recon.linear_map.shape} != {target.shape}"
        )
    phi = target - recon.linear_map
    distance = one_to_one_norm(phi)
    if distance <= th:
        bound = _choi_bound(phi)
        if bound > th:
            warnings.warn(
                f"accept at distance {distance:.6g} is not certified: the Choi bound {bound:.6g} "
                f"exceeds the threshold {th:.6g}", UncertifiedAcceptWarning, stacklevel=2)
    lam = eta.eig.eigenvalues
    return VerificationReport(
        distance=distance,
        threshold=th,
        verdict="accept" if distance <= th else "reject",
        eta_eigenvalues=(float(lam[-1]), float(lam[0])),
    )

