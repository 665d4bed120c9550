"""Shot-based simulation of the postselected procedures.

Both procedures run the actual dilation machinery once to obtain the exact
per-copy success probabilities and the (deterministic) post-measurement
state, then spend random numbers only on each success's count of discarded
copies and, for a response with several branches, on each success's branch.
The success ratio ||eta|| * N / total_copies_used is the procedure's estimator
of the channel's trace; the returned state carries no sampling error.

Random-number accounting is per success: the success probability p is
known exactly (for PT, the product of its two independent gates), so
success j draws its count of discarded copies by inversion from counter
slot j, floor(log1p(-u_j) / log1p(-p)) (Devroye, Non-Uniform Random
Variate Generation, 1986, ch. X). A response with several branches reads a
second slot, n + j, for success j's branch. No other module draws. The work
is O(N) whatever p is, and totals are identical across reruns and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import g_kappa_eta_inv
from .dilation import _project, build_dilation, embed, normalize_metric
from .errors import MetricExceedsIdentityError, MetriqError
from .hilbert import MetricOperator, validate_density, validate_metric
from .linalg import matrix_exp_hermitian_generator
from .ptsym import PtSystem, analytic_pt_evolution
from .rng import RngStream

_MAX_SUCCESSES = 10**9  # per stream: about 20 s at about 20 ns per slot
_BLOCK = 1 << 20  # slots per draw; bounds memory, never changes a result


@dataclass(frozen=True, eq=False)
class SimulationRecord:
    """Outcome of one simulated run.

    output_state_estimate is the embedded qutrit state (qubit block plus an
    explicit zero third row/column), normalized to unit trace.
    """

    requested_successes: int
    total_copies_used: int
    success_ratio: float
    output_state_estimate: np.ndarray
    seed: int


def _require_shot_count(n, what: str = "requested successes") -> int:
    """n as an int: a Python or numpy integer, or an integral finite float such as 1e5."""
    integral = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    real = isinstance(n, (float, np.floating)) and math.isfinite(n) and float(n).is_integer()
    if not (integral or real):
        raise MetriqError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise MetriqError(f"{what} must be >= 1, got {n!r}")
    return int(n)


def _uniform_blocks(rng: RngStream, count: int, start: int = 0):
    """Uniforms for slots [start, start + count), yielded in blocks of at most _BLOCK."""
    for lo in range(0, count, _BLOCK):
        yield rng.uniforms(min(_BLOCK, count - lo), start=start + lo)


def _attempts_for_successes(rng: RngStream, p: float, n: int) -> int:
    """Copies used until n successes at per-copy success probability p.

    The budget is checked before any draw. A uniform is at most 1 - 2^-53,
    so each failure count is at most 36.74/p and a total that passes the
    check fits in int64.
    """
    if not p > 0.0:
        raise MetriqError("success probability vanished")
    if n > _MAX_SUCCESSES:
        raise MetriqError(f"{n} successes exceed the budget of {_MAX_SUCCESSES} per stream")
    if n * (1.0 + 37.0 / p) >= 2.0**63:
        raise MetriqError(
            f"{n} successes at success probability {p:.3g} could need more than 2^63 copies"
        )
    if p >= 1.0:
        return n
    log_q = np.log1p(-p)
    total = n
    for u in _uniform_blocks(rng, n):
        # the ratio is nonnegative, so truncation is the floor
        total += int((np.log1p(-u) / log_q).astype(np.int64).sum())
    return total


def _sampled_ratio(rng: RngStream, p: float, n: int, scale: float) -> tuple[int, float]:
    """(copies, scale * n / copies): n successes at success probability p estimate scale * p."""
    copies = _attempts_for_successes(rng, p, n)
    return copies, scale * n / copies


def _branch_counts(rng: RngStream, q, n: int) -> np.ndarray:
    """Successes per branch q_k / sum(q) from slots n + j; one branch reads no slot."""
    if len(q) == 1:
        return np.array([n], dtype=np.int64)
    cond = np.cumsum(q) / float(np.sum(q))
    counts = np.zeros(len(q), dtype=np.int64)
    for u in _uniform_blocks(rng, n, start=n):
        idx = np.minimum(np.searchsorted(cond, u, side="right"), len(q) - 1)
        counts += np.bincount(idx, minlength=len(q))
    return counts


def _gate(eta: MetricOperator, rho) -> tuple[np.ndarray, float, float]:
    """(rho's normalized output state, the success probability, ||eta||) of eta's dilation."""
    eta_tilde, scale = normalize_metric(eta)
    block, prob = _project(build_dilation(eta_tilde), embed(rho))
    return block / prob, prob, scale


def simulate_g_eta(eta: MetricOperator, rho, n: int, rng: RngStream) -> SimulationRecord:
    """Simulate the dilate-and-postselect realization of the metric channel.

    Each attempt embeds a fresh copy of rho, applies the dilation unitary of
    eta/||eta||, and postselects on the qubit block; the block trace is the
    per-copy success probability. Runs until n successes.
    """
    n = _require_shot_count(n)
    if not eta.subidentity:
        raise MetricExceedsIdentityError(
            f"metric norm {eta.norm:.12g} > 1 cannot be realized as a channel"
        )
    rho = validate_density(rho, dim=2, min_trace=1e-12)
    state, prob, scale = _gate(eta, rho)
    total, ratio = _sampled_ratio(rng, min(prob, 1.0), n, scale)
    return SimulationRecord(
        requested_successes=n,
        total_copies_used=total,
        success_ratio=ratio,
        output_state_estimate=embed(state),
        seed=rng.seed,
    )


def simulate_pt(sys: PtSystem, rho, t: float, n: int, rng: RngStream) -> SimulationRecord:
    """Simulate the full PT evolution: metric gate, Hermitian unitary, reversal gate.

    Per attempt (one fresh copy): postselect with the eta2 dilation; on
    success apply the deterministic embedded unitary e^{-i(h+0)t}; then
    postselect with the kappa*eta2^{-1} dilation. A failure at either gate
    discards the copy and restarts, so total_copies_used counts first-gate
    attempts. The intermediate unitary consumes no copies and no randomness.
    """
    n = _require_shot_count(n)
    rho = validate_density(rho, dim=2, min_trace=1e-12)
    state2, p2, scale_fwd = _gate(sys.eta2, rho)
    v = matrix_exp_hermitian_generator(sys.h_pt_hermitian, t)
    eta_rev = validate_metric(g_kappa_eta_inv(sys.eta2)[0] * sys.eta2_inv.matrix)
    state4, p4, scale_rev = _gate(eta_rev, v @ state2 @ v.conj().T)

    total, ratio = _sampled_ratio(rng, min(p2, 1.0) * min(p4, 1.0), n, scale_fwd * scale_rev)
    return SimulationRecord(
        requested_successes=n,
        total_copies_used=total,
        success_ratio=ratio,
        output_state_estimate=embed(state4),
        seed=rng.seed,
    )


def chained_success_probability(sys: PtSystem, rho, t: float) -> float:
    """kappa * tr(U rho U^dagger): the per-copy success probability of simulate_pt."""
    return analytic_pt_evolution(sys, rho, t)[1]

