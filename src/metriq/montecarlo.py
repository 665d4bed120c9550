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
second slot, n + j, for success j's branch. _draw reads every one of these
slots, after one budget check, and no other module draws. The work is O(N)
whatever p is, and totals are identical across reruns and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import _project, build_dilation, embed, normalize_metric
from .errors import MetriqError
from .hilbert import MetricOperator, _require_subidentity, validate_density
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


def _draw(rng: RngStream, q, n: int, scale: float) -> tuple[int, float, np.ndarray]:
    """(copies, scale * n / copies, successes per branch) for n successes over branches q.

    Branch k succeeds with per-copy probability q_k, so p = sum(q) and the
    ratio estimates scale * p. Success j reads slot j for its discarded
    copies and, with several branches, slot n + j for its branch, which is
    the number of edges cumsum(q)[:-1] / p at or below that slot's uniform.
    The budget is checked before any slot is read. A uniform is at most
    1 - 2^-53, so each failure count is at most 36.74/p and a count of
    copies that passes the check fits in int64.
    """
    p = float(np.sum(q)) if len(q) > 1 else float(q[0])
    if not p > 0.0:
        raise MetriqError("success probability vanished")
    if n > _MAX_SUCCESSES:
        raise MetriqError(f"{n} successes exceed the budget of {_MAX_SUCCESSES} per stream")
    if n * (1.0 + 37.0 / p) >= 2.0**63:
        raise MetriqError(
            f"{n} successes at success probability {p:.3g} could need more than 2^63 copies"
        )
    # below[k] counts the branch uniforms below edge k; one branch has no edge
    copies, below = n, [0] * (len(q) - 1)
    edges = np.cumsum(q)[:-1] / p if below else ()
    log_q = np.log1p(-p) if p < 1.0 else None
    for lo in range(0, n, _BLOCK):
        count = min(_BLOCK, n - lo)
        if log_q is not None:
            # naming u measured 10% faster at 1e5 slots; del keeps one block alive
            u = rng.uniforms(count, start=lo)
            # the ratio is nonnegative, so truncation is the floor
            copies += int((np.log1p(-u) / log_q).astype(np.int64).sum())
            del u
        if below:
            u = rng.uniforms(count, start=n + lo)
            below = [b + np.count_nonzero(u < edge) for b, edge in zip(below, edges)]
    return copies, scale * n / copies, np.array([*below, n]) - [0, *below]


def _gate(eta: MetricOperator, rho) -> tuple[np.ndarray, float, float]:
    """(rho's normalized output state, the success probability, ||eta||) of eta's dilation."""
    eta_tilde, scale = normalize_metric(eta)
    block, prob = _project(build_dilation(eta_tilde), embed(rho))
    return block / prob, prob, scale


def _record(rng: RngStream, p: float, n: int, scale: float, state) -> SimulationRecord:
    """Draw n successes at success probability p and record them with their exact state."""
    total, ratio, _ = _draw(rng, [p], n, scale)
    return SimulationRecord(
        requested_successes=n,
        total_copies_used=total,
        success_ratio=ratio,
        output_state_estimate=embed(state),
        seed=rng.seed,
    )


def simulate_g_eta(eta: MetricOperator, rho, n: int, rng: RngStream) -> SimulationRecord:
    """Simulate the dilate-and-postselect realization of the metric channel.

    Each attempt embeds a fresh copy of rho, applies the dilation unitary of
    eta/||eta||, and postselects on the qubit block; the block trace is the
    per-copy success probability. Runs until n successes.
    """
    n = _require_shot_count(n)
    _require_subidentity(eta)
    rho = validate_density(rho, dim=2, min_trace=1e-12)
    state, prob, scale = _gate(eta, rho)
    return _record(rng, min(prob, 1.0), n, scale, state)


def simulate_pt(sys: PtSystem, rho, t: float, n: int, rng: RngStream) -> SimulationRecord:
    """Simulate the full PT evolution: metric gate, Hermitian unitary, reversal gate.

    Per attempt (one fresh copy): postselect with the eta2 dilation; on
    success apply the deterministic embedded unitary e^{-i(h+0)t}; then
    postselect with the dilation of eta2^{-1}, whose normalized metric
    eta2^{-1}/||eta2^{-1}|| is kappa*eta2^{-1}. That metric has norm 1 by
    construction, so the gate adds no ratio scale. A failure at either gate discards
    the copy and restarts, so total_copies_used counts first-gate attempts.
    The intermediate unitary consumes no copies and no randomness.
    """
    n = _require_shot_count(n)
    rho = validate_density(rho, dim=2, min_trace=1e-12)
    state2, p2, scale = _gate(sys.eta2, rho)
    v = matrix_exp_hermitian_generator(sys.h_pt_hermitian, t)
    state4, p4, _ = _gate(sys.eta2_inv, v @ state2 @ v.conj().T)
    return _record(rng, min(p2, 1.0) * min(p4, 1.0), n, scale, state4)


def chained_success_probability(sys: PtSystem, rho, t: float) -> float:
    """kappa * tr(U rho U^dagger): the per-copy success probability of simulate_pt."""
    return analytic_pt_evolution(sys, rho, t)[1]

