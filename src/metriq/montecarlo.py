"""Shot-based simulation of the postselected procedures.

Both procedures run the actual dilation machinery once to obtain the exact
per-copy success probabilities and the (deterministic) post-measurement
state, then spend random numbers only on the accept/reject coin flips. The
success ratio ||eta|| * N / total_copies_used is the procedure's estimator
of the channel's trace; the returned state carries no sampling error.

Random-number accounting is per attempt: attempt i of the single-gate
procedure reads counter slot i, attempt i of the two-gate PT procedure
reads slots 2i and 2i+1 (the second slot is reserved even when the first
gate already failed). Totals are therefore independent of the internal
chunk size and identical across reruns and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import g_kappa_eta_inv
from .dilation import build_dilation, embed, normalize_metric, postselect
from .errors import MetricExceedsIdentityError, MetriqError
from .hilbert import MetricOperator, validate_density, validate_metric
from .linalg import matrix_exp_hermitian_generator
from .ptsym import PtSystem, u_pt
from .rng import RngStream

_CHUNK = 1 << 16


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


def _require_shot_count(n) -> int:
    n = int(n)
    if n < 1:
        raise MetriqError(f"requested successes must be >= 1, got {n}")
    return n


def _attempts_for_successes(rng: RngStream, accept, n_target: int, slots_per: int) -> int:
    """Count attempts until n_target accepted, reading slots_per slots per attempt.

    accept maps a (slots_per, k)-shaped uniform block to a boolean hit mask
    of length k. Slot layout is fixed per attempt, so the result does not
    depend on _CHUNK.
    """
    total = 0
    succ = 0
    base = 0
    while succ < n_target:
        u = rng.uniforms(slots_per * _CHUNK, start=slots_per * base)
        hits = accept(u.reshape(_CHUNK, slots_per).T)
        need = n_target - succ
        count = int(hits.sum())
        if count >= need:
            cum = np.cumsum(hits)
            idx = int(np.searchsorted(cum, need))
            return total + idx + 1
        succ += count
        total += _CHUNK
        base += _CHUNK


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
    eta_tilde, scale = normalize_metric(eta)
    dil = build_dilation(eta_tilde)
    block, prob = postselect(dil, embed(rho))
    if prob <= 0.0:
        raise MetriqError("postselection probability vanished")
    p_hit = min(prob, 1.0)

    total = _attempts_for_successes(rng, lambda u: u[0] < p_hit, n, slots_per=1)
    return SimulationRecord(
        requested_successes=n,
        total_copies_used=total,
        success_ratio=scale * n / total,
        output_state_estimate=embed(block / prob),
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

    eta_fwd, scale_fwd = normalize_metric(sys.eta2)
    dil_fwd = build_dilation(eta_fwd)
    block2, p2 = postselect(dil_fwd, embed(rho))
    state2 = block2 / p2

    v = matrix_exp_hermitian_generator(sys.h_pt_hermitian, t)
    state3 = v @ state2 @ v.conj().T

    kappa, _ = g_kappa_eta_inv(sys.eta2)
    eta_rev_raw = validate_metric(kappa * sys.eta2_inv.matrix)
    eta_rev, scale_rev = normalize_metric(eta_rev_raw)
    dil_rev = build_dilation(eta_rev)
    block4, p4 = postselect(dil_rev, embed(state3))

    p_first = min(p2, 1.0)
    p_second = min(p4, 1.0)
    total = _attempts_for_successes(
        rng, lambda u: (u[0] < p_first) & (u[1] < p_second), n, slots_per=2
    )
    return SimulationRecord(
        requested_successes=n,
        total_copies_used=total,
        success_ratio=scale_fwd * scale_rev * n / total,
        output_state_estimate=embed(block4 / p4),
        seed=rng.seed,
    )


def chained_success_probability(sys: PtSystem, rho, t: float) -> float:
    """kappa * tr(U rho U^dagger): the per-copy success probability of simulate_pt."""
    rho = validate_density(rho, dim=2, min_trace=1e-12)
    u = u_pt(sys, t)
    return sys.kappa * float(np.trace(u @ rho @ u.conj().T).real)


def summary(record: SimulationRecord, analytic_prob: float) -> dict:
    """The CSV-facing view: ratio next to its analytic target."""
    return {
        "seed": record.seed,
        "N": record.requested_successes,
        "total_copies": record.total_copies_used,
        "success_ratio": record.success_ratio,
        "analytic_prob": float(analytic_prob),
        "abs_error": abs(record.success_ratio - float(analytic_prob)),
    }
