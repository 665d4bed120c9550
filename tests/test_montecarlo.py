"""Tests for the shot-based simulations: determinism, estimators, copy accounting."""

import ast
import math
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriq import montecarlo
from metriq.channels import apply, g_eta, g_kappa_eta_inv
from metriq.dilation import embed
from metriq.errors import (
    InvalidDensityOperatorError,
    MetricExceedsIdentityError,
    MetriqError,
)
from metriq.hilbert import validate_metric
from metriq.linalg import trace_norm
from metriq.montecarlo import (
    SimulationRecord,
    _draw,
    chained_success_probability,
    simulate_g_eta,
    simulate_pt,
)
from metriq.ptsym import PtHamiltonian, analytic_pt_evolution, build_pt_system, u_pt
from metriq.rng import RngStream

ETA2 = validate_metric(np.array([[0.8, -0.2j], [0.2j, 0.8]]))
RHO0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
# not shot counts: each must raise a MetriqError that names it
BAD_SHOT_COUNTS = (2.7, True, np.bool_(True), "10", float("nan"), float("inf"), None)


def reference_system():
    return build_pt_system(PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6))


def assert_record_invariants(rec: SimulationRecord):
    assert rec.total_copies_used >= rec.requested_successes
    assert 0.0 < rec.success_ratio <= 1.0 + 1e-12
    state = rec.output_state_estimate
    assert state.shape == (3, 3)
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh((state + state.conj().T) / 2.0)) >= -1e-12


# ---------------------------------------------------------------------------
# single-gate procedure
# ---------------------------------------------------------------------------

def test_g_eta_identity_metric_never_fails():
    rec = simulate_g_eta(validate_metric(np.eye(2)), RHO0, 1000, RngStream(seed=1))
    assert rec.total_copies_used == 1000
    assert rec.success_ratio == 1.0
    assert np.max(np.abs(rec.output_state_estimate - embed(RHO0))) <= 1e-14
    assert_record_invariants(rec)


def test_g_eta_determinism_bit_identical():
    a = simulate_g_eta(ETA2, RHO0, 20000, RngStream(seed=7))
    b = simulate_g_eta(ETA2, RHO0, 20000, RngStream(seed=7))
    assert a.total_copies_used == b.total_copies_used
    assert a.success_ratio == b.success_ratio
    assert np.array_equal(a.output_state_estimate, b.output_state_estimate)
    c = simulate_g_eta(ETA2, RHO0, 20000, RngStream(seed=8))
    assert c.total_copies_used != a.total_copies_used


def test_g_eta_ratio_within_4_sigma():
    rec = simulate_g_eta(ETA2, RHO0, 10000, RngStream(seed=70))
    sigma = math.sqrt(0.8 * 0.2 / rec.total_copies_used)
    assert abs(rec.success_ratio - 0.8) <= 4.0 * sigma
    assert_record_invariants(rec)


def test_g_eta_diagonal_example():
    eta = validate_metric(np.diag([1.0, 0.25]))
    rho = np.array([[0.0, 0.0], [0.0, 1.0]])
    rec = simulate_g_eta(eta, rho, 10000, RngStream(seed=71))
    sigma = math.sqrt(0.25 * 0.75 / rec.total_copies_used)
    assert abs(rec.success_ratio - 0.25) <= 4.0 * sigma


def test_g_eta_subnormalized_input():
    rec = simulate_g_eta(validate_metric(np.eye(2)), RHO0 / 2.0, 5000, RngStream(seed=72))
    sigma = math.sqrt(0.5 * 0.5 / rec.total_copies_used)
    assert abs(rec.success_ratio - 0.5) <= 4.0 * sigma
    # the returned state is renormalized
    assert np.trace(rec.output_state_estimate).real == pytest.approx(1.0, abs=1e-12)


def test_g_eta_state_estimate_is_exact_channel_output():
    # only the ratio is statistical; the state must match the channel exactly
    for seed in (3, 4, 5):
        rec = simulate_g_eta(ETA2, RHO0, 100, RngStream(seed=seed))
        target = apply(g_eta(ETA2), RHO0)
        target = embed(target / np.trace(target).real)
        assert np.max(np.abs(rec.output_state_estimate - target)) <= 1e-12


def test_g_eta_input_validation():
    with pytest.raises(MetricExceedsIdentityError):
        simulate_g_eta(validate_metric(np.diag([2.0, 1.0])), RHO0, 10, RngStream(seed=1))
    with pytest.raises(InvalidDensityOperatorError):
        simulate_g_eta(ETA2, np.diag([1.0, 1.0]), 10, RngStream(seed=1))
    with pytest.raises(InvalidDensityOperatorError):
        simulate_g_eta(ETA2, np.zeros((2, 2)), 10, RngStream(seed=1))
    with pytest.raises(MetriqError):
        simulate_g_eta(ETA2, RHO0, 0, RngStream(seed=1))
    for bad in BAD_SHOT_COUNTS:
        with pytest.raises(MetriqError, match=re.escape(repr(bad))):
            simulate_g_eta(ETA2, RHO0, bad, RngStream(seed=1))
    for good in (np.int64(10), 10.0, np.float32(1e1)):
        rec = simulate_g_eta(ETA2, RHO0, good, RngStream(seed=1))
        assert type(rec.requested_successes) is int and rec.requested_successes == 10


# ---------------------------------------------------------------------------
# chained PT procedure
# ---------------------------------------------------------------------------

def test_pt_t0_reference_point():
    sys = reference_system()
    rec = simulate_pt(sys, RHO0, 0.0, 10000, RngStream(seed=80))
    sigma = math.sqrt(0.6 * 0.4 / rec.total_copies_used)
    assert abs(rec.success_ratio - 0.6) <= 4.0 * sigma
    assert np.max(np.abs(rec.output_state_estimate - embed(RHO0))) <= 1e-12
    assert_record_invariants(rec)


def test_pt_hermitian_limit_consumes_exactly_n():
    sys = build_pt_system(PtHamiltonian(r=0.0, s=1.5, phi=0.0))
    t = 2.0
    rec = simulate_pt(sys, RHO0, t, 2000, RngStream(seed=81))
    # both gates are trivial at kappa = 1: no copy is ever discarded,
    # and the intermediate unitary consumes none either
    assert rec.total_copies_used == 2000
    assert rec.success_ratio == 1.0
    u = u_pt(sys, t)
    assert np.max(np.abs(rec.output_state_estimate - embed(u @ RHO0 @ u.conj().T))) <= 1e-12


def test_pt_state_matches_analytic_evolution():
    sys = reference_system()
    for t in (0.5, 1.0, 5.0):
        rec = simulate_pt(sys, RHO0, t, 1000, RngStream(seed=82))
        state, _ = analytic_pt_evolution(sys, RHO0, t)
        dist = 0.5 * trace_norm(rec.output_state_estimate - embed(state))
        assert dist <= 1e-12
        assert_record_invariants(rec)


def test_pt_ratio_targets_chained_probability():
    sys = reference_system()
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    for t in (1.0, 3.0):
        p = chained_success_probability(sys, rho, t)
        rec = simulate_pt(sys, rho, t, 20000, RngStream(seed=83))
        sigma = math.sqrt(p * (1.0 - p) / rec.total_copies_used)
        assert abs(rec.success_ratio - p) <= 4.0 * sigma


def test_pt_determinism():
    sys = reference_system()
    a = simulate_pt(sys, RHO0, 1.0, 5000, RngStream(seed=84))
    b = simulate_pt(sys, RHO0, 1.0, 5000, RngStream(seed=84))
    assert a.total_copies_used == b.total_copies_used
    assert np.array_equal(a.output_state_estimate, b.output_state_estimate)


def test_pt_input_validation():
    sys = reference_system()
    with pytest.raises(InvalidDensityOperatorError):
        simulate_pt(sys, np.diag([0.5, 0.5, 0.0]), 1.0, 10, RngStream(seed=1))
    with pytest.raises(MetriqError):
        simulate_pt(sys, RHO0, 1.0, -5, RngStream(seed=1))
    for bad in BAD_SHOT_COUNTS:
        with pytest.raises(MetriqError, match=re.escape(repr(bad))):
            simulate_pt(sys, RHO0, 1.0, bad, RngStream(seed=1))
    rec = simulate_pt(sys, RHO0, 1.0, 1e5, RngStream(seed=1))
    assert type(rec.requested_successes) is int and rec.requested_successes == 100_000
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(MetriqError, match="time must be finite"):
            simulate_pt(sys, RHO0, t, 10, RngStream(seed=1))


def test_gate_checks_no_state_twice():
    # callers validate their states once; the dilation gate must not check them again
    from metriq import dilation
    from metriq.tomography import default_design, honest_prover, run_prover

    validate = dilation.validate_density
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    with mock.patch.object(dilation, "validate_density", counted):
        simulate_g_eta(ETA2, RHO0, 100, RngStream(seed=1))
        simulate_pt(reference_system(), RHO0, 1.0, 100, RngStream(seed=1))
        for exact in (True, False):
            run_prover(honest_prover(), ETA2, default_design(), 100, RngStream(seed=1), exact=exact)
        assert calls == []
        dilation.postselect(dilation.build_dilation(dilation.normalize_metric(ETA2)[0]), embed(RHO0))
        assert calls == [1]


# ---------------------------------------------------------------------------
# estimator consistency over seeds
# ---------------------------------------------------------------------------

def test_pooled_estimator_consistency_both_procedures():
    sys = reference_system()
    n = 10000

    ratios = []
    totals = 0
    for seed in range(20):
        rec = simulate_g_eta(ETA2, RHO0, n, RngStream(seed=2000 + seed))
        ratios.append(rec.success_ratio)
        totals += rec.total_copies_used
    pooled_sigma = math.sqrt(0.8 * 0.2 / totals)
    assert abs(np.mean(ratios) - 0.8) <= 4.0 * pooled_sigma

    p = chained_success_probability(sys, RHO0, 1.0)
    ratios = []
    totals = 0
    for seed in range(20):
        rec = simulate_pt(sys, RHO0, 1.0, n, RngStream(seed=3000 + seed))
        ratios.append(rec.success_ratio)
        totals += rec.total_copies_used
    pooled_sigma = math.sqrt(p * (1.0 - p) / totals)
    assert abs(np.mean(ratios) - p) <= 4.0 * pooled_sigma


def test_chained_probability_decomposes_into_step_probabilities():
    sys = reference_system()
    rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    for t in (0.0, 1.0, 2.5):
        chained = chained_success_probability(sys, rho, t)
        u = u_pt(sys, t)
        step2 = np.trace(sys.eta2.sqrt() @ rho @ sys.eta2.sqrt()).real
        norm_inv = 1.0 / sys.kappa
        step4 = np.trace(u @ rho @ u.conj().T).real / (norm_inv * step2)
        assert chained == pytest.approx(step2 * step4, abs=1e-12)
        assert chained == pytest.approx(
            sys.kappa * np.trace(u @ rho @ u.conj().T).real, abs=1e-14
        )


# ---------------------------------------------------------------------------
# the geometric-gap sampler and its budget
# ---------------------------------------------------------------------------

def reference_attempts(rng, p, n):
    """One-shot vectorized draw of the same slots, with an explicit floor."""
    gaps = np.floor(np.log1p(-rng.uniforms(n)) / np.log1p(-p)).astype(np.int64)
    return n + int(gaps.sum())


class NoDraws:
    """A stream stand-in that fails the test if any slot is read."""

    def uniforms(self, count, start=0):
        raise AssertionError("a slot was read")


class NoBranchSlots:
    """A stream whose copy slots [0, n) are RngStream(seed)'s; reading a branch slot fails."""

    def __init__(self, seed, n):
        self.rng, self.n = RngStream(seed=seed), n

    def uniforms(self, count, start=0):
        if start + count > self.n:
            raise AssertionError("a branch slot was read")
        return self.rng.uniforms(count, start=start)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1e-12, 1.0), n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
def test_sampler_properties(p, n, seed):
    # one branch: every success is its own, and no branch slot is read
    total, ratio, counts = _draw(NoBranchSlots(seed, n), [p], n, 2.0)
    assert total >= n
    assert ratio == 2.0 * n / total
    assert counts.tolist() == [n]
    assert _draw(RngStream(seed=seed), [p], n, 2.0)[:2] == (total, ratio)
    assert _draw(NoDraws(), [1.0], n, 2.0)[:2] == (n, 2.0)
    # each success owns its slot, so a small block reproduces the one-shot draw
    with mock.patch.object(montecarlo, "_BLOCK", 7):
        assert _draw(RngStream(seed=seed), [p], n, 2.0)[:2] == (total, ratio)
    if p < 1.0:
        assert total == reference_attempts(RngStream(seed=seed), p, n)


def test_sampler_across_a_block_boundary():
    n = montecarlo._BLOCK + 3
    for p in (0.3, 1e-9):
        got, _, _ = _draw(RngStream(seed=5), [p], n, 1.0)
        assert got == reference_attempts(RngStream(seed=5), p, n)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1e-300, 1.0), over=st.integers(0, 10**6))
def test_sampler_budget_raises_before_any_draw(p, over):
    # one branch, and a mixture whose branch slots are refused by the same check
    for q in ([p], [p / 2.0, p / 2.0]):
        with pytest.raises(MetriqError, match="budget"):
            _draw(NoDraws(), q, montecarlo._MAX_SUCCESSES + 1 + over, 1.0)
        # the smallest count whose worst case could overflow int64
        n = math.ceil(2.0**63 / (1.0 + 37.0 / p)) + over
        if 1 <= n <= montecarlo._MAX_SUCCESSES:
            with pytest.raises(MetriqError, match="2\\^63"):
                _draw(NoDraws(), q, n, 1.0)


class LargestUniform:
    """A stream stand-in whose every slot holds the largest uniform, 1 - 2^-53."""

    def uniforms(self, count, start=0):
        return np.full(count, 1.0 - 2.0**-53)


def test_sampler_worst_case_inside_the_budget_fits_int64():
    p = 1e-12
    worst = math.floor(math.log1p(-(1.0 - 2.0**-53)) / math.log1p(-p))
    assert worst <= 37.0 / p
    # the largest count that passes the overflow check, every draw at its maximum
    n = math.ceil(2.0**63 / (1.0 + 37.0 / p)) - 1
    total, _, _ = _draw(LargestUniform(), [p], n, 1.0)
    assert total == n + n * worst
    assert total < 2**63


def test_sampler_rejects_vanishing_probability():
    for q in ([0.0], [-0.5], [float("nan")], [0.0, 0.0]):
        with pytest.raises(MetriqError, match="vanished"):
            _draw(NoDraws(), q, 10, 1.0)


def test_sampler_mean_total_is_n_over_p():
    n, p, runs = 50, 0.01, 200
    totals = [_draw(RngStream(seed=seed), [p], n, 1.0)[0] for seed in range(runs)]
    # a total is n plus n geometric failure counts of variance (1 - p)/p^2
    sigma = math.sqrt(n * (1.0 - p) / p**2 / runs)
    assert abs(np.mean(totals) - n / p) <= 5.0 * sigma


def reference_branch_counts(rng, q, n):
    """One-shot searchsorted draw of slots n .. 2n - 1."""
    cond = np.cumsum(q) / np.sum(q)
    idx = np.minimum(np.searchsorted(cond, rng.uniforms(n, start=n), side="right"), len(q) - 1)
    return np.bincount(idx, minlength=len(q))


@settings(max_examples=100, deadline=None)
@given(q=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=2, max_size=5)
       .filter(lambda q: sum(q) > 0.0),
       n=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
# zero-probability branches at either end and in the middle give equal edges
@example(q=[0.0, 0.5], n=50, seed=1)
@example(q=[0.5, 0.0], n=50, seed=2)
@example(q=[0.2, 0.0, 0.0, 0.3], n=50, seed=3)
def test_branch_counts_properties(q, n, seed):
    copies, _, counts = _draw(RngStream(seed=seed), q, n, 1.0)
    assert counts.sum() == n
    assert np.array_equal(counts, reference_branch_counts(RngStream(seed=seed), q, n))
    assert counts[np.asarray(q) == 0.0].sum() == 0
    # the branch draw leaves the copy slots as a one-branch draw reads them
    assert copies == _draw(RngStream(seed=seed), [sum(q)], n, 1.0)[0]
    with mock.patch.object(montecarlo, "_BLOCK", 7):
        assert np.array_equal(_draw(RngStream(seed=seed), q, n, 1.0)[2], counts)


def test_branch_counts_across_a_block_boundary():
    n = montecarlo._BLOCK + 3
    q = [0.1, 0.25, 0.05]
    _, _, counts = _draw(RngStream(seed=6), q, n, 1.0)
    assert counts.sum() == n
    assert np.array_equal(counts, reference_branch_counts(RngStream(seed=6), q, n))


def test_only_rng_and_montecarlo_draw_uniforms():
    """Successes are drawn in one place: no other module reads uniforms."""
    drawers = set()
    for path in pathlib.Path(montecarlo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "uniforms":
                drawers.add(path.stem)
    assert drawers == {"rng", "montecarlo"}


def test_only_draw_reads_sampler_slots():
    """Every copy and branch slot is read by one function, after its one budget check."""
    readers = set()
    for fn in ast.walk(ast.parse(pathlib.Path(montecarlo.__file__).read_text(encoding="utf-8"))):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "uniforms":
                    readers.add(fn.name)
    assert readers == {"_draw"}


def test_near_singular_metric_finishes():
    eta = validate_metric(np.diag([1.0, 1e-9]))
    rho = np.diag([0.0, 1.0]).astype(complex)
    rec = simulate_g_eta(eta, rho, 2000, RngStream(seed=1))
    sigma = math.sqrt((1.0 - 1e-9) / 2000)
    assert abs(rec.success_ratio / 1e-9 - 1.0) <= 5.0 * sigma



# ---------------------------------------------------------------------------
# the PT reversal gate
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.01, 10.0), phi=st.floats(0.01, math.pi / 2), gap=st.floats(-6.0, 1.0),
       seed=st.integers(0, 2**32))
@example(r=1.0, phi=math.pi / 6, gap=-6.0, seed=0)
@example(r=3.0, phi=math.pi / 2, gap=-6.0, seed=1)
def test_reversal_gate_on_eta2_inv_is_the_kappa_eta_inv_channel(r, phi, gap, seed):
    # eta2^{-1}/||eta2^{-1}|| = kappa * eta2^{-1}, so the gate on eta2_inv is the
    # Kraus operator sqrt(kappa) eta2^{-1/2}, up to s within 1e-6 of r sin(phi)
    s = r * math.sin(phi) + 10.0**gap
    sys = build_pt_system(PtHamiltonian(r=r, s=s, phi=phi))
    psi = RngStream(seed=seed).haar_states(1, 2)[0]
    rho = np.outer(psi, psi.conj())
    state, prob, scale = montecarlo._gate(sys.eta2_inv, rho)
    kappa, reversal = g_kappa_eta_inv(sys.eta2)
    block = apply(reversal, rho)
    assert np.max(np.abs(prob * state - block)) <= 1e-12
    assert abs(prob - np.trace(block).real) <= 1e-12
    assert scale == sys.eta2_inv.norm
