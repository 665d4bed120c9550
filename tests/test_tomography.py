"""Tests for the verification game: designs, provers, reconstruction, decision."""

import hashlib
import math
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq.channels import kraus_channel, superoperator
from metriq.dilation import build_dilation, embed, normalize_metric, postselect
from metriq.errors import (
    DegenerateMetricError,
    DimMismatchError,
    InvalidDensityOperatorError,
    IterationCapWarning,
    MetricExceedsIdentityError,
    MetriqError,
    SingularDesignError,
    UncertifiedAcceptWarning,
)
from metriq.hilbert import validate_metric
from metriq.linalg import hermitian_eig, trace_norm
from metriq.rng import RngStream
from metriq import tomography
from metriq.tomography import (
    ReconstructedChannel,
    TomographyDesign,
    _choi_bound,
    _herm3_trace_norm,
    _herm_coords,
    _herm_trace_norm,
    _hermitian_choi,
    _hermitian_image,
    default_design,
    dishonest_prover,
    embedded_metric_channel,
    honest_prover,
    one_to_one_norm,
    reconstruct,
    run_prover,
    sampled_one_to_one,
    threshold,
    verify,
)
from test_acceptance import acceptance_metric, acceptance_prover

ETA2 = np.array([[0.8, -0.2j], [0.2j, 0.8]])

# exact success ratios of the honest prover on the default design under ETA2,
# in design order: tr(eta * P sigma P) for each input
HONEST_RATIOS_ETA2 = [0.8, 0.8, 0.0, 0.8, 0.4, 0.4, 1.0, 0.4, 0.4]


def make_metric(seed, lo=0.05, hi=1.0):
    """Random qubit metric with norm <= 1 and a nondegenerate spectrum."""
    rng = RngStream(seed=seed)
    u = rng.haar_unitary(2)
    lam1 = float(lo + (hi - lo) * rng.uniforms(1, start=8)[0])
    lam2 = float(lam1 * (0.1 + 0.75 * rng.uniforms(1, start=9)[0]))
    mat = (u * np.array([lam2, lam1])) @ u.conj().T
    return validate_metric((mat + mat.conj().T) / 2)


def random_prover(seed, n_terms=None):
    rng = RngStream(seed=seed)
    if n_terms is None:
        n_terms = 1 + int(rng.words(1, start=777)[0] % 3)
    mats = [rng.haar_unitary(2, start=100 * j) for j in range(n_terms)]
    weights = rng.uniforms(n_terms, start=900) + 1e-3
    discard = float(0.99 * rng.uniforms(1, start=950)[0])
    probs = (1.0 - discard) * weights / weights.sum()
    return dishonest_prover(mats, probs), discard


# ---------------------------------------------------------------------------
# input design
# ---------------------------------------------------------------------------

def test_default_design_inputs_are_pure_unit_trace():
    design = default_design()
    assert len(design.input_states) == 9
    for sigma in design.input_states:
        assert sigma.shape == (3, 3)
        assert abs(np.trace(sigma) - 1.0) < 1e-14
        eig = hermitian_eig(sigma)
        assert eig.eigenvalues[0] > -1e-14
        # rank one
        assert abs(eig.eigenvalues[-1] - 1.0) < 1e-14


def test_default_design_spans_operator_space():
    design = default_design()
    stacked = np.stack([s.reshape(-1) for s in design.input_states])
    assert np.linalg.matrix_rank(stacked) == 9


def test_design_refuses_invalid_states_when_built():
    good = tuple(default_design().input_states[:8])
    for bad in (np.eye(2) / 2, np.diag([1.0, -0.1, 0.1]), np.eye(3) / 2):
        with pytest.raises(InvalidDensityOperatorError):
            TomographyDesign(input_states=(*good, bad), description="one bad state")


def test_default_design_is_built_once_and_read_only():
    design = default_design()
    assert default_design() is design
    with pytest.raises(ValueError, match="read-only"):
        design.input_states[0][0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        design.input_states[...] = 0.0


# ---------------------------------------------------------------------------
# prover models
# ---------------------------------------------------------------------------

def test_honest_prover_shape():
    model = honest_prover()
    assert model.kind == "honest"
    assert model.unitaries == ()


def test_dishonest_prover_accepts_partial_discard():
    model = dishonest_prover([np.eye(2)], [0.6])
    assert model.kind == "dishonest"
    assert model.probs == (0.6,)


def test_dishonest_prover_rejections():
    eye = np.eye(2)
    with pytest.raises(MetriqError):
        dishonest_prover([], [])
    with pytest.raises(MetriqError):
        dishonest_prover([eye], [0.5, 0.5])
    with pytest.raises(DimMismatchError):
        dishonest_prover([np.eye(3)], [1.0])
    with pytest.raises(MetriqError):
        dishonest_prover([np.array([[1.0, 0.1], [0.0, 1.0]])], [1.0])
    with pytest.raises(MetriqError):
        dishonest_prover([eye, eye], [0.7, -0.1])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(MetriqError, match="finite"):
            dishonest_prover([eye], [bad])
    with pytest.raises(MetriqError):
        dishonest_prover([eye], [0.0])
    with pytest.raises(MetriqError):
        dishonest_prover([eye, eye], [0.6, 0.6])
    # exactly one is allowed
    dishonest_prover([eye, eye], [0.4, 0.6])


# ---------------------------------------------------------------------------
# honest responses
# ---------------------------------------------------------------------------

def test_honest_exact_ratios_match_metric_weights():
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    got = [r for r, _ in responses]
    assert np.allclose(got, HONEST_RATIOS_ETA2, atol=1e-12)
    for sigma, (ratio, _) in zip(design.input_states, responses):
        expected = float(np.trace(ETA2 @ sigma[:2, :2]).real)
        assert abs(ratio - expected) < 1e-12


def test_honest_exact_states_are_embedded_channel_outputs():
    eta = validate_metric(ETA2)
    design = default_design()
    root = eta.sqrt()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    for sigma, (ratio, state) in zip(design.input_states, responses):
        if ratio == 0.0:
            assert np.array_equal(state, np.zeros((3, 3)))
            continue
        y = root @ sigma[:2, :2] @ root
        assert np.max(np.abs(state - embed(y / np.trace(y).real))) < 1e-12
        assert abs(np.trace(state) - 1.0) < 1e-12


def test_honest_identity_metric_finite_run():
    """With eta = 1 the response is the projected input itself.

    Inputs supported on the qubit block succeed on every copy; the state
    estimate is exact because the channel is trivial there.
    """
    eta = validate_metric(np.eye(2))
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 500, RngStream(seed=11))
    qubit_supported = [0, 1, 3, 6]
    for i in qubit_supported:
        ratio, state = responses[i]
        assert ratio == 1.0
        assert np.max(np.abs(state - design.input_states[i])) < 1e-12
    # the all-|2> input never reaches the qubit block
    ratio2, state2 = responses[2]
    assert ratio2 == 0.0
    assert np.array_equal(state2, np.zeros((3, 3)))
    # half-supported inputs succeed on about half the copies
    for i in [4, 5, 7, 8]:
        ratio, state = responses[i]
        assert abs(ratio - 0.5) < 0.07
        block = design.input_states[i][:2, :2]
        assert np.max(np.abs(state - embed(block / np.trace(block).real))) < 1e-12


def test_honest_finite_ratio_concentrates():
    eta = validate_metric(ETA2)
    design = default_design()
    n = 20000
    responses = run_prover(honest_prover(), eta, design, n, RngStream(seed=5))
    ratio, _ = responses[0]
    sigma = 0.8 * math.sqrt(0.2 / n)
    assert abs(ratio - 0.8) < 4 * sigma


# ---------------------------------------------------------------------------
# dishonest responses
# ---------------------------------------------------------------------------

def test_dishonest_exact_identity_mixture():
    model = dishonest_prover([np.eye(2)], [0.5])
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(model, eta, design, 10, RngStream(seed=0), exact=True)
    for sigma, (ratio, state) in zip(design.input_states, responses):
        assert abs(ratio - 0.5) < 1e-15
        assert np.max(np.abs(state - sigma)) < 1e-12


def test_dishonest_exact_matches_mixture_formula():
    rng = RngStream(seed=31)
    mats = [rng.haar_unitary(2, start=0), rng.haar_unitary(2, start=50)]
    probs = [0.3, 0.45]
    model = dishonest_prover(mats, probs)
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(model, eta, design, 10, RngStream(seed=0), exact=True)
    for sigma, (ratio, state) in zip(design.input_states, responses):
        mix = np.zeros((3, 3), dtype=complex)
        for p, u in zip(probs, mats):
            w = np.eye(3, dtype=complex)
            w[:2, :2] = u
            mix += p * (w.conj().T @ sigma @ w)
        assert abs(ratio - np.trace(mix).real) < 1e-12
        assert np.max(np.abs(state - mix / np.trace(mix).real)) < 1e-12


def test_dishonest_finite_single_term():
    model = dishonest_prover([np.eye(2)], [0.6])
    eta = validate_metric(ETA2)
    design = default_design()
    n = 5000
    responses = run_prover(model, eta, design, n, RngStream(seed=17))
    sigma_ratio = 0.6 * math.sqrt(0.4 / n)
    for sigma, (ratio, state) in zip(design.input_states, responses):
        assert abs(ratio - 0.6) < 4 * sigma_ratio
        # one term only: the empirical state is the term itself
        assert np.max(np.abs(state - sigma)) < 1e-12
    again = run_prover(model, eta, design, n, RngStream(seed=17))
    for (r1, s1), (r2, s2) in zip(responses, again):
        assert r1 == r2
        assert np.array_equal(s1, s2)


def test_dishonest_finite_two_terms_is_count_mixture():
    rng = RngStream(seed=43)
    mats = [rng.haar_unitary(2, start=0), rng.haar_unitary(2, start=50)]
    probs = np.array([0.5, 0.25])
    model = dishonest_prover(mats, probs)
    eta = validate_metric(ETA2)
    design = default_design()
    n = 8000
    responses = run_prover(model, eta, design, n, RngStream(seed=3))
    terms = []
    for u in mats:
        w = np.eye(3, dtype=complex)
        w[:2, :2] = u
        terms.append(w.conj().T @ design.input_states[0] @ w)
    ratio, state = responses[0]
    assert abs(np.trace(state).real - 1.0) < 1e-12
    # recover the empirical weights by projecting onto the two terms
    basis = np.stack([t.reshape(-1) for t in terms]).T
    weights, *_ = np.linalg.lstsq(basis, state.reshape(-1), rcond=None)
    weights = weights.real
    expect = probs / probs.sum()
    sigma_w = math.sqrt(expect[0] * expect[1] / n)
    assert abs(weights[0] - expect[0]) < 5 * sigma_w
    assert abs(weights.sum() - 1.0) < 1e-10


def test_dishonest_finite_never_discarding_uses_exactly_n():
    rng = RngStream(seed=47)
    model = dishonest_prover([rng.haar_unitary(2, start=0), np.eye(2)], [0.25, 0.75])
    responses = run_prover(model, validate_metric(ETA2), default_design(), 400, RngStream(seed=9))
    for ratio, state in responses:
        assert ratio == 1.0
        assert abs(np.trace(state).real - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# one response path
# ---------------------------------------------------------------------------

def test_exact_response_is_the_branch_expectation():
    """s * sum q and sum q_j rho_j / sum q, branches built outside the module."""
    eta = validate_metric(ETA2)
    design = default_design()
    eta_tilde, norm = normalize_metric(eta)
    dil = build_dilation(eta_tilde)
    rng = RngStream(seed=53)
    mats = [rng.haar_unitary(2, start=0), rng.haar_unitary(2, start=50), np.eye(2)]
    probs = [0.2, 0.35, 0.1]
    models = (honest_prover(), dishonest_prover(mats, probs))
    for model in models:
        responses = run_prover(model, eta, design, 0, RngStream(seed=0), exact=True)
        for sigma, (ratio, state) in zip(design.input_states, responses):
            if model.kind == "honest":
                if np.trace(sigma[:2, :2]).real == 0.0:
                    continue
                block, prob = postselect(dil, embed(sigma[:2, :2]))
                q, states, scale = [prob], [embed(block / prob)], norm
            else:
                ws = [np.eye(3, dtype=complex) for _ in mats]
                for w, u in zip(ws, mats):
                    w[:2, :2] = u
                q, states, scale = probs, [w.conj().T @ sigma @ w for w in ws], 1.0
            assert abs(ratio - scale * sum(q)) < 1e-15
            expect = sum(qj * rj for qj, rj in zip(q, states)) / sum(q)
            assert np.max(np.abs(state - expect)) < 1e-15


def test_one_branch_sampled_state_is_the_exact_state():
    eta = make_metric(61)
    design = default_design()
    rng = RngStream(seed=62)
    for model in (honest_prover(), dishonest_prover([rng.haar_unitary(2)], [0.4])):
        exact = run_prover(model, eta, design, 0, RngStream(seed=0), exact=True)
        sampled = run_prover(model, eta, design, 300, RngStream(seed=7))
        for (_, s_exact), (_, s_sampled) in zip(exact, sampled):
            assert np.array_equal(s_exact, s_sampled)


def prover_bytes_digest():
    """SHA-256 over every ratio and state of honest and 1-, 2- and 3-unitary games."""
    rng = RngStream(seed=67)
    mats = [rng.haar_unitary(2, start=100 * j) for j in range(3)]
    models = (
        honest_prover(),
        dishonest_prover(mats[:1], [0.7]),
        dishonest_prover(mats[:2], [0.25, 0.5]),
        dishonest_prover(mats, [0.3, 0.0, 0.45]),
    )
    digest = hashlib.sha256()
    for eta in (validate_metric(ETA2), acceptance_metric(5003)):
        for k, model in enumerate(models):
            for n, exact in ((0, True), (1, False), (1000, False), (8193, False)):
                rng = RngStream(seed=n + 1, stream_id=k)
                for ratio, state in run_prover(model, eta, default_design(), n, rng, exact=exact):
                    digest.update(np.array([ratio], dtype="<f8").tobytes())
                    digest.update(np.asarray(state, dtype="<c16").tobytes())
    return digest.hexdigest()


def test_prover_bytes_are_pinned():
    # computed on the one-input-at-a-time games that the batched game replaced;
    # only a new sampler may change it
    assert prover_bytes_digest() == "f58e3fbd4fcc708dae9aa14a2195325ac58052c72927fa75a2be9e93ec5529a3"


# ---------------------------------------------------------------------------
# run_prover plumbing
# ---------------------------------------------------------------------------

def test_run_prover_validates_metric():
    design = default_design()
    with pytest.raises(DimMismatchError):
        run_prover(honest_prover(), validate_metric(np.eye(3)), design, 10, RngStream(seed=0))
    big = validate_metric(1.2 * np.eye(2))
    with pytest.raises(MetricExceedsIdentityError):
        run_prover(honest_prover(), big, design, 10, RngStream(seed=0))


def test_run_prover_rejects_too_few_shots():
    eta = validate_metric(ETA2)
    design = default_design()
    for model in (honest_prover(), dishonest_prover([np.eye(2)], [0.6])):
        for n in (0, -1):
            with pytest.raises(MetriqError, match="successes"):
                run_prover(model, eta, design, n, RngStream(seed=0))
        for bad in (2.7, True, "10", float("nan"), float("inf")):
            with pytest.raises(MetriqError, match=re.escape(repr(bad))):
                run_prover(model, eta, design, bad, RngStream(seed=0))
        # an integral float plays the same game as the integer
        by_float = run_prover(model, eta, design, 1e3, RngStream(seed=0))
        by_int = run_prover(model, eta, design, np.int64(1000), RngStream(seed=0))
        assert [r for r, _ in by_float] == [r for r, _ in by_int]


def test_run_prover_plays_every_game_on_the_calling_thread(monkeypatch):
    """METRIQ_THREADS is not read: no thread starts, and the bytes match a game played without it."""
    def no_thread(self):
        raise AssertionError("run_prover started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    eta = validate_metric(ETA2)
    design = default_design()
    mixture = dishonest_prover([np.eye(2), np.array([[0, 1], [1, 0]])], [0.5, 0.3])
    games = [(honest_prover(), 300, False), (mixture, 300, False), (honest_prover(), 0, True)]

    def play():
        return [run_prover(model, eta, design, n, RngStream(seed=9), exact=exact)
                for model, n, exact in games]

    monkeypatch.delenv("METRIQ_THREADS", raising=False)
    unset = play()
    monkeypatch.setenv("METRIQ_THREADS", "3")
    for base, game in zip(unset, play()):
        assert len(game) == len(base) == 9
        for (r1, s1), (r2, s2) in zip(base, game):
            assert np.float64(r1).tobytes() == np.float64(r2).tobytes()
            assert s1.tobytes() == s2.tobytes()


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_identity_channel():
    design = default_design()
    responses = [(1.0, s) for s in design.input_states]
    recon = reconstruct(responses, design)
    assert np.max(np.abs(recon.linear_map - np.eye(9))) < 1e-10
    v = np.eye(3, dtype=complex).reshape(-1)
    assert np.max(np.abs(recon.choi.matrix - np.outer(v, v.conj()))) < 1e-10


def test_reconstruct_exact_honest_matches_target():
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    recon = reconstruct(responses, design, shots_per_input=0)
    target = superoperator(embedded_metric_channel(eta))
    assert np.max(np.abs(recon.linear_map - target)) < 1e-12
    # the recovered map reproduces the channel on states outside the design
    rng = RngStream(seed=77)
    kraus = embed(eta.sqrt())
    for i in range(10):
        psi = rng.haar_states(1, 3, start=6 * i)[0]
        rho = np.outer(psi, psi.conj())
        via_map = (recon.linear_map @ rho.reshape(-1)).reshape(3, 3)
        direct = kraus @ rho @ kraus.conj().T
        assert np.max(np.abs(via_map - direct)) < 1e-12


def test_reconstruct_choi_of_honest_target():
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    recon = reconstruct(responses, design)
    choi = recon.choi.matrix
    assert abs(np.trace(choi).real - 1.6) < 1e-12
    eig = hermitian_eig(choi)
    assert eig.eigenvalues[0] > -1e-12
    assert sum(1 for lam in eig.eigenvalues if lam > 1e-10) == 1


def test_reconstruct_builds_choi_on_first_read():
    eta = validate_metric(ETA2)
    design = default_design()
    recon = reconstruct(run_prover(honest_prover(), eta, design, 0, RngStream(seed=0), exact=True), design)
    assert "choi" not in vars(recon)
    assert recon.choi is recon.choi


def test_reconstruct_response_count_mismatch():
    design = default_design()
    with pytest.raises(MetriqError):
        reconstruct([(1.0, np.eye(3) / 3)] * 8, design)


def test_reconstruct_singular_design():
    state = default_design().input_states[0]
    bad = TomographyDesign(input_states=(state,) * 9, description="degenerate")
    with pytest.raises(SingularDesignError):
        reconstruct([(1.0, state)] * 9, bad)


def test_reconstruct_clips_choi_but_keeps_raw_map():
    """Transpose responses give a valid linear map with a non-PSD reshuffle."""
    design = default_design()
    responses = [(1.0, s.T.copy()) for s in design.input_states]
    recon = reconstruct(responses, design)
    rng = RngStream(seed=21)
    x = rng.normals(18, start=0).reshape(3, 6)
    x = x[:, :3] + 1j * x[:, 3:]
    via_map = (recon.linear_map @ x.reshape(-1)).reshape(3, 3)
    assert np.max(np.abs(via_map - x.T)) < 1e-10
    eig = hermitian_eig(recon.choi.matrix)
    assert eig.eigenvalues[0] > -1e-10
    # the raw reshuffle of the transpose map has eigenvalue -1; the clip
    # must not leak back into the distance computation
    raw = recon.linear_map.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    assert hermitian_eig((raw + raw.conj().T) / 2).eigenvalues[0] < -0.9


def test_clipped_choi_equals_the_inline_spectral_form():
    # the parent's reshuffle and (v * clip(lam)) @ v^dagger, bit for bit
    rng = RngStream(seed=59)
    maps = [rng.normals(162, start=200 * k).view(complex).reshape(9, 9) for k in range(20)]
    design = default_design()
    transpose = reconstruct([(1.0, s.T.copy()) for s in design.input_states], design).linear_map
    target = superoperator(embedded_metric_channel(validate_metric(ETA2)))
    maps += [-np.eye(9), transpose, target]  # degenerate spectra; the target needs no clip
    for lmap in maps:
        raw = lmap.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
        want = (raw + raw.conj().T) / 2.0
        eig = hermitian_eig(want)
        if eig.eigenvalues[0] < -1e-8:
            v = eig.eigenvectors
            want = (v * np.clip(eig.eigenvalues, 0.0, None)) @ v.conj().T
        assert np.array_equal(ReconstructedChannel(linear_map=lmap, shots_per_input=0).choi.matrix, want)


# ---------------------------------------------------------------------------
# the (1->1) norm
# ---------------------------------------------------------------------------

def test_norm_of_zero_map():
    assert one_to_one_norm(np.zeros((9, 9))) == 0.0


def test_norm_of_identity_map():
    assert abs(one_to_one_norm(np.eye(9)) - 1.0) < 1e-9


def test_norm_of_depolarizing_difference():
    """Phi(rho) = rho - tr(rho) 1/3 has trace norm 4/3 on every pure state."""
    eye_vec = np.eye(3, dtype=complex).reshape(-1)
    depolarize = np.outer(eye_vec / 3.0, eye_vec)
    value = one_to_one_norm(np.eye(9) - depolarize)
    assert abs(value - 4.0 / 3.0) < 1e-8


def test_norm_is_absolutely_homogeneous():
    eta = validate_metric(ETA2)
    target = superoperator(embedded_metric_channel(eta))
    phi = target - np.eye(9)
    base = one_to_one_norm(phi)
    assert abs(one_to_one_norm(2.5 * phi) - 2.5 * base) < 1e-8
    assert abs(one_to_one_norm(-phi) - base) < 1e-8


def test_norm_on_game_difference_map():
    """Target minus the never-discarding identity prover, frozen value."""
    eta = validate_metric(ETA2)
    target = superoperator(embedded_metric_channel(eta))
    phi = target - np.eye(9)
    value = one_to_one_norm(phi)
    assert abs(value - 1.1547005383792526) < 1e-10
    floor = trace_norm((phi @ (np.eye(3, dtype=complex) / 3).reshape(-1)).reshape(3, 3))
    assert abs(floor - 1.4 / 3.0) < 1e-12
    assert value >= floor - 1e-12
    # comfortably above the decision threshold for this metric
    assert value >= 0.4 / 3.0


def test_norm_dominates_floor_and_sampling():
    for seed in range(5):
        rng = RngStream(seed=60 + seed)
        k1 = 0.8 * rng.haar_unitary(3, start=0)
        k2 = rng.haar_unitary(3, start=100)
        phi = superoperator(kraus_channel([k1])) - superoperator(kraus_channel([k2]))
        value = one_to_one_norm(phi)
        floor = trace_norm((phi @ (np.eye(3, dtype=complex) / 3).reshape(-1)).reshape(3, 3))
        assert value >= floor - 1e-12
        assert value >= sampled_one_to_one(phi, samples=2000) - 1e-9


def test_norm_rejects_bad_shapes():
    with pytest.raises(DimMismatchError):
        one_to_one_norm(np.zeros((9, 4)))
    with pytest.raises(DimMismatchError):
        one_to_one_norm(np.zeros((8, 8)))


def test_empty_map_is_a_domain_error():
    def choi(lmap):
        return ReconstructedChannel(linear_map=lmap, shots_per_input=0).choi

    for call in (one_to_one_norm, _choi_bound, choi):
        with pytest.raises(DimMismatchError, match="side 0"):
            call(np.zeros((0, 0)))


def _slow_unitary_difference():
    # two unitary channels whose difference the ascent alone approaches
    # sublinearly from every start: it stopped at the 150-round cap
    rng = RngStream(seed=2)
    u1, u2 = rng.haar_unitary(3, start=0), rng.haar_unitary(3, start=100)
    return superoperator(kraus_channel([u1])) - superoperator(kraus_channel([u2]))


def test_norm_converges_on_the_slow_unitary_difference():
    phi = _slow_unitary_difference()
    with warnings.catch_warnings():
        warnings.simplefilter("error", IterationCapWarning)
        value = one_to_one_norm(phi)
    ref, _, _ = _ascent_norm(phi, every_start=True)
    assert ref <= value <= 2.0 + 1e-12
    assert abs(value - 1.999796300191) < 1e-11


def test_norm_warns_at_its_iteration_cap(monkeypatch):
    phi = _slow_unitary_difference()
    # below the switch to Newton the estimator is the ascent
    monkeypatch.setattr(tomography, "_NORM_MAX_ITERS", 10)
    with pytest.warns(IterationCapWarning, match="10-iteration cap.*residual") as caught:
        value = one_to_one_norm(phi)
    assert len(caught) == 1
    ref, best_resid, _ = _ascent_norm(phi, iters=10)
    assert f"best start's stationarity residual {best_resid:.3g} >" in str(caught[0].message)
    assert value == ref

    # past it, the warning names a residual of the states of the last Newton round
    newton_states = []
    second_order_model = tomography._second_order_model

    def recording_model(lmap, psi, *rest):
        newton_states.append(psi)
        return second_order_model(lmap, psi, *rest)

    monkeypatch.setattr(tomography, "_second_order_model", recording_model)
    monkeypatch.setattr(tomography, "_NORM_MAX_ITERS", tomography._NORM_NEWTON_AFTER + 2)
    with pytest.warns(IterationCapWarning, match="17-iteration cap.*residual") as caught:
        value = one_to_one_norm(phi)
    assert len(caught) == 1 and len(newton_states) == 2
    values, resid = [], []
    for v in newton_states[-1]:
        lam, vec = np.linalg.eigh(_hermitian_image(phi, np.outer(v, v.conj())[None])[0])
        s = (vec * np.sign(lam)) @ vec.conj().T
        m = _hermitian_image(phi.conj().T, s[None])[0]
        values.append(np.abs(lam).sum())
        resid.append(np.linalg.norm(m @ v - (v.conj() @ m @ v).real * v))
    best_resid = resid[int(np.argmax(values))]
    assert best_resid > 1e-8
    assert f"best start's stationarity residual {best_resid:.3g} >" in str(caught[0].message)
    # the value at the last iterate is still returned, and the capped rounds
    # only rose from the ascent's
    assert max(values) <= value <= 2.0 + 1e-12
    assert value >= ref


@pytest.mark.parametrize("d", [2, 3, 4])
def test_second_order_model_matches_finite_differences(d):
    phi = random_kraus_map(7 + d, 2, d) - 0.7 * random_kraus_map(17 + d, 1, d)
    psi = RngStream(seed=d).haar_states(3, d)
    lam, vec = np.linalg.eigh(_hermitian_image(phi, psi[:, :, None] * psi.conj()[:, None, :]))
    s = (vec * np.sign(lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    xi, g, hess = tomography._second_order_model(phi, psi, lam, vec, _hermitian_image(phi.conj().T, s))
    n, t = 2 * (d - 1), 1e-4
    for j in range(len(psi)):
        # the basis is orthonormal over the reals and orthogonal to psi
        basis = np.concatenate([xi[j].real, xi[j].imag])
        assert np.allclose(basis.T @ basis, np.eye(n), atol=1e-12)
        assert np.allclose(psi[j].conj() @ xi[j], 0.0, atol=1e-12)

        def f(c):
            v = psi[j] + xi[j] @ c
            v = v / np.linalg.norm(v)
            return np.abs(np.linalg.eigvalsh(_hermitian_image(phi, np.outer(v, v.conj())[None])[0])).sum()

        e = t * np.eye(n)
        fd_g = np.array([(f(e[k]) - f(-e[k])) / (2 * t) for k in range(n)])
        fd_h = np.array([
            [f(e[k] + e[l]) - f(e[k] - e[l]) - f(e[l] - e[k]) + f(-e[k] - e[l]) for l in range(n)] for k in range(n)
        ]) / (4 * t * t)
        assert np.allclose(g[j], fd_g, atol=1e-6)
        assert np.allclose(hess[j], fd_h, atol=1e-4)


def test_norm_does_not_warn_on_the_readme_verify_map():
    # the README's honest and dishonest verify configs
    eta = validate_metric(ETA2)
    design = default_design()
    flip = dishonest_prover([np.array([[0.0, 1.0], [1.0, 0.0]])], [0.7])
    for model, shots, seed, verdict in [
        (honest_prover(), 3000, 3, "accept"),
        (flip, 5000, 5, "reject"),
    ]:
        responses = run_prover(model, eta, design, shots, RngStream(seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IterationCapWarning)
            warnings.simplefilter("error", UncertifiedAcceptWarning)
            report = verify(eta, reconstruct(responses, design, shots_per_input=shots))
        assert report.verdict == verdict


def _ascent_norm(superop, iters=150, every_start=False):
    """The estimator before its Newton finish: the extrapolated ascent alone.

    The same 8 starts, extrapolated step, stopping rule and cap as
    one_to_one_norm's first _NORM_NEWTON_AFTER rounds; every_start=True
    swaps in the earlier rule that waits for every start to be stationary.
    Returns the norm, the best start's residual at the last round if the
    loop reached its cap (else None), and the rounds before it stopped.
    """
    lmap = np.asarray(superop, dtype=complex)
    d = math.isqrt(lmap.shape[0])
    eye_vec = (np.eye(d, dtype=complex) / d).reshape(-1)
    floor = trace_norm((lmap @ eye_vec).reshape(d, d))
    psi = RngStream(seed=0x315A7C0FFEE).haar_states(8, d)
    adjoint = lmap.conj().T
    steps = np.array([1.0, 2.0, 4.0])
    lam, vec = np.linalg.eigh(_hermitian_image(lmap, psi[:, :, None] * psi.conj()[:, None, :]))
    best_resid = None
    for rounds in range(iters):
        s = (vec * np.sign(lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
        m = _hermitian_image(adjoint, s)
        grad = np.einsum("kab,kb->ka", m, psi)
        rayleigh = np.einsum("ka,ka->k", psi.conj(), grad).real
        resid = np.linalg.norm(grad - rayleigh[:, None] * psi, axis=1)
        best_resid = resid[np.argmax(np.abs(lam).sum(axis=1))]
        if (np.max(resid) if every_start else best_resid) <= 1e-8:
            best_resid = None
            break
        top = np.linalg.eigh(m)[1][:, :, -1]
        top *= np.exp(-1j * np.angle(np.einsum("ka,ka->k", psi.conj(), top)))[:, None]
        cand = psi[:, None, :] + steps[:, None] * (top - psi)[:, None, :]
        cand = (cand / np.linalg.norm(cand, axis=2, keepdims=True)).reshape(-1, d)
        lam_c, vec_c = np.linalg.eigh(_hermitian_image(lmap, cand[:, :, None] * cand.conj()[:, None, :]))
        pick = np.arange(len(psi)) * 3 + np.argmax(np.abs(lam_c).sum(axis=1).reshape(len(psi), 3), axis=1)
        psi, lam, vec = cand[pick], lam_c[pick], vec_c[pick]
    else:
        rounds = iters
    return float(max(np.abs(lam).sum(axis=1).max(), floor)), best_resid, rounds


def _plain_64_start_norm(superop):
    """The earlier estimator: 64 starts, the plain alternating step, every start stationary."""
    lmap = np.asarray(superop, dtype=complex)
    d = math.isqrt(lmap.shape[0])
    eye_vec = (np.eye(d, dtype=complex) / d).reshape(-1)
    floor = trace_norm((lmap @ eye_vec).reshape(d, d))
    psi = RngStream(seed=0x315A7C0FFEE).haar_states(64, d)
    adjoint = lmap.conj().T
    for it in range(151):
        a = _hermitian_image(lmap, psi[:, :, None] * psi.conj()[:, None, :])
        if it == 150:
            lam = np.linalg.eigvalsh(a)
            break
        lam, vec = np.linalg.eigh(a)
        s = (vec * np.sign(lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
        m = _hermitian_image(adjoint, s)
        grad = np.einsum("kab,kb->ka", m, psi)
        rayleigh = np.einsum("ka,ka->k", psi.conj(), grad).real
        resid = np.linalg.norm(grad - rayleigh[:, None] * psi, axis=1)
        if np.max(resid) <= 1e-8:
            break
        psi = np.linalg.eigh(m)[1][:, :, -1]
    return float(max(np.abs(lam).sum(axis=1).max(), floor))


def _stopping_rule_cases():
    """Criterion 8's first 25 exact dishonest maps and 5 honest maps at 1e4 shots, with thresholds."""
    design = default_design()
    cases = []
    for m in range(5):
        eta = acceptance_metric(3000 + m)
        target = superoperator(embedded_metric_channel(eta))
        for j in range(5):
            model = acceptance_prover(4000 + 5 * m + j)
            responses = run_prover(model, eta, design, 10, RngStream(seed=5 * m + j), exact=True)
            cases.append((target - reconstruct(responses, design).linear_map, threshold(eta)))
    eta = validate_metric(ETA2)
    target = superoperator(embedded_metric_channel(eta))
    for seed in range(5):
        responses = run_prover(honest_prover(), eta, design, 10_000, RngStream(seed=seed))
        cases.append((target - reconstruct(responses, design).linear_map, threshold(eta)))
    return cases


def test_best_start_rule_matches_the_all_starts_rule():
    for phi, th in _stopping_rule_cases():
        ref, _, _ = _ascent_norm(phi, every_start=True)
        value = one_to_one_norm(phi)
        assert ref - 1e-9 <= value <= ref + 1e-12
        assert (value <= th) == (ref <= th)


def test_estimator_does_not_fall_below_the_64_start_value():
    # 8 extrapolated starts reach at least what 64 plain ones did
    for phi, _ in _stopping_rule_cases():
        assert one_to_one_norm(phi) >= _plain_64_start_norm(phi) - 1e-12


def random_kraus_map(seed, count, d=3):
    """Superoperator of a random channel on C^d: count Kraus operators cut from a Haar unitary."""
    u = RngStream(seed=seed).haar_unitary(d * count)
    return superoperator(kraus_channel([u[d * j : d * j + d, :d] for j in range(count)]))


def _finish_cases():
    """The stopping-rule maps, 20 honest 1e5-shot maps, and Kraus differences at d = 2, 3, 4."""
    design = default_design()
    cases = [phi for phi, _ in _stopping_rule_cases()]
    for s in range(20):
        eta = acceptance_metric(5000 + s)
        target = superoperator(embedded_metric_channel(eta))
        responses = run_prover(honest_prover(), eta, design, 100_000, RngStream(seed=s))
        cases.append(target - reconstruct(responses, design).linear_map)
    for d in (2, 3, 4):
        for seed in range(8):
            k1, k2 = random_kraus_map(100 * d + seed, 1 + seed % 3, d), random_kraus_map(200 * d + seed, 3 - seed % 3, d)
            cases.append(k1 - 0.8 * k2)
    return cases


def test_finish_never_falls_below_the_ascent():
    slow = 0
    for phi in _finish_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error", IterationCapWarning)
            value = one_to_one_norm(phi)
        ref, _, rounds = _ascent_norm(phi)
        assert value >= ref - 1e-12
        if rounds <= tomography._NORM_NEWTON_AFTER:
            # no Newton round ran: the estimator is the ascent, bit for bit
            assert value == ref
        else:
            slow += 1
    # the Newton finish is reached on some of these maps
    assert slow > 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.sampled_from([2, 3]),
)
def test_finish_lies_between_the_ascent_and_the_choi_bound(seed1, seed2, count1, count2, a, b, d):
    phi = a * random_kraus_map(seed1, count1, d) - b * random_kraus_map(seed2, count2, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IterationCapWarning)
        value = one_to_one_norm(phi)
    # no start's objective falls after the rounds the two share. Against the
    # ascent run to its own end there is no such guarantee: it keeps moving
    # while its best start crawls, and on 5 of 7000 random maps of this kind
    # another start overtook to a higher local maximum than the finish found
    shared, _, rounds = _ascent_norm(phi, iters=tomography._NORM_NEWTON_AFTER)
    assert shared - 1e-12 <= value <= _choi_bound(phi) + 1e-12
    if rounds < tomography._NORM_NEWTON_AFTER:
        assert value == shared


def _input_trace_bound(superop):
    """_choi_bound with the input traced out instead of the output: no bound."""
    lam, vec = np.linalg.eigh(_hermitian_choi(np.asarray(superop, dtype=complex), 3))
    absolute = (vec * np.abs(lam)) @ vec.conj().T
    return np.linalg.eigvalsh(np.einsum("aiaj->ij", absolute.reshape(3, 3, 3, 3)))[-1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_choi_bound_dominates_the_estimator_and_the_oracle(seed1, seed2, count1, count2, a, b):
    phi = a * random_kraus_map(seed1, count1) - b * random_kraus_map(seed2, count2)
    bound = _choi_bound(phi)
    assert bound >= one_to_one_norm(phi) - 1e-12
    assert bound >= sampled_one_to_one(phi, samples=10_000) - 1e-12


def test_choi_bound_is_one_on_a_trace_preserving_channel():
    for seed, count in ((1, 1), (2, 2), (3, 3)):
        assert abs(_choi_bound(random_kraus_map(seed, count)) - 1.0) < 1e-12
    assert abs(_choi_bound(np.eye(9)) - 1.0) < 1e-12


def test_choi_bound_traces_out_the_output():
    # tracing out the input instead falls below the estimator's attained value
    phi = random_kraus_map(19, 3) - random_kraus_map(1019, 1)
    value = one_to_one_norm(phi)
    assert _input_trace_bound(phi) < value - 0.01
    assert _choi_bound(phi) >= value


def test_uncertified_accept_warns_and_stays_an_accept():
    eta = validate_metric(ETA2)
    design = default_design()
    target = superoperator(embedded_metric_channel(eta))
    th = threshold(eta)
    responses = run_prover(honest_prover(), eta, design, 1000, RngStream(seed=4))
    phi = target - reconstruct(responses, design).linear_map
    # scaled to just inside the threshold, where the bound is above it
    phi *= 0.99 * th / one_to_one_norm(phi)
    assert _choi_bound(phi) > th
    with pytest.warns(UncertifiedAcceptWarning, match="not certified: the Choi bound"):
        report = verify(eta, ReconstructedChannel(linear_map=target - phi, shots_per_input=1000))
    assert report.verdict == "accept"
    assert abs(report.distance - 0.99 * th) < 1e-9


# ---------------------------------------------------------------------------
# sampled oracle
# ---------------------------------------------------------------------------

def test_herm3_trace_norm_against_lapack():
    rng = RngStream(seed=88)
    raw = rng.normals(1800, start=0).reshape(100, 18)
    mats = raw[:, :9].reshape(100, 3, 3) + 1j * raw[:, 9:].reshape(100, 3, 3)
    mats = (mats + mats.conj().transpose(0, 2, 1)) / 2
    ref = np.abs(np.linalg.eigvalsh(mats)).sum(axis=1)
    got = _herm3_trace_norm(_herm_coords(mats).T)
    assert np.max(np.abs(ref - got)) < 1e-12
    scalars = np.stack([2.5 * np.eye(3), np.zeros((3, 3))]).astype(complex)
    assert np.array_equal(_herm3_trace_norm(_herm_coords(scalars).T), [7.5, 0.0])


@st.composite
def _hard_hermitian3(draw):
    """Hermitian 3x3 matrices where closed-form eigenvalues lose accuracy."""
    u = RngStream(seed=draw(st.integers(0, 2**32))).haar_unitary(3)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    kind = draw(st.sampled_from(["near_identity", "double", "rank1"]))
    if kind == "near_identity":
        # p -> 0 relative to the shift, and cos 3phi -> +-1
        level = draw(st.floats(-1.0, 1.0))
        spread = 10.0 ** draw(st.floats(-14.0, -8.0))
        lam = level + spread * np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    elif kind == "double":
        a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        lam = np.array([a, b, b])
    else:
        lam = np.array([draw(st.sampled_from([-1.0, 1.0])), 0.0, 0.0])
    mat = (u * (scale * lam)) @ u.conj().T
    return (mat + mat.conj().T) / 2


@settings(max_examples=300, deadline=None)
@given(_hard_hermitian3())
def test_herm3_trace_norm_property(mat):
    lam = np.linalg.eigvalsh(mat)
    got = _herm3_trace_norm(_herm_coords(mat[None]).T)[0]
    assert abs(got - np.abs(lam).sum()) <= 1e-12 * max(1.0, np.abs(lam).max())


@st.composite
def _hard_hermitian2(draw):
    """Hermitian 2x2 matrices with a near-degenerate pair, or a pair straddling zero."""
    u = RngStream(seed=draw(st.integers(0, 2**32))).haar_unitary(2)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    if draw(st.booleans()):
        level = draw(st.floats(-1.0, 1.0))
        lam = level + 10.0 ** draw(st.floats(-16.0, -6.0)) * np.array([-1.0, 1.0])
    else:
        # rank one when one side is exactly 0
        below, above = (draw(st.just(0.0) | st.floats(-16.0, 0.0).map(lambda e: 10.0**e)) for _ in range(2))
        lam = np.array([-below, above])
    mat = (u * (scale * lam)) @ u.conj().T
    return (mat + mat.conj().T) / 2


@settings(max_examples=300, deadline=None)
@given(_hard_hermitian2())
def test_herm2_trace_norm_property(mat):
    # a qubit matrix goes through the qutrit closed form, zero-padded
    lam = np.linalg.eigvalsh(mat)
    got = _herm_trace_norm(_herm_coords(mat[None]).T, 2)[0]
    assert abs(got - np.abs(lam).sum()) <= 1e-12 * max(1.0, np.abs(lam).max())


def test_probe_coordinates_match_the_expression_form():
    from metriq.tomography import _probe_coords

    for d in (1, 2, 3, 4):
        psi = RngStream(seed=95).haar_states(1001, d, start=7)
        j, k = np.triu_indices(d, 1)
        re, im = psi.real.T, psi.imag.T
        ref = np.concatenate([re * re + im * im, re[j] * re[k] + im[j] * im[k], im[j] * re[k] - re[j] * im[k]])
        probes, scratch = np.full((2, d * d, 1001), np.nan)
        _probe_coords(psi, probes, scratch)
        assert probes.tobytes() == ref.tobytes()


def _qudit_map():
    """A d = 4 map, past the closed form: a scaled unitary channel minus the identity."""
    return superoperator(kraus_channel([0.9 * RngStream(seed=93).haar_unitary(4, start=0)])) - np.eye(16)


def test_sampled_oracle_beyond_the_closed_forms_matches_direct_evaluation():
    # d = 4 takes the batched eigvalsh path
    from metriq.tomography import _ORACLE_SEED

    phi = _qudit_map()
    n = 500
    psi = RngStream(seed=_ORACLE_SEED).haar_states(n, 4)
    best = 0.0
    for k in range(n):
        out = (phi @ np.outer(psi[k], psi[k].conj()).reshape(-1)).reshape(4, 4)
        best = max(best, trace_norm((out + out.conj().T) / 2))
    assert abs(sampled_one_to_one(phi, samples=n) - best) < 1e-12


def test_sampled_oracle_tracks_estimator_from_below():
    eta = validate_metric(ETA2)
    target = superoperator(embedded_metric_channel(eta))
    phi = target - np.eye(9)
    est = one_to_one_norm(phi)
    orc = sampled_one_to_one(phi, samples=20000)
    assert orc <= est + 1e-12
    assert est - orc < 1e-2


def test_sampled_oracle_matches_direct_evaluation():
    """The oracle is a plain max over a deterministic Haar sample."""
    from metriq.tomography import _ORACLE_SEED

    eta = validate_metric(ETA2)
    phi = superoperator(embedded_metric_channel(eta)) - np.eye(9)
    n = 1000
    psi = RngStream(seed=_ORACLE_SEED).haar_states(n, 3)
    best = 0.0
    for k in range(n):
        rho = np.outer(psi[k], psi[k].conj())
        out = (phi @ rho.reshape(-1)).reshape(3, 3)
        best = max(best, trace_norm((out + out.conj().T) / 2))
    got = sampled_one_to_one(phi, samples=n)
    assert abs(got - best) < 1e-12
    assert got == sampled_one_to_one(phi, samples=n)


def test_sampled_oracle_qubit_map_matches_direct_evaluation():
    from metriq.tomography import _ORACLE_SEED

    rng = RngStream(seed=91)
    k1 = 0.9 * rng.haar_unitary(2, start=0)
    k2 = rng.haar_unitary(2, start=50)
    phi = superoperator(kraus_channel([k1])) - superoperator(kraus_channel([k2]))
    n = 1000
    psi = RngStream(seed=_ORACLE_SEED).haar_states(n, 2)
    best = 0.0
    for k in range(n):
        rho = np.outer(psi[k], psi[k].conj())
        out = (phi @ rho.reshape(-1)).reshape(2, 2)
        best = max(best, trace_norm((out + out.conj().T) / 2))
    assert abs(sampled_one_to_one(phi, samples=n) - best) < 1e-12


def test_sampled_oracle_across_chunk_boundary():
    from metriq.tomography import _ORACLE_CHUNK, _ORACLE_SEED

    eta = validate_metric(ETA2)
    phi = superoperator(embedded_metric_channel(eta)) - np.eye(9)
    n = _ORACLE_CHUNK + 3
    psi = RngStream(seed=_ORACLE_SEED).haar_states(n, 3)
    out = (phi @ (psi[:, :, None] * psi.conj()[:, None, :]).reshape(n, 9).T).T.reshape(n, 3, 3)
    best = np.abs(np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2)).sum(axis=1).max()
    assert abs(sampled_one_to_one(phi, samples=n) - best) < 1e-12


def _dishonest_map():
    """target - reconstruction of criterion 8's first exact dishonest game."""
    eta = acceptance_metric(3000)
    design = default_design()
    responses = run_prover(acceptance_prover(4000), eta, design, 10, RngStream(seed=0), exact=True)
    return superoperator(embedded_metric_channel(eta)) - reconstruct(responses, design).linear_map


def test_sampled_oracle_maxima_do_not_depend_on_the_chunk(monkeypatch):
    maps = [superoperator(embedded_metric_channel(validate_metric(ETA2))) - np.eye(9), _dishonest_map(), _qudit_map()]
    n = 3 * 2**17 + 5
    default = [sampled_one_to_one(phi, samples=n) for phi in maps]
    monkeypatch.setattr(tomography, "_ORACLE_CHUNK", 1 << 17)
    assert [sampled_one_to_one(phi, samples=n) for phi in maps] == default


def test_sampled_oracle_chunks_hold_about_a_megabyte(monkeypatch):
    # each chunk holds d^2 coordinates per probe, so it holds fewer probes as d grows
    from metriq.tomography import _ORACLE_CHUNK

    counts = []
    draw = RngStream.haar_states

    def spy(self, n, *args, **kwargs):
        counts.append(n)
        return draw(self, n, *args, **kwargs)

    monkeypatch.setattr(RngStream, "haar_states", spy)
    for d in (2, 3, 4, 9):
        limit = min(_ORACLE_CHUNK, 9 * _ORACLE_CHUNK // d**2)
        counts.clear()
        sampled_one_to_one(np.eye(d * d), samples=2 * limit + 5)
        assert counts == [limit, limit, 5]


def test_sampled_oracle_max_is_the_kernel_on_every_probe():
    # probes whose Frobenius bound cannot beat the running max skip the kernel;
    # the max is still that of the kernel on every probe, bit for bit
    from metriq.tomography import _ORACLE_CHUNK, _ORACLE_SEED, _herm_from_coords

    n = 3 * _ORACLE_CHUNK + 7
    psi = RngStream(seed=_ORACLE_SEED).haar_states(n, 3)
    j, k = np.triu_indices(3, 1)
    re, im = psi.real.T, psi.imag.T
    probes = np.concatenate([re * re + im * im, re[j] * re[k] + im[j] * im[k], im[j] * re[k] - re[j] * im[k]])
    basis = _herm_from_coords(np.eye(9), 3)
    # rho -> (tr rho + 1e-6 rho_00) I attains the bound on every probe, and its
    # running max grows by much less than 1e-6 after the first chunk
    eye = np.eye(3).reshape(-1)
    tight = np.outer(eye, eye + 1e-6 * np.eye(9)[0])
    for phi in (superoperator(embedded_metric_channel(validate_metric(ETA2))) - np.eye(9), _dishonest_map(), tight):
        herm_map = _herm_coords(_hermitian_image(phi, basis))
        assert sampled_one_to_one(phi, samples=n) == _herm3_trace_norm(herm_map.T @ probes).max()


def test_sampled_oracle_on_a_stack_of_maps():
    rng = RngStream(seed=92)
    maps = [_dishonest_map(), superoperator(embedded_metric_channel(validate_metric(ETA2))) - np.eye(9)]
    maps += [superoperator(kraus_channel([rng.haar_unitary(3, start=50 * j)])) - np.eye(9) for j in range(3)]
    single = [sampled_one_to_one(phi, samples=40_000) for phi in maps]
    assert all(type(value) is float for value in single)
    stacked = sampled_one_to_one(np.stack(maps), samples=40_000)
    assert stacked.shape == (5,)
    assert stacked.tolist() == single
    # a list of maps is the same stack, and a one-map stack keeps its array form
    assert sampled_one_to_one(maps, samples=40_000).tolist() == single
    assert sampled_one_to_one(maps[:1], samples=40_000).tolist() == single[:1]

    with pytest.raises(DimMismatchError, match=re.escape("(0, 9, 9)")):
        sampled_one_to_one(np.zeros((0, 9, 9)), samples=10)
    with pytest.raises(DimMismatchError, match=re.escape("(2,)")):
        sampled_one_to_one([np.eye(9), np.eye(4)], samples=10)
    with pytest.raises(DimMismatchError, match=re.escape("(9, 4)")):
        sampled_one_to_one(np.zeros((2, 9, 4)), samples=10)
    with pytest.raises(DimMismatchError, match=re.escape("(2, 2, 9, 9)")):
        sampled_one_to_one(np.zeros((2, 2, 9, 9)), samples=10)
    with pytest.raises(MetriqError, match="finite"):
        sampled_one_to_one(np.stack([np.eye(9), np.full((9, 9), np.nan)]), samples=10)


def test_sampled_oracle_rejects_zero_samples():
    # the library's one count rule: an integer, or an integral finite float, >= 1
    for bad in (0, -3, float("nan"), float("inf"), True, np.bool_(True), 1000.5, "10", None):
        with pytest.raises(MetriqError, match=f"samples must be .*{re.escape(repr(bad))}"):
            sampled_one_to_one(np.eye(9), samples=bad)
    phi = superoperator(embedded_metric_channel(validate_metric(ETA2))) - np.eye(9)
    best = sampled_one_to_one(phi, samples=10_000)
    assert sampled_one_to_one(phi, samples=1e4) == best
    assert sampled_one_to_one(phi, samples=np.int64(10_000)) == best


def test_sampled_oracle_budget_is_checked_before_any_probe(monkeypatch):
    from metriq.tomography import _ORACLE_MAX_SAMPLES

    def no_probes(*args, **kwargs):
        raise AssertionError("a probe was drawn")

    monkeypatch.setattr(RngStream, "haar_states", no_probes)
    for samples in (_ORACLE_MAX_SAMPLES + 1, 2**70):
        with pytest.raises(MetriqError, match="budget"):
            sampled_one_to_one(np.eye(9), samples=samples)
    # a probe costs more past the closed forms: a third of the d = 3 limit is too much for d = 4
    with pytest.raises(MetriqError, match="10000000 samples on 1 maps exceed the budget"):
        sampled_one_to_one(np.eye(16), samples=10**7)

    # a request the budget accepts reaches the first draw
    criterion_8 = np.broadcast_to(np.eye(9), (120, 9, 9))
    accepted = ((np.eye(9), 3 * 10**7), (criterion_8, 10**6), (np.eye(16), 3 * 10**6), (np.eye(81), 6 * 10**5))
    for maps, samples in accepted:
        with pytest.raises(AssertionError, match="a probe was drawn"):
            sampled_one_to_one(maps, samples=samples)
    # a stack shares the budget, and each map costs something however few the probes
    many = np.broadcast_to(np.eye(9, dtype=complex), (2 * 10**5, 9, 9))
    for maps, samples in ((criterion_8, 2 * 10**6), (criterion_8[:2], _ORACLE_MAX_SAMPLES), (many, 1)):
        with pytest.raises(MetriqError, match=f"{samples} samples on {len(maps)} maps exceed the budget"):
            sampled_one_to_one(maps, samples=samples)


# ---------------------------------------------------------------------------
# threshold and target channel
# ---------------------------------------------------------------------------

def test_threshold_examples():
    eta = validate_metric(ETA2)
    assert abs(threshold(eta) - 0.4 / 3.0) < 1e-12
    assert abs(threshold(validate_metric(np.diag([1.0, 0.7]))) - 0.1) < 1e-12


def test_threshold_rejections():
    with pytest.raises(DegenerateMetricError):
        threshold(validate_metric(np.eye(2)))
    with pytest.raises(DegenerateMetricError):
        threshold(validate_metric(np.diag([0.9, 0.9 + 5e-11])))
    with pytest.raises(DimMismatchError):
        threshold(validate_metric(np.eye(3)))


def test_embedded_metric_channel_kraus():
    eta = validate_metric(ETA2)
    ch = embedded_metric_channel(eta)
    assert ch.dim_in == 3 and ch.dim_out == 3
    assert len(ch.kraus_ops) == 1
    assert np.max(np.abs(ch.kraus_ops[0] - embed(eta.sqrt()))) < 1e-14
    with pytest.raises(DimMismatchError):
        embedded_metric_channel(validate_metric(np.eye(3)))
    with pytest.raises(MetricExceedsIdentityError):
        embedded_metric_channel(validate_metric(1.5 * np.eye(2)))


# ---------------------------------------------------------------------------
# end-to-end decision
# ---------------------------------------------------------------------------

def test_verify_exact_honest_accepts():
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    report = verify(eta, reconstruct(responses, design))
    assert report.verdict == "accept"
    assert report.distance <= 1e-8
    assert abs(report.threshold - 0.4 / 3.0) < 1e-12
    assert abs(report.eta_eigenvalues[0] - 1.0) < 1e-12
    assert abs(report.eta_eigenvalues[1] - 0.6) < 1e-12


def test_verify_dishonest_identity_mixtures_reject():
    eta = validate_metric(ETA2)
    design = default_design()
    for discard in [0.0, 0.25, 0.5, 0.9]:
        model = dishonest_prover([np.eye(2)], [1.0 - discard])
        responses = run_prover(model, eta, design, 10, RngStream(seed=1), exact=True)
        report = verify(eta, reconstruct(responses, design))
        assert report.verdict == "reject"
        assert report.distance >= report.threshold
        s = 1.0 - discard
        floor = (abs(0.6 - s) + abs(1.0 - s) + s) / 3.0
        assert report.distance >= floor - 1e-10


def test_verify_finite_honest_accepts():
    eta = validate_metric(ETA2)
    design = default_design()
    for seed in [2, 12, 22]:
        responses = run_prover(honest_prover(), eta, design, 20000, RngStream(seed=seed))
        report = verify(eta, reconstruct(responses, design, shots_per_input=20000))
        assert report.verdict == "accept"
        assert report.distance < 0.02


@pytest.mark.parametrize("eta", [validate_metric(ETA2), acceptance_metric(3000), acceptance_metric(3001)])
def test_verify_resolution_is_the_threshold(eta):
    """An exact honest game of (1 - eps) eta lands at eps * lambda_1 from eta's channel.

    The game certifies the channel to within D_th, not the metric exactly: it
    accepts exactly when eps * lambda_1 <= D_th.
    """
    design = default_design()
    lam1 = float(eta.eig.eigenvalues[-1])
    th = threshold(eta)
    for fraction in (0.1, 0.5, 1.5):
        eps = fraction * th / lam1
        shrunk = validate_metric((1.0 - eps) * eta.matrix)
        responses = run_prover(honest_prover(), shrunk, design, 0, RngStream(seed=0), exact=True)
        report = verify(eta, reconstruct(responses, design))
        assert abs(report.distance - eps * lam1) <= 1e-12, fraction
        assert report.verdict == ("accept" if eps * lam1 <= th else "reject"), fraction


def test_verify_shape_mismatch():
    eta = validate_metric(ETA2)
    bad = ReconstructedChannel(linear_map=np.eye(4), shots_per_input=0)
    with pytest.raises(DimMismatchError):
        verify(eta, bad)


def test_dishonest_provers_always_rejected():
    """Soundness on random metrics and random discarding mixtures."""
    design = default_design()
    for m in range(5):
        eta = make_metric(1000 + m)
        lam = eta.eig.eigenvalues
        for t in range(3):
            model, discard = random_prover(2000 + 10 * m + t)
            responses = run_prover(model, eta, design, 10, RngStream(seed=m + t), exact=True)
            report = verify(eta, reconstruct(responses, design))
            assert report.verdict == "reject"
            assert report.distance >= report.threshold - 1e-8
            s = 1.0 - discard
            floor = (abs(lam[0] - s) + abs(lam[1] - s) + s) / 3.0
            assert report.distance >= floor - 1e-8

