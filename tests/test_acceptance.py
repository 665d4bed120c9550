"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test computes its checks first, prints a single "[criterion N] PASS/FAIL"
line with the observed numbers, and only then asserts, so the verdict line is
emitted either way. All sampling is seeded; reruns are bit-identical.
"""

import math
import time
import warnings

import numpy as np

from metriq import (
    PtHamiltonian,
    analytic_pt_evolution,
    apply,
    build_dilation,
    build_pt_system,
    chained_success_probability,
    default_design,
    dishonest_prover,
    embedded_metric_channel,
    g_eta,
    g_kappa_eta_inv,
    compose,
    honest_prover,
    normalize_metric,
    reconstruct,
    run_prover,
    sampled_one_to_one,
    simulate_g_eta,
    simulate_pt,
    superoperator,
    u_pt,
    UncertifiedAcceptWarning,
    validate_metric,
    verify,
)
from metriq.dilation import embed
from metriq.linalg import matrix_exp_hermitian_generator, operator_norm, trace_norm
from metriq.rng import RngStream

ETA2 = np.array([[0.8, -0.2j], [0.2j, 0.8]])
RHO0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

PT_SWEEP = [
    (r, s, phi)
    for r in (0.0, 0.5, 1.0)
    for s in (1.0, 2.0)
    for phi in (0.0, math.pi / 6, math.pi / 3)
    if s > r * math.sin(phi)
]


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def random_density(rng, dim, start=0):
    raw = rng.normals(2 * dim * dim, start=start)
    g = (raw[: dim * dim] + 1j * raw[dim * dim :]).reshape(dim, dim)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_subidentity_metric(rng, start=0):
    raw = rng.normals(8, start=start)
    g = (raw[:4] + 1j * raw[4:]).reshape(2, 2)
    m = g @ g.conj().T + 0.05 * np.eye(2)
    target = 0.2 + 0.8 * rng.uniforms(1, start=start + 16)[0]
    probe = validate_metric(m)
    return validate_metric(m * (target / probe.norm))


def acceptance_metric(seed):
    """Random nondegenerate subidentity metric; the gap is at least 0.15 * norm."""
    rng = RngStream(seed=seed)
    u = rng.haar_unitary(2)
    lam1 = 0.5 + 0.5 * rng.uniforms(1, start=8)[0]
    lam2 = lam1 * (0.1 + 0.75 * rng.uniforms(1, start=9)[0])
    mat = (u * np.array([lam2, lam1])) @ u.conj().T
    return validate_metric((mat + mat.conj().T) / 2)


def acceptance_prover(seed):
    rng = RngStream(seed=seed)
    k = 1 + int(rng.words(1, start=777)[0] % 3)
    mats = [rng.haar_unitary(2, start=100 * j) for j in range(k)]
    w = rng.uniforms(k, start=900) + 1e-3
    discard = float(0.99 * rng.uniforms(1, start=950)[0])
    probs = (1.0 - discard) * w / w.sum()
    return dishonest_prover(mats, probs)


def test_criterion_1_reference_matrices():
    t0 = time.perf_counter()
    sys_ = build_pt_system(PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6))
    q = math.sqrt(0.6)
    p = math.sqrt(0.2)
    delta = math.sqrt(4.0 - 0.25)
    c = math.sqrt(3.0) / 2.0

    errs = [
        np.max(np.abs(sys_.eta2.matrix - ETA2)),
        np.max(np.abs(sys_.eta2_inv.matrix - np.array([[4.0 / 3.0, 1j / 3.0], [-1j / 3.0, 4.0 / 3.0]]))),
        abs(sys_.kappa - 0.6),
        np.max(np.abs(embed(sys_.h_pt_hermitian) - np.array(
            [[c, delta, 0.0], [delta, c, 0.0], [0.0, 0.0, 0.0]]
        ))),
    ]
    dil = build_dilation(normalize_metric(sys_.eta2)[0])
    u_expected = np.array(
        [
            [(1 + q) / 2, -1j * (1 - q) / 2, p],
            [1j * (1 - q) / 2, (1 + q) / 2, -1j * p],
            [-p, -1j * p, q],
        ]
    )
    errs.append(np.max(np.abs(dil.matrix - u_expected)))

    worst = float(max(errs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"reference matrices max entry error {worst:.3e} (tol 1e-12), {elapsed:.2f}s")
    assert ok


def test_criterion_2_quasi_hermiticity_sweep():
    t0 = time.perf_counter()
    worst_qh = 0.0
    worst_herm = 0.0
    for r, s, phi in PT_SWEEP:
        sys_ = build_pt_system(PtHamiltonian(r=r, s=s, phi=phi))
        h = sys_.h_matrix
        worst_qh = max(
            worst_qh, operator_norm(h.conj().T - sys_.eta2.matrix @ h @ sys_.eta2_inv.matrix)
        )
        hp = sys_.h_pt_hermitian
        worst_herm = max(worst_herm, operator_norm(hp - hp.conj().T))
    elapsed = time.perf_counter() - t0
    ok = worst_qh <= 1e-10 and worst_herm <= 1e-10 and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"quasi-Hermiticity {worst_qh:.3e}, Hermitization {worst_herm:.3e} "
        f"over {len(PT_SWEEP)} parameter points (tol 1e-10), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_3_dilation_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        rng = RngStream(seed=31000 + k)
        rho = random_density(rng, 2, start=0)
        eta_t, _ = normalize_metric(random_subidentity_metric(rng, start=64))
        theta = float(2.0 * math.pi * rng.uniforms(1, start=128)[0])
        u = build_dilation(eta_t, theta=theta).matrix
        out = u @ embed(rho) @ u.conj().T
        projected = np.zeros((3, 3), dtype=complex)
        projected[:2, :2] = out[:2, :2]
        expected = embed(apply(g_eta(eta_t), rho))
        worst = max(worst, float(np.max(np.abs(projected - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(3, ok, f"dilate-project identity, 200 triples, max error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert ok


def test_criterion_4_reversal_recovers_kappa_rho():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        rng = RngStream(seed=32000 + k)
        eta = random_subidentity_metric(rng, start=0)
        rho = random_density(rng, 2, start=64)
        kappa, reversal = g_kappa_eta_inv(eta)
        out = apply(compose(reversal, g_eta(eta)), rho)
        worst = max(worst, float(np.max(np.abs(out - kappa * rho))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(4, ok, f"reversal composition equals kappa*rho, 100 metrics, max error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert ok


def test_criterion_5_monte_carlo_convergence():
    t0 = time.perf_counter()
    eta = validate_metric(ETA2)
    n = 100_000
    sigma = 0.8 * math.sqrt(0.2 / n)
    ratios = np.array(
        [simulate_g_eta(eta, RHO0, n, RngStream(seed=seed)).success_ratio for seed in range(20)]
    )
    max_z = float(np.max(np.abs(ratios - 0.8)) / sigma)
    pooled_z = float(abs(ratios.mean() - 0.8) / (sigma / math.sqrt(20)))
    elapsed = time.perf_counter() - t0
    ok = max_z <= 4.0 and pooled_z <= 1.0 and elapsed < 10.0
    _verdict(
        5,
        ok,
        f"success ratios over 20 seeds at N=1e5: max |z| {max_z:.2f} (limit 4), "
        f"pooled |z| {pooled_z:.2f} (limit 1), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_pt_end_to_end():
    t0 = time.perf_counter()
    sys_ = build_pt_system(PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6))
    n = 100_000
    worst_td = 0.0
    worst_z = 0.0
    for t in (0.0, 1.0, 5.0):
        rec = simulate_pt(sys_, RHO0, t, n, RngStream(seed=100 + int(t)))
        state, _ = analytic_pt_evolution(sys_, RHO0, t)
        worst_td = max(worst_td, 0.5 * trace_norm(rec.output_state_estimate - embed(state)))
        pc = chained_success_probability(sys_, RHO0, t)
        sig = pc * math.sqrt((1.0 - pc) / n)
        worst_z = max(worst_z, abs(rec.success_ratio - pc) / sig)
    elapsed = time.perf_counter() - t0
    ok = worst_td <= 0.01 and worst_z <= 4.0 and elapsed < 30.0
    _verdict(
        6,
        ok,
        f"evolution at t in (0, 1, 5), N=1e5: max trace distance {worst_td:.3e} (tol 0.01), "
        f"max ratio |z| {worst_z:.2f} (limit 4), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_channel_decomposition():
    t0 = time.perf_counter()
    sys_ = build_pt_system(PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6))
    eta = sys_.eta2
    forward = g_eta(eta)
    kappa, reversal = g_kappa_eta_inv(eta)
    worst = 0.0
    for k in range(100):
        rng = RngStream(seed=33000 + k)
        rho = random_density(rng, 2, start=0)
        t = float(6.0 * rng.uniforms(1, start=32)[0])
        u_h = matrix_exp_hermitian_generator(sys_.h_pt_hermitian, t)
        step = u_h @ apply(forward, rho) @ u_h.conj().T
        lhs = apply(reversal, step)
        u = u_pt(sys_, t)
        rhs = sys_.kappa * (u @ rho @ u.conj().T)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and abs(kappa - sys_.kappa) <= 1e-14 and elapsed < 1.0
    _verdict(7, ok, f"three-step composition equals kappa U rho U^dag, 100 states, max error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert ok


def test_criterion_8_verification_soundness():
    t0 = time.perf_counter()
    design = default_design()

    # every map and its estimator distance, for one stacked oracle call at the end
    maps = []
    distances = []

    # dishonest sweep: 20 metrics x 5 provers, exact responses
    rejects = 0
    min_margin = math.inf
    for m in range(20):
        eta = acceptance_metric(3000 + m)
        target = superoperator(embedded_metric_channel(eta))
        for j in range(5):
            model = acceptance_prover(4000 + 5 * m + j)
            responses = run_prover(model, eta, design, 10, RngStream(seed=5 * m + j), exact=True)
            recon = reconstruct(responses, design)
            report = verify(eta, recon)
            rejects += report.verdict == "reject"
            min_margin = min(min_margin, report.distance - report.threshold)
            maps.append(target - recon.linear_map)
            distances.append(report.distance)

    # honest sweep: eta2 at N = 1e5, 20 seeds
    eta2 = validate_metric(ETA2)
    target2 = superoperator(embedded_metric_channel(eta2))
    accepts = 0
    certified = 0
    max_honest_distance = 0.0
    for seed in range(20):
        responses = run_prover(honest_prover(), eta2, design, 100_000, RngStream(seed=seed))
        recon = reconstruct(responses, design, shots_per_input=100_000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UncertifiedAcceptWarning)
            report = verify(eta2, recon)
        accepts += report.verdict == "accept"
        certified += report.verdict == "accept" and not any(
            issubclass(w.category, UncertifiedAcceptWarning) for w in caught
        )
        max_honest_distance = max(max_honest_distance, report.distance)
        maps.append(target2 - recon.linear_map)
        distances.append(report.distance)

    # the same 1e6 probes for all 120 maps, drawn once
    gap = sampled_one_to_one(maps, samples=1_000_000) - np.array(distances)
    oracle_overshoot = float(gap.max())  # sampled max above the estimator: estimator failure
    oracle_deficit = float(-gap.min())  # estimator above the sampled max: finite-sample slack
    elapsed = time.perf_counter() - t0
    # the sampled oracle converges to the norm from below, so the sound
    # cross-check is that no sampled value beats the estimator by more than
    # the stated tolerance; the deficit direction only measures how close
    # 1e6 random points get to the maximizer and is reported, not gated
    ok = (
        rejects == 100
        and min_margin >= -1e-8
        and accepts == 20
        and certified == 20
        and oracle_overshoot <= 1e-4
        and elapsed < 300.0
    )
    _verdict(
        8,
        ok,
        f"dishonest rejects {rejects}/100 (min distance-threshold margin {min_margin:.4f}), "
        f"honest accepts {accepts}/20, certified {certified}/20 (max distance "
        f"{max_honest_distance:.4f}); oracle on all "
        f"120 maps: overshoot {oracle_overshoot:.3e} (tol 1e-4), sampling deficit "
        f"{oracle_deficit:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_exact_mode_tomography_identity():
    t0 = time.perf_counter()
    eta = validate_metric(ETA2)
    design = default_design()
    responses = run_prover(honest_prover(), eta, design, 10, RngStream(seed=0), exact=True)
    recon = reconstruct(responses, design)
    channel = embedded_metric_channel(eta)
    worst = 0.0
    for k in range(50):
        rng = RngStream(seed=34000 + k)
        rho = random_density(rng, 3, start=0)
        via_map = (recon.linear_map @ rho.reshape(-1)).reshape(3, 3)
        worst = max(worst, float(np.max(np.abs(via_map - apply(channel, rho)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(9, ok, f"noiseless reconstruction equals the metric channel on 50 random inputs, max error {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert ok
