"""Tests for the PT family: metric closed forms, Hermitization, analytic dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq.errors import (
    BrokenPtRegimeError,
    InvalidDensityOperatorError,
    MetriqError,
    NegativeParameterError,
)
from metriq.linalg import matrix_exp_hermitian_generator, operator_norm
from metriq.ptsym import (
    PtHamiltonian,
    analytic_pt_evolution,
    build_pt_system,
    u_pt,
)
from metriq.rng import RngStream

# sweep over the unbroken region used by several invariants
SWEEP = [
    PtHamiltonian(r=r, s=s, phi=phi)
    for r in (0.0, 0.5, 1.0)
    for s in (1.0, 2.0)
    for phi in (0.0, math.pi / 6, math.pi / 3)
    if s > r * math.sin(phi)
]

REF = PtHamiltonian(r=1.0, s=2.0, phi=math.pi / 6)


def test_parameter_validation():
    with pytest.raises(NegativeParameterError):
        PtHamiltonian(r=-0.1, s=1.0, phi=0.0)
    with pytest.raises(NegativeParameterError):
        PtHamiltonian(r=1.0, s=0.0, phi=0.0)
    with pytest.raises(NegativeParameterError):
        PtHamiltonian(r=1.0, s=math.inf, phi=0.0)
    # negative r sin(phi) is outside the covered region even though s is large
    with pytest.raises(BrokenPtRegimeError):
        PtHamiltonian(r=1.0, s=5.0, phi=-math.pi / 6)
    # at and past the exceptional point
    with pytest.raises(BrokenPtRegimeError):
        PtHamiltonian(r=1.0, s=math.sin(math.pi / 3), phi=math.pi / 3)
    with pytest.raises(BrokenPtRegimeError):
        PtHamiltonian(r=2.0, s=1.0, phi=math.pi / 2)


def test_reference_closed_forms():
    sys = build_pt_system(REF)
    assert np.max(np.abs(sys.eta2.matrix - np.array([[0.8, -0.2j], [0.2j, 0.8]]))) <= 1e-15
    expected_inv = np.array([[0.8, 0.2j], [-0.2j, 0.8]]) / 0.6
    assert np.max(np.abs(sys.eta2_inv.matrix - expected_inv)) <= 1e-14
    assert sys.kappa == pytest.approx(0.6, abs=1e-15)
    delta = math.sqrt(3.75)
    h = np.array([[math.cos(math.pi / 6), delta], [delta, math.cos(math.pi / 6)]])
    assert np.max(np.abs(sys.h_pt_hermitian - h)) <= 1e-15
    assert abs(sys.eta2.norm - 1.0) <= 1e-12


def test_hermitian_limit():
    sys = build_pt_system(PtHamiltonian(r=0.0, s=1.7, phi=0.3))
    assert np.max(np.abs(sys.eta2.matrix - np.eye(2))) == 0.0
    assert sys.kappa == 1.0
    assert np.max(np.abs(sys.h_matrix - sys.h_matrix.conj().T)) <= 1e-15


def test_quasi_hermiticity_and_hermitization_sweep():
    for p in SWEEP:
        sys = build_pt_system(p)
        h = sys.h_matrix
        eta = sys.eta2.matrix
        assert operator_norm(h.conj().T - eta @ h @ sys.eta2_inv.matrix) <= 1e-10
        assert operator_norm(sys.h_pt_hermitian - sys.h_pt_hermitian.conj().T) <= 1e-10
        # metric pair really is a matrix inverse pair
        assert np.max(np.abs(eta @ sys.eta2_inv.matrix - np.eye(2))) <= 1e-12


def test_real_spectrum_and_gap_collapse_at_boundary():
    for p in SWEEP:
        sys = build_pt_system(p)
        vals = np.linalg.eigvals(sys.h_matrix)
        assert np.max(np.abs(vals.imag)) <= 1e-10
        spread = abs(vals[0] - vals[1])
        assert spread == pytest.approx(2.0 * p.gap_parameter, abs=1e-10)
    # approaching the exceptional point the gap closes like sqrt(eps)
    eps = 1e-3
    near = PtHamiltonian(r=1.0, s=math.sin(math.pi / 2) + eps, phi=math.pi / 2)
    assert 2.0 * near.gap_parameter <= 0.1


def test_u_pt_identity_and_intertwining():
    sys = build_pt_system(REF)
    assert np.array_equal(u_pt(sys, 0.0), np.eye(2, dtype=complex))
    for t in (0.1, 1.0, 5.0):
        u = u_pt(sys, t)
        via_h = sys.eta2.inv_sqrt() @ matrix_exp_hermitian_generator(
            sys.h_pt_hermitian, t
        ) @ sys.eta2.sqrt()
        assert np.max(np.abs(u - via_h)) <= 1e-10
        # equivalently e^{-i h t} = eta^{1/2} U eta^{-1/2}
        lhs = matrix_exp_hermitian_generator(sys.h_pt_hermitian, t)
        rhs = sys.eta2.sqrt() @ u @ sys.eta2.inv_sqrt()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_u_pt_eigenphases_at_reference_point():
    # E_pm = r cos(phi) +- sqrt(s^2 - r^2 sin^2 phi) by hand diagonalization
    e_plus = 2.8025170768881473
    e_minus = -1.0704662693192697
    u = u_pt(build_pt_system(REF), 1.0)
    got = np.sort(np.angle(np.linalg.eigvals(u)))
    want = np.sort([math.remainder(-e_plus, 2 * math.pi), math.remainder(-e_minus, 2 * math.pi)])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_u_pt_unitary_only_in_hermitian_limit():
    sys0 = build_pt_system(PtHamiltonian(r=0.0, s=2.0, phi=0.9))
    for t in (0.3, 2.0, 11.0):
        u = u_pt(sys0, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
    u_ref = u_pt(build_pt_system(REF), 1.0)
    assert np.max(np.abs(u_ref.conj().T @ u_ref - np.eye(2))) > 1e-3


def test_analytic_evolution_t0_and_hermitian_limit():
    sys = build_pt_system(REF)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    state, prob = analytic_pt_evolution(sys, rho, 0.0)
    assert np.max(np.abs(state - rho)) <= 1e-14
    assert prob == pytest.approx(0.6, abs=1e-14)

    sys0 = build_pt_system(PtHamiltonian(r=0.0, s=1.0, phi=0.0))
    u = u_pt(sys0, 0.7)
    state, prob = analytic_pt_evolution(sys0, rho, 0.7)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(state - u @ rho @ u.conj().T)) <= 1e-12


def test_analytic_evolution_probability_is_kappa_weighted_trace():
    sys = build_pt_system(REF)
    rng = RngStream(seed=921)
    for i in range(20):
        g = rng.normals(8, start=10 * i).view(complex).reshape(2, 2)
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        t = 0.5 * i
        state, prob = analytic_pt_evolution(sys, rho, t)
        u = u_pt(sys, t)
        raw = u @ rho @ u.conj().T
        assert prob == pytest.approx(0.6 * np.trace(raw).real, abs=1e-12)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < prob <= 1.0 + 1e-12


def test_analytic_evolution_rejects_bad_states():
    sys = build_pt_system(REF)
    with pytest.raises(InvalidDensityOperatorError):
        analytic_pt_evolution(sys, np.array([[1.0, 0.5], [-0.5, 0.0]]), 1.0)
    with pytest.raises(InvalidDensityOperatorError):
        analytic_pt_evolution(sys, np.diag([2.0, 0.0]), 1.0)
    with pytest.raises(InvalidDensityOperatorError):
        analytic_pt_evolution(sys, np.zeros((2, 2)), 1.0)
    with pytest.raises(InvalidDensityOperatorError):
        analytic_pt_evolution(sys, np.eye(3) / 3.0, 1.0)



@settings(max_examples=300, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(1e-3, math.pi - 1e-3), st.floats(-12.0, -2.0))
def test_build_pt_system_near_the_exceptional_point(log_r, phi, log_gap):
    # s -> r sin(phi) from above, with relative gaps from 1e-12 to 1e-2
    r = 10.0**log_r
    s = r * math.sin(phi) * (1.0 + 10.0**log_gap)
    try:
        sys = build_pt_system(PtHamiltonian(r=r, s=s, phi=phi))
    except MetriqError:
        return
    assert math.isfinite(sys.kappa) and 0.0 < sys.kappa <= 1.0
    for m in (sys.h_matrix, sys.eta2.matrix, sys.eta2_inv.matrix, sys.h_pt_hermitian):
        assert np.all(np.isfinite(m))
    eta, h = sys.eta2.matrix, sys.h_matrix
    assert operator_norm(eta @ h - h.conj().T @ eta) <= 1e-10 * max(1.0, s + r)
