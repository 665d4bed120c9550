"""Tests for metric operators, the eta inner product, lifts and density validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq.errors import (
    DimMismatchError,
    InvalidDensityOperatorError,
    MetriqError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SupernormalizedError,
)
from metriq.hilbert import (
    StateVector,
    eta_adjoint,
    eta_inner,
    lift,
    lift_eta,
    representation_change,
    validate_density,
    validate_metric,
)
from metriq.rng import RngStream

ETA2 = np.array([[0.8, -0.2j], [0.2j, 0.8]])
ETA2_INV = np.array([[0.8, 0.2j], [-0.2j, 0.8]]) / 0.6

H_PT = np.array([[np.exp(1j * np.pi / 6), 2.0], [2.0, np.exp(-1j * np.pi / 6)]])
_DELTA = np.sqrt(4.0 - 0.25)
H_PT_HERM = np.array([[np.cos(np.pi / 6), _DELTA], [_DELTA, np.cos(np.pi / 6)]])


def random_metric(rng, dim):
    """Random positive definite matrix with spectrum well away from zero."""
    g = rng.normals(2 * dim * dim).view(complex).reshape(dim, dim)
    return g @ g.conj().T + 0.1 * np.eye(dim)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_metric_caches_spectrum():
    eta = validate_metric(ETA2)
    assert eta.dim == 2
    assert abs(eta.norm - 1.0) <= 1e-12
    assert eta.subidentity
    assert np.allclose(eta.eig.eigenvalues, [0.6, 1.0], atol=1e-12)


def test_validate_metric_above_identity_is_flagged_not_rejected():
    eta = validate_metric(np.diag([2.0, 0.5]))
    assert not eta.subidentity
    assert eta.norm == pytest.approx(2.0)


def test_validate_metric_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_metric(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_validate_metric_rejects_indefinite_and_singular():
    with pytest.raises(NotPositiveDefiniteError):
        validate_metric(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefiniteError):
        validate_metric(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError, match=r"empty, shape \(0, 0\)"):
        validate_metric(np.zeros((0, 0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_validate_metric_spectrum_is_finite_or_raises(entries):
    # a Hermitian matrix whose entries may lie anywhere up to the float maximum
    a, d, re, im = entries
    m = np.array([[a, complex(re, im)], [complex(re, -im), d]])
    try:
        eta = validate_metric(m)
    except MetriqError:
        return
    assert np.isfinite(eta.eig.eigenvalues).all()
    assert np.isfinite(eta.eig.eigenvectors).all()


def test_validate_density_rejects_empty():
    with pytest.raises(InvalidDensityOperatorError, match=r"empty, shape \(0, 0\)"):
        validate_density(np.zeros((0, 0)))


def test_metric_functional_calculus():
    eta = validate_metric(ETA2)
    root = eta.sqrt()
    assert np.max(np.abs(root @ root - ETA2)) <= 1e-12
    assert np.max(np.abs(eta.inv() @ ETA2 - np.eye(2))) <= 1e-12
    assert np.max(np.abs(eta.inv_sqrt() @ root - np.eye(2))) <= 1e-12


def test_metric_functions_equal_the_inline_spectral_form():
    # the parent's (v * f(lam)) @ v^dagger, bit for bit, on random and degenerate metrics
    rng = RngStream(seed=37)
    mats = [random_metric(rng.derive(k), dim) for k in range(20) for dim in (2, 3)]
    mats += [ETA2, np.eye(2), 0.5 * np.eye(3), np.diag([1.0, 1.0, 0.3])]
    for m in mats:
        eta = validate_metric(m)
        v, lam = eta.eig.eigenvectors, eta.eig.eigenvalues
        assert np.array_equal(eta.sqrt(), (v * np.sqrt(lam)) @ v.conj().T)
        assert np.array_equal(eta.inv_sqrt(), (v * (1.0 / np.sqrt(lam))) @ v.conj().T)
        assert np.array_equal(eta.inv(), (v * (1.0 / lam)) @ v.conj().T)


def test_state_vector_copies_and_freezes():
    raw = np.array([1.0, 0.0], dtype=complex)
    psi = StateVector(raw)
    raw[0] = 5.0
    assert psi.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0
    assert psi.dim == 2
    assert psi.norm() == pytest.approx(1.0)


def test_state_vector_rejects_empty_and_non_finite():
    with pytest.raises(MetriqError):
        StateVector([])
    with pytest.raises(MetriqError):
        StateVector([np.nan, 0.0])


# ---------------------------------------------------------------------------
# inner product and adjoint
# ---------------------------------------------------------------------------

def test_eta_inner_matrix_elements():
    eta = validate_metric(ETA2)
    e0 = StateVector([1.0, 0.0])
    e1 = StateVector([0.0, 1.0])
    assert eta_inner(eta, e0, e0) == pytest.approx(0.8)
    assert eta_inner(eta, e0, e1) == pytest.approx(-0.2j)
    assert eta_inner(eta, e1, e0) == pytest.approx(0.2j)


def test_eta_inner_conjugate_symmetry_and_positivity():
    rng = RngStream(seed=901)
    for i in range(30):
        sub = rng.derive(i)
        dim = 2 + (i % 3)
        eta = validate_metric(random_metric(sub, dim))
        phi = StateVector(sub.normals(2 * dim, start=1000).view(complex))
        psi = StateVector(sub.normals(2 * dim, start=2000).view(complex))
        a = eta_inner(eta, phi, psi)
        b = eta_inner(eta, psi, phi)
        assert a == pytest.approx(np.conj(b), abs=1e-10)
        assert eta_inner(eta, psi, psi).real > 0.0


def test_eta_inner_dim_mismatch():
    eta = validate_metric(ETA2)
    with pytest.raises(DimMismatchError):
        eta_inner(eta, StateVector([1.0, 0.0, 0.0]), StateVector([1.0, 0.0]))
    with pytest.raises(DimMismatchError):
        eta_inner(eta, StateVector([1.0, 0.0, 0.0]), StateVector([1.0, 0.0, 0.0]))


def test_pt_hamiltonian_is_eta_self_adjoint():
    # eta H eta^{-1} = H^dagger for the PT example, so H^# = H.
    eta = validate_metric(ETA2)
    assert np.max(np.abs(eta_adjoint(eta, H_PT) - H_PT)) <= 1e-12


def test_eta_adjoint_is_involutive_and_moves_inner_product():
    rng = RngStream(seed=902)
    for i in range(20):
        sub = rng.derive(i)
        dim = 2 + (i % 2)
        eta = validate_metric(random_metric(sub, dim))
        m = sub.normals(2 * dim * dim, start=500).view(complex).reshape(dim, dim)
        adj = eta_adjoint(eta, m)
        assert np.max(np.abs(eta_adjoint(eta, adj) - m)) <= 1e-9
        phi = StateVector(sub.normals(2 * dim, start=700).view(complex))
        psi = StateVector(sub.normals(2 * dim, start=800).view(complex))
        lhs = eta_inner(eta, phi, StateVector(m @ psi.amplitudes))
        rhs = eta_inner(eta, StateVector(adj @ phi.amplitudes), psi)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# representation change
# ---------------------------------------------------------------------------

def test_representation_change_recovers_pt_pair():
    eta = validate_metric(ETA2)
    eta_inv = validate_metric(ETA2_INV)
    assert np.max(np.abs(representation_change(eta_inv, H_PT) - H_PT_HERM)) <= 1e-12
    assert np.max(np.abs(representation_change(eta, H_PT_HERM) - H_PT)) <= 1e-12


def test_representation_change_preserves_spectrum_and_observables():
    rng = RngStream(seed=903)
    for i in range(20):
        sub = rng.derive(i)
        dim = 2 + (i % 3)
        mat = random_metric(sub, dim)
        eta = validate_metric(mat)
        eta_inv = validate_metric(np.linalg.inv(mat))
        m = sub.normals(2 * dim * dim, start=100).view(complex).reshape(dim, dim)
        # adjoint intertwines: moving M to the Euclidean picture turns the
        # eta adjoint into the ordinary dagger
        left = representation_change(eta_inv, eta_adjoint(eta, m))
        right = representation_change(eta_inv, m).conj().T
        assert np.max(np.abs(left - right)) <= 1e-8
        # expectation values agree between the two pictures
        psi = sub.normals(2 * dim, start=300).view(complex)
        psi_t = eta.sqrt() @ psi
        m_t = representation_change(eta_inv, m)
        lhs = np.vdot(psi, mat @ (m @ psi))
        rhs = np.vdot(psi_t, m_t @ psi_t)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_representation_change_shape_errors():
    eta = validate_metric(ETA2)
    with pytest.raises(DimMismatchError):
        representation_change(eta, np.zeros((3, 3)))
    with pytest.raises(DimMismatchError):
        representation_change(eta, np.zeros((2, 3)))
    with pytest.raises(DimMismatchError):
        eta_adjoint(eta, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------

def test_lift_projector():
    p = lift(StateVector([1.0, 0.0]))
    assert np.array_equal(p, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    sub = lift(StateVector([0.5, 0.0]))
    assert sub[0, 0] == pytest.approx(0.25)


def test_lift_rejects_supernormalized():
    with pytest.raises(SupernormalizedError):
        lift(StateVector([1.1, 0.0]))


def test_lift_eta_example():
    eta = validate_metric(ETA2)
    out = lift_eta(eta, StateVector([1.0, 0.0]))
    expected = np.array([[0.8, -0.2j], [0.0, 0.0]])
    assert np.max(np.abs(out - expected)) <= 1e-15


def test_lift_eta_trace_is_eta_norm_squared():
    rng = RngStream(seed=904)
    eta = validate_metric(ETA2)
    for i in range(10):
        v = rng.normals(4, start=10 * i).view(complex)
        v = v / (2.0 * np.linalg.norm(v))
        psi = StateVector(v)
        out = lift_eta(eta, psi)
        assert np.trace(out).real == pytest.approx(eta_inner(eta, psi, psi).real, abs=1e-12)


def test_lift_eta_gate_uses_eta_norm_not_euclidean():
    eta = validate_metric(ETA2)
    # Euclidean norm 1.1 but eta-norm^2 = 1.21 * 0.8 = 0.968 <= 1: allowed
    lift_eta(eta, StateVector([1.1, 0.0]))
    # eta-norm^2 = 1.44 * 0.8 = 1.152 > 1: rejected
    with pytest.raises(SupernormalizedError):
        lift_eta(eta, StateVector([1.2, 0.0]))



# ---------------------------------------------------------------------------
# density validation at its tolerances
# ---------------------------------------------------------------------------

# relative distances from a cutoff, from 1e-4 to 0.5 of it, on either side;
# roundoff in a trace or an entry of order 1 is about 1e-16, 1e-6 of 1e-10
_NEAR_CUTOFF = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-4.0, -0.3))


@settings(max_examples=200, deadline=None)
@given(_NEAR_CUTOFF)
def test_validate_density_trace_cutoff(offset):
    sign, exponent = offset
    tr = 1.0 + 1e-10 * (1.0 + sign * 10.0**exponent)
    rho = np.diag([tr, 0.0])
    if sign > 0:
        with pytest.raises(InvalidDensityOperatorError, match="trace"):
            validate_density(rho)
    else:
        assert np.array_equal(validate_density(rho), rho)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 6.0), _NEAR_CUTOFF)
def test_validate_density_eigenvalue_cutoff(log_top, offset):
    # the cutoff is -1e-10 * max(1, largest |entry|); the trace gate follows it
    sign, exponent = offset
    top = 10.0**log_top
    low = -1e-10 * max(1.0, top) * (1.0 + sign * 10.0**exponent)
    rho = np.diag([top, low])
    if sign > 0:
        with pytest.raises(InvalidDensityOperatorError, match="negative eigenvalue"):
            validate_density(rho)
    elif top + low > 1.0 + 1e-10:
        with pytest.raises(InvalidDensityOperatorError, match="trace"):
            validate_density(rho)
    else:
        assert np.array_equal(validate_density(rho), rho)
