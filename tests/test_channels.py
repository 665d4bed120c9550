"""Tests for the metric channels, their reversal, and the Choi certificates."""

import numpy as np
import pytest

from metriq.channels import (
    KrausChannel,
    apply,
    apply_e_eta,
    choi,
    compose,
    g_eta,
    g_kappa_eta_inv,
    is_trace_nonincreasing,
    kraus_channel,
    scaled_metric,
    superoperator,
)
from metriq.errors import DimMismatchError, MetricExceedsIdentityError, MetriqError
from metriq.hilbert import validate_metric
from metriq.rng import RngStream

ETA2 = np.array([[0.8, -0.2j], [0.2j, 0.8]])
Q = np.sqrt(0.6)
# closed form of eta2^{1/2} from the rank-1 spectral projectors
ETA2_SQRT = np.array(
    [[(1 + Q) / 2, -1j * (1 - Q) / 2], [1j * (1 - Q) / 2, (1 + Q) / 2]]
)


def random_density(rng, dim, start=0):
    g = rng.normals(2 * dim * dim, start=start).view(complex).reshape(dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_kraus_channel_shapes():
    ch = kraus_channel([np.zeros((3, 2)), np.ones((3, 2))])
    assert ch.dim_in == 2 and ch.dim_out == 3
    with pytest.raises(DimMismatchError):
        kraus_channel([np.zeros((2, 2)), np.zeros((3, 2))])
    with pytest.raises(MetriqError):
        kraus_channel([])
    for empty in [np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0))]:
        with pytest.raises(DimMismatchError, match=rf"\({empty.shape[0]}, {empty.shape[1]}\) is empty"):
            kraus_channel([empty])
    with pytest.raises(DimMismatchError, match="empty"):
        KrausChannel((np.zeros((0, 0)),), dim_in=0, dim_out=0)


def test_kraus_channel_accepts_unphysical_operators():
    # shape checking only at construction; the trace certificate is separate
    ch = kraus_channel([np.sqrt(2.0) * np.eye(2)])
    assert isinstance(ch, KrausChannel)
    assert not is_trace_nonincreasing(ch)


def test_g_eta_kraus_is_metric_root():
    ch = g_eta(validate_metric(ETA2))
    assert len(ch.kraus_ops) == 1
    assert np.max(np.abs(ch.kraus_ops[0] - ETA2_SQRT)) <= 1e-12
    assert is_trace_nonincreasing(ch)


def test_g_eta_requires_subidentity():
    with pytest.raises(MetricExceedsIdentityError):
        g_eta(validate_metric(np.diag([2.0, 0.5])))


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_g_eta_action_on_basis_projector():
    ch = g_eta(validate_metric(ETA2))
    out = apply(ch, np.array([[1.0, 0.0], [0.0, 0.0]]))
    expected = np.array([[0.4 + Q / 2, -0.1j], [0.1j, 0.4 - Q / 2]])
    assert np.max(np.abs(out - expected)) <= 1e-13
    assert np.trace(out).real == pytest.approx(0.8, abs=1e-13)


def test_g_eta_success_probability_is_trace_against_metric():
    rng = RngStream(seed=911)
    eta = validate_metric(ETA2)
    ch = g_eta(eta)
    for i in range(20):
        rho = random_density(rng, 2, start=10 * i)
        out = apply(ch, rho)
        assert np.trace(out).real == pytest.approx(
            np.trace(rho @ ETA2).real, abs=1e-12
        )


def test_e_eta_is_representation_change_of_g_eta():
    from metriq.hilbert import representation_change

    rng = RngStream(seed=912)
    eta = validate_metric(ETA2)
    for i in range(10):
        m = rng.normals(8, start=10 * i).view(complex).reshape(2, 2)
        direct = apply_e_eta(eta, m)
        factored = representation_change(eta, eta.sqrt() @ m @ eta.sqrt())
        assert np.max(np.abs(direct - m @ ETA2)) <= 1e-14
        assert np.max(np.abs(direct - factored)) <= 1e-12


def test_apply_e_eta_errors():
    eta = validate_metric(ETA2)
    with pytest.raises(DimMismatchError):
        apply_e_eta(eta, np.zeros((2, 3)))
    with pytest.raises(DimMismatchError):
        apply_e_eta(eta, np.zeros((3, 3)))
    with pytest.raises(MetricExceedsIdentityError):
        apply_e_eta(validate_metric(np.diag([2.0, 1.0])), np.eye(2))


def test_apply_shape_check():
    ch = g_eta(validate_metric(ETA2))
    with pytest.raises(DimMismatchError):
        apply(ch, np.eye(3))


# ---------------------------------------------------------------------------
# scaling and reversal
# ---------------------------------------------------------------------------

def test_scaled_metric_passthrough_when_subidentity():
    eta = validate_metric(ETA2)
    kappa, scaled = scaled_metric(eta)
    assert kappa == 1.0
    assert scaled is eta


def test_scaled_metric_rescales_to_unit_norm():
    kappa, scaled = scaled_metric(validate_metric(np.diag([4.0, 1.0])))
    assert kappa == pytest.approx(0.25)
    assert scaled.subidentity
    assert np.allclose(scaled.matrix, np.diag([1.0, 0.25]))
    rng = RngStream(seed=913)
    for i in range(10):
        g = rng.normals(18, start=20 * i).view(complex).reshape(3, 3)
        eta = validate_metric(g @ g.conj().T + 0.2 * np.eye(3))
        kappa, scaled = scaled_metric(eta)
        assert np.max(np.abs(scaled.matrix - kappa * eta.matrix)) <= 1e-14
        assert scaled.norm <= 1.0 + 1e-12


def test_reversal_kappa_and_kraus():
    eta = validate_metric(ETA2)
    kappa, rev = g_kappa_eta_inv(eta)
    assert kappa == pytest.approx(0.6, abs=1e-13)
    expected = np.sqrt(0.6) * np.linalg.inv(ETA2_SQRT)
    assert np.max(np.abs(rev.kraus_ops[0] - expected)) <= 1e-12
    assert is_trace_nonincreasing(rev)


def test_reversal_composes_to_kappa_identity_both_orders():
    rng = RngStream(seed=914)
    for i in range(15):
        sub = rng.derive(i)
        dim = 2 + (i % 3)
        g = sub.normals(2 * dim * dim).view(complex).reshape(dim, dim)
        raw = validate_metric(g @ g.conj().T + 0.1 * np.eye(dim))
        _, eta = scaled_metric(raw)
        kappa, rev = g_kappa_eta_inv(eta)
        forward = g_eta(eta)
        rho = random_density(sub, dim, start=1000)
        for comp in (compose(rev, forward), compose(forward, rev)):
            assert np.max(np.abs(apply(comp, rho) - kappa * rho)) <= 1e-10


def test_compose_dim_mismatch():
    two = g_eta(validate_metric(ETA2))
    three = g_eta(validate_metric(np.eye(3) * 0.5))
    with pytest.raises(DimMismatchError):
        compose(two, three)


# ---------------------------------------------------------------------------
# superoperator and Choi forms
# ---------------------------------------------------------------------------

def test_superoperator_matches_apply():
    rng = RngStream(seed=915)
    eta = validate_metric(ETA2)
    ch = g_eta(eta)
    mat = superoperator(ch)
    for i in range(10):
        rho = random_density(rng, 2, start=10 * i)
        via_mat = (mat @ rho.reshape(-1)).reshape(2, 2)
        assert np.max(np.abs(via_mat - apply(ch, rho))) <= 1e-13


def test_superoperator_of_composition_is_product():
    eta = validate_metric(ETA2)
    _, rev = g_kappa_eta_inv(eta)
    fwd = g_eta(eta)
    lhs = superoperator(compose(rev, fwd))
    rhs = superoperator(rev) @ superoperator(fwd)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_choi_of_identity_is_maximally_entangled():
    c = choi(kraus_channel([np.eye(2)]))
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert np.max(np.abs(c.matrix - 2.0 * np.outer(bell, bell.conj()))) <= 1e-15


def test_choi_certificate_for_metric_channel():
    eta = validate_metric(ETA2)
    c = choi(g_eta(eta))
    vals = np.linalg.eigvalsh(c.matrix)
    assert vals[0] >= -1e-12
    assert np.trace(c.matrix).real == pytest.approx(1.6, abs=1e-12)


def test_choi_reconstructs_channel_action():
    rng = RngStream(seed=916)
    eta = validate_metric(ETA2)
    ch = g_eta(eta)
    c4 = choi(ch).matrix.reshape(2, 2, 2, 2)
    for i in range(10):
        rho = random_density(rng, 2, start=10 * i)
        rebuilt = np.einsum("ij,iajb->ab", rho, c4)
        assert np.max(np.abs(rebuilt - apply(ch, rho))) <= 1e-13


def test_choi_equals_the_vec_outer_product_sum():
    # the parent's construction, sum_k vec_col(K) vec_col(K)^dagger, bit for bit
    rng = RngStream(seed=53)
    for dim_in, dim_out in ((2, 3), (3, 2), (3, 3)):
        for count in (1, 2, 3, 4):
            start = 1000 * (10 * dim_in + dim_out) + 100 * count
            g = rng.normals(2 * count * dim_in * dim_out, start=start).view(complex)
            ch = kraus_channel(list(g.reshape(count, dim_out, dim_in)))
            size = dim_in * dim_out
            want = np.zeros((size, size), dtype=complex)
            for k in ch.kraus_ops:
                v = np.ravel(k, order="F")
                want += np.outer(v, v.conj())
            c = choi(ch)
            assert np.array_equal(c.matrix, want)
            assert (c.dim_in, c.dim_out) == (dim_in, dim_out)
