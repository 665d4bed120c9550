import numpy as np
import pytest

from metriq.errors import MetriqError, NotHermitianError, NotPsdError, NotSquareError
from metriq.linalg import (
    _fix_phases,
    hermitian_eig,
    kron,
    matrix_exp_hermitian_generator,
    operator_norm,
    psd_sqrt,
    trace_norm,
)

ETA2 = np.array([[0.8, -0.2j], [0.2j, 0.8]])
Q = np.sqrt(0.6)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def test_eigenvalues_diagonal_case():
    es = hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(es.eigenvalues, [1.0, 2.0], atol=1e-14)


def test_eigenvalues_pauli_x():
    es = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_eta2():
    es = hermitian_eig(ETA2)
    assert np.abs(es.eigenvalues - np.array([0.6, 1.0])).max() < 1e-12


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 9):
        for _ in range(25):
            m = random_hermitian(rng, n)
            es = hermitian_eig(m)
            v, lam = es.eigenvectors, es.eigenvalues
            scale = operator_norm(m)
            assert operator_norm(m - (v * lam) @ v.conj().T) <= 1e-12 * max(scale, 1e-300)
            assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
            assert np.all(np.diff(lam) >= -1e-14)
            # independent oracle
            assert np.abs(lam - np.linalg.eigvalsh(m)).max() < 1e-12 * max(1.0, scale)


def test_eig_phase_convention_and_determinism():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 3)
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(3):
        col = a.eigenvectors[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-13 and lead.real > 0


def test_eig_rejects_bad_input():
    with pytest.raises(NotSquareError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a non-finite real or imaginary part alone is refused
    for bad in (np.nan, complex(1.0, np.inf), complex(1.0, np.nan)):
        with pytest.raises(MetriqError, match="entries must be finite"):
            hermitian_eig(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_hermitian_input_skips_the_svd_norms(monkeypatch):
    # the gate's two 2-norms are SVDs; a Hermitian matrix passes on a cheaper bound
    orders = []
    norm = np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        orders.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    rng = np.random.default_rng(44)
    for m in (ETA2, random_hermitian(rng, 3), random_hermitian(rng, 9), np.eye(1), np.diag([1e300, -1e-300])):
        hermitian_eig(m)
    assert 2 not in orders
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert 2 in orders


def test_psd_sqrt_examples():
    assert np.abs(psd_sqrt(np.eye(3)) - np.eye(3)).max() < 1e-14
    assert np.abs(psd_sqrt(np.diag([4.0, 1.0])) - np.diag([2.0, 1.0])).max() < 1e-14
    expected = np.array([[(1 + Q) / 2, -1j * (1 - Q) / 2], [1j * (1 - Q) / 2, (1 + Q) / 2]])
    assert np.abs(psd_sqrt(ETA2) - expected).max() < 1e-12


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for _ in range(30):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = g @ g.conj().T
            r = psd_sqrt(m)
            assert np.abs(r - r.conj().T).max() < 1e-13
            assert operator_norm(r @ r - m) <= 1e-10 * max(1.0, operator_norm(m))


def test_psd_sqrt_negative_eigenvalue():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.5]))
    # roundoff-scale negatives clip silently
    r = psd_sqrt(np.diag([1.0, -5e-11]))
    assert r[1, 1] == 0


def test_operator_norm_examples():
    assert abs(operator_norm(np.eye(3)) - 1.0) < 1e-14
    eta2_inv = np.linalg.inv(ETA2)
    assert abs(operator_norm(eta2_inv) - 5.0 / 3.0) < 1e-12
    assert abs(operator_norm(np.diag([0.3, -0.8])) - 0.8) < 1e-14


def test_trace_norm_examples():
    assert abs(trace_norm(np.eye(3)) - 3.0) < 1e-13
    assert abs(trace_norm(np.diag([0.4, -0.4])) - 0.8) < 1e-13
    d = np.diag([1.0, 0.6, 1.0]) - np.eye(3)
    assert abs(trace_norm(d) - 0.4) < 1e-12


def test_norms_against_svd_oracle():
    rng = np.random.default_rng(3)
    for shape in ((2, 2), (3, 3), (9, 9), (3, 5)):
        for _ in range(10):
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            sv = np.linalg.svd(g, compute_uv=False)
            assert abs(operator_norm(g) - sv[0]) < 1e-11 * max(1.0, sv[0])
            if shape[0] == shape[1]:
                assert abs(trace_norm(g) - sv.sum()) < 1e-10 * max(1.0, sv.sum())


def test_trace_norm_dominates_operator_norm():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert trace_norm(g) >= operator_norm(g) - 1e-12
    # equality on rank-1 samples
    for _ in range(10):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        m = np.outer(u, v.conj())
        assert abs(trace_norm(m) - operator_norm(m)) < 1e-6


def test_kron():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(np.diag([1, 2]), np.diag([3, 4])), np.diag([3.0, 4.0, 6.0, 8.0]))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    top = np.diag([1.0, 0.0])
    out = kron(top, sx)
    assert np.allclose(out[:2, :2], sx) and np.abs(out[2:, 2:]).max() == 0


def test_matrix_exp_trivial_and_diagonal():
    assert np.abs(matrix_exp_hermitian_generator(np.zeros((2, 2)), 3.7) - np.eye(2)).max() < 1e-14
    sz = np.diag([1.0, -1.0])
    u = matrix_exp_hermitian_generator(sz, np.pi / 2)
    assert np.abs(u - np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])).max() < 1e-12


def test_matrix_exp_hpt_eigenphases():
    # r=1, s=2, phi=pi/6 Hermitized Hamiltonian; energies cos(pi/6) +- sqrt(3.75)
    hpt = np.array([[np.sqrt(3) / 2, np.sqrt(3.75)], [np.sqrt(3.75), np.sqrt(3) / 2]])
    u = matrix_exp_hermitian_generator(hpt, 1.0)
    assert operator_norm(u @ u.conj().T - np.eye(2)) < 1e-10
    e_plus = 2.8025170768881473
    e_minus = -1.0704662693192697
    got = np.sort(np.angle(np.linalg.eigvals(u)))
    want = np.sort([np.angle(np.exp(-1j * e_plus)), np.angle(np.exp(-1j * e_minus))])
    assert np.abs(got - want).max() < 1e-10


def test_matrix_exp_inverse_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        h = random_hermitian(rng, 3)
        u = matrix_exp_hermitian_generator(h, 0.83)
        w = matrix_exp_hermitian_generator(h, -0.83)
        assert operator_norm(u @ w - np.eye(3)) < 1e-10
    with pytest.raises(NotHermitianError):
        matrix_exp_hermitian_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_matrix_exp_rejects_non_finite_time():
    for t in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(MetriqError, match="time must be finite"):
            matrix_exp_hermitian_generator(ETA2, t)


# ---------------------------------------------------------------------------
# one spectral path: each result equals the inline form it replaced, bit for bit
# ---------------------------------------------------------------------------

def spectral_inputs(rng):
    """Seeded random Hermitian matrices plus degenerate and rank-deficient ones."""
    mats = [random_hermitian(rng, n) for n in (1, 2, 3, 5, 9) for _ in range(20)]
    for n in (2, 3, 9):
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        for lam in (np.ones(n), np.round(rng.normal(size=n)), np.r_[np.zeros(n - 1), 2.0]):
            mats.append(q @ np.diag(lam) @ q.conj().T)
            mats.append(np.diag(lam).astype(complex))
    return [(m + m.conj().T) / 2 for m in mats]


def old_fix_phases(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            out[:, k] = col * (np.conj(pivot) / abs(pivot))
    return out


def test_vectorized_phase_fix_equals_the_column_loop():
    for m in spectral_inputs(np.random.default_rng(41)):
        vectors = np.linalg.eigh(m)[1]
        assert np.array_equal(_fix_phases(vectors), old_fix_phases(vectors))
    empty = hermitian_eig(np.zeros((0, 0)))
    assert empty.eigenvalues.shape == (0,) and empty.eigenvectors.shape == (0, 0)
    assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)


def test_matrix_functions_equal_the_inline_spectral_form():
    for m in spectral_inputs(np.random.default_rng(43)):
        for a in (m, m @ m):  # psd_sqrt clips m's negative eigenvalues above -1e-10 only
            eig = hermitian_eig(a)
            v, lam = eig.eigenvectors, eig.eigenvalues
            if lam.size and lam[0] >= -1e-10:
                root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
                assert np.array_equal(psd_sqrt(a), (root + root.conj().T) / 2.0)
            for t in (0.0, 0.83, -2.5):
                phases = np.exp(-1j * lam * float(t))
                assert np.array_equal(matrix_exp_hermitian_generator(a, t), (v * phases) @ v.conj().T)
