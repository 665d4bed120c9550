import numpy as np
import pytest

from metriq.rng import RngStream
from metriq.tomography import _ORACLE_CHUNK


def test_chunking_does_not_change_draws():
    s = RngStream(123, 4)
    whole = s.uniforms(1000)
    parts = np.concatenate([s.uniforms(1), s.uniforms(499, start=1), s.uniforms(500, start=500)])
    assert np.array_equal(whole, parts)


def test_same_key_same_sequence():
    a = RngStream(2026, 1).uniforms(64, start=17)
    b = RngStream(2026, 1).uniforms(64, start=17)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RngStream(2027, 1).uniforms(64, start=17))
    assert not np.array_equal(a, RngStream(2026, 2).uniforms(64, start=17))


def test_derive_gives_decorrelated_stream():
    s = RngStream(5)
    children = [s.derive(k) for k in range(4)]
    seqs = [c.uniforms(32) for c in children]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(seqs[i], seqs[j])
    # derivation is itself deterministic
    assert np.array_equal(s.derive(2).uniforms(8), RngStream(5).derive(2).uniforms(8))


def test_uniform_range_and_moments():
    u = RngStream(99).uniforms(200000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean of U(0,1): sigma_mean = 1/sqrt(12 N)
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12 * u.size)


def test_normals_moments():
    z = RngStream(42).normals(200001, start=9)
    n = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 5.0 / np.sqrt(n)


def test_haar_states_unit_norm():
    st = RngStream(1).haar_states(50, 3)
    assert st.shape == (50, 3)
    assert np.abs(np.linalg.norm(st, axis=1) - 1.0).max() < 1e-12


def test_haar_unitary_is_unitary_and_deterministic():
    u = RngStream(8).haar_unitary(3, start=77)
    assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
    again = RngStream(8).haar_unitary(3, start=77)
    assert np.array_equal(u, again)


def test_haar_draws_read_the_normals_as_complex_pairs():
    # the pairwise form both draws used before they viewed the normals as complex
    def pairwise(z, shape):
        z = z.reshape(*shape, 2)
        return z[..., 0] + 1j * z[..., 1]

    rng = RngStream(0xB07E57A7E5)
    for dim in (2, 3):
        # 2000 states straddling the boundary between the oracle's first two chunks
        start = 2 * dim * (_ORACLE_CHUNK - 1000)
        psi = pairwise(rng.normals(2 * dim * 2000, start), (2000, dim))
        old = psi / np.linalg.norm(psi, axis=1, keepdims=True)
        new = rng.haar_states(2000, dim, start=start)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))

        g = pairwise(rng.normals(2 * dim * dim, start=77), (dim, dim))
        q = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            v = g[:, j].copy()
            for k in range(j):
                v -= np.vdot(q[:, k], g[:, j]) * q[:, k]
            q[:, j] = v / np.linalg.norm(v)
        assert np.array_equal(rng.haar_unitary(dim, start=77).view(np.uint64), q.view(np.uint64))


def test_negative_counts_and_starts_are_refused():
    s = RngStream(7)
    draws = (s.words, s.uniforms, s.normals, lambda count, start=0: s.haar_states(count, 3, start))
    for draw in draws:
        with pytest.raises(ValueError, match="nonnegative"):
            draw(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            draw(5, start=-1)
        assert len(draw(0)) == 0


def test_seed_masking():
    # seeds wrap at 64 bits instead of growing as Python bigints
    a = RngStream(2**64 + 3).uniforms(4)
    b = RngStream(3).uniforms(4)
    assert np.array_equal(a, b)


def test_integer_finalizer_matches_the_python_int_form():
    from metriq.rng import _MASK, _MIX_A, _MIX_B, _SALT_SEED, _SALT_STREAM, _mix64_int

    # the finalizer as it was once written on Python integers
    def reference(x):
        z = x & _MASK
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
        return (z ^ (z >> 31)) & _MASK

    words = [int(w) for w in RngStream(17).words(1000)]
    for x in [0, 2**64 - 1, _SALT_SEED, _SALT_STREAM, 2**64, 2**70 + 5, *words]:
        got = _mix64_int(x)
        assert type(got) is int and got == reference(x), x
